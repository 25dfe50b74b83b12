"""Reference implementations and bounds that only the tests use.

The library never calls these: they are closed forms and generic kernels
the tests compare the pipeline against.  The three `ideal_p0_*` oracles
give the ancilla probability each encoded route should realize, `mat_fun`
applies a scalar function through the spectrum, and
`propagate_entropy_error` bounds the entropy error a trace-functional
error delta induces, which checks that every budget is sound.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from entropybench.accountant import _INT_TOL
from entropybench.numkernel import HermMatrix, herm_with_spectrum
from entropybench.states import DensityMatrix, StateMeta, exact_entropies

# operator-norm bound for eigendecomposition round trips
RECONSTRUCTION_TOL = 1e-10
# operator-norm bound for orthonormality of eigenvector sets
ORTHONORMALITY_TOL = 1e-10


def ideal_p0_case1(rho: DensityMatrix, k: int, c: float) -> float:
    """Closed-form ancilla probability for the positive-power route.

    (pi/4)^(alpha-1) * Tr rho^alpha with alpha = 2k+1+c.
    """
    alpha = 2 * k + 1 + c
    if alpha <= 0:
        raise ValueError("order must be positive")
    t = exact_entropies(rho, alpha).tr_pow_alpha if alpha != 1 else 1.0
    return (math.pi / 4.0) ** (alpha - 1.0) * t


def ideal_p0_case2(rho: DensityMatrix, k: int, c: float, assume_support: bool = False) -> float:
    """Closed-form ancilla probability for the negative-power route.

    (1/4) (pi/4)^(2k) (1/rho_min)^c * Tr rho^alpha with alpha = 2k+1+c.
    Rank-deficient states are rejected unless the caller vouches for a
    support restriction (negative powers are undefined at 0).
    """
    alpha = 2 * k + 1 + c
    if alpha <= 0:
        raise ValueError("order must be positive")
    meta = rho.meta
    if meta.rank < rho.dim and not assume_support:
        raise ValueError(
            "state is rank deficient; project onto its support before taking negative powers"
        )
    t = exact_entropies(rho, alpha).tr_pow_alpha if alpha != 1 else 1.0
    return 0.25 * (math.pi / 4.0) ** (2 * k) * meta.rho_min ** (-c) * t


def ideal_p0_sub_one(rho: DensityMatrix, alpha: float) -> float:
    """Closed-form ancilla probability for orders below one.

    pi^alpha / (4^(alpha+1) * d) * Tr rho^alpha, the outcome of hitting
    the maximally mixed input with the half-power transform.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"order must be in (0, 1), got {alpha}")
    t = exact_entropies(rho, alpha).tr_pow_alpha
    return math.pi**alpha / (4.0 ** (alpha + 1.0) * rho.dim) * t


def mat_fun(a: HermMatrix, f: Callable[[float], float]) -> HermMatrix:
    """Apply a real scalar function to the spectrum: V diag(f(lambda)) V^dagger."""
    spec = a.spectrum
    vals = []
    for lam in spec.eigenvalues:
        y = f(float(lam))
        if not np.isfinite(y):
            raise ValueError(f"function undefined at eigenvalue {float(lam)!r} (got {y!r})")
        vals.append(float(y))
    v = spec.eigenvectors
    w = np.asarray(vals, dtype=float)
    out = (v * w) @ v.conj().T
    return herm_with_spectrum((out + out.conj().T) / 2.0, w, v)


def propagate_entropy_error(delta: float, alpha: float, meta: StateMeta) -> float:
    """Entropy-error upper bound induced by a trace-functional error delta.

    Uses the rank form 2 delta r^(alpha-1)/|1-alpha| above order 2, the
    rank form 2 delta r/|1-alpha| on (1, 2], and the purity form
    2 delta / (|1-alpha| (Tr rho^2)^(alpha-1)) below order 1.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if abs(alpha - 1.0) <= _INT_TOL:
        raise ValueError("no propagation bound at order 1 (the prefactor 1/|1-alpha| diverges)")
    one = abs(1.0 - alpha)
    if alpha > 2.0:
        return 2.0 * delta * meta.rank ** (alpha - 1.0) / one
    if alpha > 1.0:
        return 2.0 * delta * meta.rank / one
    if alpha > 0.0:
        return 2.0 * delta / (one * meta.purity ** (alpha - 1.0))
    raise ValueError(f"order must be positive, got {alpha}")
