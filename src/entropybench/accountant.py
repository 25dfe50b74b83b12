"""Regime dispatch, accuracy budgets, and predicted sample counts.

The entropy order alpha is decomposed as alpha = 2k+1+c with 2k+1 odd
and |c| < 1; the sign of c picks the positive- or negative-power route.
Budgets translate a desired entropy accuracy eps into the accuracy
delta required of the underlying trace-functional estimate, and
predicted sample counts evaluate the protocol cost formulas with every
suppressed constant set to 1 and natural logarithms throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .states import StateMeta

_INT_TOL = 1e-9
# the binomial sampler draws counts as 64-bit integers
MAX_SHOTS = 2**63 - 1


@dataclass(frozen=True)
class RegimeDecomposition:
    alpha: float
    k: int
    c: float
    branch: str  # integer | odd_floor | even_floor | sub_one | von_neumann

    def __post_init__(self):
        if self.branch not in ("integer", "odd_floor", "even_floor", "sub_one", "von_neumann"):
            raise ValueError(f"unknown branch {self.branch!r}")


@dataclass(frozen=True)
class Budget:
    """delta is the accuracy required of the trace-functional estimate.

    measure_delta is the accuracy the raw ancilla statistic must reach
    to deliver delta; the two differ only below order 1, where the
    recovery multiplies the measured probability by the dimension and
    the measurement accuracy is rescaled by 1/(2 dim) (ae) or 1/(4 dim)
    (sampling).  shots always follows measure_delta.
    """

    delta: float
    shots: int
    predicted_samples: int
    measure_delta: float

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")


def decompose_alpha(alpha: float) -> RegimeDecomposition:
    """Classify alpha and extract (k, c) with 2k+1 odd.

    Integer orders get c = 0; for even integers no odd 2k+1 with |c| < 1
    exists, so k is the largest with 2k+1 < alpha and the exact identity
    alpha = 2k+1+c holds for odd integers and all non-integers only.
    Orders are snapped to a nearby integer n >= 1 only: a tiny positive
    order is below one, not the integer 0.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"order must be positive and finite, got {alpha}")
    near = round(alpha)
    if near >= 1 and abs(alpha - near) <= _INT_TOL:
        n = int(near)
        if n == 1:
            return RegimeDecomposition(alpha=alpha, k=0, c=0.0, branch="von_neumann")
        return RegimeDecomposition(alpha=alpha, k=(n - 1) // 2, c=0.0, branch="integer")
    if alpha < 1.0:
        return RegimeDecomposition(alpha=alpha, k=0, c=alpha - 1.0, branch="sub_one")
    # nearest odd integer below/above within distance 1
    k = int(math.floor((alpha - 1.0) / 2.0 + 0.5))
    c = alpha - (2 * k + 1)
    assert abs(c) < 1.0
    branch = "odd_floor" if c > 0 else "even_floor"
    return RegimeDecomposition(alpha=alpha, k=k, c=c, branch=branch)


# Shot multiplier: the default of 4 is calibrated so seeded runs hit >= 95%
# empirical coverage on the statistical fixtures; 1 reproduces the bare
# 1/delta^2 bookkeeping.
C_SHOTS = 4.0


def shots_for(mode: str, delta: float, c_shots: float = C_SHOTS) -> int:
    """Shots at accuracy delta: ceil(c_shots/delta^2) Bernoulli draws, or
    ceil(c_shots/delta) queries in the amplitude-estimation model.

    Raises ValueError when the count is not finite or exceeds MAX_SHOTS,
    the largest count the sampler can draw.
    """
    try:
        n = c_shots / delta if mode == "amplitude_estimation" else c_shots / delta**2
    except ZeroDivisionError:  # delta or delta**2 is 0
        n = math.inf
    except OverflowError:  # delta**2 exceeds the float range: the count rounds to 0
        n = 0.0
    if not (math.isfinite(n) and n <= MAX_SHOTS):
        raise ValueError(
            f"accuracy {delta:.3e} needs {n:.3e} shots at c_shots={c_shots:g}, "
            f"not a finite count of at most {MAX_SHOTS:.3e}"
        )
    return int(math.ceil(n))


def _accuracy(regime: RegimeDecomposition, eps: float, meta: StateMeta) -> float:
    """delta_budget's trace-functional accuracy."""
    a, r = regime.alpha, meta.rank
    if regime.branch == "integer":
        if abs(a - 2.0) <= _INT_TOL:
            return eps / (2.0 * r)
        return abs(1.0 - a) * eps / (2.0 * r ** (a - 1.0))
    if regime.branch == "sub_one":
        return eps * abs(1.0 - a) * meta.purity ** (a - 1.0) / 4.0
    if regime.branch == "von_neumann":
        gamma = 1.0 / (2.0 * math.log(4.0 / (math.pi * meta.rho_min)))
        return eps * gamma
    if 1.0 < a <= 2.0:
        return eps * abs(1.0 - a) / (6.0 * r)
    return eps * abs(1.0 - a) / (6.0 * r ** (a - 1.0))


def delta_budget(
    regime: RegimeDecomposition,
    eps: float,
    meta: StateMeta,
    method: str = "sampling",
    c_shots: float = C_SHOTS,
) -> Budget:
    """Trace-functional accuracy and shot count for a target entropy accuracy."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    try:
        delta = _accuracy(regime, eps, meta)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError(
            f"accuracy budget for order {regime.alpha} at eps={eps:.3e} is outside the float range"
        ) from exc
    measure_delta = delta
    if regime.branch == "sub_one":
        # the recovery multiplies the raw statistic by the dimension
        measure_delta = delta / (2.0 * meta.dim if method == "ae" else 4.0 * meta.dim)
    shots = shots_for("amplitude_estimation" if method == "ae" else "bernoulli", measure_delta, c_shots)
    predicted = predicted_samples(regime, eps, meta, method=method)
    return Budget(delta=delta, shots=shots, predicted_samples=predicted, measure_delta=measure_delta)


def _ln(x: float) -> float:
    """Natural log clamped to >= 1 so cost formulas stay positive."""
    return max(1.0, math.log(max(x, 1.0)))


def predicted_samples(
    regime: RegimeDecomposition,
    eps: float,
    meta: StateMeta,
    method: str = "sampling",
) -> int:
    """Evaluate the protocol's cost formula for this regime.

    Constants are all 1, logarithms natural and clamped at 1.  A
    comparison yardstick for the empirical ledgers, not a guarantee.  A
    count outside the float range raises ValueError.
    """
    try:
        return int(math.ceil(_cost_formula(regime, eps, meta, method)))
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError(
            f"predicted sample count for order {regime.alpha} at eps={eps:.3e} is outside the float range"
        ) from exc


def _cost_formula(regime: RegimeDecomposition, eps: float, meta: StateMeta, method: str) -> float:
    a, r, d = regime.alpha, meta.rank, meta.dim
    rmin = meta.rho_min
    p2 = meta.purity
    one = abs(1.0 - a)
    if regime.branch == "integer":
        val = a * r ** (2.0 * a - 2.0) / eps**2
    elif regime.branch == "sub_one":
        lead = d**2 / (eps**2 * one**2 * p2 ** (2.0 * (a - 1.0)) * rmin**2)
        val = lead * _ln(d / (eps * one * p2 ** (a - 1.0) * rmin)) ** 5 + math.log(d)
    elif regime.branch == "von_neumann":
        num = math.log(4.0 / (math.pi * rmin))
        den = math.log(4.0 / (math.pi * meta.rho_max))
        if method == "poly":
            val = _ln(1.0 / rmin) ** 4 / rmin**2 / eps**2 * _ln(1.0 / eps) ** 2
        else:
            val = (
                (num / den) ** 3
                / (eps**4 * rmin**2)
                * _ln(1.0 / eps) ** 4
                * _ln(2.0 * num / (eps * den)) ** 6
            )
    elif regime.branch == "odd_floor" and a <= 2.0:
        val = r**3 / (rmin**2 * eps**3) * _ln(r / (rmin * eps)) ** 5 + math.log(d)
    elif regime.branch == "odd_floor":
        t1 = r ** (3.0 * (a - 1.0)) * a**2 / (eps**3 * one**3) * _ln(a * r ** (a - 1.0) / (one * eps))
        t2 = r ** (3.0 * (a - 1.0)) / (one**3 * eps**3 * rmin**2) * _ln(r ** (a - 1.0) / (one * eps * rmin)) ** 5
        val = t1 + t2 + math.log(d)
    else:  # even_floor
        c = regime.c
        t1 = (
            a**2
            * r ** (3.0 * (a - 1.0))
            / (rmin ** (-3.0 * c) * eps**3 * one**3)
            * _ln(a * r ** (a - 1.0) / (one * eps))
        )
        t2 = (
            r ** (3.0 * (a - 1.0))
            / (eps**3 * one**3 * rmin ** (2.0 - 4.0 * c))
            * _ln(r ** (a - 1.0) / (eps * one * rmin ** (1.0 - c))) ** 5
        )
        val = t1 + t2 + math.log(d)
    return val

