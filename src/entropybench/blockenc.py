"""Block encodings: a target operator sitting in the corner of a unitary.

A BlockEncoding tracks four ledgers through every composition: the exact
operator it is supposed to hold (`target`), the operator actually
realized (`encoded`, possibly perturbed), a certified bound `eta` on the
operator-norm distance between the two, and the running count of state
copies a physical construction would consume (`sample_cost`).

The honesty contract is that `eta` may over-report but never
under-report: op_norm_dist(encoded, target) <= eta always holds.  The
builders below know that distance, or a bound on it, from how they made
the pair and carry it as `dist_bound`, so checking the contract costs no
eigendecomposition; an encoding built without one is checked directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import seeding
from .config import TOL
from .numkernel import HermMatrix, herm_with_spectrum, op_norm, op_norm_dist
from .states import DensityMatrix


@dataclass(frozen=True)
class BlockEncoding:
    encoded: HermMatrix
    target: HermMatrix
    subnorm: float = 1.0
    ancillas: int = 1
    eta: float = 0.0
    sample_cost: int = 0
    # certified upper bound on op_norm_dist(encoded, target) known from the
    # construction, rounding included; None when the builder has none
    dist_bound: Optional[float] = None

    def __post_init__(self):
        if self.encoded.dim != self.target.dim:
            raise ValueError("encoded and target dimensions differ")
        if self.subnorm < 1.0 - 1e-12:
            raise ValueError(f"subnormalization {self.subnorm} < 1")
        if self.eta < 0 or self.sample_cost < 0 or self.ancillas < 0:
            raise ValueError("eta, ancillas and sample_cost must be nonnegative")
        if self.dist_bound is not None and self.dist_bound < 0:
            raise ValueError("dist_bound must be nonnegative")
        # Frobenius norm upper-bounds the operator norm, so try it first
        # and fall back to the exact spectral check only when needed.
        fro = float(np.linalg.norm(self.encoded.mat))
        if fro > 1.0 + TOL.encoding_norm_slack:
            if op_norm(self.encoded) > 1.0 + TOL.encoding_norm_slack:
                raise ValueError("encoded block has operator norm > 1")
        allowed = self.eta + TOL.encoding_err_slack
        if self.dist_bound is not None and self.dist_bound <= allowed:
            return
        # no carried bound, or one too loose to decide: measure the distance
        dfro = float(np.linalg.norm(self.encoded.mat - self.target.mat))
        if dfro > allowed:
            if op_norm_dist(self.encoded, self.target) > allowed:
                raise ValueError(
                    f"realized error exceeds certified bound eta = {self.eta:g}"
                )

    @property
    def dim(self) -> int:
        return self.target.dim


def widen_for_rounding(bound: float, dim: int) -> float:
    """A distance bound that holds in exact arithmetic, widened to cover
    float rounding: relatively for norms the bound was computed from, and
    absolutely, growing with dimension, for rounding in the matrix entries."""
    return bound * (1.0 + 1e-12) + dim * 1e-15


def encoding_copy_cost(delta: float) -> int:
    """Copies of the state consumed to realize a delta-accurate encoding."""
    return int(math.ceil((1.0 / delta) * math.log(1.0 / delta)))


def _random_perturbation(dim: int, norm: float, seed: int) -> np.ndarray:
    """Random Hermitian direction scaled to an exact operator norm."""
    rng = seeding.rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2
    cur = float(np.max(np.abs(np.linalg.eigvalsh(h))))
    if cur == 0.0:
        h = np.eye(dim, dtype=np.complex128)
        cur = 1.0
    return h * (norm / cur)


def _perturbed(target: HermMatrix, norm: float, seed: int) -> tuple[HermMatrix, Optional[float]]:
    """target + P with ||P|| = norm, eigenvalues clipped into [-1, 1].

    Returns the realized block and its distance bound.  Clipping only
    engages when the perturbed spectrum pokes above 1 (a unitary corner
    cannot), which ||target|| + norm <= 1 rules out without decomposing
    the sum.  Unclipped, the distance is exactly norm.  Clipped, the
    bound is None: moving eigenvalues back toward the target never
    increases the distance to it, but that is not proven in operator
    norm, so the encoding's own check measures it.
    """
    if norm == 0.0:
        return target, 0.0
    p = _random_perturbation(target.dim, norm, seed)
    h = HermMatrix(target.mat + p)
    bound = widen_for_rounding(norm, target.dim)
    if op_norm(target) + norm <= 1.0:
        return h, bound
    spec = h.spectrum
    if np.max(np.abs(spec.eigenvalues)) <= 1.0:
        return h, bound
    w = np.clip(spec.eigenvalues, -1.0, 1.0)
    clipped = (spec.eigenvectors * w) @ spec.eigenvectors.conj().T
    return herm_with_spectrum(clipped, w, spec.eigenvectors), None


def _encode(
    rho: DensityMatrix,
    delta: float,
    noise_seed: int,
    noiseless: bool,
    scale: float,
    subnorm: float,
) -> BlockEncoding:
    """Encoding of scale * rho: the shared body of the two public encoders."""
    if not (0.0 < delta <= 0.5):
        raise ValueError(f"approximation budget must be in (0, 1/2], got {delta}")
    spec = rho.spectrum
    target = herm_with_spectrum(rho.matrix.mat * scale, spec.eigenvalues * scale, spec.eigenvectors)
    encoded, bound = (target, 0.0) if noiseless else _perturbed(target, delta / 2.0, noise_seed)
    return BlockEncoding(
        encoded=encoded,
        target=target,
        subnorm=subnorm,
        ancillas=1,
        eta=delta,
        sample_cost=encoding_copy_cost(delta),
        dist_bound=bound,
    )


def encode_density(
    rho: DensityMatrix,
    delta: float,
    noise_seed: int = 0,
    noiseless: bool = False,
) -> BlockEncoding:
    """Encoding of (pi/4) * rho with approximation budget delta.

    The realized corner is the target plus a seeded random Hermitian
    perturbation of operator norm delta/2 (half the certified budget);
    in noiseless mode the perturbation is dropped and delta is kept as a
    bound only.  Copy cost is ceil((1/delta) log(1/delta)).
    """
    return _encode(rho, delta, noise_seed, noiseless, np.pi / 4.0, 4.0 / np.pi)


def encode_state_side(
    rho: DensityMatrix,
    delta: float,
    noise_seed: int = 0,
    noiseless: bool = False,
) -> BlockEncoding:
    """Encoding whose corner is rho itself (no pi/4 prefactor).

    Model plumbing for the negative-power route, which consumes the
    state's own spectrum scale.  Noise, eta and copy cost are those of
    `encode_density`; the perturbation is clipped if it would push the
    corner norm above 1, as it can for spectra touching 1.
    """
    return _encode(rho, delta, noise_seed, noiseless, 1.0, 1.0)


def be_product(be1: BlockEncoding, be2: BlockEncoding) -> BlockEncoding:
    """Composition encoding the operator product.

    The corner product of two perturbed Hermitian blocks is not exactly
    Hermitian; the Hermitian part is kept (a contraction in operator
    norm, so the composed error bound eta1 + eta2 + eta1*eta2 still
    certifies the realized block).  The same algebra carries the
    distance bounds: E1 E2 - T1 T2 = (E1 - T1) E2 + T1 (E2 - T2), where
    ||E2|| <= 1 + slack was checked when be2 was built and
    ||T1|| <= ||E1|| + d1.
    """
    if be1.dim != be2.dim:
        raise ValueError(f"dimension mismatch: {be1.dim} vs {be2.dim}")
    tprod = be1.target.mat @ be2.target.mat
    eprod = be1.encoded.mat @ be2.encoded.mat
    bound = None
    d1, d2 = be1.dist_bound, be2.dist_bound
    if d1 is not None and d2 is not None:
        bound = widen_for_rounding((1.0 + TOL.encoding_norm_slack) * (d1 + d2) + d1 * d2, be1.dim)
    return BlockEncoding(
        encoded=HermMatrix((eprod + eprod.conj().T) / 2),
        target=HermMatrix((tprod + tprod.conj().T) / 2),
        subnorm=be1.subnorm * be2.subnorm,
        ancillas=be1.ancillas + be2.ancillas,
        eta=be1.eta + be2.eta + be1.eta * be2.eta,
        sample_cost=be1.sample_cost + be2.sample_cost,
        dist_bound=bound,
    )


def be_power(
    rho: DensityMatrix,
    k: int,
    per_factor_delta: float,
    noise_seed: int = 0,
    noiseless: bool = False,
) -> BlockEncoding:
    """k-fold product of fresh encodings of (pi/4) rho, one noise seed each."""
    if k < 1:
        raise ValueError("power must be >= 1")
    out = encode_density(rho, per_factor_delta, noise_seed, noiseless)
    for j in range(1, k):
        out = be_product(out, encode_density(rho, per_factor_delta, noise_seed + j, noiseless))
    return out


def rescale(be: BlockEncoding, factor: float) -> BlockEncoding:
    """Multiply the encoded block by a known scalar (subnormalization removal).

    Both ledgers scale with the block; if the amplified corner pokes
    above norm 1 by no more than the scaled error budget it is clipped
    back (the target itself must stay a valid corner).  Clipping moves
    each eigenvalue by at most the overshoot, so a carried distance d
    becomes factor * d + overshoot.
    """
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    tspec = be.target.spectrum
    tw = tspec.eigenvalues * factor
    if float(np.max(np.abs(tw), initial=0.0)) > 1.0 + TOL.encoding_norm_slack:
        raise ValueError("rescaled target would exceed operator norm 1")
    target = herm_with_spectrum(be.target.mat * factor, tw, tspec.eigenvectors)
    eta = be.eta * factor
    espec = be.encoded.spectrum
    ew = espec.eigenvalues * factor
    overshoot = float(np.max(np.abs(ew), initial=0.0)) - 1.0
    if overshoot > eta + TOL.encoding_norm_slack:
        raise ValueError("rescaled encoding exceeds operator norm 1 beyond its error budget")
    if overshoot > 0:
        ew = np.clip(ew, -1.0, 1.0)
        encoded = herm_with_spectrum(
            (espec.eigenvectors * ew) @ espec.eigenvectors.conj().T, ew, espec.eigenvectors
        )
        eta += overshoot  # clipping is a real, ledgered error
    else:
        encoded = herm_with_spectrum(be.encoded.mat * factor, ew, espec.eigenvectors)
    bound = None
    if be.dist_bound is not None:
        bound = widen_for_rounding(factor * be.dist_bound + max(overshoot, 0.0), be.dim)
    return BlockEncoding(
        encoded=encoded,
        target=target,
        subnorm=max(1.0, be.subnorm / factor),
        ancillas=be.ancillas,
        eta=eta,
        sample_cost=be.sample_cost,
        dist_bound=bound,
    )
