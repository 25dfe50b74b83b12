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

An encoding of more than one trial is a stack: one realized block per
trial, drawn in turn from the builder's noise stream, over the one
target, which does not depend on the noise, with `eta` and `dist_bound`
arrays holding one value per trial (NaN where a trial has no carried
bound).  An encoding of one trial is a single block.  Every builder
takes a stack as it takes a single encoding, and a check that fails
raises the error of the first failing trial (`numkernel.fail_first`).
Each builder makes its target from its inputs' targets; the encoding
targets are cached on the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import TOL
from .numkernel import (
    HermMatrix,
    adjoint,
    fail_first,
    frobenius,
    herm_with_spectrum,
    op_norm,
    op_norm_dist,
    spectral_norm,
    with_eigenvalues,
)
from .seeding import Stream
from .states import DensityMatrix


@dataclass(frozen=True)
class BlockEncoding:
    encoded: HermMatrix
    target: HermMatrix
    eta: float = 0.0  # for a stack, an array with one value per trial
    sample_cost: int = 0
    # certified upper bound on op_norm_dist(encoded, target) known from the
    # construction, rounding included; NaN when the builder has none (for a
    # stack, one value per trial)
    dist_bound: float = math.nan

    def __post_init__(self):
        if self.encoded.dim != self.target.dim:
            raise ValueError("encoded and target dimensions differ")
        if self.target.mat.ndim != 2:
            raise ValueError("the target is one matrix, shared by every trial of a stack")
        eta, bound = self.eta, self.dist_bound
        if self.encoded.mat.ndim == 3:
            trials = self.encoded.mat.shape[:1]
            eta = np.broadcast_to(np.asarray(eta, dtype=float), trials)
            bound = np.broadcast_to(np.asarray(bound, dtype=float), trials)
        else:
            eta, bound = float(eta), float(bound)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "dist_bound", bound)
        if _any(eta < 0) or self.sample_cost < 0:
            raise ValueError("eta and sample_cost must be nonnegative")
        if _any(bound < 0):
            raise ValueError("dist_bound must be nonnegative")
        # Frobenius norm upper-bounds the operator norm, so try it first
        # and fall back to the exact spectral check only when needed.
        limit = 1.0 + TOL.encoding_norm_slack
        big = frobenius(self.encoded.mat) > limit
        if _any(big):
            fail_first(big & (op_norm(self.encoded) > limit), lambda i: ValueError("encoded block has operator norm > 1"))
        allowed = eta + TOL.encoding_err_slack
        unknown = np.logical_not(bound <= allowed)
        if not _any(unknown):
            return
        # no carried bound, or one too loose to decide: measure the distance
        far = unknown & (frobenius(self.encoded.mat - self.target.mat) > allowed)
        if _any(far):
            fail_first(
                far & (op_norm_dist(self.encoded, self.target) > allowed),
                lambda i: ValueError(f"realized error exceeds certified bound eta = {np.atleast_1d(eta)[i]:g}"),
            )

    @property
    def dim(self) -> int:
        return self.target.dim


def _any(flags) -> bool:
    """Whether any flag is set: one per trial of a stack, or one."""
    return bool(flags.any()) if isinstance(flags, np.ndarray) else bool(flags)


def widen_for_rounding(bound, dim: int):
    """A distance bound that holds in exact arithmetic, widened to cover
    float rounding: relatively for norms the bound was computed from, and
    absolutely, growing with dimension, for rounding in the matrix entries."""
    return bound * (1.0 + 1e-12) + dim * 1e-15


def encoding_copy_cost(delta: float) -> int:
    """Copies of the state consumed to realize a delta-accurate encoding."""
    return int(math.ceil((1.0 / delta) * math.log(1.0 / delta)))


def _random_perturbations(dim: int, norm: float, noise: Stream, trials: int) -> np.ndarray:
    """Random Hermitian directions, one per trial, each scaled to an exact
    operator norm.  Trial by trial, the stream draws the real and then
    the imaginary parts of a Gaussian matrix."""
    z = noise.rng.standard_normal((trials, 2, dim, dim))
    g = z[:, 0] + 1j * z[:, 1]
    h = (g + adjoint(g)) / 2
    cur = spectral_norm(h)
    flat = cur == 0.0
    if flat.any():
        h[flat] = np.eye(dim)
        cur[flat] = 1.0
    return h * (norm / cur)[:, None, None]


def _perturbed(target: HermMatrix, norm: float, noise: Stream, trials: int):
    """target + P with ||P|| = norm, eigenvalues clipped into [-1, 1]; a
    stack of them, one per trial, for more than one trial.

    Returns the realized block and its distance bound.  Clipping only
    engages when the perturbed spectrum pokes above 1 (a unitary corner
    cannot), which ||target|| + norm <= 1 rules out without decomposing
    the sum.  Unclipped, the distance is exactly norm.  Clipped, the
    bound is missing: moving eigenvalues back toward the target never
    increases the distance to it, but that is not proven in operator
    norm, so the encoding's own check measures it.
    """
    p = _random_perturbations(target.dim, norm, noise, trials)
    h = HermMatrix(target.mat + (p if trials > 1 else p[0]))
    bound = widen_for_rounding(norm, target.dim)
    if op_norm(target) + norm <= 1.0:
        return h, bound
    spec = h.spectrum
    clipped = np.max(np.abs(spec.eigenvalues), axis=-1) > 1.0
    if not clipped.any():
        return h, bound
    w = np.clip(spec.eigenvalues, -1.0, 1.0)  # leaves unclipped trials as they are
    mat = np.where(clipped[..., None, None], with_eigenvalues(spec.eigenvectors, w), h.mat)
    return herm_with_spectrum(mat, w, spec.eigenvectors), np.where(clipped, np.nan, bound)


def encoding_target(rho: DensityMatrix, scale: float) -> HermMatrix:
    """scale * rho with its spectrum: the target of an encoding, cached on
    the state."""
    key = ("encoding_target", scale)
    if key not in rho._cache:
        spec = rho.spectrum
        rho._cache[key] = herm_with_spectrum(rho.matrix.mat * scale, spec.eigenvalues * scale, spec.eigenvectors)
    return rho._cache[key]


def _encode(
    rho: DensityMatrix,
    delta: float,
    noise: Optional[Stream],
    noiseless: bool,
    trials: int,
    scale: float,
) -> BlockEncoding:
    """Encoding of scale * rho: the shared body of the two public encoders."""
    if not (0.0 < delta <= 0.5):
        raise ValueError(f"approximation budget must be in (0, 1/2], got {delta}")
    target = encoding_target(rho, scale)
    encoded, bound = (target, 0.0) if noiseless else _perturbed(target, delta / 2.0, noise or Stream(0), trials)
    return BlockEncoding(
        encoded=encoded,
        target=target,
        eta=delta,
        sample_cost=encoding_copy_cost(delta),
        dist_bound=bound,
    )


def encode_density(
    rho: DensityMatrix,
    delta: float,
    noise: Optional[Stream] = None,
    noiseless: bool = False,
    trials: int = 1,
) -> BlockEncoding:
    """Encoding of (pi/4) * rho with approximation budget delta.

    The realized corner is the target plus a random Hermitian
    perturbation of operator norm delta/2 (half the certified budget),
    drawn from the `noise` stream (a fresh `Stream(0)` if None); in
    noiseless mode the perturbation is dropped and delta is kept as a
    bound only, and the encoding is one matrix whatever the trials.
    More than one trial gives a stack, one corner per trial.  Copy cost
    is ceil((1/delta) log(1/delta)).
    """
    return _encode(rho, delta, noise, noiseless, trials, np.pi / 4.0)


def encode_state_side(
    rho: DensityMatrix,
    delta: float,
    noise: Optional[Stream] = None,
    noiseless: bool = False,
    trials: int = 1,
) -> BlockEncoding:
    """Encoding whose corner is rho itself (no pi/4 prefactor).

    Model plumbing for the negative-power route, which consumes the
    state's own spectrum scale.  Noise, eta, copy cost and stacking are
    those of `encode_density`; the perturbation is clipped if it would
    push the corner norm above 1, as it can for spectra touching 1.
    """
    return _encode(rho, delta, noise, noiseless, trials, 1.0)


def be_product(be1: BlockEncoding, be2: BlockEncoding) -> BlockEncoding:
    """Composition encoding the operator product.

    The corner product of two perturbed Hermitian blocks is not exactly
    Hermitian; the Hermitian part is kept (a contraction in operator
    norm, so the composed error bound eta1 + eta2 + eta1*eta2 still
    certifies the realized block), and so is the target's.  The same
    algebra carries the distance bounds: E1 E2 - T1 T2 = (E1 - T1) E2 +
    T1 (E2 - T2), where ||E2|| <= 1 + slack was checked when be2 was
    built and ||T1|| <= ||E1|| + d1.
    """
    if be1.dim != be2.dim:
        raise ValueError(f"dimension mismatch: {be1.dim} vs {be2.dim}")
    eprod = be1.encoded.mat @ be2.encoded.mat
    tprod = be1.target.mat @ be2.target.mat
    d1, d2 = be1.dist_bound, be2.dist_bound
    return BlockEncoding(
        encoded=HermMatrix((eprod + adjoint(eprod)) / 2),
        target=HermMatrix((tprod + adjoint(tprod)) / 2),
        eta=be1.eta + be2.eta + be1.eta * be2.eta,
        sample_cost=be1.sample_cost + be2.sample_cost,
        dist_bound=widen_for_rounding((1.0 + TOL.encoding_norm_slack) * (d1 + d2) + d1 * d2, be1.dim),
    )


def be_power(
    rho: DensityMatrix,
    k: int,
    per_factor_delta: float,
    noise: Optional[Stream] = None,
    noiseless: bool = False,
    trials: int = 1,
) -> BlockEncoding:
    """k-fold product of fresh encodings of (pi/4) rho, factor j drawing
    its noise from child j of the `noise` stream (of a fresh `Stream(0)`
    if None)."""
    if k < 1:
        raise ValueError("power must be >= 1")
    noise = noise or Stream(0)
    out = encode_density(rho, per_factor_delta, noise.child(0), noiseless, trials)
    for j in range(1, k):
        out = be_product(out, encode_density(rho, per_factor_delta, noise.child(j), noiseless, trials))
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
    eta = be.eta * factor
    espec = be.encoded.spectrum
    ew = espec.eigenvalues * factor
    overshoot = np.max(np.abs(ew), axis=-1, initial=0.0) - 1.0
    fail_first(
        overshoot > eta + TOL.encoding_norm_slack,
        lambda i: ValueError("rescaled encoding exceeds operator norm 1 beyond its error budget"),
    )
    mat = be.encoded.mat * factor
    clipped = overshoot > 0
    if clipped.any():
        ew = np.clip(ew, -1.0, 1.0)  # leaves unclipped trials as they are
        mat = np.where(clipped[..., None, None], with_eigenvalues(espec.eigenvectors, ew), mat)
        eta = np.where(clipped, eta + overshoot, eta)  # clipping is a real, ledgered error
    return BlockEncoding(
        encoded=herm_with_spectrum(mat, ew, espec.eigenvectors),
        target=herm_with_spectrum(be.target.mat * factor, tw, tspec.eigenvectors),
        eta=eta,
        sample_cost=be.sample_cost,
        dist_bound=widen_for_rounding(factor * be.dist_bound + np.maximum(overshoot, 0.0), be.dim),
    )
