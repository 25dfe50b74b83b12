"""Dense complex linear algebra for Hermitian operators at dimension <= 64.

Spectral kernel: `hermitian_eig` is LAPACK's Hermitian eigensolver
(`numpy.linalg.eigh`) with the spectrum reordered descending, and every
matrix function in the package is realized through it.  Each validated
matrix caches its decomposition, so an operator is diagonalized at most
once however many functions are taken of it.  The one exception is
`spectral_norm`, the largest |eigenvalue| of an array that nothing else
reads (a distance's difference, a random direction), taken from
`numpy.linalg.eigvalsh` alone.  No other module calls an eigensolver or
reads a `HermMatrix`'s cache.

A `HermMatrix` is one matrix or a stack of them with one leading axis,
one matrix per trial, and every function here takes either.  A stacked
run equals a trial-by-trial one bit for bit only while numpy's stacked
`eigh`, `eigvalsh` and matmul give each matrix of a stack the bits a
call on it alone gives.  numpy does not promise that, so
`tests/test_numkernel.py` checks it on the installed numpy for every
stacked kernel the package uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import MAX_DIM, TOL


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""

    def __init__(self, asymmetry: float):
        self.asymmetry = asymmetry
        super().__init__(
            f"matrix is not Hermitian: max |A - A^dagger| element = {asymmetry:.3e} "
            f"exceeds tolerance {TOL.herm:.0e}"
        )


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def frobenius(m: np.ndarray):
    """Frobenius norm of a matrix (a float) or of each matrix of a stack;
    a matrix gets the same bits alone as in any stack."""
    out = np.sqrt(np.add.reduce((m.conj() * m).real, axis=(-2, -1)))
    return float(out) if out.ndim == 0 else out


def fail_first(bad, error: Callable[[int], Exception]) -> None:
    """Raise `error(i)` for the first trial i whose check failed, with
    `trial = i` set on it.  `bad` holds one flag per matrix of a stack, or
    one flag for a single matrix, which is trial 0."""
    bad = np.atleast_1d(bad)
    if bad.any():
        i = int(bad.argmax())
        exc = error(i)
        exc.trial = i
        raise exc


@dataclass(frozen=True)
class HermMatrix:
    """A validated Hermitian matrix of dimension <= 64, or a stack of them.

    Entries are stored as a read-only complex128 array of shape (d, d),
    or (n, d, d) for a stack of n.  The spectrum is computed lazily and
    cached, so repeated matrix functions on the same operator cost one
    eigendecomposition (one stacked call for a stack).
    """

    mat: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.array(self.mat, dtype=np.complex128)
        if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
            raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
        if m.shape[-1] < 1 or m.shape[-1] > MAX_DIM:
            raise ValueError(f"dimension {m.shape[-1]} outside [1, {MAX_DIM}]")
        # the adjoint as a row-major copy, so that the two passes below read
        # both operands in order, and m may be overwritten in place
        m_h = np.conjugate(m.swapaxes(-1, -2), out=np.empty_like(m))
        asym = float(np.max(np.abs(m - m_h))) if m.size else 0.0
        if asym > TOL.herm:
            raise NonHermitianError(asym)
        # exact symmetrization removes representation noise below tolerance
        np.add(m, m_h, out=m)
        m /= 2.0
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[-1]

    @property
    def spectrum(self) -> "Spectrum":
        if "spec" not in self._cache:
            self._cache["spec"] = hermitian_eig(self)
        return self._cache["spec"]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (real, descending) and orthonormal eigenvector columns,
    with a leading axis for a stack."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def with_eigenvalues(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """V diag(w) V^dagger, for one matrix or each of a stack."""
    return (v * w[..., None, :]) @ adjoint(v)


def hermitian_eig(a: HermMatrix) -> Spectrum:
    """Full spectral decomposition, eigenvalues descending.

    The order is stable, so equal eigenvalues keep the order LAPACK
    returned them in; both arrays are read-only, like every cached
    spectrum.  A stack is decomposed in one call.
    """
    return _descending(*np.linalg.eigh(a.mat))


def _descending(eigs: np.ndarray, vecs: np.ndarray) -> Spectrum:
    """The read-only spectrum with eigenvalues reordered descending, stably."""
    order = np.argsort(-eigs, axis=-1, kind="stable")
    if eigs.ndim == 1:
        eigs, vecs = eigs[order], vecs[:, order]
    else:
        eigs, vecs = np.take_along_axis(eigs, order, -1), np.take_along_axis(vecs, order[..., None, :], -1)
    eigs.flags.writeable = False
    vecs.flags.writeable = False
    return Spectrum(eigenvalues=eigs, eigenvectors=vecs)


def herm_with_spectrum(mat: np.ndarray, eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> HermMatrix:
    """Build a HermMatrix whose spectral decomposition is already known.

    Used when an operator is produced as V diag(w) V^dagger so the cached
    spectrum can be reused instead of rediagonalizing.
    """
    h = HermMatrix(mat)
    h._cache["spec"] = _descending(np.asarray(eigenvalues, dtype=float), np.asarray(eigenvectors, dtype=np.complex128))
    return h


def op_norm(a: HermMatrix):
    """Operator norm = largest |eigenvalue| (Hermitian input): a float, or
    an array with one norm per matrix of a stack."""
    out = np.max(np.abs(a.spectrum.eigenvalues), axis=-1)
    return float(out) if out.ndim == 0 else out


def op_norm_cap(h: HermMatrix, cap: float):
    """Cheap upper bound on the operator norm, per matrix of a stack: the
    cached spectrum's if known, else min(cap, Frobenius norm)."""
    if "spec" in h._cache:
        return op_norm(h)
    return np.minimum(cap, frobenius(h.mat))


def spectral_norm(m: np.ndarray) -> np.ndarray:
    """Largest |eigenvalue| of an exactly Hermitian array, or of each matrix
    of a stack, by `eigvalsh` alone (so maybe not the last bits of `op_norm`
    of it)."""
    return np.max(np.abs(np.linalg.eigvalsh(m)), axis=-1)


def op_norm_dist(a: HermMatrix, b: HermMatrix):
    """Operator-norm distance ||a - b||, by `spectral_norm` of the
    difference, which is exactly Hermitian as both sides are; one distance
    per matrix when either side is a stack."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    out = spectral_norm(a.mat - b.mat)
    return float(out) if out.ndim == 0 else out
