"""Dense complex linear algebra for Hermitian operators at dimension <= 64.

Spectral kernel: `hermitian_eig` is LAPACK's Hermitian eigensolver
(`numpy.linalg.eigh`) with the spectrum reordered descending, and every
matrix function in the package is realized through it.  Each validated
matrix caches its decomposition, so an operator is diagonalized at most
once however many functions are taken of it.
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


@dataclass(frozen=True)
class HermMatrix:
    """A validated Hermitian matrix of dimension <= 64.

    Entries are stored as a read-only complex128 array.  The spectrum is
    computed lazily and cached, so repeated matrix functions on the same
    operator cost one eigendecomposition.
    """

    mat: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.array(self.mat, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 1 or m.shape[0] > MAX_DIM:
            raise ValueError(f"dimension {m.shape[0]} outside [1, {MAX_DIM}]")
        asym = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
        if asym > TOL.herm:
            raise NonHermitianError(asym)
        # exact symmetrization removes representation noise below tolerance
        m = (m + m.conj().T) / 2.0
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def spectrum(self) -> "Spectrum":
        if "spec" not in self._cache:
            self._cache["spec"] = hermitian_eig(self)
        return self._cache["spec"]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (real, descending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def hermitian_eig(a: HermMatrix) -> Spectrum:
    """Full spectral decomposition, eigenvalues descending.

    The order is stable, so equal eigenvalues keep the order LAPACK
    returned them in; both arrays are read-only, like every cached
    spectrum.
    """
    eigs, vecs = np.linalg.eigh(a.mat)
    order = np.argsort(-eigs, kind="stable")
    eigs = eigs[order]
    vecs = vecs[:, order]
    eigs.flags.writeable = False
    vecs.flags.writeable = False
    return Spectrum(eigenvalues=eigs, eigenvectors=vecs)


def herm_with_spectrum(mat: np.ndarray, eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> HermMatrix:
    """Build a HermMatrix whose spectral decomposition is already known.

    Used when an operator is produced as V diag(w) V^dagger so the cached
    spectrum can be reused instead of rediagonalizing.
    """
    h = HermMatrix(mat)
    order = np.argsort(-np.asarray(eigenvalues), kind="stable")
    eigs = np.asarray(eigenvalues, dtype=float)[order].copy()
    vecs = np.asarray(eigenvectors, dtype=np.complex128)[:, order].copy()
    eigs.flags.writeable = False
    vecs.flags.writeable = False
    h._cache["spec"] = Spectrum(eigenvalues=eigs, eigenvectors=vecs)
    return h


def mat_fun(a: HermMatrix, f: Callable[[float], float]) -> HermMatrix:
    """Apply a real scalar function to the spectrum: V diag(f(lambda)) V^dagger."""
    spec = a.spectrum
    vals = []
    for lam in spec.eigenvalues:
        y = f(float(lam))
        if not np.isfinite(y):
            raise ValueError(f"function undefined at eigenvalue {lam!r} (got {y!r})")
        vals.append(float(y))
    v = spec.eigenvectors
    w = np.asarray(vals, dtype=float)
    out = (v * w) @ v.conj().T
    return herm_with_spectrum((out + out.conj().T) / 2.0, w, v)


def op_norm(a: HermMatrix) -> float:
    """Operator norm = largest |eigenvalue| (Hermitian input)."""
    eigs = a.spectrum.eigenvalues
    return float(np.max(np.abs(eigs))) if eigs.size else 0.0


def op_norm_dist(a: HermMatrix, b: HermMatrix) -> float:
    """Operator-norm distance ||a - b||, via the spectrum of the difference."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return op_norm(HermMatrix(a.mat - b.mat))
