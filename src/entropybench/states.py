"""Density matrices with controlled rank/spectrum and the exact entropy oracle.

All entropies use natural logarithms internally; the CLI converts to
base 2 on request.  The zero-eigenvalue convention is 0*log(0) = 0, and
trace powers run over the nonzero spectrum only.

A state is validated once, at construction, and then caches what is
derived from it: its spectral summary (`meta`), its oracle records
(`exact_entropies`, one per order) and its support projection.  The
caches live on the state, so they are freed with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import MAX_DIM, TOL
from .numkernel import HermMatrix, Spectrum, herm_with_spectrum


@dataclass(frozen=True)
class StateMeta:
    """Spectral summary of a state: rank, extreme nonzero eigenvalues, purity."""

    rank: int
    rho_min: float
    rho_max: float
    purity: float  # Tr rho^2
    dim: int

    def __post_init__(self):
        if not (1 <= self.rank <= self.dim):
            raise ValueError(f"need 1 <= rank <= dim, got rank={self.rank}, dim={self.dim}")
        if not (0 < self.rho_min <= self.rho_max <= 1 + 1e-9):
            raise ValueError(f"eigenvalue range invalid: [{self.rho_min}, {self.rho_max}]")
        # purity can never drop below 1/rank
        if self.purity < 1.0 / self.rank - 1e-9:
            raise ValueError(f"purity {self.purity} below 1/rank = {1 / self.rank}")


@dataclass(frozen=True)
class DensityMatrix:
    """Trace-one PSD Hermitian operator with a cached spectral decomposition.

    `_cache` holds the derived values below, computed on first use;
    `init=False` keeps `dataclasses.replace` from sharing it.
    """

    matrix: HermMatrix
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not bool(np.all(np.isfinite(self.matrix.mat))):
            raise ValueError("state has non-finite entries")
        tr = float(np.trace(self.matrix.mat).real)
        if abs(tr - 1.0) > TOL.trace_one:
            raise ValueError(f"trace is {tr!r}, expected 1 within {TOL.trace_one:g}")
        lo = float(np.min(self.spectrum.eigenvalues))
        if lo < -TOL.rank_cutoff:
            raise ValueError(f"state has negative eigenvalue {lo!r}")

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def spectrum(self) -> Spectrum:
        return self.matrix.spectrum

    @property
    def nonzero_eigenvalues(self) -> np.ndarray:
        """Eigenvalues above the rank cutoff, descending (read-only)."""
        if "nz" not in self._cache:
            eigs = self.spectrum.eigenvalues
            nz = eigs[eigs > TOL.rank_cutoff]
            nz.flags.writeable = False
            self._cache["nz"] = nz
        return self._cache["nz"]

    @property
    def meta(self) -> StateMeta:
        if "meta" not in self._cache:
            nz = self.nonzero_eigenvalues
            self._cache["meta"] = StateMeta(
                rank=int(nz.size),
                rho_min=float(nz[-1]),
                rho_max=float(nz[0]),
                purity=float(np.sum(nz**2)),
                dim=self.dim,
            )
        return self._cache["meta"]

    def project_to_support(self) -> "DensityMatrix":
        """Restrict to the span of nonzero eigenvectors (rank-sized block).

        Entropies and trace powers are unchanged; negative powers and
        logarithms become well defined.  A full-rank state is returned
        as is; otherwise the projection is built once and reused.
        """
        if "support" in self._cache:
            return self._cache["support"]
        spec = self.spectrum
        keep = spec.eigenvalues > TOL.rank_cutoff
        if bool(np.all(keep)):
            return self
        w = np.clip(spec.eigenvalues[keep], 0.0, None)
        r = int(w.size)
        mat = herm_with_spectrum(np.diag(w).astype(np.complex128), w, np.eye(r, dtype=np.complex128))
        self._cache["support"] = DensityMatrix(mat)
        return self._cache["support"]


@dataclass(frozen=True)
class EntropyRecord:
    """Exact oracle output: the trace power, the entropy, and the state summary."""

    alpha: float
    tr_pow_alpha: float
    entropy: float
    quantity: str  # "S_alpha" or "S_v"
    meta: StateMeta


def from_spectrum(eigs: Sequence[float], d: int) -> DensityMatrix:
    """Diagonal state with the given spectrum, zero-padded to dimension d."""
    v = np.asarray(list(eigs), dtype=float)
    if not bool(np.all(np.isfinite(v))):
        raise ValueError(f"non-finite eigenvalue in {v.tolist()}")
    if v.size > d:
        raise ValueError(f"{v.size} eigenvalues do not fit in dimension {d}")
    if np.any(v < -1e-15):
        raise ValueError(f"negative eigenvalue in {v.tolist()}")
    if abs(float(np.sum(v)) - 1.0) > 1e-12:
        raise ValueError(f"eigenvalues sum to {float(np.sum(v))!r}, expected 1")
    w = np.zeros(d)
    w[: v.size] = np.clip(v, 0.0, None)
    mat = herm_with_spectrum(np.diag(w).astype(np.complex128), w, np.eye(d, dtype=np.complex128))
    return DensityMatrix(mat)


def random_density(d: int, r: int, seed: int) -> DensityMatrix:
    """Random rank-r state: Dirichlet(1,...,1) spectrum, Haar-rotated support.

    Deterministic per seed.  The rotation comes from orthonormalized
    complex Gaussian columns; the spectrum is resampled in the
    (practically impossible) event a Dirichlet weight falls below the
    rank cutoff, so the realized rank is exactly r.  One complete QR
    gives the cached eigenvectors: its first r columns are reduced mode's
    Q (a test checks the bits), the rest span the null space.  Their
    eigenvalue 0 reaches no output whatever basis they are: positive
    powers map it to 0, and the other routes project to the support.
    """
    if not (1 <= r <= d <= MAX_DIM):
        raise ValueError(f"need 1 <= r <= d <= {MAX_DIM}, got r={r}, d={d}")
    rng = np.random.default_rng(seed)
    while True:
        p = rng.dirichlet(np.ones(r))
        if np.min(p) > 10 * TOL.rank_cutoff:
            break
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    full_v, _ = np.linalg.qr(g, mode="complete")
    q = full_v[:, :r]
    rho = (q * p) @ q.conj().T
    rho = rho / float(np.trace(rho).real)
    w = np.zeros(d)
    w[:r] = np.sort(p)[::-1]
    full_v[:, :r] = q[:, np.argsort(p)[::-1]]
    return DensityMatrix(herm_with_spectrum((rho + rho.conj().T) / 2, w, full_v))


def exact_entropies(rho: DensityMatrix, alpha: float) -> EntropyRecord:
    """Spectral oracle: Tr rho^alpha and the entropy of order alpha.

    alpha = 1 is read as the von Neumann limit -Tr(rho log rho) with the
    0*log(0) = 0 convention.  A zero entropy is +0.0, never -0.0, which
    a pure state's sums would give.  Records are cached on the state, keyed by
    the order's type as well as its value (as the fit builders key
    theirs), since `nz**2` and `nz**2.0` need not round alike.
    """
    key = ("entropy", type(alpha), alpha)
    if key in rho._cache:
        return rho._cache[key]
    if alpha <= 0:
        raise ValueError(f"order must be positive, got {alpha}")
    nz = rho.nonzero_eigenvalues
    if alpha == 1.0:
        s = float(-np.sum(nz * np.log(nz))) + 0.0
        rec = EntropyRecord(alpha=1.0, tr_pow_alpha=1.0, entropy=s, quantity="S_v", meta=rho.meta)
    else:
        t = float(np.sum(nz**alpha))
        s = float(np.log(t) / (1.0 - alpha)) + 0.0
        rec = EntropyRecord(alpha=alpha, tr_pow_alpha=t, entropy=s, quantity="S_alpha", meta=rho.meta)
    rho._cache[key] = rec
    return rec
