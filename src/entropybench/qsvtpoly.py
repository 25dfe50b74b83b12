"""Certified Chebyshev approximations and their action on block encodings.

Every fit records the sup-norm error it actually achieved on a dense
certification grid (with a small aliasing safety factor), so downstream
error ledgers are backed by a checked bound rather than a requested one.
Three target families are built in: the scaled logarithm
log(1/x)/(2 log(1/beta)), positive powers x^c/2, and negative powers
x^(-c)/(2 kappa^c), each on a domain bounded away from zero.  A target
is one numpy function of an array of points: the search samples it, the
certificate bounds the fit's distance from the values it computes on the
grid, and `apply_poly` applies it to the target side of an encoding.

Each searched degree is evaluated once (`_evaluate`): the target is
sampled at the interpolation nodes and on the certification grid, and
the interpolant's coefficients and its values on the grid come from two
small matmuls with cached per-degree matrices up to degree
`_OPERATOR_DEGREE_CUTOFF` (16), above it from two real FFTs, so
`numpy.fft` is imported only when a fit searches a degree above 16.  The
grid error plus a rigorous bound on its rounding is the certificate: a
degree passes on it, and the returned fit carries it, coefficients and
grid values included.

The three builders are memoized per process on their argument list: a
fit is computed once per key and then shared, so its coefficients are
read-only and the values derived from it (its derivative's coefficients,
its monomial form) are computed once too.  A fit's slope bound on a
widened domain (`PolyApprox.lipschitz_bound`) is one closed formula in
those coefficients over any number of widths, with no sampling.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import Chebyshev, Polynomial
from numpy.polynomial import polyutils as pu
from numpy.polynomial.chebyshev import chebder, chebpts1, chebval, chebvander

from .config import TOL
from .blockenc import BlockEncoding, widen_for_rounding
from .numkernel import HermMatrix, fail_first, herm_with_spectrum, op_norm_dist, with_eigenvalues

# multiplied onto the grid maximum so the recorded bound also covers
# excursions between certification nodes
_CERT_SAFETY = 1.05

# distinct fits each builder keeps; one estimator run needs at most two
_FIT_CACHE_SIZE = 128

# highest degree evaluated through cached per-degree matrices
# (`_operator`); above it an evaluation takes two FFTs and nothing is
# cached.  Operators cost what 1-3 FFT evaluations cost up to degree 32,
# and every fit searches 0, 1, 2, 4, 8, 16; above 16 most degrees are
# searched a few times at most, and operators up to 32 held ~0.5 MB more
# at peak on a pass of d = 64 requests for no measurable time
_OPERATOR_DEGREE_CUTOFF = 16

# degree caps: log fits may use up to C_LOG * (1/beta) * ln(1/eps), power
# fits up to C_POWER * kappa * max(1, ln(kappa/eps))
C_LOG = 8.0
C_POWER = 8.0
# monomial conversion refuses degrees above this (ill-conditioned)
MONOMIAL_DEGREE_CAP = 30
# no search goes above this degree, whatever a builder's cap: it bounds
# the time a refused fit searches and the size of its FFTs (length 20 N
# at degree N), where a power fit's cap reaches 32768 at kappa ~1e7
MAX_FIT_DEGREE = 4096

_MACHINE_EPS = float(np.finfo(float).eps)


class DegreeCapExceeded(RuntimeError):
    def __init__(self, cap: int, best_err: float):
        self.cap = cap
        self.best_err = best_err
        super().__init__(
            f"no Chebyshev fit up to degree {cap} met the target accuracy; "
            f"best achieved sup error {best_err:.3e}"
        )


@dataclass(frozen=True)
class PolyApprox:
    """A Chebyshev-basis polynomial certified against its target function."""

    coeffs: np.ndarray  # Chebyshev coefficients over the mapped domain
    degree: int
    domain: tuple[float, float]
    target_tag: str  # "log_scaled", "pos_power", "neg_power", "custom"
    eps: float  # certified sup-norm error on the domain
    target_fn: Callable[[np.ndarray], np.ndarray]
    # value assigned at eigenvalue 0 (continuous extension); None means
    # a zero eigenvalue is out of domain for this transform
    zero_extension: Optional[float] = None
    # input-precision requirement attached by the power transforms
    input_precision: Optional[float] = None
    # values derived from the coefficients, computed on first use; not an
    # init field, so dataclasses.replace starts a copy with an empty one
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # (grid error + slack, grid values) of these coefficients, as `_on_grid`
    # computes them; `cheb_fit` hands over the certificate its search
    # computed, and a fit built any other way is certified here against
    # its target
    _certificate: InitVar[Optional[tuple[float, np.ndarray]]] = None

    def __post_init__(self, _certificate):
        # a memoized fit is shared by every caller, so nobody may write to it
        coeffs = np.array(self.coeffs, dtype=float)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        if _certificate is None:
            lo, hi = self.domain
            grid = _cheb_grid(lo, hi, _grid_size(len(coeffs) - 1))
            values, err, slack = _on_grid(coeffs, self.target_fn(grid), lo, hi)
            _certificate = err + slack, values
        err, values = _certificate
        if err > self.eps + 1e-15:
            raise ValueError(
                f"certification failed: grid error {err:.3e} exceeds recorded eps {self.eps:.3e}"
            )
        if self.target_tag == "log_scaled":
            if float(np.max(np.abs(values))) > 1.0 + TOL.poly_bound_slack:
                raise ValueError("scaled-log fit exceeds the |P(x)| <= 1 bound")

    def __call__(self, x):
        return _cheb_eval(self.coeffs, self.domain, x)

    def lipschitz_bound(self, widen=0.0):
        """An upper bound on max |P'| over the domain enlarged by `widen`
        on both sides.  An array of widths gives an array of bounds, one
        per width, each the bits its width alone gives.

        The enlarged domain maps onto [-r, r], r = 1 + 2 widen / (hi - lo),
        where |T_k| <= T_k(r) = cosh(k acosh r).  So with c' the Chebyshev
        coefficients of P' (`chebder`), sum_k |c'_k| T_k(r) bounds |P'|
        there, with equality where the terms align, as at the left end of
        the builders' fits.  A T_k(r) past the largest float is inf, still
        an upper bound.

        The slack bounds the rounding, as in `_on_grid`.  With u = 2^-52,
        n coefficients and E the `chebder` coefficients of |c| (E_k is at
        least the sum of the magnitudes of c'_k's terms), it is
        u sum_k (2 k^2 r + 5 k acosh r + 1.5 n + 8) E_k T_k(r).  That covers
        these roundings, each at most u/2 of its result unless said
        otherwise, with room for the second-order terms:

        - c'.  A term of c'_k meets three roundings in the scale and the
          product by it, three per step of at most n/2 steps, and one
          last: (0.75 n + 2) u E_k.
        - T_k(r).  r rounds by at most 1.5 u r, which moves T_k by k^2
          times as much relative to it (T_k'/T_k <= k^2 on r >= 1).  acosh
          and cosh are within 4 ulp (numpy's SIMD loops; libm's within 2)
          and k acosh r rounds once, which moves cosh by k acosh r times
          4.5 u.  With the product by |c'_k|, a term is within
          (1.5 k^2 r + 4.5 k acosh r + 4.5) u of itself.
        - the (n - 1)-term sum and the slack's addition: (0.5 n + 1) u of
          the bound.
        """
        if "deriv" not in self._cache:  # |c'| and E
            scale = pu.mapparms(self.domain, Chebyshev.window)[1]
            self._cache["deriv"] = np.abs(chebder(self.coeffs, 1, scale)), chebder(np.abs(self.coeffs), 1, scale)
        deriv, sizes = self._cache["deriv"]
        lo, hi = self.domain
        r = 1 + 2 * np.asarray(widen, dtype=float)[..., None] / (hi - lo)
        k = np.arange(len(deriv))
        arg = k * np.arccosh(r)
        t = np.cosh(arg)
        weights = 2 * k**2 * r + 5 * arg + (1.5 * len(self.coeffs) + 8)
        bound = (deriv * t).sum(axis=-1) + _MACHINE_EPS * (weights * sizes * t).sum(axis=-1)
        return float(bound) if bound.ndim == 0 else bound

    def monomial(self) -> "MonomialPoly":
        """`to_monomial(self)`, converted once per fit."""
        if "mono" not in self._cache:
            self._cache["mono"] = to_monomial(self)
        return self._cache["mono"]


@dataclass(frozen=True)
class MonomialPoly:
    """Plain-power coefficients a_i of sum a_i x^i."""

    coeffs: np.ndarray

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), self.coeffs)


def _cheb_eval(coeffs: np.ndarray, domain, x):
    """`Chebyshev(coeffs, domain)(x)`, without building the object."""
    return chebval(pu.mapdomain(x, domain, Chebyshev.window), coeffs)


def _cheb_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n Chebyshev certification nodes on [lo, hi], endpoints included."""
    k = np.arange(n + 1)
    nodes = np.cos(np.pi * k / n)
    return (hi + lo) / 2 + (hi - lo) / 2 * nodes


def _grid_size(degree: int) -> int:
    """Intervals of the certification grid for a fit of this degree."""
    return max(10 * max(degree, 1), 10)


def _on_grid(coeffs: np.ndarray, f_grid: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, float, float]:
    """The fit with these coefficients on the certification grid of its
    degree, its sup error there against `f_grid` (the target at the grid
    points), and a slack that bounds the error's rounding.

    The grid points are x_k = fl((hi + lo)/2 + (hi - lo)/2 t_k) with
    t_k = fl(cos(pi k/m)), k = 0..m, and the certified error is
    max_k |P(x_k) - f(x_k)|, for P the exact polynomial of these
    coefficients and f(x_k) the target's values at the grid points as the
    target function computes them (`f_grid`).  With
    u = 2^-52 (twice the unit roundoff, which also absorbs second-order
    terms), S = sum |c_j| and S2 = sum j^2 |c_j| >= max |P'| on [-1, 1],
    the slack is u times the sum of:

    - the values' rounding.  Up to the cutoff degree they are one product
      with the grid's Chebyshev-Vandermonde matrix, whose entries carry
      the three-term recurrence's error (at most 1.5 j^2 u in T_j), and
      whose n-term sums round by n u S: (n + 1) S + 3 S2, the extra S for
      the subtraction below.  Above it they are a DCT-I by one real FFT
      of length 2m, which rounds each output by a few u per butterfly
      pass times S: 64 (log2(2m) + n) S covers the log2(2m) radix passes
      and the generic passes of the prime factors of 2m = 20 * degree
      (whose sum is below n + 9) with a wide margin; measured against a
      long-double Clenshaw sum, the error stays below 0.03 of it.
    - the nodes.  The product evaluates at t_k, the FFT at cos(pi k/m),
      within 8u of it; x_k maps back to within 4 u (cond + 1) of t_k,
      cond = (hi + lo) / (hi - lo), since the map rounds by at most
      4 u hi.  So the values move by at most (4 cond + 12) S2.
    - the subtraction, which rounds by u max|f|.
    """
    n = len(coeffs)
    size = float(np.abs(coeffs).sum())
    slope = float(np.arange(n) ** 2 @ np.abs(coeffs))
    if n - 1 <= _OPERATOR_DEGREE_CUTOFF:
        values = _operator(n - 1)[2] @ coeffs
        rounding = (n + 1) * size + 3 * slope
    else:
        from numpy import fft

        m = _grid_size(n - 1)
        # sum_j c_j cos(pi j k/m), with c_0 doubled as the transform counts it once
        values = 0.5 * fft.irfft(np.concatenate(([2 * coeffs[0]], coeffs[1:])), 2 * m, norm="forward")[: m + 1]
        rounding = 64 * (math.log2(2 * m) + n) * size
    cond = (hi + lo) / (hi - lo)
    f_max = float(np.abs(f_grid).max())
    slack = _MACHINE_EPS * (rounding + (4 * cond + 12) * slope + f_max)
    return values, float(np.abs(values - f_grid).max()), slack


@functools.lru_cache(maxsize=None)  # reached only up to the cutoff degree
def _operator(degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (reference points, interpolation matrix, grid matrix) of
    a degree-`degree` evaluation on [-1, 1].

    The reference points are the interpolation nodes followed by the
    certification grid.  The interpolation matrix maps the target at the
    nodes to the interpolant's coefficients, and the grid matrix maps
    coefficients to the polynomial's values on the grid.
    """
    n = degree + 1
    nodes = chebpts1(n)
    m = _grid_size(degree)
    grid = np.cos(np.pi * np.arange(m + 1) / m)
    interp = chebvander(nodes, degree).T * np.where(np.arange(n) == 0, 1.0, 2.0)[:, None] / n
    out = (np.concatenate((nodes, grid)), interp, chebvander(grid, degree))
    for a in out:
        a.flags.writeable = False
    return out


def _evaluate(f, lo: float, hi: float, degree: int) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The degree-`degree` interpolant of the target `f` over [lo, hi]:
    its coefficients, its values on the certification grid, its grid
    error and the slack of that error (`_on_grid`).

    The target is sampled at the Chebyshev points of the first kind and
    on the grid.  Up to the cutoff degree the coefficients are one product
    with the cached interpolation matrix; above it, a DCT-II of the node
    samples by one real FFT.
    """
    n = degree + 1
    if degree <= _OPERATOR_DEGREE_CUTOFF:
        points, interp, _ = _operator(degree)
        samples = f((hi + lo) / 2 + (hi - lo) / 2 * points)
        coeffs, f_grid = interp @ samples[:n], samples[n:]
    else:
        from numpy import fft

        y = f(pu.mapdomain(chebpts1(n), Chebyshev.window, [lo, hi]))
        # chebpts1 ascends, so reversed it is cos((2k+1)pi/2n) for k = 0..n-1
        spec = fft.rfft(np.concatenate((y[::-1], y)))[:n]
        coeffs = (spec * np.exp(-0.5j * np.pi * np.arange(n) / n)).real / n
        coeffs[0] /= 2
        f_grid = f(_cheb_grid(lo, hi, _grid_size(degree)))
    return (coeffs, *_on_grid(coeffs, f_grid, lo, hi))


def cheb_fit(
    target: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    eps: float,
    k_cap: int,
    target_tag: str = "custom",
    zero_extension: Optional[float] = None,
    input_precision: Optional[float] = None,
) -> PolyApprox:
    """Smallest-degree Chebyshev interpolant meeting sup error <= eps.

    Degrees are doubled until certification succeeds, then binary search
    finds the smallest passing degree.  A degree passes when its grid
    error plus slack (`_evaluate`), times a small aliasing safety factor,
    is within eps; that times the factor is the recorded eps.  The search
    stops at `k_cap` or at `MAX_FIT_DEGREE`, whichever is lower, and
    raises `DegreeCapExceeded` naming that degree and the smallest error
    plus slack it saw.

    `target` maps an array of points to the target's values there; the
    search samples it, the certificate holds against it as it computes
    them, and the fit keeps it as `target_fn`.
    """
    if not (0.0 < lo < hi <= 1.0):
        raise ValueError(f"domain must satisfy 0 < lo < hi <= 1, got [{lo}, {hi}]")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if k_cap < 0:
        raise ValueError("degree cap must be nonnegative")
    k_cap = min(k_cap, MAX_FIT_DEGREE)

    best_err = math.inf
    best = None  # (degree, coefficients, certificate) of the last degree that passed

    def passes_at(deg: int) -> bool:
        nonlocal best_err, best
        coeffs, values, err, slack = _evaluate(target, lo, hi, deg)
        best_err = min(best_err, err + slack)
        if not _CERT_SAFETY * (err + slack) + 1e-15 <= eps:  # a NaN error fails too
            return False
        best = deg, coeffs, (err + slack, values)
        return True

    deg = 0
    prev_fail = -1
    while not passes_at(deg):
        prev_fail = deg
        if deg >= k_cap:
            raise DegreeCapExceeded(k_cap, best_err)
        deg = min(k_cap, max(1, 2 * deg))

    # smallest passing degree between the last failure and this success;
    # each pass lowers the upper end, so `best` ends at the smallest
    lo_deg, hi_deg = prev_fail, deg
    while hi_deg - lo_deg > 1:
        mid = (lo_deg + hi_deg) // 2
        if passes_at(mid):
            hi_deg = mid
        else:
            lo_deg = mid

    deg, coeffs, certificate = best
    return PolyApprox(
        coeffs=coeffs,
        degree=deg,
        domain=(lo, hi),
        target_tag=target_tag,
        eps=_CERT_SAFETY * certificate[0] + 1e-15,
        target_fn=target,
        zero_extension=zero_extension,
        input_precision=input_precision,
        _certificate=certificate,
    )


@functools.lru_cache(maxsize=_FIT_CACHE_SIZE, typed=True)
def approx_log(beta: float, eps: float) -> PolyApprox:
    """Certified fit of log(1/x) / (2 log(1/beta)) on [beta, 1].

    The scaled target sits in [0, 1/2] on the domain, with value exactly
    1/2 at x = beta.  Degree is capped at C_LOG * (1/beta) * ln(1/eps).
    """
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    if beta >= 1.0 - 1e-12:
        raise ValueError("beta = 1 gives a degenerate single-point domain")
    if not (0.0 < eps <= 0.5):
        raise ValueError(f"eps must be in (0, 1/2], got {eps}")
    scale = 2.0 * math.log(1.0 / beta)
    cap = int(math.ceil(C_LOG * (1.0 / beta) * math.log(1.0 / eps)))
    return cheb_fit(
        lambda xs: np.log(1.0 / xs) / scale,
        beta,
        1.0,
        eps,
        cap,
        target_tag="log_scaled",
        zero_extension=None,
    )


def pos_power_input_precision(kappa: float, eps: float) -> float:
    """Input accuracy the positive-power transform demands of its encoding."""
    return eps / (kappa * math.log(kappa / eps) ** 3)


def neg_power_input_precision(c: float, kappa: float, eps: float) -> float:
    """Input accuracy the negative-power transform demands of its encoding."""
    k1c = kappa ** (1.0 + c)
    return eps / (k1c * (1.0 + c) * math.log(k1c / eps) ** 3)


def _power_fit(target: Callable[[np.ndarray], np.ndarray], kappa: float, eps: float, **fields) -> PolyApprox:
    """`cheb_fit` of a power target on [1/kappa, 1], its degree capped at
    C_POWER * kappa * max(1, ln(kappa/eps)).  At kappa ~ 1 the target is
    the constant 1/2, fitted at degree 0 on the stand-in domain [1/2, 1]."""
    if kappa <= 1.0 + 1e-9:
        return cheb_fit(lambda xs: np.full_like(xs, 0.5), 0.5, 1.0, eps, 0, **fields)
    cap = int(math.ceil(C_POWER * kappa * max(1.0, math.log(kappa / eps))))
    return cheb_fit(target, 1.0 / kappa, 1.0, eps, cap, **fields)


@functools.lru_cache(maxsize=_FIT_CACHE_SIZE, typed=True)
def approx_pos_power(c: float, kappa: float, eps: float) -> PolyApprox:
    """Certified fit of x^c / 2 on [1/kappa, 1], with its input-precision tag.

    A zero eigenvalue extends continuously to 0.
    """
    if not (0.0 < c < 1.0):
        raise ValueError(f"exponent must be in (0, 1), got {c}")
    if kappa < 1.0:
        raise ValueError(f"conditioning parameter must be >= 1, got {kappa}")
    if not (0.0 < eps <= 0.5):
        raise ValueError(f"eps must be in (0, 1/2], got {eps}")
    return _power_fit(
        lambda xs: 0.5 * xs**c,
        kappa,
        eps,
        target_tag="pos_power",
        zero_extension=0.0,
        input_precision=pos_power_input_precision(kappa, eps),
    )


@functools.lru_cache(maxsize=_FIT_CACHE_SIZE, typed=True)
def approx_neg_power(c: float, kappa: float, eps: float) -> PolyApprox:
    """Certified fit of x^(-c) / (2 kappa^c) on [1/kappa, 1].

    The target peaks at exactly 1/2 at x = 1/kappa; zero eigenvalues are
    out of domain (negative powers do not extend through 0).
    """
    if not (0.0 < c < 1.0):
        raise ValueError(f"exponent must be in (0, 1), got {c}")
    if kappa < 1.0:
        raise ValueError(f"conditioning parameter must be >= 1, got {kappa}")
    if not (0.0 < eps <= 0.5):
        raise ValueError(f"eps must be in (0, 1/2], got {eps}")
    scale = 2.0 * kappa**c
    return _power_fit(
        lambda xs: xs ** (-c) / scale,
        kappa,
        eps,
        target_tag="neg_power",
        zero_extension=None,
        input_precision=neg_power_input_precision(c, kappa, eps),
    )


# eigenvalues this close outside a fit's domain still count as inside it
_DOMAIN_TOL = 1e-9


def _outside(p: PolyApprox, eigenvalues: np.ndarray, reach):
    """The fit-domain test of eigenvalues: masks (at_zero, stray) of those
    farther than `reach` outside the domain, at_zero for those within
    `reach` of 0 where the fit extends through 0, stray for the rest."""
    lo, hi = p.domain
    inside = (lo - reach <= eigenvalues) & (eigenvalues <= hi + reach)
    at_zero = ~inside & (np.abs(eigenvalues) <= reach) & (p.zero_extension is not None)
    return at_zero, ~(inside | at_zero)


def poly_target(t: HermMatrix, p: PolyApprox) -> HermMatrix:
    """The target side of `apply_poly`: the fit's target function on the
    target's spectrum (clamped into the domain, and the zero extension at
    a zero eigenvalue where the fit has one)."""
    lo, hi = p.domain
    tspec = t.spectrum
    at_zero, stray = _outside(p, tspec.eigenvalues, _DOMAIN_TOL)
    if stray.any():
        raise ValueError(
            f"target eigenvalue {float(tspec.eigenvalues[stray][0])!r} outside fit domain [{lo}, {hi}]"
            + ("" if p.zero_extension is not None else " (no extension through 0)")
        )
    # at_zero is empty where the fit has no zero extension
    tw = np.where(at_zero, p.zero_extension or 0.0, p.target_fn(np.clip(tspec.eigenvalues, lo, hi)))
    return herm_with_spectrum(with_eigenvalues(tspec.eigenvectors, tw), tw, tspec.eigenvectors)


def apply_poly(be: BlockEncoding, p: PolyApprox) -> BlockEncoding:
    """Transform a block encoding by a certified polynomial.

    The exact ledger (`target`) moves by the target function
    (`poly_target`, which refuses a target outside the fit domain), the
    realized ledger (`encoded`) by the polynomial itself; the new error
    bound is p.eps + L * eta with L the fit's certified bound on |P'| over
    its domain enlarged by eta (`PolyApprox.lipschitz_bound`).  Copy cost
    scales with 2 * degree, the number of encoding uses one polynomial
    application needs.  A stack is transformed trial by trial in stacked
    calls.
    """
    lo, hi = p.domain
    eta = be.eta
    target = poly_target(be.target, p)

    espec = be.encoded.spectrum
    mus = espec.eigenvalues
    at_zero, stray = _outside(p, mus, np.asarray(eta + _DOMAIN_TOL)[..., None])
    fail_first(
        stray.any(axis=-1),
        lambda i: ValueError(
            f"encoded eigenvalue {float(np.atleast_2d(mus)[i][np.atleast_2d(stray)[i]][0])!r} lies outside "
            f"the fit domain [{lo}, {hi}] by more than the error budget {np.atleast_1d(eta)[i]:g}"
        ),
    )
    ew = p(mus)
    if at_zero.any():
        ew[at_zero] = p.zero_extension
    new_encoded = herm_with_spectrum(with_eigenvalues(espec.eigenvectors, ew), ew, espec.eigenvectors)

    positive = np.asarray(eta) > 0
    new_eta = p.eps + p.lipschitz_bound(widen=eta) * eta
    bound = np.nan
    # the scalar slope bound does not always transfer to a non-commuting
    # perturbation (the operator Lipschitz constant of a polynomial can
    # exceed max |p'|); the realized distance is available here, and the
    # ledger must never under-report
    measured = positive & ~np.all(be.encoded.mat == be.target.mat, axis=(-2, -1))
    if measured.any():
        dist = widen_for_rounding(op_norm_dist(new_encoded, target), be.dim)
        bound = np.where(measured, dist, np.nan)
        new_eta = np.where(measured, np.maximum(new_eta, dist), new_eta)
    return BlockEncoding(
        encoded=new_encoded,
        target=target,
        eta=new_eta,
        sample_cost=be.sample_cost * 2 * p.degree,
        dist_bound=bound,
    )


def to_monomial(p: PolyApprox) -> MonomialPoly:
    """Plain-power coefficients of P(x), times the scalar folded out of
    the scaled-log target.

    For the scaled-log family, whose domain starts at beta, this is the
    expansion of log(1/x) itself (factor 2 log(1/beta), the bits of
    `approx_log`'s scale); every other fit converts with factor 1.  Refuses
    degrees above 30, where the change of basis is no longer trustworthy
    at double precision, and verifies agreement on the domain.
    """
    if p.degree > MONOMIAL_DEGREE_CAP:
        raise ValueError(
            f"degree {p.degree} exceeds the monomial conversion cap "
            f"{MONOMIAL_DEGREE_CAP} (conversion would be unstable)"
        )
    factor = 2.0 * math.log(1.0 / p.domain[0]) if p.target_tag == "log_scaled" else 1.0
    plain = (Chebyshev(p.coeffs, domain=list(p.domain)) * factor).convert(kind=Polynomial)
    coeffs = np.asarray(plain.coef, dtype=float)
    coeffs.flags.writeable = False  # shared through PolyApprox.monomial
    mono = MonomialPoly(coeffs=coeffs)
    lo, hi = p.domain
    grid = np.linspace(lo, hi, 10 * max(p.degree, 1) + 11)
    dev = float(np.max(np.abs(mono(grid) - factor * p(grid))))
    if dev > TOL.monomial_eval:
        raise ValueError(f"monomial conversion error {dev:.3e} exceeds {TOL.monomial_eval:g}")
    return mono
