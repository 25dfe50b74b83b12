import math
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import Chebyshev

from entropybench import qsvtpoly
from entropybench.blockenc import BlockEncoding, encode_density
from entropybench.estimators import estimate
from entropybench.numkernel import HermMatrix, op_norm_dist
from entropybench.seeding import Stream
from entropybench.qsvtpoly import (
    DegreeCapExceeded,
    PolyApprox,
    apply_poly,
    approx_log,
    approx_neg_power,
    approx_pos_power,
    cheb_fit,
    neg_power_input_precision,
    pos_power_input_precision,
    to_monomial,
)
from entropybench.states import from_spectrum, random_density
from reference import reference_search

SRC = os.path.dirname(os.path.dirname(qsvtpoly.__file__))


def dense_grid(lo, hi, n=400):
    return np.linspace(lo, hi, n)


def test_fit_linear_target_exact():
    p = cheb_fit(lambda x: x, 0.2, 0.9, 1e-6, 50)
    assert p.degree == 1
    assert p.eps <= 1e-6
    g = dense_grid(0.2, 0.9)
    assert np.max(np.abs(p(g) - g)) <= 1e-12


def test_fit_quadratic_target():
    p = cheb_fit(lambda x: x * x, 0.1, 1.0, 1e-12, 50)
    assert p.degree == 2


def test_fit_log_degree_bound():
    beta = 0.1
    p = cheb_fit(lambda x: np.log(1 / x) / (2 * math.log(10)), beta, 1.0, 1e-3, 10_000)
    assert p.degree <= 8 * (1 / beta) * math.log(1e3)


def test_fit_cap_exceeded_reports_best():
    with pytest.raises(DegreeCapExceeded) as exc:
        cheb_fit(lambda x: np.log(1 / x), 0.01, 1.0, 1e-12, 2)
    assert exc.value.best_err > 0


def test_fit_search_stops_at_max_fit_degree(monkeypatch):
    target = lambda x: np.log(1 / x)
    assert cheb_fit(target, 0.001, 1.0, 1e-6, 10_000).degree == 199
    monkeypatch.setattr(qsvtpoly, "MAX_FIT_DEGREE", 64)  # below the fit's own cap of 10000
    with pytest.raises(DegreeCapExceeded, match="no Chebyshev fit up to degree 64 met") as exc:
        cheb_fit(target, 0.001, 1.0, 1e-6, 10_000)
    assert exc.value.cap == 64


def test_approx_log_rejects_degenerate():
    with pytest.raises(ValueError):
        approx_log(1.0, 0.01)


def test_approx_log_certified():
    p = approx_log(0.1, 0.01)
    g = dense_grid(0.1, 1.0)
    target = np.log(1 / g) / (2 * np.log(10))
    assert np.max(np.abs(p(g) - target)) <= 0.01
    assert np.max(np.abs(p(g))) <= 1.0 + 1e-9


def test_approx_log_endpoint_half():
    p = approx_log(0.1, 0.01)
    assert p(0.1) == pytest.approx(0.5, abs=0.01)


def test_approx_log_degree_law():
    for beta in (0.2, 0.1, 0.05):
        for eps in (1e-2, 1e-3):
            p = approx_log(beta, eps)
            assert p.degree <= 8 * (1 / beta) * math.log(1 / eps)


def test_pos_power_endpoint():
    p = approx_pos_power(0.5, 10.0, 1e-3)
    assert p(1.0) == pytest.approx(0.5, abs=1e-3)


def test_pos_power_matches_scalar():
    eps = 1e-4
    p = approx_pos_power(0.3, 5.0, eps)
    g = dense_grid(0.2, 1.0)
    assert np.max(np.abs(2 * p(g) - g**0.3)) <= 2 * eps


def test_pos_power_input_precision_value():
    p = approx_pos_power(0.5, 10.0, 1e-3)
    expect = 1e-3 / (10 * math.log(1e4) ** 3)
    assert p.input_precision == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(1.28e-7, rel=0.01)
    assert pos_power_input_precision(10.0, 1e-3) == expect


def test_neg_power_endpoint_half():
    eps = 1e-4
    p = approx_neg_power(0.6, 10.0, eps)
    assert p(0.1) == pytest.approx(0.5, abs=eps)


def test_neg_power_matches_scalar():
    eps = 1e-4
    c, kappa = 0.6, 10.0
    p = approx_neg_power(c, kappa, eps)
    g = dense_grid(0.1, 1.0)
    scale = 2 * kappa**c
    assert np.max(np.abs(scale * p(g) - g ** (-c))) <= scale * eps


def test_neg_power_input_precision_formula():
    c, kappa, eps = 0.6, 10.0, 1e-3
    p = approx_neg_power(c, kappa, eps)
    expect = eps / (kappa ** (1 + c) * (1 + c) * math.log(kappa ** (1 + c) / eps) ** 3)
    assert p.input_precision == pytest.approx(expect, rel=1e-12)
    assert neg_power_input_precision(c, kappa, eps) == expect


def test_power_degenerate_domain_constant():
    p = approx_pos_power(0.5, 1.0, 1e-6)
    assert p.degree == 0
    assert p(1.0) == pytest.approx(0.5)
    q = approx_neg_power(0.5, 1.0, 1e-6)
    assert q.degree == 0 and q(1.0) == pytest.approx(0.5)


def test_apply_identity_fit():
    rho = from_spectrum([0.5, 0.3, 0.2], 3)
    be = encode_density(rho, 0.1, noiseless=True)
    p = cheb_fit(lambda x: x, 0.1, 1.0, 1e-12, 10, zero_extension=0.0)
    out = apply_poly(be, p)
    assert op_norm_dist(out.target, be.target) <= 1e-10
    assert op_norm_dist(out.encoded, be.encoded) <= 1e-10


def test_apply_pos_power_spectrum():
    rho = from_spectrum([0.5, 0.3, 0.2], 3)
    be = encode_density(rho, 0.01, noiseless=True)
    eps = 1e-6
    kappa = 4 / (np.pi * 0.2)
    p = approx_pos_power(0.5, kappa, eps)
    out = apply_poly(be, p)
    got = np.sort(out.encoded.spectrum.eigenvalues)[::-1]
    expect = np.sort([np.sqrt(np.pi * lam / 4) / 2 for lam in (0.5, 0.3, 0.2)])[::-1]
    assert np.max(np.abs(got - expect)) <= eps


def test_apply_noiseless_eta_equals_eps():
    h = HermMatrix(np.eye(4, dtype=complex) / 4)
    be = BlockEncoding(encoded=h, target=h, dist_bound=0.0)  # eta = 0 exactly
    p = approx_pos_power(0.5, 8.0, 1e-5)
    out = apply_poly(be, p)
    assert out.eta == p.eps


def test_apply_cost_scales_with_degree():
    rho = from_spectrum([0.5, 0.3, 0.2], 3)
    be = encode_density(rho, 0.01, noiseless=True)
    p = approx_pos_power(0.5, 4 / (np.pi * 0.2), 1e-6)
    out = apply_poly(be, p)
    assert out.sample_cost == be.sample_cost * 2 * p.degree


def test_apply_rejects_out_of_domain():
    rho = from_spectrum([0.5, 0.3, 0.2], 3)
    be = encode_density(rho, 0.01, noiseless=True)
    p = approx_neg_power(0.5, 4.0, 1e-6)  # domain [0.25, 1] misses pi*0.2/4
    with pytest.raises(ValueError, match="outside"):
        apply_poly(be, p)


def test_apply_commutes_with_exact_spectral_path():
    rho = random_density(6, 4, seed=2)
    be = encode_density(rho, 0.01, noiseless=True)
    kappa = 4 / (np.pi * rho.meta.rho_min)
    p = approx_pos_power(0.4, kappa, 1e-7)
    out = apply_poly(be, p)
    lam_in = be.target.spectrum.eigenvalues
    expect = np.sort([0.5 * x**0.4 if x > 1e-12 else 0.0 for x in lam_in])[::-1]
    assert np.max(np.abs(out.target.spectrum.eigenvalues - expect)) <= 1e-10


def test_to_monomial_constant_log():
    p = PolyApprox(
        coeffs=np.array([0.5]),
        degree=0,
        domain=(0.1, 1.0),
        target_tag="log_scaled",
        eps=1e-15,
        target_fn=lambda x: 0.5,
    )
    mono = to_monomial(p)
    assert mono[0] == pytest.approx(math.log(10), rel=1e-12)
    assert len(mono) - 1 == 0


def test_to_monomial_linear_exact():
    p = cheb_fit(lambda x: 0.25 + 0.5 * x, 0.1, 1.0, 1e-9, 10)
    mono = to_monomial(p)
    assert mono == pytest.approx([0.25, 0.5], abs=1e-12)


def test_to_monomial_log_agreement():
    p = approx_log(0.2, 0.05)
    mono = to_monomial(p)
    g = dense_grid(0.2, 1.0)
    assert np.max(np.abs(np.polynomial.polynomial.polyval(g, mono) - 2 * math.log(5) * p(g))) <= 1e-8


def test_to_monomial_coefficients_are_read_only():
    mono = to_monomial(approx_log(0.2, 0.05))
    with pytest.raises(ValueError, match="read-only"):
        mono[0] = 0.0


def test_to_monomial_degree_cap():
    p = cheb_fit(lambda x: np.sin(40 * x), 0.01, 1.0, 1e-9, 200)
    assert p.degree > 30
    with pytest.raises(ValueError, match="cap"):
        to_monomial(p)


def test_apply_poly_eta_covers_noncommuting_noise():
    # a random perturbation does not commute with the state, and the
    # operator slope of a steep fit can beat its scalar slope; the
    # ledger must cover the realized distance regardless
    rho = random_density(6, 3, seed=0)
    kappa = 4 / (np.pi * rho.meta.rho_min)
    fit = approx_pos_power(0.05, kappa, 2e-3)
    be = encode_density(rho, 0.04, Stream(0))
    out = apply_poly(be, fit)
    realized = op_norm_dist(out.encoded, out.target)
    assert realized > fit.eps + fit.lipschitz_bound(widen=be.eta) * be.eta  # scalar bound beaten
    assert realized <= out.eta  # ledger still honest


BUILDER_CASES = [
    (approx_log, (0.1, 1e-3)),
    (approx_pos_power, (0.5, 10.0, 1e-4)),
    (approx_neg_power, (0.6, 10.0, 1e-4)),
]


@pytest.fixture
def cheb_fit_calls(monkeypatch):
    """Target tags of every cheb_fit call the fit builders make."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("target_tag"))
        return cheb_fit(*args, **kwargs)

    monkeypatch.setattr(qsvtpoly, "cheb_fit", counting)
    return calls


@pytest.fixture
def c_log(monkeypatch):
    """Setter for the log-fit degree-cap constant.  Every builder call
    makes its own fit, so no fit made under another value is handed out
    (a memo that did not key on it did)."""

    def set_c_log(value):
        monkeypatch.setattr(qsvtpoly, "C_LOG", value)

    return set_c_log


@pytest.mark.parametrize("builder,args", BUILDER_CASES)
def test_each_builder_call_runs_its_own_search(cheb_fit_calls, builder, args):
    first = builder(*args)
    second = builder(*args)
    assert len(cheb_fit_calls) == 2 and second is not first
    assert_same_fit(first, second)


@pytest.mark.parametrize("builder,args", BUILDER_CASES)
def test_fit_coefficients_are_read_only(builder, args):
    p = builder(*args)
    with pytest.raises(ValueError, match="read-only"):
        p.coeffs[0] = 0.0
    assert p.coeffs[0] != 0.0


def test_cached_derived_values_equal_fresh():
    p = approx_log(0.2, 0.05)
    cached = [p.lipschitz_bound(w) for w in (0.0, 1e-3)]
    fresh = replace(p)  # same fit, empty cache
    assert [fresh.lipschitz_bound(w) for w in (0.0, 1e-3)] == cached


def test_apply_poly_matches_scalar_loop():
    # reference: the per-eigenvalue evaluation apply_poly used to run
    rho = random_density(6, 3, seed=0)
    fit = approx_pos_power(0.5, 4 / (np.pi * rho.meta.rho_min), 1e-4)
    be = encode_density(rho, 0.01, Stream(1))
    lo, hi = fit.domain
    reach = be.eta + 1e-9
    expect = []
    for mu in be.encoded.spectrum.eigenvalues:
        mu = float(mu)
        expect.append(float(fit(mu)) if lo - reach <= mu <= hi + reach else fit.zero_extension)
    assert 0.0 in expect  # the zero extension is exercised
    got = apply_poly(be, fit).encoded.spectrum.eigenvalues
    np.testing.assert_array_equal(np.sort(got), np.sort(expect))


def reference_interpolate(target, lo, hi, deg):
    """The degree-`deg` interpolant of the target, built by numpy's own
    `Chebyshev.interpolate`."""
    return Chebyshev.interpolate(target, deg, domain=[lo, hi])


def reference_certify(cheb, f, lo, hi, degree):
    """Sup error of a `Chebyshev` against the target on the certification
    grid, and its values there, evaluated by the object."""
    n = max(10 * max(degree, 1), 10)
    grid = (hi + lo) / 2 + (hi - lo) / 2 * np.cos(np.pi * np.arange(n + 1) / n)
    values = cheb(grid)
    return float(np.max(np.abs(values - f(grid)))), values


def reference_cheb_fit(
    target, lo, hi, eps, k_cap, target_tag="custom", zero_extension=None, input_precision=None,
):
    """The all-exact degree search cheb_fit ran before its evaluation
    became its certificate: every degree is interpolated from the target
    by `Chebyshev.interpolate` and certified by `Chebyshev.__call__`.
    The returned fit carries that certificate."""

    def attempt(deg: int):
        cheb = reference_interpolate(target, lo, hi, deg)
        return cheb, reference_certify(cheb, target, lo, hi, deg)

    def passes(err: float) -> bool:
        return qsvtpoly._CERT_SAFETY * err + 1e-15 <= eps

    best_err = math.inf
    deg = 0
    prev_fail = -1
    while True:
        cheb, (err, values) = attempt(deg)
        best_err = min(best_err, err)
        if passes(err):
            break
        prev_fail = deg
        if deg >= k_cap:
            raise DegreeCapExceeded(k_cap, best_err)
        deg = min(k_cap, max(1, 2 * deg))

    lo_deg, hi_deg = prev_fail, deg
    best = (deg, cheb, err, values)
    while hi_deg - lo_deg > 1:
        mid = (lo_deg + hi_deg) // 2
        cheb_mid, (err_mid, values_mid) = attempt(mid)
        if passes(err_mid):
            hi_deg = mid
            best = (mid, cheb_mid, err_mid, values_mid)
        else:
            lo_deg = mid

    deg, cheb, err, values = best
    recorded = min(eps, qsvtpoly._CERT_SAFETY * err + 1e-15)
    return PolyApprox(
        coeffs=cheb.coef, degree=deg, domain=(lo, hi), target_tag=target_tag, eps=recorded,
        target_fn=target, zero_extension=zero_extension, input_precision=input_precision,
        _certificate=(err, values),
    )


def cheb_fit_call(builder, lo, c, eps):
    """(args, kwargs) `builder` passes to cheb_fit for the domain [lo, 1]."""
    with mock.patch.object(qsvtpoly, "cheb_fit", lambda *a, **k: (a, k)):
        if builder is approx_log:
            return builder(lo, eps)
        return builder(c, 1.0 / lo, eps)


def assert_same_fit(got, want):
    assert got.degree == want.degree
    assert got.coeffs.tobytes() == want.coeffs.tobytes()
    assert got.eps.hex() == want.eps.hex()


FAMILIES = st.sampled_from([approx_log, approx_pos_power, approx_neg_power])
LOWER_ENDS = st.floats(-4.5, math.log10(0.5)).map(lambda e: 10.0**e)
EXPONENTS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def reference_rounding(coeffs, lo, hi, target):
    """s_ref: a bound on how far `reference_certify`'s grid error for these
    coefficients lies from max_k |P(x_k) - f(x_k)|, the exact error
    `_on_grid`'s slack is measured from (P the exact polynomial at the
    exact image t'_k of the float grid point x_k, f the target's values
    there).

    With e = 2^-53 the unit roundoff, every rounding below is at most e
    of its computed result to first order, and u = 2^-52 doubles the sum
    to cover the second-order terms, as in `_on_grid`:

    - Clenshaw.  `chebval` keeps c1 = b_(j+1) and c0 = c_j - b_(j+2) of
      the recurrence b_j = c_j + 2 tau b_(j+1) - b_(j+2), and ends with
      c0 + tau c1.  Each rounded step is that recurrence with c_j, or
      c_(j+1), moved by the step's error, and the last one moves c_0, so
      the computed value is exactly sum_j (c_j + r_j) T_j(tau), where
      r_j sums the roundings charged to index j.  As |T_j| <= 1 on
      [-1, 1] (tau lies within rounding of it, so |T_j(tau)| exceeds 1
      only at second order), the value is within e R of P(tau), R the
      sum of the magnitudes of every rounded result: each c0, each
      product c1 * 2 tau, each c1, and the final product and sum.  R is
      computed here by running the same loop.
    - the map.  `Chebyshev.__call__` evaluates at tau_k = off + scl x_k,
      with off = -(hi + lo)/(hi - lo) and scl = 2/(hi - lo) from at most
      three roundings each and tau_k from two more, so each of its two
      terms is within 4 e of itself and |tau_k - t'_k| <=
      4 e (hi + lo + 2 |x_k|)/(hi - lo) <= 4 e (2 cond + 1) with
      cond = (hi + lo)/(hi - lo) as in `_on_grid`.  That moves P by at
      most S2 = sum_j j^2 |c_j| >= max |P'| times as much.
    - the subtraction from the target, at most e (S + max |f|) with
      S = sum_j |c_j| >= max |P|.
    """
    n = max(10 * max(len(coeffs) - 1, 1), 10)
    grid = (hi + lo) / 2 + (hi - lo) / 2 * np.cos(np.pi * np.arange(n + 1) / n)
    off, scl = Chebyshev(coeffs, domain=[lo, hi]).mapparms()
    tau = off + scl * grid
    c = np.asarray(coeffs, dtype=float)
    c0, c1 = (c[0], 0.0) if len(c) == 1 else (c[-2], c[-1])
    sizes = np.zeros_like(tau)
    for i in range(3, len(c) + 1):  # the loop of `chebval`, its magnitudes summed
        c0, c1, prod = c[-i] - c1, c0 + c1 * (2 * tau), c1 * (2 * tau)
        sizes += np.abs(c0) + np.abs(prod) + np.abs(c1)
    sizes += np.abs(c1 * tau) + np.abs(c0 + c1 * tau)
    size = float(np.abs(c).sum())
    slope = float(np.arange(len(c)) ** 2 @ np.abs(c))
    cond = (hi + lo) / (hi - lo)
    f_max = float(np.abs(target(grid)).max())
    return qsvtpoly._MACHINE_EPS * (float(sizes.max()) + 4 * (2 * cond + 1) * slope + size + f_max)


@settings(max_examples=30, deadline=None)
@given(builder=FAMILIES, lo=LOWER_ENDS, c=EXPONENTS, eps=st.floats(-6, -2).map(lambda e: 10.0**e))
# two searches that end at degrees 765-960 with coefficients apart by rounding
@example(builder=approx_neg_power, lo=10**-4.5, c=0.18359375, eps=1e-6)
@example(builder=approx_neg_power, lo=10**-4.5, c=0.03125, eps=10**-5.875)
def test_steered_search_equals_exact_search(builder, lo, c, eps):
    args, kwargs = cheb_fit_call(builder, lo, c, eps)
    target, lo, hi = args[:3]
    want = reference_cheb_fit(*args, **kwargs)
    got = cheb_fit(*args, **kwargs)
    safety = qsvtpoly._CERT_SAFETY
    if got.degree == want.degree:
        # both record safety * (grid error) + 1e-15, cheb_fit with its slack
        # added.  Its grid error is within its slack of the exact error of
        # its coefficients, the reference's within s_ref of that of its own,
        # and the two exact errors differ by at most sum |got - want| of the
        # coefficients, since |T_k| <= 1 on the mapped grid (to first order:
        # its points lie within rounding of [-1, 1]).  The last term covers
        # the five roundings that make the two recorded eps.
        slack = qsvtpoly._evaluate(target, lo, hi, got.degree)[3]
        apart = float(np.abs(got.coeffs - want.coeffs).sum())
        s_ref = reference_rounding(want.coeffs, lo, hi, target)
        bound = safety * (apart + 2 * slack + s_ref) + 3 * qsvtpoly._MACHINE_EPS * max(got.eps, want.eps)
        assert abs(got.eps - want.eps) <= bound
    else:
        # the two searches can part only where the exact error of the lower
        # degree sits within the slack (once for the errors' difference,
        # once for the slack added to the error) of the pass threshold
        low = min(got.degree, want.degree)
        err = reference_certify(reference_interpolate(target, lo, hi, low), target, lo, hi, low)[0]
        slack = qsvtpoly._evaluate(target, lo, hi, low)[3]
        assert abs(err - (eps - 1e-15) / safety) <= 2 * slack


def capped_log_fit(c_log):
    c_log(0.01)  # cap ceil(0.01 * 100 * ln(1e6)) = 14
    return cheb_fit_call(approx_log, 0.01, None, 1e-6)


CAPPED_FITS = {
    "log": capped_log_fit,
    # the smallest error of degrees 0, 1, 2, 4, 8, 14 is at degree 1, not at the cap
    "sine": lambda c_log: ((lambda xs: np.sin(40 * xs), 0.01, 1.0, 1e-6, 14), {}),
}


@pytest.mark.parametrize("case", sorted(CAPPED_FITS))
def test_steered_search_degree_cap_reports_exact_best_err(case, c_log):
    args, kwargs = CAPPED_FITS[case](c_log)
    with pytest.raises(DegreeCapExceeded) as want:
        reference_cheb_fit(*args, **kwargs)
    with pytest.raises(DegreeCapExceeded) as got:
        cheb_fit(*args, **kwargs)
    assert got.value.cap == want.value.cap
    target, lo, hi, _, cap = args
    tried = [0]
    while tried[-1] < cap:
        tried.append(min(cap, max(1, 2 * tried[-1])))
    slack = max(qsvtpoly._evaluate(target, lo, hi, deg)[3] for deg in tried)
    assert abs(got.value.best_err - want.value.best_err) <= 2 * slack


def search_outcome(search, args, kwargs):
    """The degree, coefficient bytes and recorded eps of a search's fit,
    or the cap and best error of its `DegreeCapExceeded`."""
    try:
        fit = search(*args, **kwargs)
    except DegreeCapExceeded as exc:
        return "capped", exc.cap, exc.best_err.hex()
    return fit.degree, fit.coeffs.tobytes(), fit.eps.hex()


@settings(max_examples=60, deadline=None)
@given(builder=FAMILIES, lo=LOWER_ENDS, c=EXPONENTS, eps=st.floats(-7, -2).map(lambda e: 10.0**e))
@example(builder=approx_neg_power, lo=10**-4.5, c=0.18359375, eps=1e-6)
@example(builder=approx_neg_power, lo=10**-4.5, c=0.03125, eps=10**-5.875)
def test_predicted_search_returns_the_doubling_search_fit(builder, lo, c, eps):
    args, kwargs = cheb_fit_call(builder, lo, c, eps)
    assert search_outcome(cheb_fit, args, kwargs) == search_outcome(reference_search, args, kwargs)


# (target, lo, hi, eps, degree cap) of custom fits, two of them capped as
# in `CAPPED_FITS` and one at the degree ceiling's test cap of 64
CUSTOM_FITS = {
    "x": (lambda x: x, 0.2, 0.9, 1e-6, 50),
    "x^2": (lambda x: x * x, 0.1, 1.0, 1e-12, 50),
    "sin(40x)": (lambda xs: np.sin(40 * xs), 0.01, 1.0, 1e-6, 200),
    "sin(40x) capped": (lambda xs: np.sin(40 * xs), 0.01, 1.0, 1e-6, 14),
    "scaled log": (lambda x: np.log(1 / x) / (2 * math.log(10)), 0.1, 1.0, 1e-3, 10_000),
    "scaled log capped": (lambda xs: np.log(1.0 / xs) / (2 * math.log(100.0)), 0.01, 1.0, 1e-6, 14),
    "log": (lambda x: np.log(1 / x), 0.001, 1.0, 1e-6, 10_000),
    "log capped": (lambda x: np.log(1 / x), 0.001, 1.0, 1e-6, 64),
}


@pytest.mark.parametrize("case", sorted(CUSTOM_FITS))
def test_predicted_search_returns_the_doubling_search_fit_of_custom_targets(case):
    args = CUSTOM_FITS[case]
    want = search_outcome(reference_search, args, {})
    assert (want[0] == "capped") == case.endswith("capped")
    assert search_outcome(cheb_fit, args, {}) == want


@pytest.fixture
def evaluated(monkeypatch):
    """Degrees `_evaluate` is called at, in order."""
    degrees = []
    real = qsvtpoly._evaluate
    monkeypatch.setattr(qsvtpoly, "_evaluate", lambda f, lo, hi, deg: degrees.append(deg) or real(f, lo, hi, deg))
    return degrees


# the 18 builder calls of one pass of the bench's renyi-d64 workload at seed 1
RENYI_D64_FITS = [
    (approx_pos_power, (0.25, 2162.262369405756, 0.0005208333333333333)),
    (approx_neg_power, (0.25, 31.56510163651716, 0.0003906250000000001)),
    (approx_pos_power, (0.25, 505.97835987834355, 0.000152157589502467)),
    (approx_pos_power, (0.25, 205.36979694040147, 4.0690104166666664e-05)),
    (approx_log, (0.005046625805076093, 0.00029542248765219406)),
    (approx_pos_power, (0.5, 43.7898445994579, 0.00029542248765219406)),
    (approx_pos_power, (0.25, 1269.2756959300682, 0.0005208333333333333)),
    (approx_neg_power, (0.25, 108.507413967611, 0.0003906250000000001)),
    (approx_pos_power, (0.25, 684.4000127039118, 0.0001420251987181369)),
    (approx_pos_power, (0.25, 395.5010986285696, 4.0690104166666664e-05)),
    (approx_log, (3.552871877137285e-05, 0.0001525109022717744)),
    (approx_pos_power, (0.5, 84.82347578287877, 0.0001525109022717744)),
    (approx_pos_power, (0.25, 267.53318802337077, 0.0005208333333333333)),
    (approx_neg_power, (0.25, 259.5272007545374, 0.0003906250000000001)),
    (approx_pos_power, (0.25, 243.50090103371676, 0.00014110192681171267)),
    (approx_pos_power, (0.25, 221.0982870506689, 4.0690104166666664e-05)),
    (approx_log, (0.0025597102075781038, 0.0002618190907178549)),
    (approx_pos_power, (0.5, 49.410089959466184, 0.0002618190907178549)),
]


def test_a_renyi_d64_pass_evaluates_few_degrees(evaluated):
    # the doubling search made 224 evaluations here, 107 of them above the cutoff
    for builder, args in RENYI_D64_FITS:
        builder(*args)
    assert len(evaluated) <= 120
    assert sum(deg > qsvtpoly._OPERATOR_DEGREE_CUTOFF for deg in evaluated) <= 60


def test_the_search_keeps_its_degree_limits(evaluated):
    # no degree twice, none above the cap, none above 16 before 16 failed,
    # and no jump past 8 times the degrees evaluated before it
    draw = random.Random(16)
    cases = [(args, {}) for args in CUSTOM_FITS.values()]
    for _ in range(200):
        builder = draw.choice([approx_log, approx_pos_power, approx_neg_power])
        cases.append(cheb_fit_call(builder, 10 ** draw.uniform(-4.5, -0.3), draw.random(), 10 ** draw.uniform(-7, -1.5)))
    low = 0
    for args, kwargs in cases:
        evaluated.clear()
        degree = search_outcome(cheb_fit, args, kwargs)[0]
        assert len(set(evaluated)) == len(evaluated)
        assert max(evaluated) <= min(args[4], qsvtpoly.MAX_FIT_DEGREE)
        for i, deg in enumerate(evaluated):
            assert deg <= 16 or 16 in evaluated[:i] and deg <= 8 * max(evaluated[:i])
        if degree != "capped" and degree <= 16:
            low += 1
            assert max(evaluated) <= 16
    assert low >= 40


@pytest.mark.parametrize("eps", [math.nan, 0.0, -1e-3])
def test_cheb_fit_refuses_an_eps_that_is_not_positive(evaluated, eps):
    with pytest.raises(ValueError, match=f"eps must be positive, got {eps}"):
        cheb_fit(lambda x: x, 0.1, 1.0, eps, 4096)
    assert evaluated == []


def test_cheb_fit_refuses_a_nan_degree_cap(monkeypatch):
    # `k_cap < 0` is False for NaN, and a NaN cap never stops the search
    evaluated = []
    real = qsvtpoly._evaluate

    def bounded(f, lo, hi, deg):
        if deg > qsvtpoly.MAX_FIT_DEGREE:
            raise AssertionError(f"searched degree {deg}, above MAX_FIT_DEGREE")
        evaluated.append(deg)
        return real(f, lo, hi, deg)

    monkeypatch.setattr(qsvtpoly, "_evaluate", bounded)
    with pytest.raises(ValueError, match="degree cap must be nonnegative, got nan"):
        cheb_fit(lambda xs: np.sin(40 * xs), 0.01, 1.0, 1e-16, math.nan)
    assert evaluated == []


@pytest.mark.parametrize("builder,args,message", [
    (approx_pos_power, (0.5, math.inf, 1e-3), "conditioning parameter must be finite and >= 1, got inf"),
    (approx_pos_power, (0.5, math.nan, 1e-3), "conditioning parameter must be finite and >= 1, got nan"),
    (approx_neg_power, (0.5, math.nan, 1e-3), "conditioning parameter must be finite and >= 1, got nan"),
    # the cap overflows, and the input precision rounds to 0
    (approx_pos_power, (0.5, 1e308, 1e-3), "conditioning parameter 1e+308 at eps 0.001 demands an input precision"),
    # the grid rounds 1/kappa or beta to 0, where the target is infinite
    (approx_neg_power, (0.5, 1e300, 1e-3), "conditioning parameter 1e+300 puts the fit domain's lower end 1e-300"),
    (approx_neg_power, (0.5, 1e17, 1e-3), "conditioning parameter 1e+17 puts the fit domain's lower end 1e-17"),
    (approx_log, (1e-307, 0.1), "beta 1e-307 puts the fit domain's lower end 1e-307"),
    (approx_log, (1e-17, 0.1), "beta 1e-17 puts the fit domain's lower end 1e-17"),
])
def test_builders_refuse_what_their_arithmetic_cannot_hold_before_any_evaluation(evaluated, builder, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        builder(*args)
    assert evaluated == []


def test_a_positive_power_fits_where_the_grid_rounds_its_lower_end_to_0():
    # x^c extends through 0, so its domain needs no resolved lower end
    assert approx_pos_power(0.5, 1e17, 1e-3).degree == 262


@pytest.mark.parametrize("builder,args", [(approx_log, (0.1, 5e-324)), (approx_log, (0.1, 1e-15)),
                                          (approx_pos_power, (0.5, 4.0, 1e-16)),
                                          (approx_neg_power, (0.5, 4.0, 1e-15))])
def test_builders_refuse_an_eps_no_degree_can_meet_before_any_evaluation(evaluated, builder, args):
    # a degree passes only when 1.05 (error + slack) + 1e-15 <= eps, and every
    # builder target's slack is positive; these searched to degree 4096 or 1224
    with pytest.raises(ValueError, match=r"fit accuracy eps .* is at or below 1e-15, which no certified fit can meet"):
        builder(*args)
    assert evaluated == []


@pytest.mark.parametrize("builder,args", [(approx_log, (0.1, 2e-15)), (approx_pos_power, (0.5, 4.0, 2e-15))])
def test_an_eps_just_above_1e_15_still_searches(evaluated, builder, args):
    with pytest.raises(DegreeCapExceeded):
        builder(*args)
    assert len(evaluated) > 3


def evaluation_examples(test):
    """Each family at degrees 0 and 1 and on both sides of the cutoff, where
    the evaluation moves from the cached operator to the FFT."""
    cutoff = qsvtpoly._OPERATOR_DEGREE_CUTOFF
    for builder in (approx_log, approx_pos_power, approx_neg_power):
        for deg in (0, 1, cutoff, cutoff + 1):
            test = example(builder=builder, lo=0.01, c=0.3, deg=deg)(test)
    return test


@settings(max_examples=30, deadline=None)
@given(builder=FAMILIES, lo=LOWER_ENDS, c=EXPONENTS, deg=st.integers(0, 1024))
@evaluation_examples
def test_evaluation_error_within_its_slack_and_the_slack_small(builder, lo, c, deg):
    (target, lo, hi, *_), _ = cheb_fit_call(builder, lo, c, 1e-3)
    coeffs, _, err, slack = qsvtpoly._evaluate(target, lo, hi, deg)
    exact = reference_certify(Chebyshev(coeffs, domain=[lo, hi]), target, lo, hi, deg)[0]
    assert abs(err - exact) <= slack
    # a sound but huge slack would raise every recorded eps: on the fits the
    # builders return, at the smallest eps the fit tests draw, it stays
    # below a thousandth of eps
    args, kwargs = cheb_fit_call(builder, lo, c, 1e-6)
    fit = cheb_fit(*args, **kwargs)
    assert qsvtpoly._evaluate(args[0], lo, hi, fit.degree)[3] <= 1e-3 * 1e-6


def test_estimate_operators_are_read_only_and_kept_only_up_to_the_cutoff(monkeypatch):
    cutoff = qsvtpoly._OPERATOR_DEGREE_CUTOFF
    searched = set()
    real = qsvtpoly._evaluate
    monkeypatch.setattr(qsvtpoly, "_evaluate", lambda f, lo, hi, deg: searched.add(deg) or real(f, lo, hi, deg))
    qsvtpoly._operator.cache_clear()
    args, kwargs = cheb_fit_call(approx_log, 0.01, None, 1e-6)
    cheb_fit(*args, **kwargs)
    assert max(searched) > cutoff
    assert qsvtpoly._operator.cache_info().currsize == len({deg for deg in searched if deg <= cutoff})
    for deg in (0, cutoff):
        for a in qsvtpoly._operator(deg):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


def test_low_degree_fits_do_not_import_the_fft():
    # the search evaluates no degree above 16 before 16 has failed, so a
    # fit of degree at most half the cutoff searches no degree above it
    code = (
        "import sys\n"
        "from entropybench import qsvtpoly\n"
        "low = qsvtpoly.approx_log(0.1, 1e-3)\n"
        "assert low.degree <= qsvtpoly._OPERATOR_DEGREE_CUTOFF // 2, low.degree\n"
        "assert 'numpy.fft' not in sys.modules\n"
        "qsvtpoly.approx_log(0.01, 1e-6)\n"
        "assert 'numpy.fft' in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@settings(max_examples=30, deadline=None)
@given(builder=FAMILIES, lo=LOWER_ENDS, c=EXPONENTS, eps=st.floats(-6, -2).map(lambda e: 10.0**e))
def test_fit_error_on_a_dense_grid_stays_within_its_recorded_eps(builder, lo, c, eps):
    # the certificate reads the certification grid only; between its nodes
    # the safety factor must cover the excursions
    args, kwargs = cheb_fit_call(builder, lo, c, eps)
    fit = cheb_fit(*args, **kwargs)
    grid = np.linspace(*fit.domain, 20_001)
    assert np.max(np.abs(fit(grid) - fit.target_fn(grid))) <= fit.eps


# the certificate of the constant 1/2 at degree 0: its grid error is 0,
# its slack u (2 S + max|f|) = 1.5 u (`_on_grid`, S = 1/2, no slope)
CONSTANT_EPS = qsvtpoly._CERT_SAFETY * (1.5 * qsvtpoly._MACHINE_EPS) + 1e-15


def test_a_constant_fit_certifies_through_the_grid_evaluation():
    # kappa 1 gives the constant 1/2, certified by the search's one grid
    # evaluation at degree 0
    with mock.patch.object(qsvtpoly, "_on_grid", wraps=qsvtpoly._on_grid) as on_grid:
        fit = approx_pos_power(0.3, 1.0, 1e-6)
    assert on_grid.call_count == 1
    assert (fit.degree, fit.eps, fit(0.7)) == (0, CONSTANT_EPS, 0.5)


@pytest.mark.parametrize("builder", [approx_pos_power, approx_neg_power])
def test_unit_kappa_fits_carry_the_search_certificate(builder):
    fit = builder(0.3, 1.0, 1e-6)
    assert (fit.degree, fit.coeffs.tolist(), fit.domain) == (0, [0.5], (0.5, 1.0))
    assert fit.eps == CONSTANT_EPS


@pytest.mark.parametrize("builder", [approx_pos_power, approx_neg_power])
def test_unit_kappa_fits_refuse_an_eps_below_their_certificate(builder):
    with pytest.raises(DegreeCapExceeded, match="up to degree 0 met") as exc:
        builder(0.3, 1.0, float(np.nextafter(CONSTANT_EPS, 0.0)))
    assert exc.value.cap == 0


@pytest.mark.parametrize("builder,args", [(approx_pos_power, (0.5, 1.0, 1.0)), (approx_neg_power, (0.5, 4.0, 8.0)),
                                          (approx_pos_power, (0.5, 4.0, 5.0)), (approx_pos_power, (0.5, 4.0, math.nan)),
                                          (approx_neg_power, (0.5, 4.0, math.nan))])
def test_power_fits_refuse_an_eps_outside_the_target_range(builder, args):
    # every target lies in [0, 1/2]; at eps = kappa (or kappa^(1+c)) the
    # input-precision formula would divide by log 1 = 0, and above it
    # would come out negative
    with pytest.raises(ValueError, match=r"eps must be in \(0, 1/2\], got"):
        builder(*args)


@pytest.mark.parametrize("builder,args", [*BUILDER_CASES, (approx_pos_power, (0.5, 1.0, 1e-4)),
                                          (approx_neg_power, (0.6, 1.0, 1e-4))])
def test_a_fit_keeps_the_target_its_search_sampled(monkeypatch, builder, args):
    sampled = []
    real = qsvtpoly._evaluate
    monkeypatch.setattr(qsvtpoly, "_evaluate", lambda f, lo, hi, deg: sampled.append(f) or real(f, lo, hi, deg))
    fit = builder(*args)
    assert sampled and all(f is fit.target_fn for f in sampled)


def test_poly_target_calls_the_target_once_on_the_clamped_spectrum():
    rho = from_spectrum([0.5, 0.3, 0.2], 4)  # a zero eigenvalue, clamped to the domain and then extended
    t = encode_density(rho, 0.01, noiseless=True).target
    fit = approx_pos_power(0.4, 10.0, 1e-6)
    calls = []
    spy = replace(fit, target_fn=lambda xs: calls.append(xs.copy()) or fit.target_fn(xs))
    calls.clear()  # the copy certified itself against the spy
    out = qsvtpoly.poly_target(t, spy)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], np.clip(t.spectrum.eigenvalues, *fit.domain))
    expect = np.where(t.spectrum.eigenvalues > 1e-12, fit.target_fn(calls[0]), 0.0)
    np.testing.assert_array_equal(out.spectrum.eigenvalues, expect)


def test_fit_keeps_its_checks_on_a_handed_over_certificate():
    fit = approx_log(0.2, 0.05)
    fields = dict(coeffs=fit.coeffs, degree=fit.degree, domain=fit.domain, target_tag=fit.target_tag,
                  eps=fit.eps, target_fn=fit.target_fn)
    lo, hi = fit.domain
    err, values = reference_certify(Chebyshev(fit.coeffs, domain=list(fit.domain)), fit.target_fn, lo, hi, fit.degree)
    PolyApprox(**fields, _certificate=(err, values))
    with pytest.raises(ValueError, match="certification failed"):
        PolyApprox(**fields, _certificate=(2 * fit.eps, values))
    with pytest.raises(ValueError, match=r"\|P\(x\)\| <= 1"):
        PolyApprox(**fields, _certificate=(err, values * 3))
    # built directly, a fit is certified by the same grid evaluation
    # against its target
    with mock.patch.object(qsvtpoly, "_on_grid", wraps=qsvtpoly._on_grid) as on_grid:
        PolyApprox(**fields)
        with pytest.raises(ValueError, match="certification failed"):
            PolyApprox(**{**fields, "eps": fit.eps / 2})
    assert on_grid.call_count == 2


def test_lipschitz_bounds_of_many_widths_equal_each_alone():
    # a stack's trials carry different error budgets into the next fit
    fit = approx_pos_power(0.5, 10.0, 1e-4)
    widths = np.array([1e-3, 0.0, 2.5e-4, 1e-3])
    many = fit.lipschitz_bound(widths)
    alone = np.array([replace(fit).lipschitz_bound(float(w)) for w in widths])
    assert many.tobytes() == alone.tobytes()
    assert fit.lipschitz_bound(np.full(3, 1e-3)).tobytes() == np.full(3, alone[0]).tobytes()


def dense_slope_max(fit, widen):
    """max |P'| over 200 * degree + 1 points spanning the domain enlarged by
    `widen`, ends included, evaluated in long double so that its own
    rounding stays far below the slope bound's slack."""
    lo, hi = (np.longdouble(x) for x in fit.domain)
    w = np.longdouble(widen)
    xs = np.linspace(lo - w, hi + w, 200 * max(fit.degree, 1) + 1, dtype=np.longdouble)
    deriv = np.polynomial.chebyshev.chebder(fit.coeffs.astype(np.longdouble), 1, 2 / (hi - lo))
    return float(np.max(np.abs(np.polynomial.chebyshev.chebval((2 * xs - (lo + hi)) / (hi - lo), deriv))))


@settings(max_examples=30, deadline=None)
@given(builder=FAMILIES, lo=st.floats(-3, math.log10(0.5)).map(lambda e: 10.0**e), c=EXPONENTS,
       eps=st.floats(-6, -2).map(lambda e: 10.0**e), widen=st.floats(0.0, 1e-2))
@example(builder=approx_log, lo=1e-3, c=0.5, eps=1e-6, widen=1e-2)
def test_slope_bound_is_the_dense_maximum_up_to_its_slack(builder, lo, c, eps, widen):
    # the builders' slopes peak at the left end, where every term of the
    # bound adds up: the bound is sound there and no looser than its slack
    fit = builder(lo, eps) if builder is approx_log else builder(c, 1.0 / lo, eps)
    dense = dense_slope_max(fit, widen)
    assert dense <= fit.lipschitz_bound(widen) <= (1 + 1e-9) * dense


@pytest.mark.parametrize("target", ["sin(40x)", "sin(7x)", "x cos(25x)"])
@pytest.mark.parametrize("widen", [0.0, 1e-4, 1e-3, 1e-2])
def test_slope_bound_covers_the_dense_maximum_of_custom_targets(target, widen):
    # their slopes peak inside the domain, where a sampled maximum reads low
    # and the bound's terms do not all add up: sound, and loose
    f = {"sin(40x)": lambda x: np.sin(40 * x), "sin(7x)": lambda x: np.sin(7 * x),
         "x cos(25x)": lambda x: x * np.cos(25 * x)}[target]
    fit = cheb_fit(f, 0.01, 1.0, 1e-6, 200)
    assert fit.lipschitz_bound(widen) >= dense_slope_max(fit, widen)
