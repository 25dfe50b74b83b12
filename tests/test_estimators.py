import contextlib
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.stats import binom

from entropybench import cli, estimators, numkernel, qsvtpoly
from entropybench.blockenc import BlockEncoding, encode_density, encode_state_side
from entropybench.estimators import (
    EstimationFailure,
    estimate,
    measure_p0,
    min_eig_estimate,
    shots_for,
)
from entropybench.numkernel import op_norm_dist
from entropybench.seeding import Stream
from entropybench.states import exact_entropies, from_spectrum, random_density
from reference import ideal_p0_case1, ideal_p0_case2, ideal_p0_sub_one, propagate_entropy_error

DIAG = from_spectrum([0.5, 0.3, 0.2], 3)
DIAG8 = from_spectrum([0.5, 0.3, 0.2], 8)
MIXED2 = from_spectrum([0.5, 0.5], 2)
MIXED4 = from_spectrum([0.25] * 4, 4)
PURE4 = from_spectrum([1], 4)


# ---------------------------------------------------------------- measurement


def test_measure_p0_degenerate_probabilities():
    assert measure_p0([0.0], 0.1, Stream(1)) == [0.0]
    assert measure_p0([1.0], 0.1, Stream(1)) == [1.0]


def test_measure_p0_bernoulli_coverage():
    # theoretical binomial tail first, then the seeded empirical check
    delta = 0.01
    n = shots_for("bernoulli", delta)
    lo = binom.cdf(math.floor((0.38 - 0.03) * n), n, 0.38)
    hi = binom.sf(math.ceil((0.38 + 0.03) * n) - 1, n, 0.38)
    assert lo + hi < 0.01
    hits = sum(abs(est - 0.38) <= 0.03 for est in measure_p0([0.38] * 1000, delta, Stream(0)))
    assert hits >= 990


def test_measure_p0_ae_bounded_noise():
    for est in measure_p0([0.4] * 50, 0.05, Stream(0), mode="amplitude_estimation"):
        assert abs(est - 0.4) <= 0.05


def test_measure_p0_rejects_bad_delta():
    with pytest.raises(ValueError):
        measure_p0([0.5], 1.5, Stream(0))


_BITS = lambda values: [float(v).hex() for v in values]


@pytest.mark.parametrize("mode", ["bernoulli", "amplitude_estimation"])
@pytest.mark.parametrize("p0", [0.0, 1.0, 0.37])
def test_measure_p0_batch_equals_one_seed_calls(mode, p0):
    # a list equals its one-element calls made in turn on the same stream
    for seed in [0, 1, 7, 99, 2**31 - 1, 2**32 - 1, 12345678901]:
        stream = Stream(seed)
        one_by_one = [measure_p0([p0], 0.05, stream, mode=mode)[0] for _ in range(7)]
        assert _BITS(measure_p0([p0] * 7, 0.05, Stream(seed), mode=mode)) == _BITS(one_by_one)
        # one p0 per trial: trial k measures its own
        p0s = [p0, 0.0, 1.0, 0.37, p0, 0.5, 1e-9]
        stream = Stream(seed)
        one_by_one = [measure_p0([q], 0.05, stream, mode=mode)[0] for q in p0s]
        assert _BITS(measure_p0(p0s, 0.05, Stream(seed), mode=mode)) == _BITS(one_by_one)


def test_measure_p0_checks_delta_before_any_draw():
    stream = Stream(3)
    state = lambda: stream.rng.bit_generator.state
    before = state()
    for delta in (1.5, 0.0, float("nan")):
        with pytest.raises(ValueError, match="accuracy parameter must be in"):
            measure_p0([0.2, 0.4], delta, stream)
    with pytest.raises(ValueError, match="unknown measurement mode 'bernouli'"):
        measure_p0([0.2, 0.4], 0.5, stream, mode="bernouli")
    assert state() == before
    measure_p0([0.2, 0.4], 0.5, stream)
    assert state() != before


def test_measure_p0_names_the_trial_of_an_out_of_range_p0():
    for p0s, k, bad in (([0.2, 0.5, 1.5, -0.3], 2, 1.5), ([-0.1, 0.5], 0, -0.1), ([0.5, float("nan")], 1, float("nan"))):
        with pytest.raises(ValueError, match=rf"probability {bad!r} outside \[0, 1\]") as exc:
            measure_p0(p0s, 0.1, Stream(0))
        assert exc.value.trial == k
    # the p0 check comes before the delta check
    with pytest.raises(ValueError, match="probability 1.5 outside"):
        measure_p0([0.5, 1.5], 1.5, Stream(0))
    # within rounding of the interval, a p0 is clamped to it, per trial
    assert measure_p0([-1e-13, 1.0 + 1e-13], 0.1, Stream(0)) == [0.0, 1.0]
    ae = lambda p0s: _BITS(measure_p0(p0s, 0.1, Stream(0), mode="amplitude_estimation"))
    assert ae([-1e-13, 1.0 + 1e-13, 0.5]) == ae([0.0, 1.0, 0.5])


def test_a_chunk_measures_its_trials_in_one_call(monkeypatch):
    calls = []
    real = estimators.measure_p0
    monkeypatch.setattr(estimators, "measure_p0", lambda *a: calls.append((len(a[0]), a[2])) or real(*a))
    # (order, method, the child of the point's stream its route measures on)
    for alpha, method, child in ((2.0, None, 1), (1.5, None, 2), (2.5, None, 3), (0.5, "ae", 2), (1.0, "qsvt", 2)):
        calls.clear()
        stream = Stream(5, (1,))
        p = estimators.plan(DIAG8, alpha, 0.1, method=method)
        assert [r.seed for r in estimators.run(p, stream, 30)] == list(range(30))
        assert calls == [(30, stream.child(child))]


def test_only_numkernel_calls_an_eigensolver(monkeypatch):
    # every decomposition goes through one module, where a count of them
    # per matrix can be taken
    callers = set()
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def recorded(*args, _real=real, **kwargs):
            callers.add(sys._getframe(1).f_globals["__name__"])
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    rho = from_spectrum([0.5, 0.3, 0.2], 8)  # no spectrum cached yet
    for alpha, method, blind in ((1.5, None, False), (2.5, None, False), (0.5, "sampling", False),
                                 (0.5, "ae", False), (1.0, "qsvt", False), (1.5, None, True)):
        stream = Stream(7, (1,))
        assert len(estimators.run(estimators.plan(rho, alpha, 0.1, method=method, blind=blind, stream=stream),
                                  stream, 3)) == 3
    assert callers == {"entropybench.numkernel"}


def test_shot_rules():
    assert shots_for("bernoulli", 0.01, 1.0) == 10_000
    assert shots_for("amplitude_estimation", 0.01, 1.0) == 100


# ---------------------------------------------------------- closed-form p0


def test_ideal_p0_case1_examples():
    pure = from_spectrum([1], 2)
    assert ideal_p0_case1(pure, 1, 0.0) == pytest.approx((math.pi / 4) ** 2)
    assert ideal_p0_case1(pure, 1, 0.0) == pytest.approx(0.61685, abs=1e-5)
    t25 = exact_entropies(DIAG, 2.5).tr_pow_alpha
    assert ideal_p0_case1(DIAG, 0, 1.5) == pytest.approx((math.pi / 4) ** 1.5 * t25)
    assert t25 == pytest.approx(0.2439603, abs=1e-7)
    assert ideal_p0_case1(MIXED2, 0, 0.5) == pytest.approx((math.pi / 4) ** 0.5 * 2**-0.5)
    assert ideal_p0_case1(MIXED2, 0, 0.5) == pytest.approx(0.62666, abs=1e-5)


def test_ideal_p0_case2_examples():
    # order 2.4 = 2*1+1-0.6 on the maximally mixed qubit
    expect = 0.25 * (math.pi / 4) ** 2 * 0.5 ** -(-0.6) * 2**-1.4
    assert ideal_p0_case2(MIXED2, 1, -0.6) == pytest.approx(expect)
    t45 = exact_entropies(DIAG, 4.5).tr_pow_alpha
    assert ideal_p0_case2(DIAG, 2, -0.5) == pytest.approx(
        0.25 * (math.pi / 4) ** 4 * 0.2**0.5 * t45
    )
    pure = from_spectrum([1], 2)
    for k in (1, 2):
        assert ideal_p0_case2(pure, k, 0.0, assume_support=True) == pytest.approx(
            0.25 * (math.pi / 4) ** (2 * k)
        )


def test_ideal_p0_case2_rejects_rank_deficient():
    with pytest.raises(ValueError, match="support"):
        ideal_p0_case2(DIAG8, 1, -0.5)


def test_ideal_p0_sub_one_pure():
    # pi^a / (4^(a+1) d) with a = 0.5, d = 4 evaluates to sqrt(pi)/32
    assert ideal_p0_sub_one(PURE4, 0.5) == pytest.approx(math.sqrt(math.pi) / 32)
    assert ideal_p0_sub_one(PURE4, 0.5) == pytest.approx(0.0553892, abs=1e-7)


# ------------------------------------------------------------- integer order


def test_integer_pure_state_exact():
    pure = from_spectrum([1], 4)
    r = estimate(pure, 2.0, 0.05, seed=3)
    assert r.estimate == 0.0  # Tr rho^2 = 1 makes every shot deterministic
    assert r.exact_value == pytest.approx(0.0)


def test_integer_statistical_d8():
    target = -math.log(0.38)
    hits = 0
    for s in range(40):
        r = estimate(DIAG8, 2.0, 0.05, seed=s)
        hits += abs(r.estimate - target) <= 0.05
    assert hits >= 38


def test_integer_mixed_ideal():
    r = estimate(MIXED4, 3.0, 0.05, mode="ideal", seed=0)
    assert r.estimate == pytest.approx(math.log(4), abs=1e-12)


def test_integer_unbiased():
    # one 1e5-shot batch lands within 3 binomial standard errors
    t = 0.38
    p = (1 + t) / 2
    n = 100_000
    rng = np.random.default_rng(12345)
    t_hat = 2 * rng.binomial(n, p) / n - 1
    se = 2 * math.sqrt(p * (1 - p) / n)
    assert abs(t_hat - t) <= 3 * se


def test_integer_ledger_counts_alpha_copies():
    r = estimate(DIAG8, 3.0, 0.1, mode="ideal", seed=0)
    assert r.sample_cost_total == 3 * r.shots_used


def test_integer_failure_advises_more_shots():
    rho = from_spectrum([0.25] * 4, 4)
    raised = False
    for s in range(60):
        try:
            estimate(rho, 3.0, 3.0, seed=s)
        except EstimationFailure as exc:
            raised = True
            assert "shot budget" in str(exc)
            break
    assert raised


# ------------------------------------------------------------ odd-floor path


def test_odd_ideal_matches_oracle():
    r = estimate(DIAG, 1.5, 0.05, mode="ideal", seed=1)
    assert abs(r.estimate - r.exact_value) <= 1e-7
    assert r.exact_value == pytest.approx(
        math.log(0.5**1.5 + 0.3**1.5 + 0.2**1.5) / (1 - 1.5)
    )


def test_odd_pipeline_p0_matches_closed_form():
    r = estimate(DIAG, 1.5, 0.05, mode="ideal", seed=1)
    assert r.p0_realized == pytest.approx(ideal_p0_case1(DIAG, 0, 0.5), abs=1e-6)


def test_odd_pure_state():
    pure = from_spectrum([1], 2)
    r = estimate(pure, 1.5, 0.05, mode="ideal", seed=1)
    assert abs(r.estimate) <= 1e-7
    assert r.p0_realized == pytest.approx((math.pi / 4) ** 0.5, abs=1e-6)


def test_odd_statistical():
    exact = exact_entropies(DIAG8, 1.5).entropy
    hits = 0
    for s in range(20):
        r = estimate(DIAG8, 1.5, 0.05, seed=s)
        hits += abs(r.estimate - exact) <= 0.05
    assert hits >= 19


# ----------------------------------------------------------- even-floor path


def test_even_ideal_matches_oracle():
    r = estimate(DIAG, 4.5, 0.05, mode="ideal", seed=2)
    assert abs(r.estimate - r.exact_value) <= 1e-7


def test_even_pipeline_p0_matches_closed_form():
    r = estimate(DIAG, 4.5, 0.05, mode="ideal", seed=2)
    assert r.p0_realized == pytest.approx(ideal_p0_case2(DIAG, 2, -0.5), abs=1e-6)


def test_even_maximally_mixed():
    r = estimate(MIXED4, 2.5, 0.05, mode="ideal", seed=2)
    assert r.estimate == pytest.approx(math.log(4), abs=1e-7)


def test_even_rank_deficient_projects():
    r = estimate(DIAG8, 2.5, 0.05, mode="ideal", seed=2)
    assert abs(r.estimate - exact_entropies(DIAG, 2.5).entropy) <= 1e-8


def test_even_reports_sensitivity():
    r = estimate(DIAG, 4.5, 0.05, mode="ideal", seed=2)
    assert r.sensitivity_rho_min == pytest.approx(-0.5 / ((1 - 4.5) * 0.2))


# -------------------------------------------------------------- sub-one path


def test_sub_one_pure_eq_value():
    r = estimate(PURE4, 0.5, 0.1, mode="ideal", seed=3)
    assert r.p0_realized == pytest.approx(math.sqrt(math.pi) / 32, abs=1e-7)
    assert abs(r.estimate) <= 1e-6


def test_sub_one_maximally_mixed():
    r = estimate(MIXED4, 0.5, 0.1, mode="ideal", seed=3)
    assert r.estimate == pytest.approx(math.log(4), abs=1e-7)
    assert exact_entropies(MIXED4, 0.5).tr_pow_alpha == pytest.approx(2.0)


def test_sub_one_ae_cost_versus_sampling():
    # equal accuracy 0.01 at unit shot constant: 100 queries versus 10000 shots
    assert shots_for("amplitude_estimation", 0.01, 1.0) == 100
    assert shots_for("bernoulli", 0.01, 1.0) == 10_000
    # and through the budget machinery the ae route stays cheaper
    meta = MIXED4.meta
    from entropybench.accountant import decompose_alpha, delta_budget

    regime = decompose_alpha(0.5)
    bs = delta_budget(regime, 0.1, meta, method="sampling", c_shots=1.0)
    ba = delta_budget(regime, 0.1, meta, method="ae", c_shots=1.0)
    assert bs.delta == pytest.approx(0.025) and ba.delta == pytest.approx(0.025)
    assert bs.measure_delta == pytest.approx(0.025 / 16)
    assert ba.measure_delta == pytest.approx(0.025 / 8)
    assert ba.shots < bs.shots


def test_sub_one_ae_requires_power_of_two():
    with pytest.raises(ValueError, match="power-of-2"):
        estimate(DIAG, 0.5, 0.1, method="ae")


def test_sub_one_statistical():
    exact = exact_entropies(MIXED4, 0.5).entropy
    for s in range(10):
        r = estimate(MIXED4, 0.5, 0.1, seed=s)
        assert abs(r.estimate - exact) <= 0.1
        ra = estimate(MIXED4, 0.5, 0.1, method="ae", seed=s)
        assert abs(ra.estimate - exact) <= 0.1
        assert ra.shots_used <= r.shots_used


# ----------------------------------------------------------- von Neumann


def test_vn_qsvt_pure():
    r = estimate(PURE4, 1.0, 0.05, mode="ideal", seed=4, method="qsvt")
    assert abs(r.estimate) <= 1e-6
    gamma = 1 / (2 * math.log(4 / math.pi))
    assert r.p0_realized == pytest.approx(gamma * math.log(4 / math.pi), abs=1e-6)


def test_vn_qsvt_ideal_diag():
    r = estimate(DIAG8, 1.0, 0.05, mode="ideal", seed=4, method="qsvt")
    assert abs(r.estimate - 1.0296530140645737) <= 2 * estimators.IDEAL_POLY_EPS * 100
    assert abs(r.estimate - r.exact_value) <= 1e-6


def test_vn_qsvt_maximally_mixed():
    r = estimate(MIXED2, 1.0, 0.05, mode="ideal", seed=4, method="qsvt")
    assert r.estimate == pytest.approx(math.log(2), abs=1e-6)


def test_vn_poly_pure():
    r = estimate(PURE4, 1.0, 0.05, seed=5, method="poly")
    assert abs(r.estimate) <= 0.05


def test_vn_poly_maximally_mixed():
    r = estimate(MIXED2, 1.0, 0.05, seed=5, method="poly")
    assert abs(r.estimate - math.log(2)) <= 0.05


def test_vn_paths_agree_ideal():
    for s in (1, 2, 3):
        rho = random_density(6, 6, seed=s)
        eps = 0.05
        q = estimate(rho, 1.0, eps, mode="ideal", seed=s, method="qsvt")
        p = estimate(rho, 1.0, eps, mode="ideal", seed=s, method="poly")
        assert abs(q.estimate - p.estimate) <= 2 * eps


# ------------------------------------------------------- minimum eigenvalue


def test_min_eig_noiseless():
    be = encode_density(DIAG, 0.01, noiseless=True)
    res = min_eig_estimate(be, 0.0)
    assert res.estimate == pytest.approx(math.pi * 0.2 / 4, abs=1e-12)
    assert res.rho_min == pytest.approx(0.2, abs=1e-12)
    assert res.sample_cost == 0


def test_min_eig_pure_projected():
    pure = from_spectrum([1], 4).project_to_support()
    be = encode_density(pure, 0.01, noiseless=True)
    assert min_eig_estimate(be, 0.0).rho_min == pytest.approx(1.0)


def test_min_eig_bounded_noise():
    be = encode_density(DIAG, 0.001, noiseless=True)
    truth = math.pi * 0.2 / 4
    for s in range(30):
        res = min_eig_estimate(be, 0.01, Stream(s))
        assert abs(res.estimate - truth) <= 0.01
    assert min_eig_estimate(be, 0.01, Stream(0)).sample_cost > 0


# ------------------------------------------------------------- cross checks


def test_regime_consistency_near_boundaries():
    rho = random_density(6, 3, seed=9)
    for alpha in (2 - 1e-4, 2 + 1e-4, 2.5, 1 - 1e-4):
        r = estimate(rho, alpha, 1e-3, mode="ideal", seed=5)
        assert abs(r.estimate - r.exact_value) <= 1e-3, alpha


def test_monotone_shot_cost():
    shots = [estimate(DIAG8, 2.0, eps, mode="ideal", seed=0).shots_used for eps in (0.025, 0.05, 0.1, 0.2)]
    assert shots == sorted(shots, reverse=True)


BLIND_BASE = ("blind_rank", "blind_purity")
BLIND_ENCODED = BLIND_BASE + ("blind_rho_min",)
BLIND_SUB_ONE = BLIND_ENCODED + ("budget_from_estimated_purity",)
BLIND_ROUTES = [
    # (alpha, method, flags): every route, with the flags its run must carry
    (2.0, None, BLIND_BASE),
    (3.0, None, BLIND_BASE),
    (1.5, None, BLIND_ENCODED),
    (3.5, None, BLIND_ENCODED),
    (4.5, None, BLIND_ENCODED),
    (0.5, "sampling", BLIND_SUB_ONE),
    (0.5, "ae", BLIND_SUB_ONE),
    (1.0, "qsvt", BLIND_ENCODED),
    (1.0, "poly", BLIND_ENCODED),
]


def test_blind_mode_flags_and_recovers():
    rho = random_density(8, 4, seed=10)
    for alpha, method, flags in BLIND_ROUTES:
        r = estimate(rho, alpha, 0.1, seed=7, method=method, blind=True)
        assert r.flags == flags, (alpha, method)
        assert abs(r.estimate - r.exact_value) <= 0.1, (alpha, method)
        # the same route without blind mode carries no flags
        assert estimate(rho, alpha, 0.1, seed=7, method=method).flags == (), (alpha, method)


def test_error_propagation_inequality_sampled():
    # whenever the trace estimate is delta-close, the entropy respects the bound
    rng = np.random.default_rng(77)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        rho = random_density(d, min(d, int(rng.integers(1, 5))), int(rng.integers(1e6)))
        alpha = float(rng.choice([0.5, 1.5, 2.0, 3.0, 3.5]))
        rec = exact_entropies(rho, alpha)
        t = rec.tr_pow_alpha
        delta = float(rng.uniform(0.01, 0.4)) * t
        t_hat = t + float(rng.uniform(-1, 1)) * delta
        s_hat = math.log(t_hat) / (1 - alpha)
        bound = propagate_entropy_error(delta, alpha, rho.meta)
        assert abs(s_hat - rec.entropy) <= bound + 1e-12


def test_vn_poly_degree_cap_suggests_alternative():
    rho = from_spectrum([0.994, 0.005, 0.001], 3)
    with pytest.raises(ValueError, match="direct-transform"):
        estimate(rho, 1.0, 0.05, seed=1, method="poly")


def test_vn_poly_shot_overflow_refused_before_drawing():
    # one term's coefficient is so large its shot count exceeds int64
    with pytest.raises(ValueError, match="term .*vn_qsvt"):
        estimate(random_density(8, 4, 16), 1.0, 0.05, seed=1, method="poly")


# ------------------------------------------------- construction-certified bounds

# one request per estimator branch: odd floor with k = 0 and k = 1, even
# floor, below one by sampling and by amplitude estimation, von Neumann
BRANCH_CALLS = [
    lambda rho, seed: estimate(rho, 1.5, 0.1, seed=seed),
    lambda rho, seed: estimate(rho, 3.5, 0.1, seed=seed),
    lambda rho, seed: estimate(rho, 2.5, 0.1, seed=seed),
    lambda rho, seed: estimate(rho, 0.5, 0.1, seed=seed),
    lambda rho, seed: estimate(rho, 0.5, 0.1, seed=seed, method="ae"),
    lambda rho, seed: estimate(rho, 1.0, 0.1, seed=seed, method="qsvt"),
]


@contextlib.contextmanager
def _recorded_encodings():
    built = []
    original = BlockEncoding.__post_init__

    def record(self):
        original(self)
        built.append(self)

    BlockEncoding.__post_init__ = record
    try:
        yield built
    finally:
        BlockEncoding.__post_init__ = original


@settings(max_examples=40, deadline=None)
@given(
    d_exp=st.integers(1, 4),
    r=st.integers(1, 4),
    state_seed=st.integers(0, 2**31 - 1),
    seed=st.integers(0, 2**31 - 1),
    branch=st.sampled_from(range(len(BRANCH_CALLS))),
)
def test_carried_bound_never_underreports(d_exp, r, state_seed, seed, branch):
    d = 2**d_exp  # powers of two, so the amplitude-estimation route applies
    rho = random_density(d, min(r, d), state_seed)
    assume(rho.meta.rho_min >= 0.02)
    with _recorded_encodings() as built:
        BRANCH_CALLS[branch](rho, seed)
    carried = [be for be in built if not np.isnan(be.dist_bound)]
    assert carried
    for be in carried:
        assert op_norm_dist(be.encoded, be.target) <= be.dist_bound


def test_clipped_perturbation_carries_no_bound():
    # a pure state's corner sits at norm 1, so the perturbation is clipped
    # and the encoding's own check has to measure the distance
    rho = from_spectrum([1.0], 2)
    be = encode_state_side(rho, 0.2, Stream(3))
    assert np.isnan(be.dist_bound)
    assert op_norm_dist(be.encoded, be.target) <= be.eta


def test_eigendecompositions_per_branch(monkeypatch):
    rho = random_density(32, 8, seed=4)
    calls = []
    counted = numkernel.hermitian_eig

    def counting(a):
        calls.append(a.dim)
        return counted(a)

    monkeypatch.setattr(numkernel, "hermitian_eig", counting)
    per_branch = []
    for alpha in (2.0, 1.5, 3.5, 2.5, 0.5, 1.0):
        before = len(calls)
        estimate(rho, alpha, 0.1, seed=11)
        per_branch.append(len(calls) - before)
    assert per_branch[0] == 0  # the integer branch builds no encoding
    assert max(per_branch) <= 3, per_branch
    assert sum(per_branch) / len(per_branch) <= 2.0, per_branch


# Seeds of 1, 2, 5 and 32 words.
@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1, 2**32 + 5, 12345678901234567890, 2**128 + 9, 2**1023 + 3])
@settings(max_examples=20, deadline=None)
@given(words=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)), k=st.integers(0, 3))
def test_child_seeds_equal_spawned_children(seed, words, k):
    # a stream's child i is numpy's spawned child i, and its generator is
    # `default_rng` of that child; a child is made once
    state = lambda g: g.bit_generator.state
    root = Stream(seed)
    for i, spawned in enumerate(np.random.SeedSequence(seed).spawn(4)):
        assert root.child(i).seq.generate_state(4).tolist() == spawned.generate_state(4).tolist()
        assert state(root.child(i).rng) == state(np.random.default_rng(spawned))
    node = Stream(seed, words)
    assert node.child(k) is node.child(k)
    numpy_node = np.random.SeedSequence(seed, spawn_key=(*words, k))
    assert state(node.child(k).rng) == state(np.random.default_rng(numpy_node))
    # a fresh copy of a node draws from the start again
    drawn = node.rng.random(3).tolist()
    assert node.fresh().rng.random(3).tolist() == drawn and node.rng.random(3).tolist() != drawn
    # numpy refuses a negative seed, in a stream as in a direct estimate
    with pytest.raises(ValueError, match="negative"):
        Stream(-1)
    with pytest.raises(ValueError, match="negative"):
        estimate(DIAG, 2.0, 0.1, seed=-1)


def test_integer_branch_derives_only_the_seeds_it_uses(monkeypatch):
    derived = []
    real = Stream.child
    monkeypatch.setattr(Stream, "child", lambda self, i: derived.append(i) or real(self, i))
    rho = from_spectrum([0.5, 0.3, 0.2], 4)
    estimate(rho, 2.0, 0.1, seed=3)
    assert derived == [1]  # the measurement stream; blind inputs would use child 0
    derived.clear()
    estimate(rho, 2.0, 0.1, seed=3, mode="ideal")
    assert derived == []


def _seed_sequences_built(monkeypatch, run) -> int:
    """How many numpy `SeedSequence`s `run()` builds."""
    built = []
    real = np.random.SeedSequence
    monkeypatch.setattr(np.random, "SeedSequence", lambda *a, **kw: built.append(a) or real(*a, **kw))
    run()
    monkeypatch.setattr(np.random, "SeedSequence", real)
    return len(built)


def test_an_integer_point_derives_no_seed_per_trial(monkeypatch):
    counts = [
        _seed_sequences_built(monkeypatch, lambda: cli.run_experiment(cli.ExperimentConfig(
            mode="renyi", alpha=2.0, d=8, spectrum=[0.5, 0.3, 0.2], trials=trials, seed=3)))
        for trials in (64, 256)
    ]
    assert counts[0] == counts[1], counts


@pytest.mark.parametrize("alpha,method", [(5.5, None), (4.5, None), (0.5, "sampling"), (1.0, "qsvt"), (1.0, "poly")])
def test_a_noisy_point_builds_no_seed_sequence_per_trial(monkeypatch, alpha, method):
    # every stage of a point draws from one stream, whatever its trials
    # count: the odd and even floors at k = 2 read grandchildren of the
    # point's stream, and so do vn_poly's terms
    rho = from_spectrum([0.4, 0.3, 0.2, 0.1], 4)
    p = estimators.plan(rho, alpha, 0.2, method=method)
    counts = [_seed_sequences_built(monkeypatch, lambda: estimators.run(p, Stream(4, (1,)), trials))
              for trials in (50, 500)]
    assert counts[0] == counts[1], counts


def test_blind_inputs_and_measurement_keep_their_seeds(monkeypatch):
    seen = []
    real = estimators.measure_p0
    monkeypatch.setattr(estimators, "measure_p0", lambda *a, **kw: seen.append(a[2]) or real(*a, **kw))
    rho = random_density(4, 2, seed=1)
    r = estimate(rho, 2.0, 0.1, seed=9, blind=True)
    # the purity probe on child 0 of the probes' child 0, the measurement on child 1
    assert [(s.seq.entropy, s.seq.spawn_key) for s in seen] == [(9, (0, 0)), (9, (1,))]
    p0 = (1.0 + exact_entropies(rho, 2.0).tr_pow_alpha) / 2.0
    assert [r.p0_measured] == measure_p0([p0], r.delta, Stream(9).child(1))


def test_every_draw_goes_through_measure_p0(monkeypatch):
    calls = []
    real = estimators.measure_p0
    monkeypatch.setattr(estimators, "measure_p0", lambda *a, **kw: calls.append(a[2].seq.spawn_key) or real(*a, **kw))
    # noisy vn_poly: one call per measured term i >= 1, on child i - 1 of
    # the stream's measurement child
    p = estimators.plan(DIAG, 1.0, 0.1, method="poly")
    estimators.run(p, Stream(11), 3)
    assert len(p.terms) > 2
    assert calls == [(1, i - 1) for i in range(1, len(p.terms))]
    # blind odd floor: the purity, then the minimum eigenvalue, then the measurement
    calls.clear()
    estimate(DIAG, 1.5, 0.1, seed=9, blind=True)
    assert calls == [(0, 0), (0, 1), (2,)]


def test_estimate_rejects_unknown_von_neumann_method():
    with pytest.raises(ValueError, match="unknown von Neumann method"):
        estimate(DIAG, 1.0, 0.1, method="ae")


# (order, its only route, methods that name no route of it)
SINGLE_ROUTE_BRANCHES = [
    (2.0, "integer", ["bogus", "qsvt", "sampling", "odd_floor"]),
    (1.5, "odd_floor", ["bogus", "ae", "poly", "even_floor"]),
    (2.5, "even_floor", ["bogus", "sampling", "integer", "odd_floor"]),
]


@pytest.mark.parametrize("alpha,route,foreign", SINGLE_ROUTE_BRANCHES)
def test_single_route_branches_refuse_a_foreign_method_before_any_work(monkeypatch, alpha, route, foreign):
    # a foreign method used to be ignored, so method="bogus" ran the branch's route
    assert estimate(DIAG, alpha, 0.1, method=None).method == route
    assert estimate(DIAG, alpha, 0.1, method=route).method == route
    monkeypatch.setattr(estimators, "_gather_inputs", mock.Mock(side_effect=AssertionError("work began")))
    for entry in (estimators.plan, estimate):
        for method in foreign:
            with pytest.raises(ValueError, match=f"unknown method {method!r}"):
                entry(DIAG, alpha, 0.1, method=method)


@pytest.mark.parametrize("mode", ["idael", "Ideal", 3])
@pytest.mark.parametrize("entry", [estimators.plan, estimate])
def test_unknown_mode_refused_before_any_work(monkeypatch, entry, mode):
    # a misspelt mode used to run the noisy pipeline silently
    monkeypatch.setattr(estimators, "decompose_alpha", mock.Mock(side_effect=AssertionError("work began")))
    with pytest.raises(ValueError, match="unknown mode"):
        entry(DIAG, 2.0, 0.1, mode=mode)


# (route function, order, method): the function each route's chunks run through
ROUTE_FUNCTIONS = [
    ("renyi_integer", 2.0, None),
    ("renyi_case_odd", 1.5, None),
    ("renyi_case_even", 2.5, None),
    ("renyi_sub_one", 0.5, "ae"),
    ("vn_qsvt", 1.0, "qsvt"),
    ("vn_poly", 1.0, "poly"),
]
# certified fits each route makes: vn_qsvt a log and a square root
FITS = {"renyi_integer": 0, "renyi_case_odd": 1, "renyi_case_even": 1, "renyi_sub_one": 1, "vn_qsvt": 2, "vn_poly": 1}
FIT_BUILDERS = (qsvtpoly.approx_log, qsvtpoly.approx_pos_power, qsvtpoly.approx_neg_power)


@pytest.mark.parametrize("name,alpha,method", ROUTE_FUNCTIONS)
def test_chunks_reach_the_route_function_by_its_module_name(monkeypatch, name, alpha, method):
    # a tracer replaces `estimators.<route>` and must see every chunk, so
    # the run reaches each route function through its module global
    rho = from_spectrum([0.4, 0.3, 0.2, 0.1], 4)
    chunks = []
    real = getattr(estimators, name)
    monkeypatch.setattr(estimators, name, lambda p, stream, trials: chunks.append(len(trials)) or real(p, stream, trials))
    monkeypatch.setattr(estimators, "STACK_BYTES", 2 * 16 * rho.dim**2)
    for builder in FIT_BUILDERS:
        builder.cache_clear()
    fits = []
    real_fit = qsvtpoly.cheb_fit
    monkeypatch.setattr(qsvtpoly, "cheb_fit", lambda *args, **kw: fits.append(kw.get("target_tag")) or real_fit(*args, **kw))
    p = estimators.plan(rho, alpha, 0.1, method=method)
    assert p.chunk == 2
    columns = list(estimators.run_columns(p, Stream(0), range(5)))
    assert chunks == [2, 2, 1] and [c.trials for c in columns] == [range(0, 2), range(2, 4), range(4, 5)]
    # a later chunk's fits are hits in the builders' memo
    assert len(fits) == FITS[name], fits
    chunks.clear()
    estimate(rho, alpha, 0.1, seed=3, method=method)
    assert chunks == [1]


@pytest.mark.parametrize("mode", ["noisy", "ideal"])
@pytest.mark.parametrize("alpha,method", [(1.5, None), (2.5, None), (0.5, "sampling"), (0.5, "ae"), (1.0, "qsvt")])
def test_plan_makes_no_fit(monkeypatch, alpha, method, mode):
    # an encoded route makes its fits in its route function, so a fit the
    # builders refuse is refused by the run, not by `plan`, with its text
    marker = RuntimeError("fit builder reached")

    def refuse(*args):
        raise marker

    for name in ("approx_log", "approx_pos_power", "approx_neg_power"):
        monkeypatch.setattr(estimators, name, refuse)
    rho = from_spectrum([0.4, 0.3, 0.2, 0.1], 4)
    p = estimators.plan(rho, alpha, 0.1, mode=mode, method=method)
    for call in (lambda: estimators.run(p, Stream(1), 3), lambda: estimate(rho, alpha, 0.1, seed=1, mode=mode, method=method)):
        with pytest.raises(RuntimeError) as info:
            call()
        assert info.value is marker


def _outcome(call):
    """The reports of a call, field for field and bit for bit, or its error."""
    try:
        return [repr(report) for report in call()]
    except Exception as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=80, deadline=None)
@given(
    route=st.sampled_from([(alpha, method) for alpha, method, _ in BLIND_ROUTES]),
    # so few shots that some trials measure p0 = 0 and fail
    c_shots=st.sampled_from([4.0, 1e-4]),
    mode=st.sampled_from(["noisy", "ideal", "blind"]),
    d_exp=st.integers(1, 4),
    rank=st.integers(1, 4),
    state_seed=st.integers(0, 2**31 - 1),
    master=st.integers(0, 2**32 - 1),
    trials=st.integers(1, 12),
    chunk=st.integers(1, 12),
)
def test_a_batch_of_trials_equals_its_trials_run_one_by_one(
    route, c_shots, mode, d_exp, rank, state_seed, master, trials, chunk
):
    # one grid point's trials run as stacks of at most `chunk` trials give
    # the reports (or the first failing trial's error) of the same trials
    # run one trial per chunk, each a single matrix.  Blind mode plans
    # every trial on the point's stream in turn, and a run of its first
    # t + 1 trials gives trial t.
    d = 2**d_exp
    rho = random_density(d, min(rank, d), state_seed)
    assume(rho.meta.rho_min >= 0.02)
    alpha, method = route
    kw = dict(mode="ideal" if mode == "ideal" else "noisy", method=method, c_shots=c_shots)

    def blind(n):
        stream = Stream(master, (1,))
        return [estimators.run(estimators.plan(rho, alpha, 0.1, blind=True, stream=stream, **kw), stream, 1)[0]
                for _ in range(n)]

    def chunked(size):
        with mock.patch.object(estimators, "STACK_BYTES", size * 16 * d * d):
            return estimators.run(estimators.plan(rho, alpha, 0.1, **kw), Stream(master, (1,)), trials)

    if mode == "blind":
        batch, one_by_one = lambda: blind(trials), lambda: [blind(t + 1)[-1] for t in range(trials)]
    else:
        batch, one_by_one = lambda: chunked(chunk), lambda: chunked(1)
    assert _outcome(batch) == _outcome(one_by_one)
