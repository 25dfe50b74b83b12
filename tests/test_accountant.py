import math

import pytest
from hypothesis import given, settings, strategies as st

from entropybench.accountant import (
    decompose_alpha,
    delta_budget,
    predicted_samples,
    shots_for,
)
from entropybench.states import StateMeta, random_density
from reference import propagate_entropy_error


META = StateMeta(rank=2, rho_min=0.2, rho_max=0.8, purity=0.68, dim=8)


def test_decompose_worked_examples():
    r = decompose_alpha(5.6)
    assert (r.k, r.c, r.branch) == (2, pytest.approx(0.6), "odd_floor")
    r = decompose_alpha(6.4)
    assert (r.k, r.c, r.branch) == (3, pytest.approx(-0.6), "even_floor")


def test_decompose_boundaries():
    assert decompose_alpha(1.0).branch == "von_neumann"
    r = decompose_alpha(3)
    assert (r.k, r.c, r.branch) == (1, 0.0, "integer")
    assert decompose_alpha(2.0).branch == "integer"
    assert decompose_alpha(0.5).branch == "sub_one"
    with pytest.raises(ValueError):
        decompose_alpha(0.0)


def test_decompose_round_trip_grid():
    # alpha = (1000 + i)/1000 over (1, 12); even integers cannot satisfy
    # 2k+1+c = alpha with odd 2k+1 and |c| < 1, so only c = 0 is checked there
    for i in range(1, 11000):
        alpha = (1000 + i) / 1000.0
        r = decompose_alpha(alpha)
        if i % 1000 == 0 and int(alpha) % 2 == 0:
            assert r.branch == "integer" and r.c == 0.0
            continue
        assert 2 * r.k + 1 + r.c == pytest.approx(alpha, abs=1e-12)
        assert (2 * r.k + 1) % 2 == 1
        assert abs(r.c) < 1.0


def test_budget_fractional_1to2():
    b = delta_budget(decompose_alpha(1.5), 0.06, META)
    assert b.delta == pytest.approx(0.06 * 0.5 / 12)
    assert b.delta == pytest.approx(0.0025)


def test_budget_integer_alpha2():
    meta = StateMeta(rank=4, rho_min=0.1, rho_max=0.6, purity=0.3, dim=8)
    b = delta_budget(decompose_alpha(2.0), 0.05, meta)
    assert b.delta == pytest.approx(0.00625)


def test_budget_sub_one():
    meta = StateMeta(rank=4, rho_min=0.25, rho_max=0.25, purity=0.25, dim=4)
    b = delta_budget(decompose_alpha(0.5), 0.1, meta)
    assert b.delta == pytest.approx(0.1 * 0.5 * 0.25**-0.5 / 4)
    assert b.delta == pytest.approx(0.025)


def test_budget_shot_rules():
    b = delta_budget(decompose_alpha(0.5), 0.1, META, method="sampling", c_shots=1.0)
    assert b.shots == math.ceil(1.0 / b.measure_delta**2)
    assert b.measure_delta == pytest.approx(b.delta / (4 * META.dim))
    bae = delta_budget(decompose_alpha(0.5), 0.1, META, method="ae", c_shots=1.0)
    assert bae.shots == math.ceil(1.0 / bae.measure_delta)
    assert bae.measure_delta == pytest.approx(bae.delta / (2 * META.dim))
    assert bae.shots <= b.shots
    # above order 1 the measurement accuracy is the budget itself
    b2 = delta_budget(decompose_alpha(1.5), 0.1, META, c_shots=1.0)
    assert b2.measure_delta == b2.delta
    assert b2.shots == math.ceil(1.0 / b2.delta**2)


def test_predicted_fractional_row_evaluation():
    meta = StateMeta(rank=2, rho_min=0.2, rho_max=0.8, purity=0.68, dim=8)
    got = predicted_samples(decompose_alpha(1.5), 0.1, meta)
    lead = (1 / 0.04) * (8 / 1e-3) * math.log(2 / (0.2 * 0.1)) ** 5
    assert got == math.ceil(lead + math.log(8))


def test_predicted_sub_one_uses_dim_squared():
    meta = StateMeta(rank=2, rho_min=0.3, rho_max=0.7, purity=0.58, dim=4)
    small = predicted_samples(decompose_alpha(0.5), 0.1, meta)
    metab = StateMeta(rank=2, rho_min=0.3, rho_max=0.7, purity=0.58, dim=8)
    big = predicted_samples(decompose_alpha(0.5), 0.1, metab)
    assert big > small
    assert big / small > 3.0  # leading d^2 plus log growth


def test_predicted_von_neumann_paths():
    q = predicted_samples(decompose_alpha(1.0), 0.05, META, method="qsvt")
    p = predicted_samples(decompose_alpha(1.0), 0.05, META, method="poly")
    assert q > p  # 1/eps^4 dominates 1/eps^2 at eps = 0.05
    # explicit evaluation of the direct-transform cost
    num = math.log(4 / (math.pi * 0.2))
    den = math.log(4 / (math.pi * 0.8))
    lead = (num / den) ** 3 / (0.05**4 * 0.2**2)
    assert q >= lead


def test_propagate_examples():
    meta = StateMeta(rank=2, rho_min=0.2, rho_max=0.8, purity=0.5, dim=4)
    assert propagate_entropy_error(0.01, 3.0, meta) == pytest.approx(0.04)
    assert propagate_entropy_error(0.01, 1.5, meta) == pytest.approx(0.08)
    tiny = propagate_entropy_error(1e-12, 1.5, meta)
    assert tiny == pytest.approx(0.0, abs=1e-9)


def test_budget_propagation_round_trip():
    # propagating the budgeted delta recovers eps up to the 6-vs-2 constants
    for alpha in (1.5, 2.0, 3.0, 3.5, 4.5, 6.4, 0.5):
        regime = decompose_alpha(alpha)
        b = delta_budget(regime, 0.08, META)
        if regime.branch == "sub_one":
            eps_back = 2 * b.delta / (abs(1 - alpha) * META.purity ** (alpha - 1))
        else:
            eps_back = propagate_entropy_error(b.delta, alpha, META)
        assert eps_back <= 0.08 + 1e-12
        assert eps_back / 0.08 >= 1 / 3 - 1e-12


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(1.0005, 11.9995))
def test_decompose_round_trip_property(alpha):
    r = decompose_alpha(alpha)
    if r.branch == "integer" or r.branch == "von_neumann":
        assert r.c == 0.0
    else:
        assert 2 * r.k + 1 + r.c == pytest.approx(alpha, abs=1e-9)
        assert abs(r.c) < 1.0


def test_predicted_monotonicity():
    regime = decompose_alpha(3.5)
    base = StateMeta(rank=3, rho_min=0.1, rho_max=0.6, purity=0.4, dim=8)
    eps_grid = [0.05, 0.1, 0.2]
    vals = [predicted_samples(regime, e, base) for e in eps_grid]
    assert vals == sorted(vals, reverse=True)
    rmin_grid = [0.02, 0.05, 0.1]
    vals = [
        predicted_samples(regime, 0.1, StateMeta(rank=3, rho_min=rm, rho_max=0.6, purity=0.4, dim=8))
        for rm in rmin_grid
    ]
    assert vals == sorted(vals, reverse=True)
    rank_grid = [2, 3, 4]
    vals = [
        predicted_samples(regime, 0.1, StateMeta(rank=r, rho_min=0.05, rho_max=0.6, purity=1 / r + 0.05, dim=8))
        for r in rank_grid
    ]
    assert vals == sorted(vals)


def test_propagate_rejects_alpha_one():
    with pytest.raises(ValueError):
        propagate_entropy_error(0.01, 1.0, META)


def test_meta_from_state_feeds_budget():
    rho = random_density(8, 3, seed=2)
    meta = rho.meta
    assert meta.dim == 8 and meta.rank == 3
    b = delta_budget(decompose_alpha(2.0), 0.05, meta)
    assert b.delta == pytest.approx(0.05 / 6)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_decompose_rejects_non_finite(alpha):
    with pytest.raises(ValueError, match="finite"):
        decompose_alpha(alpha)


@pytest.mark.parametrize("alpha", [1e-300, 5e-10, 1e-9, 4e-9])
def test_decompose_tiny_orders_are_below_one(alpha):
    # snapping to a nearby integer must not turn a tiny order into order 0
    r = decompose_alpha(alpha)
    assert (r.branch, r.k) == ("sub_one", 0)
    assert r.c == alpha - 1.0


def test_shots_for_refuses_counts_it_cannot_draw():
    for delta in (1e-300, 0.0, math.nan):  # delta**2 underflows, or no count at all
        with pytest.raises(ValueError, match="not a finite count"):
            shots_for("bernoulli", delta, 1.0)
    with pytest.raises(ValueError, match="not a finite count"):
        shots_for("bernoulli", 0.01, 1e300)
    # the largest count the sampler holds passes, the next float does not
    assert shots_for("amplitude_estimation", 1.0 / 2.0**62, 1.0) == 2**62
    with pytest.raises(ValueError):
        shots_for("amplitude_estimation", 1.0 / 2.0**63, 1.0)


def test_delta_budget_uses_the_shared_shot_rule():
    regime = decompose_alpha(2.0)
    for method, mode in (("sampling", "bernoulli"), ("ae", "amplitude_estimation")):
        b = delta_budget(regime, 0.1, META, method=method)
        assert b.shots == shots_for(mode, b.measure_delta)
    with pytest.raises(ValueError, match="not a finite count"):
        delta_budget(regime, 1e-300, META)
    with pytest.raises(ValueError, match="not a finite count"):
        delta_budget(regime, 0.1, META, c_shots=1e300)
    for alpha in (1e6, 1e6 + 0.5):  # rank**(alpha - 1) overflows
        with pytest.raises(ValueError, match="accuracy budget .* outside the float range"):
            delta_budget(decompose_alpha(alpha), 0.1, META)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 2.5, 3.5])
@pytest.mark.parametrize("eps", [1e300, 1e-300])
def test_predicted_samples_out_of_range_is_value_error(alpha, eps):
    with pytest.raises(ValueError, match="outside the float range"):
        predicted_samples(decompose_alpha(alpha), eps, META)
