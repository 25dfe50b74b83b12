"""Acceptance gate: one test per criterion, each printing a PASS line.

Every tolerance is pinned here, none deferred; the per-criterion lines
print past pytest's capture so they appear in any log.
"""

import math
import time

import numpy as np
import pytest

from entropybench.accountant import decompose_alpha
from entropybench.cli import ExperimentConfig, run_experiment
from entropybench.estimators import estimate
from entropybench.qsvtpoly import approx_log, approx_neg_power, approx_pos_power
from entropybench.states import exact_entropies, from_spectrum, random_density
from reference import ideal_p0_case1, ideal_p0_case2, ideal_p0_sub_one, propagate_entropy_error

@pytest.fixture
def announce(capsys):
    """Per-criterion PASS lines must land in plain logs, past the capture."""

    def _emit(msg: str) -> None:
        with capsys.disabled():
            print(msg, flush=True)

    return _emit


ALPHAS = (1.3, 1.5, 2.5, 3.5, 4.5, 5.6, 6.4)
DIAG8 = from_spectrum([0.5, 0.3, 0.2], 8)

S2_EXACT = -math.log(0.38)  # 0.9675840...
S15_EXACT = exact_entropies(DIAG8, 1.5).entropy  # 0.9974222...
SV_EXACT = exact_entropies(DIAG8, 1.0).entropy  # 1.0296530...


def _states(n=50, seed=20240):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        d = int(rng.integers(2, 17))
        r = int(rng.integers(1, min(4, d) + 1))
        out.append(random_density(d, r, int(rng.integers(1 << 31))))
    return out


def test_criterion_1_ideal_pipeline_exactness(announce):
    t0 = time.time()
    states = _states()
    worst_s, worst_p0 = 0.0, 0.0
    for i, rho in enumerate(states):
        for alpha in ALPHAS:
            rep = estimate(rho, alpha, 0.05, seed=i, mode="ideal")
            exact = exact_entropies(rho, alpha).entropy
            worst_s = max(worst_s, abs(rep.estimate - exact))
            regime = decompose_alpha(alpha)
            if regime.branch == "odd_floor":
                closed = ideal_p0_case1(rho, regime.k, regime.c)
            else:
                closed = ideal_p0_case2(rho, regime.k, regime.c, assume_support=True)
            worst_p0 = max(worst_p0, abs(rep.p0_realized - closed))
        # the sub-one closed form, through the sampling pipeline
        rep = estimate(rho, 0.5, 0.1, mode="ideal", seed=i)
        worst_p0 = max(worst_p0, abs(rep.p0_realized - ideal_p0_sub_one(rho, 0.5)))
    elapsed = time.time() - t0
    assert worst_s <= 1e-5, f"entropy deviation {worst_s:.3e}"
    assert worst_p0 <= 1e-6, f"p0 deviation {worst_p0:.3e}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    announce(
        f"\nACCEPTANCE 1 PASS ideal-pipeline exactness: 50 states x {len(ALPHAS)} orders, "
        f"max |S - oracle| = {worst_s:.2e} (<= 1e-5), max |p0 - closed form| = {worst_p0:.2e} "
        f"(<= 1e-6), {elapsed:.1f}s (< 60s)"
    )


def test_criterion_2_polynomial_certification(announce):
    worst = 0.0
    for beta in (0.2, 0.1, 0.05):
        for eps in (1e-2, 1e-3):
            p = approx_log(beta, eps)
            cap = 8 * (1 / beta) * math.log(1 / eps)
            assert p.degree <= cap, (beta, eps, p.degree, cap)
            grid = np.linspace(beta, 1.0, 600)
            err = float(np.max(np.abs(p(grid) - np.log(1 / grid) / (2 * math.log(1 / beta)))))
            assert err <= eps
            worst = max(worst, err / eps)
    for c, kappa, eps in ((0.5, 10.0, 1e-3), (0.3, 5.0, 1e-4), (0.8, 20.0, 1e-3)):
        p = approx_pos_power(c, kappa, eps)
        grid = np.linspace(1 / kappa, 1.0, 600)
        assert float(np.max(np.abs(2 * p(grid) - grid**c))) <= 2 * eps
        q = approx_neg_power(c, kappa, eps)
        scale = 2 * kappa**c
        assert float(np.max(np.abs(scale * q(grid) - grid ** (-c)))) <= scale * eps
    announce(
        "\nACCEPTANCE 2 PASS polynomial certification: log fits within the 8(1/beta)ln(1/eps) "
        f"degree law and eps on [beta,1] (worst err/eps = {worst:.2f}); "
        "power fits match scalar powers within 2 eps on dense grids"
    )


def test_criterion_3_statistical_coverage(announce):
    # stated targets alongside the oracle values; the order-1.5 target in
    # the criterion (1.000336) carries a small derivation slip relative to
    # the oracle (0.997422) and both windows must cover >= 95/100
    t0 = time.time()
    eps = 0.05
    runs = {
        "S_2": (lambda s: estimate(DIAG8, 2.0, eps, seed=s), S2_EXACT, 0.96758),
        "S_1.5": (lambda s: estimate(DIAG8, 1.5, eps, seed=s), S15_EXACT, 1.000336),
        "S_v qsvt": (lambda s: estimate(DIAG8, 1.0, eps, seed=s, method="qsvt"), SV_EXACT, 1.029653),
        "S_v poly": (lambda s: estimate(DIAG8, 1.0, eps, seed=s, method="poly"), SV_EXACT, 1.029653),
    }
    lines = []
    for name, (fn, exact, printed) in runs.items():
        hits_exact = 0
        hits_printed = 0
        for s in range(100):
            rep = fn(s)
            hits_exact += abs(rep.estimate - exact) <= eps
            hits_printed += abs(rep.estimate - printed) <= eps
        assert hits_exact >= 95, f"{name}: {hits_exact}/100 vs oracle"
        assert hits_printed >= 95, f"{name}: {hits_printed}/100 vs stated target"
        lines.append(f"{name} {hits_exact}/100")
    elapsed = time.time() - t0
    assert elapsed < 300.0
    announce(
        f"\nACCEPTANCE 3 PASS statistical coverage (|est - exact| <= 0.05 in >= 95/100): "
        f"{', '.join(lines)}; {elapsed:.1f}s (< 5 min)"
    )


def test_criterion_4_shot_scaling_slopes(announce, csv_rows):
    grid = [0.2, 0.1, 0.05, 0.025]
    # Bernoulli path: integer order on the reference spectrum
    cfg = ExperimentConfig(
        mode="sweep", var="eps", grid=grid, alpha=2.0, d=8,
        spectrum=[0.5, 0.3, 0.2], trials=1, seed=21,
    )
    rows = csv_rows(run_experiment(cfg)[0])
    shots = [float(r["shots"]) for r in rows]
    x = [math.log(1 / e) for e in grid]
    bern_slope = float(np.polyfit(x, [math.log(s) for s in shots], 1)[0])
    assert abs(bern_slope - 2.0) <= 0.3, bern_slope
    # amplitude-estimation path: sub-one order, power-of-2 dimension
    mixed = from_spectrum([0.4, 0.3, 0.2, 0.1], 4)
    shots_ae = [estimate(mixed, 0.5, e, method="ae", mode="ideal", seed=3).shots_used for e in grid]
    ae_slope = float(np.polyfit(x, [math.log(s) for s in shots_ae], 1)[0])
    assert abs(ae_slope - 1.0) <= 0.3, ae_slope
    announce(
        f"\nACCEPTANCE 4 PASS shot scaling: Bernoulli slope {bern_slope:.2f} (2 +/- 0.3), "
        f"amplitude-estimation slope {ae_slope:.2f} (1 +/- 0.3)"
    )


def test_criterion_5_error_propagation_soundness(announce):
    rng = np.random.default_rng(555)
    violations = 0
    for _ in range(200):
        d = int(rng.integers(2, 13))
        r = int(rng.integers(1, min(4, d) + 1))
        rho = random_density(d, r, int(rng.integers(1 << 31)))
        alpha = float(rng.choice([0.3, 0.5, 0.8, 1.5, 1.9, 2.0, 2.5, 3.0, 3.5, 4.5]))
        rec = exact_entropies(rho, alpha)
        t = rec.tr_pow_alpha
        delta = float(rng.uniform(0.05, 0.4)) * t
        t_hat = t + float(rng.uniform(-1.0, 1.0)) * delta
        s_hat = math.log(t_hat) / (1.0 - alpha)
        bound = propagate_entropy_error(delta, alpha, rho.meta)
        if abs(s_hat - rec.entropy) > bound + 1e-12:
            violations += 1
    assert violations == 0
    announce(
        "\nACCEPTANCE 5 PASS error propagation: 200 randomized (state, order, delta) instances, "
        "entropy error within the branch bound every time (0 violations)"
    )


def test_criterion_6_pure_and_maximally_mixed_fixtures(announce):
    eps = 0.1
    pure = from_spectrum([1.0], 4)
    mixed = from_spectrum([0.25] * 4, 4)
    checked = []
    for alpha in (0.5, 1.0, 1.5, 2.0, 3.0, 2.5):
        for rho, target, tag in ((pure, 0.0, "pure"), (mixed, math.log(4), "mixed")):
            if alpha == 1.0:
                reps = [
                    estimate(rho, 1.0, eps, seed=42, method="qsvt"),
                    estimate(rho, 1.0, eps, seed=42, method="poly"),
                ]
            else:
                reps = [estimate(rho, alpha, eps, seed=42)]
            for rep in reps:
                assert abs(rep.estimate - target) <= eps, (alpha, tag, rep.estimate)
            checked.append(f"{tag}@{alpha:g}")
    announce(
        f"\nACCEPTANCE 6 PASS fixtures within eps = {eps}: pure -> 0 and maximally mixed -> ln 4 "
        f"for every branch ({', '.join(checked)})"
    )


def test_criterion_7_noise_budget_honesty(announce):
    rng = np.random.default_rng(717)
    worst_ratio = 0.0
    n = 0
    while n < 100:
        d = int(rng.integers(2, 13))
        r = int(rng.integers(1, min(4, d) + 1))
        rho = random_density(d, r, int(rng.integers(1 << 31)))
        alpha = float(rng.choice([1.3, 1.5, 2.5, 3.5, 4.5, 0.5, 0.7]))
        seed = int(rng.integers(1 << 31))
        rep = estimate(rho, alpha, 0.1, seed=seed, mode="noisy")
        dev = abs(rep.p0_realized - rep.p0_operator_exact)
        assert dev <= rep.p0_error_bound + 1e-15, (alpha, dev, rep.p0_error_bound)
        if rep.p0_error_bound > 0:
            worst_ratio = max(worst_ratio, dev / rep.p0_error_bound)
        n += 1
    announce(
        "\nACCEPTANCE 7 PASS noise-budget honesty: 100 noisy instances, realized p0 deviation "
        f"never exceeded the computed ledger (worst dev/ledger = {worst_ratio:.3f})"
    )


def test_criterion_8_validate_determinism(announce, csv_text):
    cfg1 = ExperimentConfig(mode="validate", seed=99, quick=True)
    rows1, _ = run_experiment(cfg1)
    cfg2 = ExperimentConfig(mode="validate", seed=99, quick=True)
    rows2, _ = run_experiment(cfg2)
    csv1, csv2 = csv_text(rows1), csv_text(rows2)
    assert csv1 == csv2
    assert csv1.encode() == csv2.encode()
    announce(
        "\nACCEPTANCE 8 PASS determinism: validate run twice with the same seed produced "
        f"byte-identical CSV ({len(csv1.encode())} bytes)"
    )
