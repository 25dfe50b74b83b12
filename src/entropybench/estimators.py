"""Entropy estimation pipelines driven by block encodings and ancilla statistics.

Every estimator follows the same skeleton: build the branch-appropriate
transformed encoding A of the state, read off the exact ancilla-outcome
probability p0 = Tr(A rho A) it induces, simulate the measurement of p0
at the budgeted accuracy, and invert the branch's closed-form relation
between p0 and the entropy.  One private driver, `_pipeline`, runs that
skeleton; each public branch supplies only its build and inversion
steps.  `vn_poly` measures many trace powers instead of one p0, so it
runs its own loop and shares only the report constructor, `_report`.
Reports carry the realized and exact p0, the certified operator-error
ledger, a p0-level deviation bound, and the copy-count bookkeeping.

Modes: "ideal" uses noiseless encodings, tight fits, and the exact p0
(isolating formula correctness); "noisy" injects encoding noise at the
budget and draws shot statistics.  The blind flag additionally replaces
oracle spectral inputs (rank, purity, smallest eigenvalue) with
estimates obtained through the protocols themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .accountant import C_SHOTS, MAX_SHOTS, Budget, RegimeDecomposition, decompose_alpha, delta_budget, shots_for
from .blockenc import (
    BlockEncoding,
    be_power,
    be_product,
    encode_density,
    encode_state_side,
    rescale,
)
from .config import TOL
from .numkernel import op_norm
from .qsvtpoly import MONOMIAL_DEGREE_CAP, apply_poly, approx_log, approx_neg_power, approx_pos_power
from . import seeding
from .seeding import child_seed as _child_seed
from .states import DensityMatrix, EntropyRecord, StateMeta, exact_entropies

LOG_PI_OVER_4 = math.log(math.pi / 4.0)
# additive accuracy of the simulated minimum-eigenvalue subroutine when an
# estimator has to run it (blind mode)
BLIND_THETA = 0.02
# polynomial sup error used by ideal-mode pipelines
IDEAL_POLY_EPS = 1e-8


class EstimationFailure(RuntimeError):
    """A statistical outcome made the recovery formula undefined."""


@dataclass(frozen=True)
class MeasurementModel:
    """Ancilla-outcome probability plus the measurement mechanism."""

    p0: float
    mode: str = "bernoulli"  # or "amplitude_estimation"

    def __post_init__(self):
        if self.mode not in ("bernoulli", "amplitude_estimation"):
            raise ValueError(f"unknown measurement mode {self.mode!r}")
        if not (-1e-12 <= self.p0 <= 1.0 + 1e-12):
            raise ValueError(f"probability {self.p0!r} outside [0, 1]")
        object.__setattr__(self, "p0", float(min(1.0, max(0.0, self.p0))))


def measure_p0(
    model: MeasurementModel,
    delta: float,
    seed: int,
    c_shots: float = C_SHOTS,
) -> float:
    """Simulated estimate of p0 at accuracy parameter delta.

    Bernoulli mode draws ceil(c_shots/delta^2) coin flips (one binomial
    variate, identical in law); the amplitude-estimation model returns
    p0 plus uniform noise in [-delta, delta] at ceil(c_shots/delta)
    query cost.  Deterministic per seed.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"accuracy parameter must be in (0, 1), got {delta}")
    rng = seeding.rng(seed)
    n = shots_for(model.mode, delta, c_shots)
    if model.mode == "bernoulli":
        return float(rng.binomial(n, model.p0) / n)
    return float(model.p0 + rng.uniform(-delta, delta))


@dataclass(frozen=True)
class EstimateReport:
    quantity_tag: str  # "S_alpha" | "S_v"
    estimate: float
    target_eps: float
    shots_used: int
    sample_cost_total: int
    method: str
    seed: int
    predicted_budget: int
    alpha: float
    branch: str
    delta: float
    exact_value: Optional[float] = None
    within_eps: Optional[bool] = None
    # the shot-sampled estimate actually inverted into the entropy
    p0_measured: Optional[float] = None
    # exact ancilla probability of the realized (possibly noisy) operator
    p0_realized: Optional[float] = None
    # exact ancilla probability of the ideal operator chain
    p0_operator_exact: Optional[float] = None
    eta_operator: float = 0.0
    # certified bound on |p0_realized - p0_operator_exact|
    p0_error_bound: float = 0.0
    rho_min_used: Optional[float] = None
    sensitivity_rho_min: Optional[float] = None
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.shots_used < 1:
            raise ValueError("shots_used must be >= 1")


@dataclass(frozen=True)
class MinEigResult:
    estimate: float  # of (pi/4) * rho_min
    rho_min: float
    sample_cost: int


# An estimate's seed has numbered children (`_child_seed(seed, i)`): 0 feeds
# the blind-mode probes, then each branch numbers its build stages from
# `_BUILD_CHILD`, and its measurement comes last.  `trial_children` names
# the ones a route reads on every trial, so that a caller running many
# trials can derive them in one batch (`seeding.batch`); the others are
# derived where they are used, so unused ones cost nothing.
_BUILD_CHILD = 1
_MEASURE_CHILD = {"integer": 1, "odd_floor": 2, "even_floor": 3, "sub_one": 2, "von_neumann": 2}


def trial_children(branch: str, method: Optional[str] = None) -> tuple[int, ...]:
    """The children of an estimate's seed that every trial of the route
    `estimate(..., method=method)` takes on `branch` reads: the measurement
    child and, on the encoded branches, the first build child.  `vn_poly`
    reads only child 1, the parent of its term seeds; blind mode also
    reads child 0."""
    if branch == "integer":
        return (_MEASURE_CHILD[branch],)
    if method == "poly":
        return (_BUILD_CHILD,)
    return (_BUILD_CHILD, _MEASURE_CHILD[branch])


def _child_seeds(seed: int, n: int) -> list[int]:
    return [_child_seed(seed, i) for i in range(n)]


def _op_norm_cap(h) -> float:
    """Cheap upper bound on the operator norm: cached spectrum if present,
    else min(1 + slack, Frobenius norm); corners never exceed 1."""
    if "spec" in h._cache:
        return op_norm(h)
    return min(1.0 + TOL.encoding_norm_slack, float(np.linalg.norm(h.mat)))


def _p0_pair(be: BlockEncoding, rho_mat: np.ndarray) -> tuple[float, float, float]:
    """(realized p0, exact-operator p0, certified deviation bound).

    |Tr(E rho E) - Tr(T rho T)| <= ||E - T|| (||E|| + ||T||) Tr rho, so
    the p0-level ledger is eta times the summed norm caps.
    """
    e = be.encoded.mat
    t = be.target.mat
    p_noisy = float(np.real(np.trace(e @ rho_mat @ e)))
    p_exact = float(np.real(np.trace(t @ rho_mat @ t)))
    bound = be.eta * (_op_norm_cap(be.encoded) + _op_norm_cap(be.target))
    return min(1.0, max(0.0, p_noisy)), min(1.0, max(0.0, p_exact)), bound


def _poly_budget(delta: float, mode: str) -> float:
    if mode == "ideal":
        return IDEAL_POLY_EPS
    return min(delta, 0.4)


def _clamp_encoding_budget(x: float) -> float:
    return float(min(0.5, max(1e-300, x)))


def min_eig_estimate(be: BlockEncoding, theta: float, seed: int = 0) -> MinEigResult:
    """Smallest nonzero eigenvalue of the encoded block, up to additive theta.

    theta = 0 returns the exact value at zero ledger cost; otherwise
    seeded uniform noise in [-theta, theta] is added, the result clamped
    positive, and the ledger charged (T_A/theta)(ln(1/theta) + ln(d)/2).
    Eigenvalues within the encoding's own error budget of zero are
    treated as kernel directions, not as the minimum.
    """
    if not (0.0 <= theta < 1.0):
        raise ValueError(f"accuracy must be in [0, 1), got {theta}")
    eigs = be.encoded.spectrum.eigenvalues
    cutoff = max(TOL.rank_cutoff, be.eta + TOL.rank_cutoff)
    nz = eigs[eigs > cutoff]
    if nz.size == 0:
        raise ValueError("encoded block has no eigenvalue above its error budget")
    val = float(nz[-1])
    cost = 0
    if theta > 0.0:
        rng = seeding.rng(seed)
        val = val + float(rng.uniform(-theta, theta))
        val = max(val, TOL.rank_cutoff)
        d = be.dim
        cost = int(math.ceil((be.sample_cost / theta) * (math.log(1.0 / theta) + math.log(d) / 2.0)))
    return MinEigResult(estimate=val, rho_min=min(1.0, val * 4.0 / math.pi), sample_cost=cost)


def ideal_p0_case1(rho: DensityMatrix, k: int, c: float) -> float:
    """Closed-form ancilla probability for the positive-power route.

    (pi/4)^(alpha-1) * Tr rho^alpha with alpha = 2k+1+c.
    """
    alpha = 2 * k + 1 + c
    if alpha <= 0:
        raise ValueError("order must be positive")
    t = exact_entropies(rho, alpha).tr_pow_alpha if alpha != 1 else 1.0
    return (math.pi / 4.0) ** (alpha - 1.0) * t


def ideal_p0_case2(rho: DensityMatrix, k: int, c: float, assume_support: bool = False) -> float:
    """Closed-form ancilla probability for the negative-power route.

    (1/4) (pi/4)^(2k) (1/rho_min)^c * Tr rho^alpha with alpha = 2k+1+c.
    Rank-deficient states are rejected unless the caller vouches for a
    support restriction (negative powers are undefined at 0).
    """
    alpha = 2 * k + 1 + c
    if alpha <= 0:
        raise ValueError("order must be positive")
    meta = rho.meta
    if meta.rank < rho.dim and not assume_support:
        raise ValueError(
            "state is rank deficient; project onto its support before taking negative powers"
        )
    t = exact_entropies(rho, alpha).tr_pow_alpha if alpha != 1 else 1.0
    return 0.25 * (math.pi / 4.0) ** (2 * k) * meta.rho_min ** (-c) * t


def ideal_p0_sub_one(rho: DensityMatrix, alpha: float) -> float:
    """Closed-form ancilla probability for orders below one.

    pi^alpha / (4^(alpha+1) * d) * Tr rho^alpha, the outcome of hitting
    the maximally mixed input with the half-power transform.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"order must be in (0, 1), got {alpha}")
    t = exact_entropies(rho, alpha).tr_pow_alpha
    return math.pi**alpha / (4.0 ** (alpha + 1.0) * rho.dim) * t


@dataclass
class _Inputs:
    """Spectral inputs a run uses: oracle values or blind estimates."""

    meta: StateMeta
    rho_min_lower: float
    extra_cost: int = 0
    flags: tuple[str, ...] = ()


def _estimate_purity(rho: DensityMatrix, seed: int, c_shots: float, delta: float = 0.05) -> tuple[float, int]:
    """Preliminary order-2 trace estimate used by blind budgets."""
    t2 = rho.meta.purity
    n = shots_for("bernoulli", delta, c_shots)
    rng = seeding.rng(seed)
    t2_hat = 2.0 * rng.binomial(n, (1.0 + t2) / 2.0) / n - 1.0
    return float(min(1.0, max(t2_hat, 1.0 / rho.dim))), 2 * n


def _gather_inputs(
    rho: DensityMatrix,
    blind: bool,
    mode: str,
    seed: int,
    c_shots: float,
    need_rho_min: bool = True,
) -> _Inputs:
    """`seed` is the estimate's own seed: blind probes draw from its
    child 0, which is derived only when they run."""
    meta = rho.meta
    if not blind:
        return _Inputs(meta=meta, rho_min_lower=meta.rho_min)
    s_pur, s_min, s_enc = _child_seeds(_child_seed(seed, 0), 3)
    t2_hat, cost = _estimate_purity(rho, s_pur, c_shots)
    r_hat = max(1, min(rho.dim, int(math.ceil(1.0 / t2_hat - 1e-9))))
    flags = ["blind_rank", "blind_purity"]
    rho_min_lower = meta.rho_min
    if need_rho_min:
        probe = encode_density(rho, 0.01, s_enc, noiseless=(mode == "ideal"))
        res = min_eig_estimate(probe, BLIND_THETA, s_min)
        rho_min_lower = max((res.estimate - BLIND_THETA) * 4.0 / math.pi, 1e-4)
        cost += probe.sample_cost + res.sample_cost
        flags.append("blind_rho_min")
    blind_meta = StateMeta(
        rank=r_hat,
        rho_min=min(rho_min_lower, 1.0),
        rho_max=1.0,
        purity=t2_hat,
        dim=rho.dim,
    )
    return _Inputs(meta=blind_meta, rho_min_lower=rho_min_lower, extra_cost=cost, flags=tuple(flags))


@dataclass
class _Built:
    """A branch's build step: its p0 pair (realized, exact-operator,
    deviation bound), the encoding behind it (None when the route needs
    none), and the smallest eigenvalue the construction assumed."""

    pair: tuple[float, float, float]
    be: Optional[BlockEncoding] = None
    rho_min_used: Optional[float] = None
    sensitivity: Optional[float] = None


def _report(
    regime: RegimeDecomposition,
    oracle: EntropyRecord,
    eps: float,
    budget: Budget,
    estimate: float,
    method: str,
    seed: int,
    ledger: int,
    flags: tuple[str, ...],
    p0_measured: Optional[float] = None,
    pair: tuple = (None, None, 0.0),
    eta: float = 0.0,
    rho_min_used: Optional[float] = None,
    sensitivity: Optional[float] = None,
) -> EstimateReport:
    """The one report constructor: the oracle gives the quantity and the
    exact value, the regime the order and branch, the budget delta and
    the shot counts."""
    return EstimateReport(
        quantity_tag=oracle.quantity,
        estimate=float(estimate),
        target_eps=eps,
        shots_used=budget.shots,
        sample_cost_total=int(ledger),
        method=method,
        seed=seed,
        predicted_budget=budget.predicted_samples,
        alpha=regime.alpha,
        branch=regime.branch,
        delta=budget.delta,
        exact_value=oracle.entropy,
        within_eps=bool(abs(estimate - oracle.entropy) <= eps),
        p0_measured=p0_measured,
        p0_realized=pair[0],
        p0_operator_exact=pair[1],
        eta_operator=eta,
        p0_error_bound=pair[2],
        rho_min_used=rho_min_used,
        sensitivity_rho_min=sensitivity,
        flags=flags,
    )


def _pipeline(
    rho: DensityMatrix,
    regime: RegimeDecomposition,
    eps: float,
    mode: str,
    seed: int,
    blind: bool,
    c_shots: float,
    build: Callable[[_Inputs, Budget, EntropyRecord], _Built],
    invert: Callable[[float, _Built, Budget], float],
    *,
    method: str,
    need_rho_min: bool = True,
    copies_per_shot: int = 1,
    blind_flags: tuple[str, ...] = (),
) -> EstimateReport:
    """The skeleton every encoded estimator shares.

    Gathers the spectral inputs (oracle or blind) and budgets the run;
    `build(inputs, budget, oracle)` returns the branch's `_Built`; p0 is
    then read exactly (ideal mode) or measured on the branch's measurement
    child of the seed, Bernoulli or, for method "ae", by amplitude estimation;
    `invert(p0_hat, built, budget)` turns it into the entropy.
    """
    inputs = _gather_inputs(rho, blind, mode, seed, c_shots, need_rho_min)
    ae = method == "ae"
    budget = delta_budget(regime, eps, inputs.meta, method="ae" if ae else "sampling", c_shots=c_shots)
    oracle = exact_entropies(rho, regime.alpha)
    built = build(inputs, budget, oracle)
    p0_hat = built.pair[0]
    if mode != "ideal":
        model = MeasurementModel(p0=p0_hat, mode="amplitude_estimation" if ae else "bernoulli")
        p0_hat = measure_p0(model, budget.measure_delta, _child_seed(seed, _MEASURE_CHILD[regime.branch]), c_shots)
    estimate = invert(p0_hat, built, budget)
    be = built.be
    return _report(
        regime,
        oracle,
        eps,
        budget,
        estimate,
        method,
        seed,
        ledger=(be.sample_cost if be else 0) + copies_per_shot * budget.shots + inputs.extra_cost,
        flags=inputs.flags + (blind_flags if blind else ()),
        p0_measured=p0_hat,
        pair=built.pair,
        eta=be.eta if be else 0.0,
        rho_min_used=built.rho_min_used,
        sensitivity=built.sensitivity,
    )


def _nonzero(p0_hat: float, what: str = "measured ancilla probability", budget: str = "shot") -> float:
    if p0_hat <= 0.0:
        raise EstimationFailure(f"{what} is zero; increase the {budget} budget")
    return p0_hat


def renyi_integer(
    rho: DensityMatrix,
    alpha: int,
    eps: float,
    seed: int = 0,
    mode: str = "noisy",
    blind: bool = False,
    c_shots: float = C_SHOTS,
) -> EstimateReport:
    """Integer-order estimate from joint measurements on alpha copies.

    Simulated as a Bernoulli source with success probability
    (1 + Tr rho^alpha)/2, the ancilla statistics of a controlled cyclic
    shift across alpha copies; each shot consumes alpha copies.
    """
    if int(alpha) != alpha or alpha < 2:
        raise ValueError(f"order must be an integer >= 2, got {alpha}")
    alpha = int(alpha)

    def build(inputs, budget, oracle):
        p = (1.0 + oracle.tr_pow_alpha) / 2.0
        return _Built((p, p, 0.0))

    def invert(p_hat, built, budget):
        t_hat = 2.0 * p_hat - 1.0
        if t_hat <= 0.0:
            raise EstimationFailure(
                f"trace-power estimate {t_hat:.3e} is not positive; "
                "increase the shot budget (smaller eps or larger c_shots)"
            )
        return math.log(t_hat) / (1.0 - alpha)

    return _pipeline(
        rho, decompose_alpha(float(alpha)), eps, mode, seed, blind, c_shots, build, invert,
        method="integer", need_rho_min=False, copies_per_shot=alpha,
    )


def renyi_case_odd(
    rho: DensityMatrix,
    alpha: float,
    eps: float,
    mode: str = "noisy",
    seed: int = 0,
    blind: bool = False,
    c_shots: float = C_SHOTS,
) -> EstimateReport:
    """Fractional order with odd floor: positive-power route.

    Decomposes alpha = 2k+1+c with c > 0, realizes ((pi/4) rho)^(k+c/2),
    measures p0 = (pi/4)^(alpha-1) Tr rho^alpha on the ancilla, and
    recovers S_alpha = [log(p0 * pi/4) - alpha log(pi/4)] / (1 - alpha).
    """
    regime = decompose_alpha(alpha)
    if regime.branch != "odd_floor":
        raise ValueError(f"order {alpha} is not fractional with odd floor")
    k, c = regime.k, regime.c

    def build(inputs, budget, oracle):
        # ((pi/4) rho)^(k + c/2), subnormalization folded out: the fractional
        # power and the k plain factors draw noise from children of child 1
        delta = budget.delta
        noiseless = mode == "ideal"
        kappa = 4.0 / (math.pi * inputs.rho_min_lower)
        fit = approx_pos_power(c / 2.0, kappa, _poly_budget(delta, mode))
        enc_budget = _clamp_encoding_budget(min(fit.input_precision, delta))
        s_build = _child_seed(seed, _BUILD_CHILD)
        be = rescale(apply_poly(encode_density(rho, enc_budget, _child_seed(s_build, 0), noiseless), fit), 2.0)
        if k > 0:
            powers = be_power(rho, k, _clamp_encoding_budget(delta / k), _child_seed(s_build, 1), noiseless)
            be = be_product(powers, be)
        return _Built(_p0_pair(be, rho.matrix.mat), be, inputs.rho_min_lower)

    def invert(p0_hat, built, budget):
        return (math.log(_nonzero(p0_hat) * math.pi / 4.0) - alpha * LOG_PI_OVER_4) / (1.0 - alpha)

    return _pipeline(rho, regime, eps, mode, seed, blind, c_shots, build, invert, method="odd_floor")


def renyi_case_even(
    rho: DensityMatrix,
    alpha: float,
    eps: float,
    mode: str = "noisy",
    seed: int = 0,
    blind: bool = False,
    c_shots: float = C_SHOTS,
) -> EstimateReport:
    """Fractional order above 2 with even floor: negative-power route.

    Decomposes alpha = 2k+1+c with c < 0 and realizes
    (1/2) (pi/4)^k (1/rho_min)^(c/2) rho^(k+c/2); the ancilla gives
    p0 = (1/4) (pi/4)^(2k) (1/rho_min)^c Tr rho^alpha, inverted with the
    same rho_min the construction used (its exact division is what makes
    the recovery self-consistent; the report carries the sensitivity).
    Negative powers are undefined at eigenvalue 0, so a rank-deficient
    state is restricted to its support first.
    """
    regime = decompose_alpha(alpha)
    if regime.branch != "even_floor":
        raise ValueError(f"order {alpha} is not fractional above 2 with even floor")
    work = rho.project_to_support()
    k, c = regime.k, regime.c

    def build(inputs, budget, oracle):
        delta = budget.delta
        noiseless = mode == "ideal"
        kappa = 1.0 / inputs.rho_min_lower
        fit = approx_neg_power(abs(c) / 2.0, kappa, _poly_budget(delta, mode))
        enc_budget = _clamp_encoding_budget(min(fit.input_precision, delta))
        neg_branch = apply_poly(encode_state_side(work, enc_budget, _child_seed(seed, _BUILD_CHILD), noiseless), fit)
        powers = be_power(work, k, _clamp_encoding_budget(delta / k), _child_seed(seed, _BUILD_CHILD + 1), noiseless)
        be = be_product(powers, neg_branch)
        rho_min_used = 1.0 / kappa
        return _Built(_p0_pair(be, work.matrix.mat), be, rho_min_used, c / ((1.0 - alpha) * rho_min_used))

    def invert(p0_hat, built, budget):
        prefactor = 0.25 * (math.pi / 4.0) ** (2 * k) * built.rho_min_used ** (-c)
        return (math.log(_nonzero(p0_hat)) - math.log(prefactor)) / (1.0 - alpha)

    return _pipeline(work, regime, eps, mode, seed, blind, c_shots, build, invert, method="even_floor")


def renyi_sub_one(
    rho: DensityMatrix,
    alpha: float,
    eps: float,
    method: str = "sampling",
    mode: str = "noisy",
    seed: int = 0,
    blind: bool = False,
    c_shots: float = C_SHOTS,
) -> EstimateReport:
    """Order in (0, 1): half-power transform against the maximally mixed input.

    sampling: realize (1/2)((pi/4) rho)^(alpha/2), feed I/d, measure
    p0 = pi^alpha/(4^(alpha+1) d) Tr rho^alpha by Bernoulli sampling.
    ae: realize (1/2)((pi/4) rho)^alpha, estimate its overlap with the
    maximally entangled purification to additive delta at ~1/delta query
    cost (d must be a power of 2 for that preparation).  Either way the
    budget follows the purity, which blind mode estimates.
    """
    regime = decompose_alpha(alpha)
    if regime.branch != "sub_one":
        raise ValueError(f"order {alpha} is not in (0, 1)")
    if method not in ("sampling", "ae"):
        raise ValueError(f"unknown method {method!r}")
    d = rho.dim
    if method == "ae" and 2 ** int(round(math.log2(d))) != d:
        raise ValueError(f"amplitude-estimation route needs a power-of-2 dimension, got {d}")

    def build(inputs, budget, oracle):
        delta_meas = budget.measure_delta  # dimension-rescaled: the recovery scales by d
        kappa = 4.0 / (math.pi * inputs.rho_min_lower)
        exponent = alpha / 2.0 if method == "sampling" else alpha
        fit = approx_pos_power(exponent, kappa, _poly_budget(delta_meas, mode))
        enc_budget = _clamp_encoding_budget(min(fit.input_precision, delta_meas))
        be = apply_poly(encode_density(rho, enc_budget, _child_seed(seed, _BUILD_CHILD), mode == "ideal"), fit)
        mixed = np.eye(d, dtype=np.complex128) / d
        if method == "sampling":
            return _Built(_p0_pair(be, mixed), be, inputs.rho_min_lower)
        # amplitude estimation reads the overlap Tr(A I/d), off by at most eta
        q_noisy = min(1.0, max(0.0, float(np.real(np.trace(be.encoded.mat @ mixed)))))
        q_exact = float(np.real(np.trace(be.target.mat @ mixed)))
        return _Built((q_noisy, q_exact, be.eta), be, inputs.rho_min_lower)

    def invert(p0_hat, built, budget):
        if method == "sampling":
            tr_quarter = 4.0 * d * _nonzero(p0_hat)  # Tr ((pi/4) rho)^alpha
        else:
            tr_quarter = 2.0 * d * _nonzero(p0_hat, "overlap estimate", "query")
        return (math.log(tr_quarter) - alpha * LOG_PI_OVER_4) / (1.0 - alpha)

    return _pipeline(
        rho, regime, eps, mode, seed, blind, c_shots, build, invert,
        method=method, blind_flags=("budget_from_estimated_purity",),
    )


def _vn_scale(rho_min_lower: float) -> tuple[float, float, float]:
    """beta = pi rho_min/4, the log-stage scale gamma = 1/(2 log(1/beta)),
    and the zero-entropy floor gamma log(4/pi) of the direct transform."""
    beta = math.pi * rho_min_lower / 4.0
    gamma = 1.0 / (2.0 * math.log(1.0 / beta))
    return beta, gamma, gamma * math.log(4.0 / math.pi)


def vn_qsvt(
    rho: DensityMatrix,
    eps: float,
    mode: str = "noisy",
    seed: int = 0,
    blind: bool = False,
    c_shots: float = C_SHOTS,
) -> EstimateReport:
    """Von Neumann entropy by direct spectral transformation.

    Chain: encode (pi/4) rho, apply the scaled-log fit on
    [pi rho_min/4, 1] to reach gamma * log(4 rho^{-1}/pi) with
    gamma = 1/(2 log(4/(pi rho_min))), take the half power, fold out the
    1/2.  The ancilla gives p0 = gamma log(4/pi) + gamma S_v; shots are
    budgeted at delta = eps * gamma.  A rank-deficient state is
    restricted to its support, where the logarithm is defined.
    """
    work = rho.project_to_support()

    def build(inputs, budget, oracle):
        delta = budget.delta
        beta, _, floor2 = _vn_scale(inputs.rho_min_lower)
        stage_eps = IDEAL_POLY_EPS if mode == "ideal" else max(min(5e-4, delta / 32.0), 1e-12)
        log_fit = approx_log(beta, stage_eps)
        slope = max(1.0, log_fit.lipschitz_bound())
        enc_budget = _clamp_encoding_budget(stage_eps / (2.0 * slope))
        b1 = apply_poly(encode_density(work, enc_budget, _child_seed(seed, _BUILD_CHILD), mode == "ideal"), log_fit)
        sqrt_fit = approx_pos_power(0.5, 1.0 / floor2, stage_eps)
        b2 = rescale(apply_poly(b1, sqrt_fit), 2.0)
        return _Built(_p0_pair(b2, work.matrix.mat), b2, inputs.rho_min_lower)

    def invert(p0_hat, built, budget):
        _, gamma, floor2 = _vn_scale(built.rho_min_used)
        margin = 4.0 * budget.delta + built.pair[2]
        if p0_hat < floor2 - margin:
            raise EstimationFailure(
                f"ancilla probability {p0_hat:.4f} sits below the zero-entropy floor "
                f"{floor2:.4f} by more than the error margin; the run is inconsistent"
            )
        return (p0_hat - floor2) / gamma

    return _pipeline(work, decompose_alpha(1.0), eps, mode, seed, blind, c_shots, build, invert, method="qsvt")


def vn_poly(
    rho: DensityMatrix,
    eps: float,
    seed: int = 0,
    mode: str = "noisy",
    blind: bool = False,
    c_shots: float = C_SHOTS,
) -> EstimateReport:
    """Von Neumann entropy from a plain-power expansion of log(1/x).

    Converts the scaled-log fit on [rho_min, 1] to monomial coefficients
    a_i of log(1/x) itself and estimates each Tr rho^(i+1) with the
    integer-order machinery: S_v ~ a_0 + sum_i a_i Tr rho^(i+1) (the
    x * P(x) structure makes zero eigenvalues harmless, so no support
    projection is needed).  Per-term accuracy is eps/(2K max(log(1/beta),
    |a_i|)); the coefficient-aware denominator keeps the statistical
    error within budget even when the plain-power basis inflates the
    coefficients.  There is no single p0, so the terms are measured here
    rather than by `_pipeline`.
    """
    regime = decompose_alpha(1.0)
    inputs = _gather_inputs(rho, blind, mode, seed, c_shots)
    budget = delta_budget(regime, eps, inputs.meta, c_shots=c_shots)
    noiseless = mode == "ideal"

    beta = min(inputs.rho_min_lower, 0.9)
    log_scale = math.log(1.0 / beta)
    fit_eps = min(0.5, eps / (2.0 * log_scale))
    log_fit = approx_log(beta, fit_eps)
    k_deg = log_fit.degree
    if k_deg > MONOMIAL_DEGREE_CAP:
        raise ValueError(
            f"expansion degree {k_deg} exceeds the stable conversion cap "
            f"{MONOMIAL_DEGREE_CAP}; use the direct-transform estimator instead"
        )
    mono = log_fit.monomial()
    coeffs = mono.coeffs  # of log(1/x) on [beta, 1]

    oracle_powers = {i: exact_entropies(rho, float(i + 1)).tr_pow_alpha for i in range(1, len(coeffs))}
    s_meas = _child_seed(seed, _BUILD_CHILD)
    estimate = float(coeffs[0]) if len(coeffs) else 0.0
    shots_total = 0
    ledger = inputs.extra_cost
    for i in range(1, len(coeffs)):
        a_i = float(coeffs[i])
        t_i = oracle_powers[i]
        denom = 2.0 * max(1, k_deg) * max(log_scale, abs(a_i))
        delta_i = min(0.49, eps / denom)
        try:
            # ideal mode draws nothing, so its count is only reported
            n_i = shots_for("bernoulli", delta_i, c_shots, limit=math.inf if noiseless else MAX_SHOTS)
        except ValueError as exc:
            raise ValueError(
                f"term {i} of the plain-power expansion (coefficient {a_i:.3e}): {exc}; the expansion "
                "is too ill-conditioned for this state, use the direct-transform estimator (vn_qsvt) instead"
            ) from None
        if noiseless:
            t_hat = t_i
        else:
            rng = seeding.rng(_child_seed(s_meas, i - 1))
            t_hat = 2.0 * rng.binomial(n_i, (1.0 + t_i) / 2.0) / n_i - 1.0
        estimate += a_i * t_hat
        shots_total += n_i
        ledger += (i + 1) * n_i
    report_delta = eps / (2.0 * max(1, k_deg) * log_scale)
    return _report(
        regime,
        exact_entropies(rho, 1.0),
        eps,
        replace(budget, delta=report_delta, shots=max(1, shots_total)),
        estimate,
        "poly",
        seed,
        ledger,
        inputs.flags,
        eta=log_scale * 2.0 * log_fit.eps,
        rho_min_used=inputs.rho_min_lower,
    )


def estimate(
    rho: DensityMatrix,
    alpha: float,
    eps: float,
    seed: int = 0,
    mode: str = "noisy",
    method: Optional[str] = None,
    blind: bool = False,
    c_shots: float = C_SHOTS,
) -> EstimateReport:
    """Dispatch to the branch-appropriate pipeline for this order.

    `method` picks the route where a branch has two: "sampling" (default)
    or "ae" below order 1, "qsvt" (default) or "poly" at order 1; other
    branches ignore it.
    """
    regime = decompose_alpha(alpha)
    if regime.branch == "integer":
        return renyi_integer(rho, int(round(alpha)), eps, seed, mode, blind, c_shots)
    if regime.branch == "odd_floor":
        return renyi_case_odd(rho, alpha, eps, mode, seed, blind, c_shots)
    if regime.branch == "even_floor":
        return renyi_case_even(rho, alpha, eps, mode, seed, blind, c_shots)
    if regime.branch == "sub_one":
        return renyi_sub_one(rho, alpha, eps, method or "sampling", mode, seed, blind, c_shots)
    if method == "poly":
        return vn_poly(rho, eps, seed, mode, blind, c_shots)
    if method not in (None, "qsvt"):
        raise ValueError(f"unknown von Neumann method {method!r}")
    return vn_qsvt(rho, eps, mode, seed, blind, c_shots)
