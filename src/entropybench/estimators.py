"""Entropy estimation: a plan per grid point, then its trials as stacked runs.

Every estimator follows the same skeleton: build the branch-appropriate
transformed encoding A of the state, read off the exact ancilla-outcome
probability p0 = Tr(A rho A) it induces, simulate the measurement of p0
at the budgeted accuracy, and invert the branch's closed-form relation
between p0 and the entropy.  `vn_poly` measures many trace powers
instead of one p0.

The skeleton runs in two steps.  `plan` does, once per grid point, all
that the trials share: the regime, the spectral inputs, the budget, the
oracle, the rho_min the route uses, and `vn_poly`'s term table (its shot
counts need its fit).  `run_columns(plan, stream, trials)` does the
random work on the point's tree of random streams (`seeding.Stream`).
It hands chunks of trials to the route's function
(`renyi_integer(plan, stream, trials)` and so on, one per route), which
writes the route's chain once: it makes its fits and encoding budgets
first (on every chunk: no fit is kept between chunks), builds
the realized encodings of a chunk as one stack and transforms the stack
with stacked kernels, while each builder makes the one exact target
from its inputs' targets.  A fit the builders refuse, or a target
outside a fit's domain, is refused there, by the first chunk.  One
`measure_p0` call per chunk checks the accuracy and counts the shots
once; each trial is inverted in turn.  Each route numbers the stream's
children it reads: 0 feeds blind mode's probes, then come its build
stages, and its measurement comes last.  Every stage draws a chunk as
one array from a generator it carries from chunk to chunk, and numpy
draws an array in order, so a point's output does not depend on its
chunk size.  `measure_p0` is the one random draw of a measurement:
`vn_poly` measures each term of a chunk in one call, and blind mode's
purity and minimum-eigenvalue probes take one call each.  The chunk
comes back as `Columns`: a list per trial field (estimate, measured and
realized p0, bound, eta) beside the trials' indices, the ledger and the
exact p0 of the chain's target, which every trial shares.  `run(plan,
stream, trials)` makes a report of each trial from them; the CLI makes
rows of them.  A chunk holds at most `STACK_BYTES` per stacked array.
A check that fails raises where it fails, with the error of the chunk's
first failing trial there.  Inversion runs in trial order, and every
earlier per-trial check fails only if a chain's eta under-reports its
error, so on an input the package accepts that is the error a
trial-by-trial run would have met first.  `estimate` runs one trial.
Blind mode draws its probes per trial, so it plans every trial.

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
from collections.abc import Iterator
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .accountant import C_SHOTS, Budget, RegimeDecomposition, decompose_alpha, delta_budget, shots_for
from .blockenc import BlockEncoding, be_power, be_product, encode_density, encode_state_side, rescale
from .config import TOL
from .numkernel import fail_first, op_norm_cap
from .qsvtpoly import apply_poly, approx_log, approx_neg_power, approx_pos_power, to_monomial
from .seeding import Stream
from .states import DensityMatrix, EntropyRecord, StateMeta, exact_entropies

LOG_PI_OVER_4 = math.log(math.pi / 4.0)
# additive accuracy of the simulated minimum-eigenvalue subroutine when an
# estimator has to run it (blind mode)
BLIND_THETA = 0.02
# accuracy of the blind purity measurement
BLIND_PURITY_DELTA = 0.05
# polynomial sup error used by ideal-mode pipelines
IDEAL_POLY_EPS = 1e-8
# bytes one stacked array of a run's chunk may hold: d x d complex128
# matrices, so 32 trials at d = 64 and 2048 at d = 8
STACK_BYTES = 2 << 20


class EstimationFailure(RuntimeError):
    """A statistical outcome made the recovery formula undefined."""


def measure_p0(p0s: list[float], delta: float, stream: Stream, c_shots: float = C_SHOTS,
               mode: str = "bernoulli") -> list[float]:
    """Simulated estimates of the ancilla probabilities `p0s` at accuracy
    parameter delta, drawn as one array from the stream's generator.
    This is the package's one random draw of a measurement.

    Bernoulli mode draws ceil(c_shots/delta^2) coin flips (one binomial
    variate, identical in law); the "amplitude_estimation" model returns
    p0 plus uniform noise in [-delta, delta] at ceil(c_shots/delta) query
    cost.  numpy draws an array in order, so a list equals its
    one-element calls made in turn on the same stream.  Before any draw,
    the first p0 outside [0, 1] is refused (one within 1e-12 of it is
    clamped to it), then delta and the shot count are checked.
    """
    if mode not in ("bernoulli", "amplitude_estimation"):
        raise ValueError(f"unknown measurement mode {mode!r}")
    fail_first([not (-1e-12 <= p0 <= 1.0 + 1e-12) for p0 in p0s],
               lambda k: ValueError(f"probability {float(p0s[k])!r} outside [0, 1]"))
    p0s = [float(min(1.0, max(0.0, p0))) for p0 in p0s]
    if not (0.0 < delta < 1.0):
        raise ValueError(f"accuracy parameter must be in (0, 1), got {delta}")
    n = shots_for(mode, delta, c_shots)
    if mode == "bernoulli":
        return (stream.rng.binomial(n, p0s) / n).tolist()
    return (np.asarray(p0s) + stream.rng.uniform(-delta, delta, len(p0s))).tolist()


@dataclass(frozen=True)
class EstimateReport:
    quantity_tag: str  # "S_alpha" | "S_v"
    estimate: float
    target_eps: float
    shots_used: int
    sample_cost_total: int
    method: str
    seed: int  # the trial's index in its point's stream
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


class Columns(NamedTuple):
    """A chunk of one plan's trials as columns, one entry per trial in
    order: what `run` makes reports of and the CLI writes as rows.  The
    ledger and the exact p0 are shared by every trial; a route that
    measures no single p0 (`vn_poly`) has None entries."""

    trials: range  # the trials' indices in their point's stream
    estimates: list[float]
    ledger: int
    p0_measured: list[Optional[float]]
    p0_realized: list[Optional[float]]
    p0_exact: Optional[float]
    bounds: list[float]
    etas: list[float]


def _poly_budget(delta: float, mode: str) -> float:
    if mode == "ideal":
        return IDEAL_POLY_EPS
    return min(delta, 0.4)


def _clamp_encoding_budget(x: float) -> float:
    return float(min(0.5, max(1e-300, x)))


def min_eig_estimate(be: BlockEncoding, theta: float, stream: Stream) -> tuple[float, int]:
    """(estimate, copies): the smallest nonzero eigenvalue of the encoded
    block, measured as an amplitude estimate to additive theta (uniform
    noise in [-theta, theta] drawn by `measure_p0` from `stream`, which
    refuses a theta outside (0, 1)) and clamped positive, and the copies
    that costs, (T_A/theta)(ln(1/theta) + ln(d)/2).  Eigenvalues within
    the encoding's own error budget of zero are treated as kernel
    directions, not as the minimum.
    """
    eigs = be.encoded.spectrum.eigenvalues
    cutoff = max(TOL.rank_cutoff, be.eta + TOL.rank_cutoff)
    nz = eigs[eigs > cutoff]
    if nz.size == 0:
        raise ValueError("encoded block has no eigenvalue above its error budget")
    (val,) = measure_p0([float(nz[-1])], theta, stream, mode="amplitude_estimation")
    cost = math.ceil((be.sample_cost / theta) * (math.log(1.0 / theta) + math.log(be.dim) / 2.0))
    return max(val, TOL.rank_cutoff), cost


def _gather_inputs(
    rho: DensityMatrix,
    blind: bool,
    mode: str,
    stream: Optional[Stream],
    c_shots: float,
    need_rho_min: bool = True,
) -> tuple[StateMeta, float, int, tuple[str, ...]]:
    """The spectral inputs a run uses, oracle values or blind estimates:
    (meta, rho_min_lower, extra_cost, flags): the oracle's meta or the
    estimated rank and purity, which `delta_budget` reads, then the
    `Plan` fields of the other names.  `stream` is the estimate's own (a
    fresh `Stream(0)` if None): blind probes draw from its child 0, the
    purity from child 0 of that, the minimum eigenvalue from child 1 and
    its probe encoding from child 2.  The purity is measured as the
    integer route measures order 2, on two copies per shot."""
    meta = rho.meta
    if not blind:
        return meta, meta.rho_min, 0, ()
    probes = (stream or Stream(0)).child(0)
    (p_hat,) = measure_p0([(1.0 + meta.purity) / 2.0], BLIND_PURITY_DELTA, probes.child(0), c_shots)
    t2_hat = float(min(1.0, max(2.0 * p_hat - 1.0, 1.0 / rho.dim)))
    cost = 2 * shots_for("bernoulli", BLIND_PURITY_DELTA, c_shots)
    r_hat = max(1, min(rho.dim, int(math.ceil(1.0 / t2_hat - 1e-9))))
    flags = ["blind_rank", "blind_purity"]
    rho_min_lower = meta.rho_min
    if need_rho_min:
        probe = encode_density(rho, 0.01, probes.child(2), noiseless=(mode == "ideal"))
        estimate, copies = min_eig_estimate(probe, BLIND_THETA, probes.child(1))
        rho_min_lower = max((estimate - BLIND_THETA) * 4.0 / math.pi, 1e-4)
        cost += probe.sample_cost + copies
        flags.append("blind_rho_min")
    blind_meta = StateMeta(
        rank=r_hat,
        rho_min=min(rho_min_lower, 1.0),
        rho_max=1.0,
        purity=t2_hat,
        dim=rho.dim,
    )
    return blind_meta, rho_min_lower, cost, tuple(flags)


@dataclass(frozen=True)
class Plan:
    """What every trial of one grid point shares: built by `plan`, read by
    `run` and the route functions.  It holds what reports and inversions
    read; an encoded route makes its own fits and encoding budgets from
    the budget and the rho_min."""

    state: DensityMatrix  # the state the route encodes: its support for logs and negative powers
    regime: RegimeDecomposition
    method: str  # the route, as reports name it
    eps: float
    mode: str
    c_shots: float
    rho_min_lower: float  # the oracle's rho_min, or in blind mode a lower bound on it
    extra_cost: int  # copies the blind probes consumed
    budget: Budget
    oracle: EntropyRecord
    flags: tuple[str, ...] = ()
    rho_min_used: Optional[float] = None
    sensitivity: Optional[float] = None
    # vn_poly: (coefficient a_i, accuracy delta_i, shots, Tr rho^(i+1)) of
    # terms 0..K, term 0 known exactly, and the fit's error in entropy units
    terms: tuple[tuple[float, float, int, float], ...] = ()
    eta: float = 0.0

    @property
    def noiseless(self) -> bool:
        return self.mode == "ideal"

    @property
    def chunk(self) -> int:
        """Trials one stacked call takes at most."""
        return max(1, STACK_BYTES // (16 * self.state.dim**2))


def plan(
    rho: DensityMatrix,
    alpha: float,
    eps: float,
    mode: str = "noisy",
    method: Optional[str] = None,
    blind: bool = False,
    c_shots: float = C_SHOTS,
    stream: Optional[Stream] = None,
) -> Plan:
    """The plan of `estimate(rho, alpha, eps, seed, mode, method, blind,
    c_shots)`: everything but the trials' random work.  `stream` matters
    in blind mode only, whose probes draw from its child 0 (of a fresh
    `Stream(0)` if None)."""
    if mode not in ("noisy", "ideal"):
        raise ValueError(f"unknown mode {mode!r}; expected 'noisy' or 'ideal'")
    regime = decompose_alpha(alpha)
    branch = regime.branch
    if branch == "sub_one":
        method = method or "sampling"
        if method not in ("sampling", "ae"):
            raise ValueError(f"unknown method {method!r}")
        if method == "ae" and 2 ** int(round(math.log2(rho.dim))) != rho.dim:
            raise ValueError(f"amplitude-estimation route needs a power-of-2 dimension, got {rho.dim}")
    elif branch == "von_neumann":
        regime = decompose_alpha(1.0)
        if method not in (None, "qsvt", "poly"):
            raise ValueError(f"unknown von Neumann method {method!r}")
        method = method or "qsvt"
    else:  # one route, named by its branch
        if method not in (None, branch):
            raise ValueError(f"unknown method {method!r} for order {alpha}; its only route is {branch!r}")
        method = branch
        if branch == "integer":
            regime = decompose_alpha(float(round(alpha)))
    state = rho.project_to_support() if method in ("even_floor", "qsvt") else rho
    meta, rho_min_lower, extra_cost, flags = _gather_inputs(state, blind, mode, stream, c_shots,
                                                            need_rho_min=method != "integer")
    budget = delta_budget(regime, eps, meta, method="ae" if method == "ae" else "sampling", c_shots=c_shots)
    fields = dict(state=state, regime=regime, method=method, eps=eps, mode=mode, c_shots=c_shots,
                  rho_min_lower=rho_min_lower, extra_cost=extra_cost, budget=budget, flags=flags,
                  rho_min_used=None if method == "integer" else rho_min_lower)
    if method == "even_floor":  # it divides by rho_min as its fit's kappa = 1/rho_min gives it back
        used = 1.0 / (1.0 / rho_min_lower)
        fields.update(rho_min_used=used, sensitivity=regime.c / ((1.0 - regime.alpha) * used))
    if method == "poly":
        fields.update(oracle=exact_entropies(state, 1.0))
        fields.update(_poly_table(state, eps, c_shots, rho_min_lower, budget))
    else:
        fields.update(oracle=exact_entropies(state, regime.alpha))
        if blind and branch == "sub_one":
            fields["flags"] += ("budget_from_estimated_purity",)
    return Plan(**fields)


def _poly_table(state: DensityMatrix, eps: float, c_shots: float, rho_min: float, budget: Budget) -> dict:
    """`vn_poly`'s term table, made from its fit, as `Plan` fields: Tr
    rho^(i+1) is measured at accuracy delta_i, so shots n_i, for the
    monomial coefficient a_i of log(1/x)."""
    beta = min(rho_min, 0.9)
    log_scale = math.log(1.0 / beta)
    log_fit = approx_log(beta, min(0.5, eps / (2.0 * log_scale)))
    k_deg = log_fit.degree
    # reached through this module's global, so a wrapper put there (a tracer's) sees it
    coeffs = to_monomial(log_fit)  # of log(1/x) on [beta, 1]
    terms = [(float(coeffs[0]), 0.0, 0, 1.0)]
    for i in range(1, len(coeffs)):
        a_i = float(coeffs[i])
        delta_i = min(0.49, eps / (2.0 * max(1, k_deg) * max(log_scale, abs(a_i))))
        try:
            n_i = shots_for("bernoulli", delta_i, c_shots)
        except ValueError as exc:
            raise ValueError(
                f"term {i} of the plain-power expansion (coefficient {a_i:.3e}): {exc}; the expansion "
                "is too ill-conditioned for this state, use the direct-transform estimator (vn_qsvt) instead"
            ) from None
        terms.append((a_i, delta_i, n_i, exact_entropies(state, float(i + 1)).tr_pow_alpha))
    shots = sum(n for _, _, n, _ in terms)
    budget = replace(budget, delta=eps / (2.0 * max(1, k_deg) * log_scale), shots=max(1, shots))
    return dict(budget=budget, terms=tuple(terms), eta=log_scale * 2.0 * log_fit.eps)


def run(p: Plan, stream: Stream, trials: int) -> list[EstimateReport]:
    """One report per trial, in order, of `trials` trials drawn from a
    fresh `stream`: the reports of `run_columns(p, stream, range(trials))`."""
    return [report for c in run_columns(p, stream, range(trials)) for report in _reports(p, c)]


def run_columns(p: Plan, stream: Stream, trials: range) -> Iterator[Columns]:
    """The trials `trials` of a point as columns, one `Columns` per chunk
    of at most `p.chunk` trials, each run through the route's function on
    the point's stream, which carries its draws from chunk to chunk.  A
    failed check raises where it fails, with the error of the chunk's
    first failing trial there (`fail_first`).  Inversion is a chunk's
    last stage and runs in trial order; a build or measurement check
    fails for a trial only if its chain's eta under-reports, so no trial
    before it could still fail at a later stage."""
    for start in range(trials.start, trials.stop, p.chunk):
        yield _route(p, stream, range(start, min(trials.stop, start + p.chunk)))


def _route(p: Plan, stream: Stream, chunk: range) -> Columns:
    # each route function is reached through its module global, so a
    # wrapper put there (a tracer's) sees every chunk
    if p.method == "integer":
        return renyi_integer(p, stream, chunk)
    if p.method == "odd_floor":
        return renyi_case_odd(p, stream, chunk)
    if p.method == "even_floor":
        return renyi_case_even(p, stream, chunk)
    if p.method in ("sampling", "ae"):
        return renyi_sub_one(p, stream, chunk)
    if p.method == "qsvt":
        return vn_qsvt(p, stream, chunk)
    return vn_poly(p, stream, chunk)


def _per_trial(x, n: int) -> list[float]:
    """A chain's value per trial: a noiseless chain has one for all."""
    values = np.ravel(x).tolist()
    return values * n if len(values) == 1 else values


def _trials(p: Plan, stream: Stream, trials: range, child: int, be: Optional[BlockEncoding],
            invert: Callable) -> Columns:
    """Measure and invert the trials of a built chain, as columns.  The
    chain's p0 is read exactly in ideal mode and otherwise measured in one
    `measure_p0` call on the stream's child `child`, Bernoulli or, for
    method "ae", by amplitude estimation; the exact p0 and the deviation
    bound read the chain's target.  `invert(p0_hat, bound)` turns a
    trial's p0 into the entropy.  Each route numbers its stream's
    children: 0 feeds blind mode's probes, then come its build stages,
    and `child` is its measurement, the last."""
    n = len(trials)
    if be is None:  # integer orders read the oracle's trace power, one p0 for all
        exact = (1.0 + p.oracle.tr_pow_alpha) / 2.0
        realized, bounds, etas = [min(1.0, max(0.0, exact))] * n, [0.0] * n, [0.0] * n
        ledger = int(p.regime.alpha) * p.budget.shots
    else:
        e, t = be.encoded.mat, be.target.mat
        # the input the ancilla measures: I/d below order 1, else the state
        d = p.state.dim
        probe = np.eye(d, dtype=np.complex128) / d if p.regime.branch == "sub_one" else p.state.matrix.mat
        if p.method == "ae":  # amplitude estimation reads the overlap Tr(A I/d)
            realized = np.real(np.trace(e @ probe, axis1=-2, axis2=-1))
            bounds = be.eta
            exact = float(np.real(np.trace(t @ probe)))
        else:
            realized = np.real(np.trace(e @ probe @ e, axis1=-2, axis2=-1))
            cap = 1.0 + TOL.encoding_norm_slack  # corners never exceed 1
            bounds = be.eta * (op_norm_cap(be.encoded, cap) + op_norm_cap(be.target, cap))
            exact = min(1.0, max(0.0, float(np.real(np.trace(t @ probe @ t)))))
        realized = [min(1.0, max(0.0, x)) for x in _per_trial(realized, n)]
        bounds, etas = _per_trial(bounds, n), _per_trial(be.eta, n)
        ledger = be.sample_cost + p.budget.shots
    measured = realized
    if not p.noiseless:
        measured = measure_p0(realized, p.budget.measure_delta, stream.child(child), p.c_shots,
                              "amplitude_estimation" if p.method == "ae" else "bernoulli")
    estimates = [float(invert(p0_hat, bound)) for p0_hat, bound in zip(measured, bounds)]
    return Columns(trials, estimates, int(ledger) + p.extra_cost, measured, realized, exact, bounds, etas)


def _reports(p: Plan, c: Columns) -> list[EstimateReport]:
    """The one report constructor: the plan gives the fields every trial
    shares (the oracle the quantity and the exact value, the regime the
    order and branch, the budget delta and the shot counts), the columns
    the rest."""
    entropy = p.oracle.entropy
    shared = dict(quantity_tag=p.oracle.quantity, target_eps=p.eps, shots_used=p.budget.shots, method=p.method,
                  sample_cost_total=c.ledger, predicted_budget=p.budget.predicted_samples, alpha=p.regime.alpha,
                  branch=p.regime.branch, delta=p.budget.delta, exact_value=entropy, p0_operator_exact=c.p0_exact,
                  rho_min_used=p.rho_min_used, sensitivity_rho_min=p.sensitivity, flags=p.flags)
    return [
        EstimateReport(seed=trial, estimate=est, within_eps=bool(abs(est - entropy) <= p.eps), p0_measured=measured,
                       p0_realized=realized, eta_operator=eta, p0_error_bound=bound, **shared)
        for trial, est, measured, realized, bound, eta in zip(
            c.trials, c.estimates, c.p0_measured, c.p0_realized, c.bounds, c.etas)
    ]


def _nonzero(p0_hat: float, what: str = "measured ancilla probability", budget: str = "shot") -> float:
    if p0_hat <= 0.0:
        raise EstimationFailure(f"{what} is zero; increase the {budget} budget")
    return p0_hat


def renyi_integer(p: Plan, stream: Stream, trials: range) -> Columns:
    """Integer-order estimate from joint measurements on alpha copies.

    Simulated as a Bernoulli source with success probability
    (1 + Tr rho^alpha)/2, the ancilla statistics of a controlled cyclic
    shift across alpha copies; each shot consumes alpha copies.
    """

    def invert(p_hat, bound):
        t_hat = 2.0 * p_hat - 1.0
        if t_hat <= 0.0:
            raise EstimationFailure(
                f"trace-power estimate {t_hat:.3e} is not positive; "
                "increase the shot budget (smaller eps or larger c_shots)"
            )
        return math.log(t_hat) / (1.0 - p.regime.alpha)

    return _trials(p, stream, trials, 1, None, invert)


def renyi_case_odd(p: Plan, stream: Stream, trials: range) -> Columns:
    """Fractional order with odd floor: positive-power route.

    Decomposes alpha = 2k+1+c with c > 0, realizes ((pi/4) rho)^(k+c/2),
    measures p0 = (pi/4)^(alpha-1) Tr rho^alpha on the ancilla, and
    recovers S_alpha = [log(p0 * pi/4) - alpha log(pi/4)] / (1 - alpha).
    """
    alpha, k, delta = p.regime.alpha, p.regime.k, p.budget.delta
    # ((pi/4) rho)^(k + c/2), subnormalization folded out
    fit = approx_pos_power(p.regime.c / 2.0, 4.0 / (math.pi * p.rho_min_used), _poly_budget(delta, p.mode))
    # the fractional power and the k plain factors draw noise from children
    # of the build child
    build, n = stream.child(1), len(trials)
    be = encode_density(p.state, _clamp_encoding_budget(min(fit.input_precision, delta)), build.child(0),
                        p.noiseless, n)
    be = rescale(apply_poly(be, fit), 2.0)
    if k > 0:
        powers = be_power(p.state, k, _clamp_encoding_budget(delta / k), build.child(1), p.noiseless, n)
        be = be_product(powers, be)
    return _trials(p, stream, trials, 2, be, lambda p0, bound: (
        math.log(_nonzero(p0) * math.pi / 4.0) - alpha * LOG_PI_OVER_4) / (1.0 - alpha))


def renyi_case_even(p: Plan, stream: Stream, trials: range) -> Columns:
    """Fractional order above 2 with even floor: negative-power route.

    Decomposes alpha = 2k+1+c with c < 0 and realizes
    (1/2) (pi/4)^k (1/rho_min)^(c/2) rho^(k+c/2); the ancilla gives
    p0 = (1/4) (pi/4)^(2k) (1/rho_min)^c Tr rho^alpha, inverted with the
    same rho_min the construction used (its exact division is what makes
    the recovery self-consistent; the report carries the sensitivity).
    Negative powers are undefined at eigenvalue 0, so a rank-deficient
    state is restricted to its support first.
    """
    alpha, k, c, delta = p.regime.alpha, p.regime.k, p.regime.c, p.budget.delta
    kappa = 1.0 / p.rho_min_lower  # p.rho_min_used is 1/kappa
    fit = approx_neg_power(abs(c) / 2.0, kappa, _poly_budget(delta, p.mode))
    n = len(trials)
    neg_branch = encode_state_side(p.state, _clamp_encoding_budget(min(fit.input_precision, delta)),
                                   stream.child(1), p.noiseless, n)
    neg_branch = apply_poly(neg_branch, fit)
    powers = be_power(p.state, k, _clamp_encoding_budget(delta / k), stream.child(2), p.noiseless, n)
    be = be_product(powers, neg_branch)
    prefactor = 0.25 * (math.pi / 4.0) ** (2 * k) * p.rho_min_used ** (-c)
    return _trials(p, stream, trials, 3, be, lambda p0, bound: (math.log(_nonzero(p0)) - math.log(prefactor)) / (1.0 - alpha))


def renyi_sub_one(p: Plan, stream: Stream, trials: range) -> Columns:
    """Order in (0, 1): half-power transform against the maximally mixed input.

    sampling: realize (1/2)((pi/4) rho)^(alpha/2), feed I/d, measure
    p0 = pi^alpha/(4^(alpha+1) d) Tr rho^alpha by Bernoulli sampling.
    ae: realize (1/2)((pi/4) rho)^alpha, estimate its overlap with the
    maximally entangled purification to additive delta at ~1/delta query
    cost (d must be a power of 2 for that preparation).  Either way the
    budget follows the purity, which blind mode estimates.
    """
    alpha, d = p.regime.alpha, p.state.dim
    delta = p.budget.measure_delta  # dimension-rescaled: the recovery scales by d
    exponent = alpha / 2.0 if p.method == "sampling" else alpha
    fit = approx_pos_power(exponent, 4.0 / (math.pi * p.rho_min_used), _poly_budget(delta, p.mode))
    be = encode_density(p.state, _clamp_encoding_budget(min(fit.input_precision, delta)), stream.child(1),
                        p.noiseless, len(trials))
    be = apply_poly(be, fit)

    def invert(p0_hat, bound):
        if p.method == "sampling":
            tr_quarter = 4.0 * d * _nonzero(p0_hat)  # Tr ((pi/4) rho)^alpha
        else:
            tr_quarter = 2.0 * d * _nonzero(p0_hat, "overlap estimate", "query")
        return (math.log(tr_quarter) - alpha * LOG_PI_OVER_4) / (1.0 - alpha)

    return _trials(p, stream, trials, 2, be, invert)


def vn_qsvt(p: Plan, stream: Stream, trials: range) -> Columns:
    """Von Neumann entropy by direct spectral transformation.

    Chain: encode (pi/4) rho, apply the scaled-log fit on
    [pi rho_min/4, 1] to reach gamma * log(4 rho^{-1}/pi) with
    gamma = 1/(2 log(4/(pi rho_min))), take the half power, fold out the
    1/2.  The ancilla gives p0 = gamma log(4/pi) + gamma S_v; shots are
    budgeted at delta = eps * gamma.  A rank-deficient state is
    restricted to its support, where the logarithm is defined.
    """
    beta = math.pi * p.rho_min_used / 4.0
    gamma = 1.0 / (2.0 * math.log(1.0 / beta))
    floor2 = gamma * math.log(4.0 / math.pi)
    stage_eps = IDEAL_POLY_EPS if p.noiseless else max(min(5e-4, p.budget.delta / 32.0), 1e-12)
    log_fit = approx_log(beta, stage_eps)
    sqrt_fit = approx_pos_power(0.5, 1.0 / floor2, stage_eps)
    slope = max(1.0, log_fit.lipschitz_bound())
    b1 = encode_density(p.state, _clamp_encoding_budget(stage_eps / (2.0 * slope)), stream.child(1), p.noiseless,
                        len(trials))
    b1 = apply_poly(b1, log_fit)
    b2 = rescale(apply_poly(b1, sqrt_fit), 2.0)

    def invert(p0_hat, bound):
        margin = 4.0 * p.budget.delta + bound
        if p0_hat < floor2 - margin:
            raise EstimationFailure(
                f"ancilla probability {p0_hat:.4f} sits below the zero-entropy floor "
                f"{floor2:.4f} by more than the error margin; the run is inconsistent"
            )
        return (p0_hat - floor2) / gamma

    return _trials(p, stream, trials, 2, b2, invert)


def vn_poly(p: Plan, stream: Stream, trials: range) -> Columns:
    """Von Neumann entropy from a plain-power expansion of log(1/x).

    Converts the scaled-log fit on [rho_min, 1] to monomial coefficients
    a_i of log(1/x) itself and measures each Tr rho^(i+1) as the integer
    route measures it, p0 = (1 + Tr rho^(i+1))/2 by Bernoulli sampling
    in `measure_p0`: S_v ~ a_0 + sum_i a_i Tr rho^(i+1) (the
    x * P(x) structure makes zero eigenvalues harmless, so no support
    projection is needed).  Per-term accuracy is eps/(2K max(log(1/beta),
    |a_i|)); the coefficient-aware denominator keeps the statistical
    error within budget even when the plain-power basis inflates the
    coefficients.  There is no single p0: term i measures the chunk in
    one call, on child i-1 of the stream's child 1.
    """
    n = len(trials)
    estimates = [p.terms[0][0]] * n  # a_0 Tr rho, exactly
    meas = stream.child(1)
    for i, (a_i, delta_i, _, t_i) in enumerate(p.terms[1:], 1):
        t_hats = [t_i] * n
        if not p.noiseless:
            p0s = measure_p0([(1.0 + t_i) / 2.0] * n, delta_i, meas.child(i - 1), p.c_shots)
            t_hats = [2.0 * p0 - 1.0 for p0 in p0s]
        estimates = [value + a_i * t_hat for value, t_hat in zip(estimates, t_hats)]
    ledger = p.extra_cost + sum((i + 1) * n_i for i, (_, _, n_i, _) in enumerate(p.terms))
    return Columns(trials, estimates, ledger, [None] * n, [None] * n, None, [0.0] * n, [p.eta] * n)


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
    """One estimate on the branch-appropriate route for this order.

    `method` picks the route where a branch has two: "sampling" (default)
    or "ae" below order 1, "qsvt" (default) or "poly" at order 1.  The
    other branches have one route each and take None or its name
    ("integer", "odd_floor", "even_floor"); any other method is refused.
    The report of trial 0 of the stream `Stream(seed)`: the same as
    `run(plan(..., stream=s), s, 1)[0]` for `s = Stream(seed)`.
    """
    stream = Stream(seed)
    return run(plan(rho, alpha, eps, mode, method, blind, c_shots, stream), stream, 1)[0]
