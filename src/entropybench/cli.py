"""Experiment runner: single estimates, parameter sweeps, validation suites.

Emits one CSV row per (grid point, trial) with the fixed column set

    seed,alpha,branch,d,rank,eps,delta,method,shots,ledger_samples,
    predicted_samples,estimate,exact,abs_err,pass

plus a human-readable summary on stdout.  A grid point is planned once,
and its trials come back as one `PointRows`: each trial's finished CSV
line, and per trial the pass, shots, ledger_samples and predicted_samples
columns that the summary, the coverage gate and the sweep slopes read.
The fields a plan fixes (all but seed, ledger_samples, estimate, abs_err
and pass) are joined once per point and the ledger once per chunk of
trials; each trial, read from the columns of `estimators.run_columns`,
formats only its seed, estimate, abs_err and pass into its line.  Blind
mode plans every trial alone, and a point's record holds its trials in
turn.

Grid point g (numbered from 1) draws all its trials from one tree of
random streams, `seeding.Stream(master, (g,))`, and a random state is
seeded with the first word of the master seed's node (0, 0).  The
`seed` column holds a trial's index t in its point's stream, so
rerunning a point's first t + 1 trials reproduces row t.  Identical
configuration and seed produce byte-identical CSV.  Exit codes: 0
success, 1 usage error, 2 validation failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, TextIO

import numpy as np

from .accountant import C_SHOTS, decompose_alpha
from .estimators import EstimationFailure, Plan, plan, run_columns
from .qsvtpoly import DegreeCapExceeded
from .seeding import Stream
from .states import DensityMatrix, from_spectrum, random_density

CSV_COLUMNS = [
    "seed",
    "alpha",
    "branch",
    "d",
    "rank",
    "eps",
    "delta",
    "method",
    "shots",
    "ledger_samples",
    "predicted_samples",
    "estimate",
    "exact",
    "abs_err",
    "pass",
]


class UsageError(ValueError):
    pass


# rows one run may hold: each is kept until the run ends, at ~250 B, so ~2 GB
MAX_ROWS = 2**23


def _positive(x: float) -> bool:
    """Finite and > 0; NaN fails, unlike a bare `x <= 0` test."""
    return math.isfinite(x) and x > 0


@dataclass
class ExperimentConfig:
    mode: str = "renyi"  # renyi | vonneumann | sweep | validate
    alpha: float = 2.0
    d: int = 4
    rank: int = 4
    spectrum: Optional[list[float]] = None
    eps: float = 0.1
    method: str = "sampling"  # sampling | ae for orders below 1
    approach: str = "qsvt"  # qsvt | poly for the von Neumann entropy
    var: str = "eps"  # sweep variable: eps | rank
    grid: list[float] = field(default_factory=list)
    trials: int = 1
    seed: int = 0
    log_base: str = "e"  # e | 2
    ideal: bool = False
    blind: bool = False
    quick: bool = False
    out: Optional[str] = None
    c_shots: float = C_SHOTS

    def validate(self) -> None:
        problems = []
        if self.mode not in ("renyi", "vonneumann", "sweep", "validate"):
            problems.append(f"mode {self.mode!r}")
        if self.trials < 1:
            problems.append(f"trials {self.trials}")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            problems.append(f"seed {self.seed}")
        points = len(self.grid) if self.mode == "sweep" else 1
        if self.mode != "validate" and self.trials * points > MAX_ROWS:
            problems.append(f"trials {self.trials} x {points} grid point(s) (at most MAX_ROWS = {MAX_ROWS} rows)")
        if not _positive(self.eps):
            problems.append(f"eps {self.eps}")
        if self.mode != "validate" and not _positive(self.alpha):
            problems.append(f"alpha {self.alpha}")
        if not _positive(self.c_shots):
            problems.append(f"c_shots {self.c_shots}")
        rank_sweep = self.mode == "sweep" and self.var == "rank"  # its grid sets the ranks
        if rank_sweep and not 1 <= self.d <= 64:
            problems.append(f"dim {self.d}")
        if not rank_sweep and self.spectrum is None and not (1 <= self.rank <= self.d <= 64):
            problems.append(f"rank/dim pair ({self.rank}, {self.d})")
        if self.log_base not in ("e", "2"):
            problems.append(f"log_base {self.log_base!r}")
        if self.method not in ("sampling", "ae"):
            problems.append(f"method {self.method!r}")
        if self.approach not in ("qsvt", "poly"):
            problems.append(f"approach {self.approach!r}")
        if self.mode == "sweep":
            if self.var not in ("eps", "rank"):
                problems.append(f"sweep variable {self.var!r}")
            if len(self.grid) < 3:
                problems.append(f"grid needs >= 3 points, got {len(self.grid)}")
            elif len(set(self.grid)) < 2:
                problems.append(f"grid {self.grid} needs >= 2 distinct values")
            if self.var == "eps" and not all(_positive(v) for v in self.grid):
                problems.append(f"eps grid {self.grid} (need finite values > 0)")
            if self.var == "rank" and not all(float(v).is_integer() and 1 <= v <= self.d for v in self.grid):
                problems.append(f"rank grid {self.grid} (need integers in [1, {self.d}])")
            if self.var == "rank" and self.spectrum is not None:
                problems.append("spectrum with a rank sweep (its points are random states of each rank)")
        if problems:
            raise UsageError("invalid config fields: " + ", ".join(problems))


# A grid point: (state, order, eps in the report's units, von Neumann approach).
_Point = tuple[DensityMatrix, float, float, str]


def _points(cfg: ExperimentConfig) -> list[_Point]:
    """The run's grid points in order: a `renyi` or `vonneumann` run is a
    one-point grid, `validate` its 16 fixture points, a sweep its grid.
    Each distinct state is built once."""
    if cfg.mode == "validate":
        # pure and maximally mixed states across every branch, then a
        # statistical block on a fixed three-level spectrum
        fixtures = (from_spectrum([1.0], 4), from_spectrum([0.25] * 4, 4))
        diag = from_spectrum([0.5, 0.3, 0.2], 8)
        block = [(diag, a, 0.1, approach) for a, approach in ((2.0, "qsvt"), (1.5, "qsvt"), (1.0, "qsvt"), (1.0, "poly"))]
        return [(rho, a, 0.1, cfg.approach) for rho in fixtures for a in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)] + block
    alpha = 1.0 if cfg.mode == "vonneumann" else cfg.alpha
    # the state itself is fixed across trials; only measurements vary
    random_state = functools.cache(lambda rank: random_density(
        cfg.d, rank, int(np.random.SeedSequence(cfg.seed, spawn_key=(0, 0)).generate_state(1)[0])))
    if cfg.mode == "sweep" and cfg.var == "rank":
        return [(random_state(int(v)), alpha, cfg.eps, cfg.approach) for v in cfg.grid]
    rho = from_spectrum(cfg.spectrum, cfg.d) if cfg.spectrum is not None else random_state(cfg.rank)
    eps_values = [float(v) for v in cfg.grid] if cfg.mode == "sweep" else [cfg.eps]
    return [(rho, alpha, eps, cfg.approach) for eps in eps_values]


class PointRows(NamedTuple):
    """One grid point's trials in row order: each trial's finished CSV
    line, and per trial the columns the summary reads."""

    lines: list[str]
    passed: list[int]  # the `pass` column
    shots: list[int]
    ledger_samples: list[int]
    predicted_samples: list[int]


def _point_rows(point: _Point, grid_index: int, trials: int, cfg: ExperimentConfig) -> PointRows:
    """The rows of `trials` estimates at one grid point, all drawn from
    the point's stream: the point is planned once and its trials run in
    chunks.  Blind mode draws its probes per trial, so it plans every
    trial and appends each trial's row in turn.  The point's eps is in
    the report's units, so the estimators, which work in nats, get it
    converted."""
    rho, alpha, eps, approach = point
    scale = math.log(2.0) if cfg.log_base == "2" else 1.0  # nats per report unit
    branch = decompose_alpha(alpha).branch
    method = approach if branch == "von_neumann" else cfg.method if branch == "sub_one" else None
    settings = dict(mode="ideal" if cfg.ideal else "noisy", method=method, c_shots=cfg.c_shots)
    out = PointRows([], [], [], [], [])
    if cfg.blind:
        stream = Stream(cfg.seed, (grid_index,))
        for t in range(trials):
            p = plan(rho, alpha, eps * scale, blind=True, stream=stream, **settings)
            _rows(p, stream, range(t, t + 1), rho, scale, eps, out)
        return out
    shared = plan(rho, alpha, eps * scale, **settings)
    _rows(shared, Stream(cfg.seed, (grid_index,)), range(trials), rho, scale, eps, out)
    return out


def _rows(p: Plan, stream: Stream, trials: range, rho: DensityMatrix, scale: float, eps: float,
          out: PointRows) -> None:
    """Append the rows of a plan's trials to `out`, chunk by chunk.  The
    fields the plan fixes are joined once and the ledger once per chunk;
    a trial's line adds its index, its estimate and error in report
    units, and whether that error is within eps, in the order of
    `CSV_COLUMNS`."""
    exact = p.oracle.entropy / scale
    budget = p.budget
    head = (f"{float(p.regime.alpha)!r},{p.regime.branch},{rho.dim},{rho.meta.rank},{float(eps)!r},"
            f"{float(budget.delta)!r},{p.method},{budget.shots},")
    exact_field = f",{float(exact)!r},"
    for c in run_columns(p, stream, trials):
        middle = f",{head}{c.ledger},{budget.predicted_samples},"
        ests = [estimate / scale for estimate in c.estimates]
        errs = [abs(est - exact) for est in ests]
        oks = [int(err <= eps) for err in errs]
        out.lines.extend([f"{t}{middle}{est!r}{exact_field}{err!r},{ok}"
                          for t, est, err, ok in zip(c.trials, ests, errs, oks)])
        out.passed.extend(oks)
        n = len(c.trials)
        out.shots.extend([budget.shots] * n)
        out.ledger_samples.extend([c.ledger] * n)
        out.predicted_samples.extend([budget.predicted_samples] * n)


def run_experiment(cfg: ExperimentConfig) -> tuple[list[PointRows], str]:
    """Execute the configured experiment; returns (the rows of each grid
    point, summary text).  Every mode runs the same loop over its grid
    points, numbered from 1."""
    cfg.validate()
    trials = (3 if cfg.quick else 10) if cfg.mode == "validate" else cfg.trials
    points = [_point_rows(point, gi, trials, cfg) for gi, point in enumerate(_points(cfg), 1)]
    lines = [_summarize(points)]
    if cfg.mode == "sweep":
        lines += _slope_lines(cfg, points)
    elif cfg.mode == "validate":
        lines.append(f"validate: {'PASS' if _coverage(points) >= 0.9 else 'FAIL'} (threshold 0.9)")
    return points, "\n".join(lines)


def _median(values: list[float]) -> float:
    """Median as `numpy.median` computes it, without importing `numpy.ma`."""
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def _coverage(points: list[PointRows]) -> float:
    return sum(sum(pt.passed) for pt in points) / sum(len(pt.passed) for pt in points)


def _summarize(points: list[PointRows]) -> str:
    n = sum(len(pt.passed) for pt in points)
    passed = sum(sum(pt.passed) for pt in points)
    coverage = passed / n if n else float("nan")
    ratios = [ledger / predicted for pt in points
              for ledger, predicted in zip(pt.ledger_samples, pt.predicted_samples) if predicted > 0]
    lines = [
        f"rows: {n}",
        f"coverage (abs_err <= eps): {coverage:.3f} ({passed}/{n})",
    ]
    if ratios:
        lines.append(f"ledger/predicted ratio: median {_median(ratios):.3e}")
    return "\n".join(lines)


def _slope_lines(cfg: ExperimentConfig, points: list[PointRows]) -> list[str]:
    """Least-squares slopes, with standard errors, of the log of each cost
    column's per-point mean against the log of the grid variable."""
    if cfg.var == "eps":
        var_name, xs = "log(1/eps)", [math.log(1.0 / float(v)) for v in cfg.grid]
    else:
        var_name, xs = "log(rank)", [math.log(float(v)) for v in cfg.grid]
    lines = []
    for column in ("shots", "ledger_samples", "predicted_samples"):
        means = [float(np.mean(getattr(pt, column))) for pt in points]
        if 0.0 in means:  # a route that measures nothing, as vn_poly on a pure state
            lines.append(f"slope of log({column}) vs {var_name}: undefined (a grid point's mean is 0)")
            continue
        coef, cov = np.polyfit(np.asarray(xs), np.asarray([math.log(m) for m in means]), 1, cov=True)
        slope, err = float(coef[0]), float(math.sqrt(max(cov[0][0], 0.0)))
        # predicted_samples evaluates the accountant's cost formula, the
        # reference the measured columns are read against
        note = " (reference: cost formula)" if column == "predicted_samples" else ""
        lines.append(f"slope of log({column}) vs {var_name}: {slope:.3f} +/- {err:.3f}{note}")
    return lines


def write_csv(points: list[PointRows], fh: TextIO) -> None:
    """Write the header line, then each point's trial lines, into `fh`."""
    fh.write(",".join(CSV_COLUMNS) + "\n")
    for pt in points:
        fh.writelines(f"{line}\n" for line in pt.lines)


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and '#' comments ignored."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser, state: bool = True) -> None:
    """The flags a subcommand takes; `validate` (state False) runs its own
    fixture states, accuracies and trial counts, so it takes none of those."""
    p.add_argument("--config", help="flat key=value config file; flags override it")
    if state:
        p.add_argument("--dim", type=int, dest="d", help="state dimension")
        p.add_argument("--rank", type=int, help="state rank (random states)")
        p.add_argument("--spectrum", help="comma-separated explicit eigenvalues")
        p.add_argument("--eps", type=float, help="target entropy accuracy")
        p.add_argument("--trials", type=int, help="repetitions per grid point")
    p.add_argument("--seed", type=int, help="master seed (ENTROPYBENCH_SEED fallback)")
    p.add_argument("--log-base", choices=("e", "2"), dest="log_base", help="entropy units")
    p.add_argument("--ideal", action="store_true", default=None, help="noiseless encodings, exact p0")
    p.add_argument("--blind", action="store_true", default=None, help="estimate spectral inputs instead of using the oracle")
    p.add_argument("--c-shots", type=float, dest="c_shots", help="shot-budget multiplier")
    p.add_argument("--out", help="CSV output path")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and reused: parsing leaves
    no state on the parser, and building it costs more than a parse."""
    parser = _Parser(prog="entropybench", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    p = sub.add_parser("renyi", help="estimate an order-alpha entropy")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", choices=("sampling", "ae"), help="route for orders in (0,1)")
    _add_common(p)

    p = sub.add_parser("vonneumann", help="estimate the von Neumann entropy")
    p.add_argument("--approach", choices=("qsvt", "poly"))
    _add_common(p)

    p = sub.add_parser("sweep", help="scaling sweep over eps or rank")
    p.add_argument("--var", choices=("eps", "rank"), required=True)
    p.add_argument("--grid", required=True, help="comma-separated grid values")
    p.add_argument("--alpha", type=float)
    p.add_argument("--method", choices=("sampling", "ae"))
    p.add_argument("--approach", choices=("qsvt", "poly"))
    _add_common(p)

    p = sub.add_parser("validate", help="run the fixture gate")
    p.add_argument("--quick", action="store_true", default=None)
    _add_common(p, state=False)
    return parser


def _floats(raw: str) -> list[float]:
    """A comma-separated list of numbers; empty items are skipped."""
    return [float(v) for v in raw.split(",") if v]


_BOOL_KEYS = {"ideal", "blind", "quick"}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_LIST_KEYS = {"grid", "spectrum"}
# how a config-file value is read, by key; other keys keep the string
_FILE_TYPES = {
    **dict.fromkeys(("alpha", "eps", "c_shots"), float),
    **dict.fromkeys(("d", "rank", "trials", "seed"), int),
    **dict.fromkeys(_LIST_KEYS, _floats),
}


def config_from_args(ns: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig(mode=ns.mode)
    file_values = parse_config_file(ns.config) if getattr(ns, "config", None) else {}
    for name, raw in file_values.items():
        key = "d" if name == "dim" else name
        if key == "mode":
            raise UsageError("config key 'mode' is not accepted; the subcommand sets the mode")
        if key == "config" or not hasattr(ns, key):  # only what the subcommand takes as a flag
            raise UsageError(f"unknown config key {name!r} for {ns.mode}")
        if key in _BOOL_KEYS:
            if raw.lower() not in _BOOL_WORDS:
                raise UsageError(f"config key {key!r}: expected 1/true/yes or 0/false/no, got {raw!r}")
            setattr(cfg, key, _BOOL_WORDS[raw.lower()])
        else:
            setattr(cfg, key, _FILE_TYPES.get(key, str)(raw))
    for key, value in vars(ns).items():
        if key not in ("mode", "config") and value is not None:
            setattr(cfg, key, _floats(value) if key in _LIST_KEYS else value)
    if getattr(ns, "seed", None) is None and "seed" not in file_values:
        env = os.environ.get("ENTROPYBENCH_SEED")
        if env is not None:
            try:
                cfg.seed = int(env)
            except ValueError:
                raise UsageError(f"ENTROPYBENCH_SEED must be an integer, got {env!r}") from None
    if cfg.spectrum is not None and getattr(ns, "d", None) is None and "d" not in file_values and "dim" not in file_values:
        cfg.d = len(cfg.spectrum)
    return cfg


def main(argv: Optional[list[str]] = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = config_from_args(ns)
        points, summary = run_experiment(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EstimationFailure, DegreeCapExceeded) as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return 1
    if cfg.out:
        try:
            with open(cfg.out, "w", newline="\n") as fh:
                write_csv(points, fh)
        except OSError as exc:
            print(f"error: cannot write CSV to {cfg.out}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    print(summary)
    return 2 if cfg.mode == "validate" and _coverage(points) < 0.9 else 0


if __name__ == "__main__":
    sys.exit(main())
