"""Experiment runner: single estimates, parameter sweeps, validation suites.

Emits one CSV row per (grid point, trial) with the fixed column set

    seed,alpha,branch,d,rank,eps,delta,method,shots,ledger_samples,
    predicted_samples,estimate,exact,abs_err,pass

plus a human-readable summary on stdout.  Identical configuration and
seed produce byte-identical CSV.  Exit codes: 0 success, 1 usage error,
2 validation failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .accountant import C_SHOTS, decompose_alpha
from .estimators import EstimateReport, EstimationFailure, estimate
from .qsvtpoly import DegreeCapExceeded
from .seeding import spawn_seed
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
        if not _positive(self.eps):
            problems.append(f"eps {self.eps}")
        if self.mode != "validate" and not _positive(self.alpha):
            problems.append(f"alpha {self.alpha}")
        if not _positive(self.c_shots):
            problems.append(f"c_shots {self.c_shots}")
        if self.spectrum is None and not (1 <= self.rank <= self.d <= 64):
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
            if self.var == "eps" and not all(_positive(v) for v in self.grid):
                problems.append(f"eps grid {self.grid} (need finite values > 0)")
            if self.var == "rank" and not all(float(v).is_integer() and 1 <= v <= self.d for v in self.grid):
                problems.append(f"rank grid {self.grid} (need integers in [1, {self.d}])")
        if problems:
            raise UsageError("invalid config fields: " + ", ".join(problems))


def _trial_seed(master: int, grid_index: int, trial: int) -> int:
    """Seed of `trial` at grid point `grid_index`: the master seed's child
    at spawn key (grid_index, trial).  The trials of one grid point share
    the mixed pool before their trial word."""
    return spawn_seed(master, (grid_index, trial))


def _build_state(cfg: ExperimentConfig) -> DensityMatrix:
    if cfg.spectrum is not None:
        return from_spectrum(cfg.spectrum, cfg.d)
    # the state itself is fixed across trials; only measurements vary
    return random_density(cfg.d, cfg.rank, _trial_seed(cfg.seed, 0, 0))


def _scale(value: Optional[float], log_base: str) -> Optional[float]:
    if value is None:
        return None
    return value / math.log(2.0) if log_base == "2" else value


def _row(report: EstimateReport, log_base: str, eps_report: float, fixed: dict) -> dict:
    """One CSV row; `fixed` holds the fields every trial of the grid point
    shares, formatted once for the point."""
    est = _scale(report.estimate, log_base)
    exact = _scale(report.exact_value, log_base)
    abs_err = abs(est - exact) if exact is not None else float("nan")
    return {
        **fixed,
        "seed": report.seed,
        "alpha": repr(float(report.alpha)),
        "branch": report.branch,
        "delta": repr(float(report.delta)),
        "method": report.method,
        "shots": report.shots_used,
        "ledger_samples": report.sample_cost_total,
        "predicted_samples": report.predicted_budget,
        "estimate": repr(float(est)),
        "exact": repr(float(exact)) if exact is not None else "",
        "abs_err": repr(float(abs_err)),
        "pass": int(abs_err <= eps_report),
    }


def _point_rows(rho: DensityMatrix, alpha: float, grid_index: int, cfg: ExperimentConfig) -> list[dict]:
    """CSV rows of `cfg.trials` estimates at one grid point, each on its
    own seed; the route is chosen once for the point, not per trial.
    `cfg.eps` is in the report's units, so the estimators, which work in
    nats, get it converted."""
    mode = "ideal" if cfg.ideal else "noisy"
    eps_internal = cfg.eps * math.log(2.0) if cfg.log_base == "2" else cfg.eps
    branch = decompose_alpha(alpha).branch
    method = cfg.approach if branch == "von_neumann" else cfg.method if branch == "sub_one" else None
    fixed = {"d": rho.dim, "rank": rho.meta.rank, "eps": repr(float(cfg.eps))}
    rows = []
    for t in range(cfg.trials):
        seed = _trial_seed(cfg.seed, grid_index, t)
        rep = estimate(
            rho, alpha, eps_internal, seed=seed, mode=mode, method=method, blind=cfg.blind, c_shots=cfg.c_shots
        )
        rows.append(_row(rep, cfg.log_base, cfg.eps, fixed))
    return rows


def run_experiment(cfg: ExperimentConfig) -> tuple[list[dict], str]:
    """Execute the configured experiment; returns (csv rows, summary text)."""
    cfg.validate()
    if cfg.mode == "validate":
        return _run_validate(cfg)
    if cfg.mode == "sweep":
        return sweep(cfg)

    rho = _build_state(cfg)
    alpha = 1.0 if cfg.mode == "vonneumann" else cfg.alpha
    rows = _point_rows(rho, alpha, 1, cfg)
    summary = _summarize(rows)
    return rows, summary


def _median(values: list[float]) -> float:
    """Median as `numpy.median` computes it, without importing `numpy.ma`."""
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def _summarize(rows: list[dict]) -> str:
    n = len(rows)
    passed = sum(r["pass"] for r in rows)
    coverage = passed / n if n else float("nan")
    ratios = [
        r["ledger_samples"] / r["predicted_samples"]
        for r in rows
        if r["predicted_samples"] > 0
    ]
    lines = [
        f"rows: {n}",
        f"coverage (abs_err <= eps): {coverage:.3f} ({passed}/{n})",
    ]
    if ratios:
        lines.append(f"ledger/predicted ratio: median {_median(ratios):.3e}")
    return "\n".join(lines)


def _fit_slope(x: list[float], y: list[float]) -> tuple[float, float]:
    """Least-squares slope of y against x with its standard error."""
    xs, ys = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    coef, cov = np.polyfit(xs, ys, 1, cov=True)
    return float(coef[0]), float(math.sqrt(max(cov[0][0], 0.0)))


def sweep(cfg: ExperimentConfig) -> tuple[list[dict], str]:
    """Grid sweep with scaling-exponent fits of the cost columns."""
    cfg.validate()
    rows: list[dict] = []
    # per-point means of the cost columns, in the order the summary fits them
    means: dict[str, list[float]] = {"shots": [], "ledger_samples": [], "predicted_samples": []}
    xs: list[float] = []
    for gi, value in enumerate(cfg.grid):
        sub = ExperimentConfig(**{**cfg.__dict__})
        sub.mode = "vonneumann" if abs(cfg.alpha - 1.0) < 1e-12 else "renyi"
        if cfg.var == "eps":
            sub.eps = float(value)
            xs.append(math.log(1.0 / float(value)))
        else:
            sub.rank = int(value)
            sub.spectrum = None
            xs.append(math.log(float(value)))
        rho = _build_state(sub)
        alpha = 1.0 if sub.mode == "vonneumann" else sub.alpha
        point = _point_rows(rho, alpha, gi + 1, sub)
        rows.extend(point)
        for column, by_point in means.items():
            by_point.append(float(np.mean([r[column] for r in point])))

    var_name = "log(1/eps)" if cfg.var == "eps" else "log(rank)"
    lines = [_summarize(rows)]
    for column, by_point in means.items():
        slope, err = _fit_slope(xs, [math.log(v) for v in by_point])
        # predicted_samples evaluates the accountant's cost formula, the
        # reference the measured columns are read against
        note = " (reference: cost formula)" if column == "predicted_samples" else ""
        lines.append(f"slope of log({column}) vs {var_name}: {slope:.3f} +/- {err:.3f}{note}")
    return rows, "\n".join(lines)


def _run_validate(cfg: ExperimentConfig) -> tuple[list[dict], str]:
    """Fixture suite: pure and maximally mixed states across every branch,
    plus a statistical block on a fixed three-level spectrum."""
    fixed = ExperimentConfig(**{**cfg.__dict__, "eps": 0.1, "trials": 3 if cfg.quick else 10})
    rows: list[dict] = []
    fixtures = [
        ("pure", from_spectrum([1.0], 4)),
        ("mixed", from_spectrum([0.25] * 4, 4)),
    ]
    alphas = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    gi = 0
    for _, rho in fixtures:
        for alpha in alphas:
            gi += 1
            rows += _point_rows(rho, alpha, gi, fixed)
    diag = from_spectrum([0.5, 0.3, 0.2], 8)
    for alpha, approach in ((2.0, "qsvt"), (1.5, "qsvt"), (1.0, "qsvt"), (1.0, "poly")):
        gi += 1
        sub_cfg = ExperimentConfig(**{**fixed.__dict__, "approach": approach})
        rows += _point_rows(diag, alpha, gi, sub_cfg)
    summary = _summarize(rows)
    coverage = sum(r["pass"] for r in rows) / len(rows)
    summary += f"\nvalidate: {'PASS' if coverage >= 0.9 else 'FAIL'} (threshold 0.9)"
    return rows, summary


def rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(str(r[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(rows_to_csv(rows))


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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file; flags override it")
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


def build_parser() -> argparse.ArgumentParser:
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
    _add_common(p)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built on the first call and reused: parsing leaves
    no state on the parser, and building it costs more than a parse."""
    return build_parser()


_BOOL_KEYS = {"ideal", "blind", "quick"}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_FLOAT_KEYS = {"alpha", "eps", "c_shots"}
_INT_KEYS = {"d", "rank", "trials", "seed"}


def config_from_args(ns: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig(mode=ns.mode)
    file_values = parse_config_file(ns.config) if getattr(ns, "config", None) else {}
    for key, raw in file_values.items():
        if key == "dim":
            key = "d"
        if key == "mode":
            raise UsageError("config key 'mode' is not accepted; the subcommand sets the mode")
        if not hasattr(cfg, key):
            raise UsageError(f"unknown config key {key!r}")
        if key in _BOOL_KEYS:
            if raw.lower() not in _BOOL_WORDS:
                raise UsageError(f"config key {key!r}: expected 1/true/yes or 0/false/no, got {raw!r}")
            setattr(cfg, key, _BOOL_WORDS[raw.lower()])
        elif key in _FLOAT_KEYS:
            setattr(cfg, key, float(raw))
        elif key in _INT_KEYS:
            setattr(cfg, key, int(raw))
        elif key == "grid":
            cfg.grid = [float(v) for v in raw.split(",") if v]
        elif key == "spectrum":
            cfg.spectrum = [float(v) for v in raw.split(",") if v]
        else:
            setattr(cfg, key, raw)
    for key, value in vars(ns).items():
        if key in ("mode", "config") or value is None:
            continue
        if key == "grid":
            cfg.grid = [float(v) for v in str(value).split(",") if v]
        elif key == "spectrum":
            cfg.spectrum = [float(v) for v in str(value).split(",") if v]
        else:
            setattr(cfg, key, value)
    if getattr(ns, "seed", None) is None and "seed" not in file_values:
        env = os.environ.get("ENTROPYBENCH_SEED")
        if env is not None:
            cfg.seed = int(env)
    if cfg.spectrum is not None and getattr(ns, "d", None) is None and "d" not in file_values and "dim" not in file_values:
        cfg.d = len(cfg.spectrum)
    return cfg


def main(argv: Optional[list[str]] = None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = config_from_args(ns)
        rows, summary = run_experiment(cfg)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EstimationFailure, DegreeCapExceeded) as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return 1
    if cfg.out:
        try:
            write_csv(rows, cfg.out)
        except OSError as exc:
            print(f"error: cannot write CSV to {cfg.out}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    print(summary)
    if cfg.mode == "validate":
        coverage = sum(r["pass"] for r in rows) / len(rows)
        if coverage < 0.9:
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
