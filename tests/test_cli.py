import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entropybench import accountant, cli, estimators, numkernel
from entropybench.accountant import decompose_alpha
from entropybench.estimators import EstimationFailure, plan, run, run_columns
from entropybench.seeding import Stream

from entropybench.cli import (
    CSV_COLUMNS,
    ExperimentConfig,
    UsageError,
    config_from_args,
    build_parser,
    main,
    parse_config_file,
    run_experiment,
)
from entropybench.qsvtpoly import DegreeCapExceeded

_GOLDEN = Path(__file__).parents[1] / "tools" / "golden_digest.py"
_spec = importlib.util.spec_from_file_location("golden_digest", _GOLDEN)
golden_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_digest)


def test_csv_schema_and_pass_column(csv_rows, csv_text):
    cfg = ExperimentConfig(mode="renyi", alpha=2.0, d=4, rank=4, eps=0.1, trials=3, seed=5)
    points, summary = run_experiment(cfg)
    rows = csv_rows(points)
    assert len(rows) == 3
    csv = csv_text(points)
    lines = csv.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    for r in rows:
        assert r["pass"] == int(float(r["abs_err"]) <= float(r["eps"]))
    assert "coverage" in summary


def test_byte_identical_reruns(csv_text):
    cfg = ExperimentConfig(mode="renyi", alpha=1.5, d=4, rank=3, eps=0.1, trials=4, seed=9)
    rows1, _ = run_experiment(cfg)
    cfg2 = ExperimentConfig(mode="renyi", alpha=1.5, d=4, rank=3, eps=0.1, trials=4, seed=9)
    rows2, _ = run_experiment(cfg2)
    assert csv_text(rows1) == csv_text(rows2)


def test_different_seeds_differ(csv_text):
    a = ExperimentConfig(mode="renyi", alpha=1.5, d=4, rank=3, eps=0.1, trials=2, seed=1)
    b = ExperimentConfig(mode="renyi", alpha=1.5, d=4, rank=3, eps=0.1, trials=2, seed=2)
    assert csv_text(run_experiment(a)[0]) != csv_text(run_experiment(b)[0])


def test_explicit_spectrum(csv_rows):
    cfg = ExperimentConfig(
        mode="renyi", alpha=2.0, d=8, spectrum=[0.5, 0.3, 0.2], eps=0.1, trials=2, seed=3
    )
    rows = csv_rows(run_experiment(cfg)[0])
    assert rows[0]["rank"] == 3 and rows[0]["d"] == 8
    assert float(rows[0]["exact"]) == pytest.approx(-math.log(0.38))


def test_log_base_2(csv_rows):
    cfg = ExperimentConfig(
        mode="renyi", alpha=2.0, d=4, spectrum=[0.25] * 4, eps=0.1, trials=1, seed=3,
        log_base="2", ideal=True,
    )
    rows = csv_rows(run_experiment(cfg)[0])
    assert float(rows[0]["estimate"]) == pytest.approx(2.0, abs=1e-9)  # log2(4) bits


def test_validate_log_base_2_budgets_in_bits(tmp_path):
    # validate judges each row against eps in bits, so it must budget that
    # eps converted to nats, as a single run with the same flags does
    def first_row(argv):
        out = tmp_path / "o.csv"
        assert main(argv + ["--out", str(out)]) == 0
        header, row = out.read_text().splitlines()[:2]
        return dict(zip(header.split(","), row.split(",")))

    val = first_row(["validate", "--log-base", "2", "--quick"])
    one = first_row(["renyi", "--alpha", "0.5", "--dim", "4", "--spectrum", "1.0", "--log-base", "2", "--eps", "0.1"])
    assert (val["alpha"], val["d"], val["rank"], val["eps"]) == (one["alpha"], one["d"], one["rank"], one["eps"])
    assert val["delta"] == one["delta"]
    assert float(val["delta"]) == pytest.approx(0.1 * math.log(2.0) * 0.5 / 4.0)


def test_vonneumann_modes(csv_rows):
    for approach in ("qsvt", "poly"):
        cfg = ExperimentConfig(
            mode="vonneumann", d=4, spectrum=[0.25] * 4, eps=0.1, trials=2, seed=7,
            approach=approach,
        )
        rows = csv_rows(run_experiment(cfg)[0])
        assert all(r["branch"] == "von_neumann" for r in rows)
        assert float(rows[0]["exact"]) == pytest.approx(math.log(4))


def test_sweep_eps_slope_near_two(csv_rows):
    cfg = ExperimentConfig(
        mode="sweep", var="eps", grid=[0.2, 0.1, 0.05, 0.025], alpha=2.0,
        d=8, spectrum=[0.5, 0.3, 0.2], trials=2, seed=11,
    )
    points, summary = run_experiment(cfg)
    rows = csv_rows(points)
    assert len(rows) == 8
    slope_line = [l for l in summary.splitlines() if "log(shots)" in l][0]
    slope = float(slope_line.split(":")[1].split("+/-")[0])
    assert abs(slope - 2.0) <= 0.3


def test_sweep_requires_three_points():
    cfg = ExperimentConfig(mode="sweep", var="eps", grid=[0.1, 0.05], alpha=2.0, d=4, rank=4)
    with pytest.raises(UsageError, match="grid"):
        run_experiment(cfg)


def test_validate_quick_passes(tmp_path, csv_rows):
    cfg = ExperimentConfig(mode="validate", seed=3, quick=True)
    points, summary = run_experiment(cfg)
    rows = csv_rows(points)
    coverage = sum(r["pass"] for r in rows) / len(rows)
    assert coverage >= 0.9
    assert "PASS" in summary


def test_cli_main_renyi(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = main(
        [
            "renyi", "--alpha", "2", "--dim", "8", "--spectrum", "0.5,0.3,0.2",
            "--eps", "0.1", "--trials", "2", "--seed", "4", "--out", str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith(",".join(CSV_COLUMNS))
    assert text.endswith("\n") and "\r" not in text


def test_cli_usage_error_exit_code():
    assert main(["renyi", "--alpha", "-3", "--dim", "4", "--rank", "4"]) == 1
    assert main(["renyi"]) == 1  # missing required --alpha
    assert main(["sweep", "--var", "eps", "--grid", "0.1,0.05", "--alpha", "2"]) == 1


def test_cli_validate_exit_codes():
    assert main(["validate", "--quick", "--seed", "6"]) == 0


def test_env_seed_fallback(monkeypatch):
    monkeypatch.setenv("ENTROPYBENCH_SEED", "123")
    ns = build_parser().parse_args(["renyi", "--alpha", "2", "--dim", "4", "--rank", "4"])
    cfg = config_from_args(ns)
    assert cfg.seed == 123


def test_config_file_with_cli_override(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("# comment\nalpha=2.0\ndim=4\nrank=4\neps=0.2\ntrials=2\nseed=8\n")
    ns = build_parser().parse_args(["renyi", "--alpha", "3", "--config", str(path)])
    cfg = config_from_args(ns)
    assert cfg.alpha == 3.0  # flag wins
    assert cfg.eps == 0.2 and cfg.d == 4 and cfg.seed == 8


def test_config_file_unreadable_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    with pytest.raises(UsageError, match="cannot read config file"):
        parse_config_file(str(missing))
    for path in (missing, tmp_path):  # absent, and a directory
        assert main(["renyi", "--alpha", "2", "--config", str(path)]) == 1
        assert "cannot read config file" in capsys.readouterr().err


def test_config_file_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("alpha 2.0\n")
    with pytest.raises(UsageError):
        parse_config_file(str(path))
    argv = ["renyi", "--alpha", "2", "--dim", "4", "--rank", "2", "--config", str(path)]
    for text, message in (
        ("alpha 2.0\n", "expected key=value"),
        ("mode=validate\n", "config key 'mode'"),  # a file may not replace the subcommand
        ("blind=flase\n", "config key 'blind': expected 1/true/yes or 0/false/no, got 'flase'"),
        ("ideal=maybe\n", "config key 'ideal': expected 1/true/yes or 0/false/no, got 'maybe'"),
    ):
        path.write_text(text)
        assert main(argv) == 1
        assert message in capsys.readouterr().err


_VN = ("vonneumann", "--spectrum", "0.5,0.3,0.2")


@pytest.mark.parametrize(
    "head,text",
    [
        (_VN, "alpha=3\n"),
        (_VN, "grid=1,2,3\n"),
        (_VN, "quick=1\n"),
        (_VN, "var=rank\n"),
        (("renyi", "--alpha", "1", "--spectrum", "0.5,0.3,0.2"), "approach=poly\n"),
        (("renyi", "--alpha", "2", "--dim", "4", "--rank", "2"), "config=other.cfg\n"),
    ],
)
def test_a_config_key_the_subcommand_lacks_is_refused(tmp_path, capsys, head, text):
    # a file may set only what the subcommand takes as a flag
    path = tmp_path / "extra.cfg"
    path.write_text(text)
    assert main([*head, "--config", str(path)]) == 1
    key = text.partition("=")[0]
    assert capsys.readouterr() == ("", f"error: unknown config key {key!r} for {head[0]}\n")


@pytest.mark.parametrize("word,value", [("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("False", False), ("NO", False)])
def test_config_file_booleans(tmp_path, word, value):
    path = tmp_path / "flags.cfg"
    path.write_text(f"blind={word}\nideal={word}\n")
    cfg = config_from_args(build_parser().parse_args(["renyi", "--alpha", "2", "--config", str(path)]))
    assert (cfg.blind, cfg.ideal) == (value, value)


def test_validate_ideal_pure_rows_exact(csv_rows):
    cfg = ExperimentConfig(mode="validate", seed=12, quick=True, ideal=True)
    rows = csv_rows(run_experiment(cfg)[0])
    pure_rows = [r for r in rows if r["rank"] == 1]
    assert pure_rows
    assert all(float(r["abs_err"]) < 1e-6 for r in pure_rows)
    assert sum(r["pass"] for r in rows) == len(rows)  # coverage 1.0


def test_sweep_rank_trend_integer_order(csv_rows):
    # at integer order 3 the shot ledger tracks rank^(2*3-2) = rank^4
    cfg = ExperimentConfig(
        mode="sweep", var="rank", grid=[2.0, 3.0, 4.0], alpha=3.0,
        d=8, rank=2, trials=1, seed=13, ideal=True,
    )
    points, summary = run_experiment(cfg)
    rows = csv_rows(points)
    xs = [math.log(r) for r in (2, 3, 4)]
    ys = [math.log(float(r["ledger_samples"])) for r in rows]
    slope = float(np.polyfit(xs, ys, 1)[0])
    assert abs(slope - 4.0) <= 0.3
    ref = next(ln for ln in summary.splitlines() if ln.startswith("slope of log(predicted_samples) vs log(rank):"))
    assert abs(float(ref.split(":")[1].split()[0]) - 4.0) <= 0.01


def test_invalid_config_lists_all_offenders():
    cfg = ExperimentConfig(mode="renyi", alpha=-2.0, d=4, rank=9, eps=-0.1, trials=0)
    with pytest.raises(UsageError) as exc:
        run_experiment(cfg)
    msg = str(exc.value)
    for field in ("trials 0", "eps -0.1", "alpha -2.0", "rank/dim pair (9, 4)"):
        assert field in msg


def test_a_rank_sweep_ignores_the_default_rank(tmp_path, capsys):
    # the grid sets the ranks, so the default rank 4 above dim 3 is not read
    out = tmp_path / "rank.csv"
    argv = ["sweep", "--var", "rank", "--grid", "1,2,3", "--alpha", "2", "--dim", "3", "--out", str(out)]
    assert main(argv) == 0, capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 4
    assert main([*argv[:-2], "--rank", "3"]) == 0
    assert main(["sweep", "--var", "rank", "--grid", "1,2,3", "--alpha", "2", "--dim", "65"]) == 1
    assert "invalid config fields: dim 65" in capsys.readouterr().err


def test_trial_counts_whose_rows_cannot_be_held_are_refused_before_any_work(monkeypatch, capsys):
    # every row is kept until the run ends, so 2**32 + 1 trials ran until
    # memory was exhausted; a sweep counts its rows over its grid
    monkeypatch.setattr(cli, "_point_rows", mock.Mock(side_effect=AssertionError("a trial ran")))
    assert main(["renyi", "--alpha", "2", "--dim", "4", "--rank", "2", "--trials", "4294967297"]) == 1
    err = capsys.readouterr().err
    assert f"trials 4294967297 x 1 grid point(s) (at most MAX_ROWS = {2**23} rows)" in err
    assert "Traceback" not in err
    sweep = ["sweep", "--var", "eps", "--grid", "0.2,0.1,0.05", "--alpha", "2", "--dim", "4", "--rank", "2"]
    assert main([*sweep, "--trials", str(2**23 // 3 + 1)]) == 1
    assert "x 3 grid point(s)" in capsys.readouterr().err
    ExperimentConfig(mode="renyi", trials=cli.MAX_ROWS).validate()
    ExperimentConfig(mode="sweep", var="eps", grid=[0.2, 0.1, 0.05], trials=2**23 // 3).validate()


def test_validate_failure_exit_code(monkeypatch):
    import entropybench.cli as cli

    def fake_run(cfg):
        line = ",".join("0" for _ in CSV_COLUMNS)
        return [cli.PointRows([line] * 10, [0] * 10, [0] * 10, [0] * 10, [0] * 10)], "forced failure"

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    assert cli.main(["validate", "--quick"]) == 2


_RENYI = ("renyi", "--alpha", "1.5", "--dim", "4", "--rank", "4", "--eps", "0.1")
_RENYI2 = ("renyi", "--alpha", "2", "--dim", "4", "--rank", "2")
_SWEEP = ("sweep", "--alpha", "2", "--dim", "4")


@pytest.mark.parametrize(
    "flag,value,message,head",
    [
        pytest.param(flag, value, message, head, id=f"{flag}-{value}")
        for flag, value, message, head in [
            ("--alpha", "nan", "invalid config fields", _RENYI),
            ("--alpha", "inf", "invalid config fields", _RENYI),
            ("--eps", "nan", "invalid config fields", _RENYI),
            ("--eps", "inf", "invalid config fields", _RENYI),
            ("--c-shots", "nan", "invalid config fields", _RENYI),
            ("--c-shots", "0", "invalid config fields", _RENYI),
            ("--out", "/nonexistent/dir/x.csv", "error: cannot write CSV to /nonexistent/dir/x.csv: ", _RENYI),
            ("--spectrum", "nan,1", "error: non-finite eigenvalue", _RENYI2),
            ("--eps", "1e-300", "error: accuracy 2.500e-301 needs inf shots", _RENYI2),
            ("--eps", "1e300", "error: predicted sample count for order 2.0", _RENYI2),
            ("--c-shots", "1e300", "not a finite count of at most 9.223e+18", _RENYI2),
            ("--alpha", "1e6", "error: accuracy budget for order 1000000.0", _RENYI2),
            ("--grid", "0,0.1,0.2", "invalid config fields: eps grid", (*_SWEEP, "--var", "eps")),
            ("--grid", "2,2.5,9", "invalid config fields: rank grid", (*_SWEEP, "--var", "rank")),
            ("--grid", "0.1,0.1,0.1", "invalid config fields: grid [0.1, 0.1, 0.1] needs >= 2 distinct values",
             (*_SWEEP, "--var", "eps")),
            ("--seed", "-1", "error: expected non-negative integer", _RENYI2),
            ("--spectrum", "0.5,0.3,0.2", "invalid config fields: spectrum with a rank sweep",
             (*_SWEEP, "--var", "rank", "--grid", "1,2,3")),
        ]
    ],
)
def test_cli_rejects_non_finite_inputs(flag, value, message, head, capsys):
    argv = [*head, flag, value]
    assert main(argv) == 1  # main returns instead of raising: no traceback
    assert message in capsys.readouterr().err


def test_cli_tiny_order_runs_below_one(tmp_path):
    # a tiny order is not snapped to the integer 0
    out = tmp_path / "tiny.csv"
    assert main(["renyi", "--alpha", "1e-300", "--dim", "4", "--rank", "2", "--seed", "1", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[CSV_COLUMNS.index("branch")] == "sub_one"
    assert row[CSV_COLUMNS.index("pass")] == "1"


def test_sweep_never_imports_numpy_ma(tmp_path):
    import entropybench

    src = os.path.dirname(os.path.dirname(entropybench.__file__))
    code = (
        "import sys; from entropybench.cli import main; "
        "assert 'numpy.random' not in sys.modules, 'numpy.random imported'; "
        f"code = main(['sweep', '--var', 'eps', '--grid', '0.2,0.1,0.05', '--alpha', '2', '--dim', '4', "
        f"'--trials', '3', '--out', {str(tmp_path / 's.csv')!r}]); "
        "assert code == 0, code; assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_sweep_budgets_each_point_once(monkeypatch, csv_rows):
    calls = []
    real = accountant.predicted_samples
    monkeypatch.setattr(accountant, "predicted_samples", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    cfg = ExperimentConfig(mode="sweep", var="eps", grid=[0.2, 0.1, 0.05], alpha=2.0, d=4, rank=2, trials=5, seed=4)
    rows = csv_rows(run_experiment(cfg)[0])
    assert len(rows) == 15
    assert len(calls) == 3  # one budget per grid point, shared by its trials


def test_sweep_with_a_repeated_grid_value_still_runs(csv_rows):
    cfg = ExperimentConfig(mode="sweep", var="eps", grid=[0.2, 0.1, 0.1], alpha=2.0, d=4, rank=2, trials=2, seed=4)
    points, summary = run_experiment(cfg)
    rows = csv_rows(points)
    assert len(rows) == 6
    assert "slope of log(shots) vs log(1/eps): " in summary


def test_sweep_summary_with_a_zero_cost_mean(tmp_path, capsys):
    # vn_poly on a pure state fits a constant and measures nothing, so the
    # rank-1 point's ledger mean is 0 and its log slope has no value
    out = tmp_path / "poly.csv"
    argv = ["sweep", "--var", "rank", "--grid", "1,2,3", "--alpha", "1", "--dim", "4", "--approach", "poly",
            "--trials", "2", "--out", str(out)]
    assert main(argv) == 0
    assert len(out.read_text().splitlines()) == 1 + 3 * 2
    summary = capsys.readouterr().out
    assert "slope of log(ledger_samples) vs log(rank): undefined (a grid point's mean is 0)\n" in summary
    assert "slope of log(predicted_samples) vs log(rank): " in summary


def test_eps_sweep_builds_its_state_once(monkeypatch, csv_rows):
    calls = []
    real = cli.random_density
    monkeypatch.setattr(cli, "random_density", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    cfg = ExperimentConfig(mode="sweep", var="eps", grid=[0.2, 0.1, 0.05, 0.025], alpha=2.0, d=4, rank=3, seed=2)
    rows = csv_rows(run_experiment(cfg)[0])
    assert len(rows) == 4
    assert len(calls) == 1


@pytest.mark.parametrize(
    "cfg,indices",
    [
        (ExperimentConfig(mode="renyi", alpha=2.0, spectrum=[0.6, 0.4], d=2, trials=3), {1}),
        (ExperimentConfig(mode="validate", quick=True), set(range(1, 17))),
        (ExperimentConfig(mode="sweep", var="eps", grid=[0.2, 0.1, 0.05, 0.025], alpha=2.0, spectrum=[0.6, 0.4], d=2),
         {1, 2, 3, 4}),
    ],
    ids=["renyi", "validate", "sweep"],
)
def test_grid_points_are_numbered_from_one(monkeypatch, cfg, indices):
    seen = set()
    monkeypatch.setattr(cli, "Stream", lambda master, key: seen.add(key) or Stream(master, key))
    run_experiment(cfg)
    assert seen == {(gi,) for gi in indices}


def _reference_row(report, log_base: str, eps_report: float, fixed: dict) -> dict:
    """One CSV row formatted from a report, field by field as the CLI
    wrote rows when it built a report per trial."""
    scale = lambda value: value / math.log(2.0) if log_base == "2" else value
    est = scale(report.estimate)
    exact = scale(report.exact_value)
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


_MODES = [(), ("--ideal",), ("--blind",)]


@pytest.mark.parametrize(
    "mode",
    _MODES + [(*mode, "--log-base", "2") for mode in _MODES],
    ids=["noisy", "ideal", "blind", "noisy-bits", "ideal-bits", "blind-bits"],
)
@pytest.mark.parametrize("route", golden_digest.ROUTES, ids=lambda route: "-".join(w.lstrip("-") for w in route))
def test_cli_rows_equal_per_trial_estimates(monkeypatch, csv_text, route, mode):
    argv = [*route, "--dim", "8", "--spectrum", "0.5,0.3,0.2", "--eps", "0.1", "--trials", "5", "--seed", "3", *mode]
    cfg = config_from_args(build_parser().parse_args(argv))
    rho, alpha, eps, approach = cli._points(cfg)[0]
    # a method reaches `plan` only on the branches with two routes, as in `cli._point_rows`
    branch = decompose_alpha(alpha).branch
    method = approach if branch == "von_neumann" else cfg.method if branch == "sub_one" else None
    eps_nats = eps * math.log(2.0) if cfg.log_base == "2" else eps
    kw = dict(mode="ideal" if cfg.ideal else "noisy", method=method)
    stream = Stream(3, (1,))  # the stream of grid point 1
    if cfg.blind:  # a plan per trial, each drawing its probes from the point's stream in turn
        reports = [run(plan(rho, alpha, eps_nats, blind=True, stream=stream, **kw), stream, 1)[0] for _ in range(5)]
    else:
        reports = run(plan(rho, alpha, eps_nats, **kw), stream, 5)
    fixed = {"d": 8, "rank": 3, "eps": repr(eps)}
    expected = [{**_reference_row(r, cfg.log_base, eps, fixed), "seed": t} for t, r in enumerate(reports)]
    # the CSV as the CLI wrote it from per-trial dicts
    expected_csv = "\n".join([",".join(CSV_COLUMNS), *(",".join(map(str, (row[c] for c in CSV_COLUMNS)))
                                                      for row in expected)]) + "\n"
    # chunks of at most 2 trials on the support of size 3, so the CLI runs
    # the 5 trials as two stacks and one single trial
    monkeypatch.setattr(estimators, "STACK_BYTES", 2 * 16 * 3**2)
    assert csv_text(run_experiment(cfg)[0]) == expected_csv


# a full-rank spectrum at d = 8, so that the support routes chunk too
_SPREAD8 = "0.2,0.15,0.15,0.1,0.1,0.1,0.1,0.1"


@pytest.mark.parametrize("mode", [(), ("--ideal",)], ids=["noisy", "ideal"])
@pytest.mark.parametrize("route", golden_digest.ROUTES, ids=lambda route: "-".join(w.lstrip("-") for w in route))
def test_a_points_rows_do_not_depend_on_its_chunks(monkeypatch, csv_text, route, mode):
    # each stage draws a chunk as one array from a generator it carries
    # from chunk to chunk, so stacks of 64 KiB (64 trials at d = 8), of
    # 2 MiB (one chunk here) and of one trial give the same CSV, and the
    # first n rows of a run are the rows of an n-trial run
    def rows(trials, stack_bytes):
        argv = [*route, "--dim", "8", "--spectrum", _SPREAD8, "--eps", "0.2", "--trials", str(trials), "--seed", "5",
                *mode]
        with mock.patch.object(estimators, "STACK_BYTES", stack_bytes):
            return csv_text(run_experiment(config_from_args(build_parser().parse_args(argv)))[0]).splitlines()

    full = rows(70, 2 << 20)
    assert rows(70, 64 << 10) == full
    assert rows(70, 16 * 8**2) == full
    assert rows(13, 64 << 10) == full[:14]


def test_a_point_derives_its_seeds_in_one_batch(monkeypatch):
    import numpy.random

    made = []
    real = numpy.random.SeedSequence
    monkeypatch.setattr(numpy.random, "SeedSequence", lambda *a, **kw: made.append(a) or real(*a, **kw))
    argv = ["renyi", "--alpha", "2", "--dim", "8", "--spectrum", "0.5,0.3,0.2", "--trials", "50", "--seed", "3"]
    assert main(argv) == 0
    assert len(made) <= 3  # one trial and one generator each would make 101


def test_batched_rows_equal_unbatched_rows(monkeypatch):
    # stacked chunks of 8 trials give the rows of one-trial chunks
    cfg = ExperimentConfig(mode="renyi", alpha=1.5, d=4, rank=3, eps=0.1, trials=2 * 8 + 1, seed=6)
    monkeypatch.setattr(estimators, "STACK_BYTES", 16 * 4**2)
    unbatched, _ = run_experiment(cfg)
    sizes = []
    real = estimators.renyi_case_odd
    monkeypatch.setattr(estimators, "renyi_case_odd", lambda p, stream, trials: sizes.append(len(trials)) or real(
        p, stream, trials))
    monkeypatch.setattr(estimators, "STACK_BYTES", 8 * 16 * 4**2)
    assert run_experiment(cfg)[0] == unbatched
    assert sizes == [8, 8, 1]


def test_a_huge_trial_count_is_derived_in_bounded_batches(monkeypatch):
    # a trial count above 2**32 runs lazily, one bounded chunk at a time
    class Stop(Exception):
        pass

    sizes = []
    real_run = cli.run_columns

    def run_one_chunk(plan, stream, trials):
        for columns in real_run(plan, stream, trials):
            sizes.append(len(columns.trials))
            raise Stop
        yield

    monkeypatch.setattr(cli, "run_columns", run_one_chunk)
    # the config refuses more rows than a run can hold (tested above); lift
    # that ceiling so that what is checked here is the loop's own laziness
    monkeypatch.setattr(cli, "MAX_ROWS", 2**40)
    cfg = ExperimentConfig(mode="renyi", alpha=2.0, d=8, spectrum=[0.5, 0.3, 0.2], trials=2**40, seed=1)
    with pytest.raises(Stop):
        run_experiment(cfg)
    assert sizes == [estimators.STACK_BYTES // (16 * 8**2)]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(1e-30, 1e30), min_size=1, max_size=9))
def test_summary_median_equals_numpy(values):
    assert cli._median(values).hex() == float(np.median(values)).hex()


def test_run_builds_one_runtime_config_and_routes_through_plan_and_run(monkeypatch, csv_rows):
    planned, ran = [], []
    real_plan, real_run = cli.plan, cli.run_columns

    def plan_spy(rho, alpha, eps, **kw):
        planned.append((kw["method"], kw["c_shots"]))
        return real_plan(rho, alpha, eps, **kw)

    monkeypatch.setattr(cli, "plan", plan_spy)
    monkeypatch.setattr(cli, "run_columns", lambda plan, stream, trials: ran.extend(trials) or real_run(
        plan, stream, trials))
    for cfg, method in (
        (ExperimentConfig(mode="renyi", alpha=2.0, d=4, rank=4, trials=4, c_shots=1.0), None),
        (ExperimentConfig(mode="renyi", alpha=0.5, d=4, rank=4, trials=3, method="ae"), "ae"),
        (ExperimentConfig(mode="vonneumann", spectrum=[0.5, 0.5], d=2, trials=3, approach="poly"), "poly"),
    ):
        planned.clear()
        ran.clear()
        rows = csv_rows(run_experiment(cfg)[0])
        assert planned == [(method, cfg.c_shots)]  # one plan for the grid point
        assert ran == [row["seed"] for row in rows] and len(ran) == cfg.trials


def test_cli_degree_cap_is_estimation_failure(monkeypatch, capsys):
    import entropybench.estimators as estimators

    def capped(*args, **kwargs):
        raise DegreeCapExceeded(4, 0.25)

    monkeypatch.setattr(estimators, "approx_log", capped)
    argv = ["vonneumann", "--spectrum", "0.4,0.3,0.2,0.1", "--eps", "0.1", "--seed", "1"]
    assert main(argv) == 1
    assert "estimation failed: no Chebyshev fit up to degree 4" in capsys.readouterr().err


def test_cli_refuses_a_fit_above_the_degree_ceiling(monkeypatch, capsys):
    # kappa ~1e7 lets the odd-floor fit's cap reach degree 32768; no degree
    # above the ceiling may be evaluated, so the guard also keeps this test
    # small where the ceiling is missing
    from entropybench import qsvtpoly

    real = qsvtpoly._evaluate

    def guarded(f, lo, hi, degree):
        assert degree <= 4096, f"evaluation at degree {degree}"
        return real(f, lo, hi, degree)

    monkeypatch.setattr(qsvtpoly, "_evaluate", guarded)
    argv = ["renyi", "--alpha", "1.5", "--spectrum", "0.9999999,0.0000001", "--eps", "0.01", "--ideal"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "estimation failed: no Chebyshev fit up to degree 4096 met" in err
    assert "Traceback" not in err


def test_main_reuses_its_parser_without_leaking_flags(tmp_path, capsys):
    import entropybench.cli as cli

    requests = [
        ["renyi", "--alpha", "1.5", "--ideal", "--dim", "4", "--rank", "3", "--seed", "2"],
        ["vonneumann", "--dim", "4", "--spectrum", "0.4,0.3,0.2,0.1", "--seed", "2"],
    ]

    def run(i, argv, tag):
        out = tmp_path / f"{tag}{i}.csv"
        assert cli.main(argv + ["--out", str(out)]) == 0
        return out.read_text()

    lone = []
    for i, argv in enumerate(requests):
        cli.build_parser.cache_clear()  # as in a process that serves one request
        lone.append(run(i, argv, "lone"))
    cli.build_parser.cache_clear()
    shared = [run(i, argv, "shared") for i, argv in enumerate(requests)]
    assert cli.build_parser.cache_info().misses == 1  # built once for both
    assert shared == lone


def test_an_error_text_prints_no_numpy_repr(capsys):
    # a blind run whose estimated minimum eigenvalue leaves a target
    # eigenvalue outside the fit domain: the message gives plain floats
    argv = ["renyi", "--alpha", "1.5", "--dim", "8", "--rank", "8", "--blind", "--trials", "20", "--seed", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: target eigenvalue ") and "outside fit domain" in err
    assert "np.float64(" not in err


# One stacked chunk of 40 trials in which trial 6 is the first whose
# measured p0 is zero.
LATE_FAILURE = ["renyi", "--alpha", "3.5", "--dim", "4", "--rank", "4", "--c-shots", "0.0001", "--trials", "40",
                "--seed", "3"]


def _first_failure_one_by_one(argv):
    """The first failing trial of the run and its error, from a run of one
    trial per chunk."""
    cfg = config_from_args(build_parser().parse_args(argv))
    rho, alpha, eps, _ = cli._points(cfg)[0]
    p = plan(rho, alpha, eps, c_shots=cfg.c_shots)
    done = 0
    with mock.patch.object(estimators, "STACK_BYTES", 16 * rho.dim**2):
        try:
            for done, _ in enumerate(run_columns(p, Stream(cfg.seed, (1,)), range(cfg.trials)), 1):
                pass
        except EstimationFailure as exc:
            return done, str(exc)


def test_a_later_trial_failing_fails_the_run_with_its_error(capsys):
    trial, message = _first_failure_one_by_one(LATE_FAILURE)
    assert trial == 6
    assert main(LATE_FAILURE) == 1
    assert capsys.readouterr() == ("", f"estimation failed: {message}\n")


@pytest.mark.parametrize("broken", [35, 20, 3])
def test_the_first_failing_trial_wins_whatever_its_stage(monkeypatch, capsys, broken):
    # a made-up failure inside the stacked chain at trial `broken`, against
    # trial 6's failure at the measurement after the chain: the run raises
    # the error of the earlier trial, as a trial-by-trial run would
    first, message = _first_failure_one_by_one(LATE_FAILURE)
    real = estimators.apply_poly

    def apply_poly(be, p):
        trials = len(be.encoded.mat) if be.encoded.mat.ndim == 3 else 1
        numkernel.fail_first(np.arange(trials) == broken, lambda i: ValueError(f"chain failed at trial {i}"))
        return real(be, p)

    monkeypatch.setattr(estimators, "apply_poly", apply_poly)
    assert main(LATE_FAILURE) == 1
    expected = f"estimation failed: {message}" if broken > first else f"error: chain failed at trial {broken}"
    assert capsys.readouterr().err == expected + "\n"


def test_an_inversion_failure_runs_its_chunk_once(monkeypatch):
    # inversion is a chunk's last stage and runs in trial order, so every
    # trial before the failing one has passed every stage: nothing runs again
    calls = []
    real = estimators.renyi_case_odd

    def renyi_case_odd(p, stream, trials):
        calls.append((trials.start, trials.stop))
        return real(p, stream, trials)

    monkeypatch.setattr(estimators, "renyi_case_odd", renyi_case_odd)
    assert main(LATE_FAILURE) == 1
    assert calls == [(0, 40)]


@pytest.mark.parametrize("flag,value", [("--dim", "4"), ("--rank", "2"), ("--spectrum", "0.5,0.5"), ("--eps", "0.1"),
                                        ("--trials", "7")])
def test_validate_refuses_the_flags_and_config_keys_it_never_reads(tmp_path, capsys, flag, value):
    # validate runs its own fixture states, accuracies and trial counts
    assert main(["validate", "--quick", flag, value]) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {flag} {value}" in err and "Traceback" not in err
    key = flag[2:]
    path = tmp_path / "extra.cfg"
    path.write_text(f"{key}={value}\n")
    assert main(["validate", "--quick", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: unknown config key {key!r} for validate\n")
