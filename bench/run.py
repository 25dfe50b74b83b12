"""entropybench benchmark: time to an entropy estimate at a stated eps.

    python3 bench/run.py --workload renyi-d64 --seed 1 --seconds 30 --trace 0
    python3 -m pytest -q bench/test_bench.py     # the harness's self-tests

Drives the public CLI entry point (`entropybench.cli.main`) in-process,
with one client in a closed loop: one request at a time, in one process
with BLAS pinned to one thread.  Each pass runs the workload's fixed
request list once in a fresh process (child.py), so nothing a pass caches
in memory reaches the next one; a CLI user pays for a new process on
every invocation too.  Passes repeat until --seconds have passed (at least
two, so the CSV digest can be compared), and every timing is the median
over passes.

--trace 0 prints the end-to-end metrics:
  setup_s      process start until the first request can run (median over
               empty passes and the passes that ran requests)
  solve_ref    time of one pass over the request list, in durations of a
               fixed reference kernel timed just before and after each
               request (child.reference_s)
  peak_rss_mb  peak resident memory of a pass process
  coverage     share of estimate rows with abs_err <= eps
  ok_frac      share of requests that exited 0 without raising
The raw pass time (solve_s, seconds) and the reference kernel's time are
printed above the result line.  solve_ref, not solve_s, carries the
regression bound: on a shared 2-vCPU machine the host's speed drifts by up
to a third over tens of seconds (five runs of one pass list took 0.56 to
0.85 s), which no number of passes averages out, and the reference kernel
slows down with it.  bench/baseline.json holds the figures measured at the
commit that added the benchmark.
--trace 1 alternates untraced and traced passes and prints the per-layer
table from spans recorded around the library's public functions
(tracer.py), plus the tracing overhead.

Outputs are checked in the same command: exit code per request, row count
per request, the `abs_err` and `pass` columns against `estimate` and
`exact`, `exact` against the bench's own oracle where the spectrum is
explicit, and one sha256 over a pass's CSVs, which must repeat on every
pass of the run.  The digest is printed for comparison across commits but
not gated there, since a LAPACK kernel may move last bits.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 0 when correct, 1 when a check
failed, 2 when the benchmark could not run (no result line).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import TRACED
from workloads import EXPECTED_SPAN, WORKLOADS, requests

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
SCRATCH = ROOT / ".bench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 9  # empty passes per run, on top of the passes that ran requests
MIN_PASSES = 2
DEADLINE_S = 170.0  # a run must exit within 180 s
# reported as total_s (inclusive) as well: they contain the eigensolver
INCLUSIVE = ("numkernel.op_norm_dist", "blockenc.BlockEncoding")

# per-mille ranks, so the ten-samples rule is exact integer arithmetic
PERMILLE = (500, 750, 900, 950, 990, 999)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def tail_permille(n: int):
    """Highest rank in PERMILLE with at least ten of n samples beyond it."""
    fitting = [pm for pm in PERMILLE if n * (1000 - pm) >= 10 * 1000]
    return fitting[-1] if fitting else None


def percentile(values, permille: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(permille * len(ordered) / 1000) - 1)]


def spawn_pass(reqs, trace: bool, tmp: str, deadline: float) -> dict:
    env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
    spec = {"src": str(SRC), "requests": [list(r.argv) for r in reqs], "trace": trace, "tmp": tmp}
    spec["spawn_t"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD)], input=json.dumps(spec), capture_output=True,
            text=True, env=env, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not finish within the run's {DEADLINE_S:g} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def oracle(spectrum, alpha: float) -> float:
    nz = [p for p in spectrum if p > 0]
    if alpha == 1.0:
        return -sum(p * math.log(p) for p in nz)
    return math.log(sum(p**alpha for p in nz)) / (1.0 - alpha)


def check_pass(reqs, result: dict, problems: list) -> list[dict]:
    """Per-request checks of one pass; returns the estimate rows it wrote."""
    rows_out = []
    if result["inherited_state"] is not None:
        problems.append("a pass saw module state from an earlier pass")
    for req, code, err, text in zip(reqs, result["codes"], result["errors"], result["csvs"]):
        if code != 0:
            problems.append(f"{' '.join(req.argv)}: exit {code}: {err}")
            continue
        rows = list(csv.DictReader(io.StringIO(text or "")))
        if len(rows) != req.estimates:
            problems.append(f"{' '.join(req.argv)}: {len(rows)} rows, expected {req.estimates}")
        for row in rows:  # the first bad row of a request is reported
            try:
                est, exact, err_col = float(row["estimate"]), float(row["exact"]), float(row["abs_err"])
            except ValueError:
                est = exact = err_col = math.nan
            bad = None
            if not (math.isfinite(est) and math.isfinite(exact)):
                bad = f"non-finite row {row}"
            elif abs(err_col - abs(est - exact)) > 1e-12 or int(row["pass"]) != int(err_col <= float(row["eps"])):
                bad = f"abs_err/pass inconsistent in {row}"
            elif req.spectrum is not None:
                ref = oracle(req.spectrum, float(row["alpha"]))
                if abs(exact - ref) > 1e-9 * max(1.0, abs(ref)):
                    bad = f"exact {exact!r}, oracle {ref!r}"
            if bad:
                problems.append(f"{' '.join(req.argv)}: {bad}")
                break
        rows_out.extend(rows)
    return rows_out


def digest(result: dict) -> str:
    h = hashlib.sha256()
    for text in result["csvs"]:
        h.update(b"\0" if text is None else text.encode())
        h.update(b"\n--\n")
    return h.hexdigest()


def wall_s(result: dict) -> float:
    """Time the pass spent inside requests."""
    return sum(result["request_s"])


def solve_ref(result: dict) -> float:
    """Pass time in reference-kernel durations: each request's time over the
    mean of the reference timings taken just before and after it."""
    refs = result["refs"]
    return sum(2.0 * t / (refs[i] + refs[i + 1]) for i, t in enumerate(result["request_s"]))


def layer_metrics(traced: list[dict], untraced: list[dict], estimates: int) -> dict[str, tuple[float, str]]:
    def med(key):
        return statistics.median(key(r) for r in traced)

    out = {}
    for name in TRACED:
        def field(r, f, name=name):
            return r["layers"].get(name, {}).get(f, 0.0)

        out[f"{name}.calls"] = (med(lambda r: field(r, "calls")), "count")
        out[f"{name}.self_s"] = (med(lambda r: field(r, "self_s")), "s")
        if name in INCLUSIVE:
            out[f"{name}.total_s"] = (med(lambda r: field(r, "total_s")), "s")
    out["numkernel.eig_per_estimate"] = (out["numkernel.hermitian_eig.calls"][0] / estimates, "count/estimate")
    out["qsvtpoly.cheb_fit.reuse_frac"] = (med(lambda r: r["fit_reuse_frac"]), "ratio")
    out["trace.wall_s"] = (med(wall_s), "s")
    out["trace.unattributed_frac"] = (med(lambda r: 1.0 - r["root_s"] / wall_s(r)), "ratio")
    out["trace.overhead_frac"] = (med(solve_ref) / statistics.median(map(solve_ref, untraced)) - 1.0, "ratio")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool):
    if not (SRC / "entropybench" / "cli.py").is_file():
        raise BenchError(f"no package source at {SRC / 'entropybench'}")
    reqs = requests(workload, seed)
    estimates = sum(r.estimates for r in reqs)
    deadline = time.monotonic() + DEADLINE_S
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        spawn_pass([], False, tmp, deadline)  # untimed: writes bytecode, warms the page cache
        probes = [spawn_pass([], False, tmp, deadline) for _ in range(SETUP_PROBES)]
        untraced, traced = [], []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            untraced.append(spawn_pass(reqs, False, tmp, deadline))
            if trace:
                traced.append(spawn_pass(reqs, True, tmp, deadline))
            now, step = time.monotonic(), time.monotonic() - t0
            runs = len(untraced) + len(traced)
            if runs >= MIN_PASSES and (now - start >= seconds or now + step > deadline):
                break
        elapsed = time.monotonic() - start

    problems: list[str] = []
    passes = untraced + traced
    attempted = len(reqs) * len(passes)
    failed = sum(code != 0 for r in passes for code in r["codes"])
    rows = [check_pass(reqs, r, problems) for r in passes]
    digests = {digest(r) for r in passes}
    if len(digests) != 1:
        problems.append(f"CSV digests differ between passes on one seed: {sorted(digests)}")
    if any(len(r) != len(rows[0]) for r in rows):
        problems.append(f"estimate counts differ between passes: {[len(r) for r in rows]}")
    for r in traced:
        if r["trace_missed"]:
            problems.append(f"trace wrappers missed {r['trace_missed']}")
        if r["layers"].get(EXPECTED_SPAN[workload], {}).get("calls", 0) == 0:
            problems.append(f"traced run recorded no {EXPECTED_SPAN[workload]} span")

    env = {k: untraced[0][k] for k in ("python", "numpy", "blas_config", "blas_threads")}
    env.update(nproc=len(os.sched_getaffinity(0)), pinned={var: "1" for var in BLAS_VARS})
    report = [
        f"workload {workload} seed {seed}: {len(reqs)} requests, {estimates} estimates per pass; "
        f"{len(untraced)} untraced + {len(traced)} traced passes in {elapsed:.1f} s; "
        "closed loop, 1 client, 1 process per pass",
        "env " + json.dumps(env),
        f"csv_sha256 {sorted(digests)[0]} ({'same on' if len(digests) == 1 else 'DIFFERS across'} "
        f"{len(passes)} passes)",
    ]
    report.append("pass wall_s " + " ".join(f"{wall_s(r):.4g}" for r in passes))
    report.append(f"solve_s {statistics.median(map(wall_s, untraced)):.6g} s, reference kernel "
                  f"{statistics.median(x for r in untraced for x in r['refs']) * 1e3:.4g} ms (medians)")
    request_s = [s for r in untraced for s in r["request_s"]]
    tail = tail_permille(len(request_s))
    line = f"request_s median {statistics.median(request_s):.4g} s"
    if tail is not None and tail > 500:
        line += f", p{tail / 10:g} {percentile(request_s, tail):.4g} s"
    report.append(line + f" (n={len(request_s)})")

    if trace:
        metrics = layer_metrics(traced, untraced, estimates)
    else:
        passed = sum(int(row["pass"]) for row in rows[0])
        metrics = {
            "setup_s": (statistics.median(r["setup_s"] for r in probes + untraced), "s"),
            "solve_ref": (statistics.median(map(solve_ref, untraced)), "ref"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
            "coverage": (passed / len(rows[0]) if rows[0] else 0.0, "ratio"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
        }
    for name, (value, unit) in metrics.items():
        report.append(f"{name:40s} {value:14.6g} {unit}")
    report += [f"CHECK FAILED: {p}" for p in problems]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
