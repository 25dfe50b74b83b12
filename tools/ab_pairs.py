"""Alternating A/B pairs of the benchmark: a base commit against this tree.

    python tools/ab_pairs.py BASE_REF --workload sweep-int --pairs 10 --seed 1 --seconds 5

Checks BASE_REF out as a detached `git worktree` in a temporary directory,
copies this tree's files (those git tracks, as modified in the working
tree, and new files it does not ignore) to another one without any
`__pycache__`, then runs `bench/run.py --trace 0` from the two copies
once per pair with the same workload, seed and run length, alternating
which side goes first so drift in the host's speed falls on both sides.
Neither side finds bytecode left by an earlier run, so under
`PYTHONDONTWRITEBYTECODE=1` both compile the package in every pass.  The
worktree and the copy are removed afterwards, also when a run fails.

Prints each pair's end-to-end metrics (those `BENCHMARK.json` lists under
`end_to_end`), then per metric each side's median and quartiles, the
pairs this tree wins (a win is a strictly better value in the metric's
`better` direction; a tie counts for neither side), and whether a claimed
gain on the metric would hold (`verdict`).  Beside it stand the relative
change of the median and the metric's `bound` from `BENCHMARK.json`,
printed without a verdict, since the file does not say whether a bound is
relative.  The last line of stdout is one JSON object with the same
summary.  Exit code 0 when every bench run exited 0, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300.0  # a bench run exits within 180 s by its own deadline


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """End-to-end metric values of one `bench/run.py` run from `tree`."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"bench run in {tree} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def clean_copy(root: Path, dest: Path) -> None:
    """Copy the files of the git tree at `root` that git tracks or would
    track, as they are in the working tree, into `dest`, leaving out every
    `__pycache__` and every tracked file deleted from the working tree."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"], cwd=root,
                            check=True, capture_output=True).stdout.decode()
    for rel in sorted(set(listed.split("\0")) - {""}):
        src = root / rel
        if "__pycache__" in Path(rel).parts or not src.is_file():
            continue
        (dest / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(src, dest / rel)


def spread(values: list[float]) -> dict[str, float]:
    """Median and quartiles (one value is its own quartiles)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(base: list[float], change: list[float], better: str) -> dict:
    """Whether a claimed gain holds: this tree wins at least nine pairs in
    ten (ties count for neither side), and its median beats the base's by
    more than the base's interquartile range."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    b = spread(base)
    gap = sign * (b["median"] - spread(change)["median"])
    iqr = b["q3"] - b["q1"]
    return {"wins": wins, "gap": gap, "base_iqr": iqr, "claim_holds": 10 * wins >= 9 * len(base) and gap > iqr}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision to compare this tree against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    done = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{args.base}^{{commit}}"], cwd=ROOT,
                          capture_output=True, text=True)
    if done.returncode != 0:
        print(f"error: {args.base!r} names no commit", file=sys.stderr)
        return 1
    sha = done.stdout.strip()
    values: dict[str, dict[str, list[float]]] = {side: {name: [] for name in better} for side in ("base", "change")}
    pairs = 0
    ok = True
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        base_tree, change_tree = Path(tmp) / "base", Path(tmp) / "change"
        clean_copy(ROOT, change_tree)
        subprocess.run(["git", "worktree", "add", "--detach", str(base_tree), sha], cwd=ROOT,
                       check=True, capture_output=True)
        try:
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                got = {}
                for side in order:
                    tree = base_tree if side == "base" else change_tree
                    got[side] = bench(tree, args.workload, args.seed, args.seconds)
                for side, metrics in got.items():
                    for name in better:
                        values[side][name].append(metrics[name])
                pairs += 1
                cells = "  ".join(f"{name} {got['base'][name]:.6g} -> {got['change'][name]:.6g}" for name in better)
                print(f"pair {i + 1} ({order[0]} first): {cells}", flush=True)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            ok = False
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base_tree)], cwd=ROOT, capture_output=True)

    summary = {"base": sha, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "pairs": pairs, "metrics": {}}
    if pairs:
        for name, direction in better.items():
            base, change = values["base"][name], values["change"][name]
            b, c = spread(base), spread(change)
            row = {"better": direction, "base": b, "change": c, **verdict(base, change, direction),
                   "median_change": (c["median"] - b["median"]) / b["median"] if b["median"] else None,
                   "bound": bound[name]}
            summary["metrics"][name] = row
            rel = "n/a" if row["median_change"] is None else f"{row['median_change']:+.1%}"
            print(f"{name:12s} base {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]  "
                  f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  wins {row['wins']}/{pairs} "
                  f"({direction} is better)  claim {'holds' if row['claim_holds'] else 'fails'}  "
                  f"median change {rel} (bound {bound[name]:g})")
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
