"""One sha256 over the output of a fixed list of `entropybench` CLI runs.

Each run calls `entropybench.cli.main` in this process and contributes its
argv, exit code, stdout, stderr and CSV bytes to the digest.  A change meant
to keep behaviour byte-identical must print the same digest as its parent:

    PYTHONPATH=<parent checkout>/src python tools/golden_digest.py
    PYTHONPATH=src python tools/golden_digest.py

The list covers `validate` (full, quick, quick in bits), every route in
noisy, ideal and blind mode on one random and one explicit-spectrum state,
a non-default shot multiplier, one eps sweep, one rank sweep and four
error exits.  It also covers the chunked runs: every encoded route with
more trials than one stacked chunk holds at d = 64, and with a stack
followed by a one-matrix chunk, a run whose first failing trial is not
its first,
a base-2 sweep of 100-trial points, 10-trial blind runs (a plan per
trial), a measurement accuracy that fails only when measured, the
orders 5.5 and 4.5, whose power chains take more than one step, and a
`renyi` run and a `sweep` that read a config file (`CONFIG_TEXT`, which
the tool writes; the digest takes the token `CONFIG` in place of its
temporary path).  Only flags and config keys that every version of the
CLI accepts are used, so old and new code run the same list.

The CSV shows a fit only through the estimates it moves, so the digest
also takes one record per fit of a fixed list (`FITS`): its degree,
coefficient bytes and recorded eps, its slope bound at width 0 and for an
array of widths, and for log fits of degree <= 30 its monomial
coefficients; and the (cap, best error) of two fits that exceed their
degree cap (`CAPPED`).  The fits are made through the public builders and
`cheb_fit`, which every version has.

The CSV shows neither eta, the p0 bounds nor the exact p0, so the digest
also takes the library's reports: the repr of every field of each report
of `run(plan(...))`, or the error, for every route in noisy and ideal
mode, blind and not, on the golden states and one d = 64 state
(`LIBRARY_STATES`).  Only the `plan` and `run` signatures every version
has are used.

`runs <hex>` hashes the CLI runs alone, `fits <hex>` the fit and capped
records alone and `reports <hex>` the library reports alone, so a move
confined to one of them leaves the other lines equal.  The last line is
the combined digest of runs and fits.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import sys
import math
import tempfile

import numpy as np

from entropybench import cli, qsvtpoly
from entropybench.estimators import plan, run
from entropybench.seeding import Stream
from entropybench.states import from_spectrum, random_density

# (subcommand and order, route flags) for every estimation route
ROUTES = [
    ("renyi", "--alpha", "2"),
    ("renyi", "--alpha", "3"),
    ("renyi", "--alpha", "1.5"),
    ("renyi", "--alpha", "3.5"),
    ("renyi", "--alpha", "2.5"),
    ("renyi", "--alpha", "0.5", "--method", "sampling"),
    ("renyi", "--alpha", "0.5", "--method", "ae"),
    ("vonneumann", "--approach", "qsvt"),
    ("vonneumann", "--approach", "poly"),
]
# the routes that build block encodings
ENCODED = [route for route in ROUTES if route[2] not in ("2", "3") and route[-1] != "poly"]
STATES = [
    ("--dim", "4", "--rank", "4", "--seed", "11"),
    ("--dim", "8", "--spectrum", "0.5,0.3,0.2", "--seed", "5"),
]
MODES = [(), ("--ideal",), ("--blind",)]
# (order, method) of each route, as the library takes them
LIBRARY_ROUTES = [(2.0, None), (3.0, None), (1.5, None), (3.5, None), (2.5, None), (0.5, "sampling"), (0.5, "ae"),
                  (1.0, "qsvt"), (1.0, "poly")]
# the two golden states' shapes, and one d = 64 state
LIBRARY_STATES = [lambda: random_density(4, 4, 11), lambda: from_spectrum([0.5, 0.3, 0.2], 8),
                  lambda: random_density(64, 16, 1)]
# the config file of the --config runs, and the token for its path in argv
CONFIG_TEXT = "# keys every version reads\ndim=4\nrank=3\neps=0.2\ntrials=3\nseed=12\nlog_base=2\nc_shots=2\n"
CONFIG = "<config>"


def runs() -> list[list[str]]:
    out = [["validate"], ["validate", "--quick"], ["validate", "--quick", "--log-base", "2"]]
    for state in STATES:
        for mode in MODES:
            for route in ROUTES:
                out.append([*route, *state, *mode, "--eps", "0.1", "--trials", "2"])
    out += [
        ["renyi", "--alpha", "1.5", "--dim", "4", "--rank", "3", "--c-shots", "8", "--trials", "3", "--seed", "2"],
        ["sweep", "--var", "eps", "--grid", "0.2,0.1,0.05", "--alpha", "2.5",
         "--dim", "8", "--spectrum", "0.5,0.3,0.2", "--trials", "2", "--seed", "3"],
        ["sweep", "--var", "rank", "--grid", "2,4,8", "--alpha", "1.5", "--dim", "8", "--trials", "2", "--seed", "3"],
        # error exits: a bad order, a short grid, a bad shot multiplier, and
        # a route refusal from inside the pipeline
        ["renyi", "--alpha", "-1"],
        ["sweep", "--var", "eps", "--grid", "0.1,0.05", "--alpha", "2"],
        ["renyi", "--alpha", "2", "--c-shots", "nan"],
        ["renyi", "--alpha", "0.5", "--method", "ae", "--dim", "6", "--rank", "3"],
    ]
    # 40 trials on a full-rank d = 64 spectrum: more than the 32 one
    # stacked chunk holds there
    spread = ",".join(repr((64 + i) / 6112) for i in range(64))
    out += [[*route, "--dim", "64", "--spectrum", spread, "--trials", "40", "--seed", "4"] for route in ENCODED]
    # 33 trials there: a stack of 32, then a chunk of one trial, whose
    # encodings are single matrices drawn from the same streams
    out += [[*route, "--dim", "64", "--spectrum", spread, "--trials", "33", "--seed", "6"] for route in ENCODED]
    out += [
        # trial 6 is the first whose measured p0 is zero
        ["renyi", "--alpha", "3.5", "--dim", "4", "--rank", "4", "--c-shots", "0.0001", "--trials", "40", "--seed", "3"],
        # a grid point's fields formatted once for its trials, in bits
        ["sweep", "--var", "eps", "--grid", "0.2,0.1,0.05", "--alpha", "2", "--dim", "8", "--spectrum", "0.5,0.3,0.2",
         "--log-base", "2", "--trials", "100", "--seed", "7"],
        # blind trials are each their own plan, with its own budget and ledger
        ["renyi", "--alpha", "2", "--dim", "4", "--rank", "3", "--blind", "--trials", "10", "--seed", "8"],
        ["renyi", "--alpha", "0.5", "--dim", "4", "--rank", "3", "--blind", "--trials", "10", "--seed", "8"],
        # a measurement accuracy outside (0, 1): the noisy run fails when it
        # measures, the ideal run measures nothing
        ["renyi", "--alpha", "2", "--dim", "4", "--rank", "2", "--eps", "40", "--trials", "2"],
        ["renyi", "--alpha", "2", "--dim", "4", "--rank", "2", "--eps", "40", "--trials", "2", "--ideal"],
    ]
    # orders with k = 2 (odd and even floor), the only runs that enter the
    # loop body of `be_power`: every other order here has k <= 1
    out += [["renyi", "--alpha", alpha, "--dim", "4", "--rank", "3", "--trials", "2", *mode]
            for alpha in ("5.5", "4.5") for mode in ((), ("--ideal",))]
    # settings from a config file, one of them overridden by a flag
    out += [
        ["renyi", "--alpha", "1.5", "--config", CONFIG, "--trials", "2"],
        ["sweep", "--var", "rank", "--grid", "1,2,3", "--alpha", "0.5", "--config", CONFIG],
    ]
    return out


# (builder, arguments) of each pinned fit: the three families, degrees 0
# to 436, among them 16 and 17 on either side of the degree above which
# the search evaluates a degree by FFT instead of by cached operators
FITS = [
    # (0.02, 1e-3) has degree 16, (0.1, 1e-6) degree 17
    *[("approx_log", (beta, eps)) for beta in (0.9, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005)
      for eps in (0.1, 1e-3, 1e-6)],
    ("approx_log", (0.9, 0.5)),  # degree 0
    ("approx_log", (0.02, 5e-6)),  # degree 32
    ("approx_log", (0.02, 4e-6)),  # degree 33
    ("approx_log", (0.04, 1e-5)),
    ("approx_log", (0.002, 1e-8)),
    ("approx_log", (0.001, 1e-6)),
    ("approx_log", (0.0005, 1e-7)),
    *[("approx_pos_power", (c, kappa, eps)) for c in (0.25, 0.8)
      for kappa, eps in ((1.0, 1e-4), (1.5, 1e-4), (4.0, 1e-4), (20.0, 1e-4), (400.0, 1e-3))],
    ("approx_pos_power", (0.5, 1000.0, 1e-6)),
    ("approx_pos_power", (0.1, 3000.0, 1e-5)),
    ("approx_pos_power", (0.05, 10000.0, 1e-6)),
    *[("approx_neg_power", (c, kappa, eps)) for c in (0.2, 0.6)
      for kappa, eps in ((1.0, 1e-4), (1.5, 1e-4), (4.0, 1e-4), (20.0, 1e-4), (100.0, 1e-3))],
    ("approx_neg_power", (0.5, 200.0, 10 ** -2.5)),  # degree 33
    ("approx_neg_power", (0.3, 300.0, 1e-5)),
    ("approx_neg_power", (0.9, 2000.0, 1e-5)),
    ("approx_neg_power", (0.4, 5000.0, 1e-6)),
]
# slope-bound widths of one stacked call
WIDTHS = np.array([1e-3, 0.0, 2.5e-4, 1e-3])
# (target, array target, lo, hi, eps, degree cap) of fits no degree up to the cap meets
CAPPED = [
    (lambda x: math.log(1.0 / x) / (2 * math.log(100.0)), lambda xs: np.log(1.0 / xs) / (2 * math.log(100.0)),
     0.01, 1.0, 1e-6, 14),
    # the smallest error of degrees 0, 1, 2, 4, 8, 14 is at degree 1, not at the cap
    (lambda x: math.sin(40 * x), lambda xs: np.sin(40 * xs), 0.01, 1.0, 1e-6, 14),
]


def fit_records() -> list[bytes]:
    """One record per fit of `FITS` and per capped fit of `CAPPED`."""
    out = []
    for name, args in FITS:
        p = getattr(qsvtpoly, name).__wrapped__(*args)  # fitted here, not taken from a CLI run's cache
        parts = [name, repr(args), str(p.degree), p.coeffs.tobytes().hex(), p.eps.hex(),
                 float(p.lipschitz_bound()).hex(), p.lipschitz_bound(WIDTHS).tobytes().hex()]
        if name == "approx_log" and p.degree <= 30:
            try:
                parts.append(p.monomial().coeffs.tobytes().hex())
            except ValueError as exc:  # the conversion's own check refused it
                parts.append(str(exc))
        out.append("\0".join(parts).encode())
    for target, array_target, lo, hi, eps, cap in CAPPED:
        try:
            qsvtpoly.cheb_fit(target, lo, hi, eps, cap, array_target=array_target)
        except qsvtpoly.DegreeCapExceeded as exc:
            out.append(f"capped\0{lo!r}\0{eps!r}\0{exc.cap}\0{exc.best_err.hex()}".encode())
        else:
            out.append(f"capped\0{lo!r}\0{eps!r}\0{cap}\0met".encode())
    return out


def report_records() -> list[bytes]:
    """One record per (state, route, mode, blind) of the library: the repr
    of every field of each of three trials' reports, or the error."""
    out = []
    for make_state in LIBRARY_STATES:
        rho = make_state()  # built here, so no spectrum or fit from a CLI run is reused
        for alpha, method in LIBRARY_ROUTES:
            for mode in ("noisy", "ideal"):
                for blind in (False, True):
                    stream = Stream(13)
                    try:
                        reports = run(plan(rho, alpha, 0.1, mode, method, blind, stream=stream), stream, 3)
                        parts = [repr((f.name, getattr(r, f.name))) for r in reports for f in dataclasses.fields(r)]
                    except (ValueError, RuntimeError) as exc:
                        parts = [type(exc).__name__, str(exc)]
                    out.append("\0".join([repr(rho.dim), repr((alpha, method, mode, blind)), *parts]).encode())
    return out


def run_one(argv: list[str], csv_path: str, config_path: str) -> bytes:
    """argv, exit code, stdout, stderr and CSV of one in-process run, with
    `config_path` for the token `CONFIG` in argv."""
    if os.path.exists(csv_path):
        os.remove(csv_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*(config_path if a == CONFIG else a for a in argv), "--out", csv_path])
    csv = b""
    if os.path.exists(csv_path):
        with open(csv_path, "rb") as fh:
            csv = fh.read()
    parts = [" ".join(argv), str(code), out.getvalue(), err.getvalue()]
    return b"\0".join(p.encode() for p in parts) + b"\0" + csv


def main() -> int:
    os.environ.pop("ENTROPYBENCH_SEED", None)  # runs without --seed use seed 0
    whole, halves = hashlib.sha256(), {"runs": hashlib.sha256(), "fits": hashlib.sha256(), "reports": hashlib.sha256()}

    def add(half: str, record: bytes) -> None:
        framed = len(record).to_bytes(8, "big") + record
        if half != "reports":  # the combined digest predates the reports
            whole.update(framed)
        halves[half].update(framed)

    with tempfile.TemporaryDirectory() as tmp:
        csv_path, config_path = os.path.join(tmp, "rows.csv"), os.path.join(tmp, "run.cfg")
        with open(config_path, "w") as fh:
            fh.write(CONFIG_TEXT)
        for argv in runs():
            add("runs", run_one(argv, csv_path, config_path))
    for record in fit_records():
        add("fits", record)
    for record in report_records():
        add("reports", record)
    for half, h in halves.items():
        print(half, h.hexdigest())
    print(whole.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
