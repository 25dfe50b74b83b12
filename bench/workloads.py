"""The benchmark's workloads: fixed lists of `entropybench` CLI requests.

A request is the argv of one CLI invocation plus the number of estimate
rows it must write.  State seeds are derived from the bench seed, so one
seed fixes the whole list; the program sees only the generated argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

SPECTRUM_3 = (0.5, 0.3, 0.2)


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    estimates: int
    # explicit eigenvalues when the bench can check `exact` on its own
    spectrum: Optional[tuple[float, ...]] = None


def _spectrum_flag(spectrum) -> list[str]:
    return ["--spectrum", ",".join(repr(p) for p in spectrum)]


def renyi_d64(rng: random.Random) -> list[Request]:
    # Large dimension, one estimate per request: the eigensolver and the
    # invariant-check decompositions do the work, and every fit is distinct.
    # Each request draws its own state: the decompositions a state needs
    # vary by about a tenth between states, and independent states average
    # that out where shared ones would not.
    out = []
    for _ in range(3):
        for kind in ("1.5", "2.5", "0.5", "3.5", "2", "vn"):
            head = ("vonneumann", "--approach", "qsvt") if kind == "vn" else ("renyi", "--alpha", kind)
            out.append(Request((*head, "--dim", "64", "--rank", "16", "--eps", "0.1", "--trials", "1",
                                "--seed", str(rng.randrange(1 << 31))), 1))
    return out


def _floored_spectrum(rng: random.Random, levels: int, floor: float) -> tuple[float, ...]:
    """Random spectrum with every eigenvalue >= floor: flat-Dirichlet
    weights spread the mass above the floor."""
    weights = [rng.expovariate(1.0) for _ in range(levels)]
    total = sum(weights)
    return tuple(floor + (1.0 - levels * floor) * w / total for w in weights)


def vn_d8(rng: random.Random) -> list[Request]:
    # Small support, many trials per request: fitting dominates and nearly
    # every fit repeats an earlier one.  Besides the fixed 3-level spectrum,
    # qsvt runs on 4-level spectra drawn from the seed with every eigenvalue
    # >= 0.15: fit cost grows with 1/rho_min, whose mean over unconstrained
    # random states is unbounded, so unfloored draws would make the size of
    # the workload depend on the seed.  vn_poly runs on the fixed spectrum
    # only: on random rank-4 states it fails on about one state in four.
    out = []
    for eps in ("0.05", "0.02"):
        for approach in ("qsvt", "poly"):
            argv = ("vonneumann", "--approach", approach, "--dim", "8", *_spectrum_flag(SPECTRUM_3),
                    "--eps", eps, "--trials", "20", "--seed", str(rng.randrange(1 << 31)))
            out.append(Request(argv, 20, SPECTRUM_3))
        for _ in range(3):
            spectrum = _floored_spectrum(rng, 4, 0.15)
            argv = ("vonneumann", "--approach", "qsvt", "--dim", "8", *_spectrum_flag(spectrum),
                    "--eps", eps, "--trials", "7", "--seed", str(rng.randrange(1 << 31)))
            out.append(Request(argv, 7, spectrum))
    return out


def sweep_int(rng: random.Random) -> list[Request]:
    # Integer orders only: no block encoding, fit or eigendecomposition, so
    # the time is shot simulation, budgeting and the CLI's own row work.
    grid = ("0.2", "0.1", "0.05", "0.025")
    eps_sweep = ("sweep", "--var", "eps", "--grid", ",".join(grid), "--alpha", "2", "--dim", "8",
                 *_spectrum_flag(SPECTRUM_3), "--trials", "100", "--seed", str(rng.randrange(1 << 31)))
    rank_sweep = ("sweep", "--var", "rank", "--grid", "2,4,8,16", "--alpha", "3", "--dim", "16",
                  "--eps", "0.1", "--trials", "100", "--seed", str(rng.randrange(1 << 31)))
    alpha4 = ("renyi", "--alpha", "4", "--dim", "32", "--rank", "8", "--eps", "0.1",
              "--trials", "200", "--seed", str(rng.randrange(1 << 31)))
    return [Request(eps_sweep, 400, SPECTRUM_3), Request(rank_sweep, 400), Request(alpha4, 200)]


WORKLOADS = {"renyi-d64": renyi_d64, "vn-d8": vn_d8, "sweep-int": sweep_int}

# A traced run fails when this span has no calls: it is the layer the
# workload exists to exercise, so zero calls means the trace missed it.
EXPECTED_SPAN = {
    "renyi-d64": "numkernel.hermitian_eig",
    "vn-d8": "qsvtpoly.cheb_fit",
    "sweep-int": "estimators.renyi_integer",
}


def requests(workload: str, seed: int) -> list[Request]:
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
