"""Centralized numerical tolerances.

Every module reads the thresholds the library enforces from the record
below, so no two of them can disagree about what "close enough" means.
Bounds that only the tests check (eigendecomposition round trips,
orthonormality) live beside the tests' reference implementations in
`tests/reference.py`.  The run's one setting, the shot multiplier, is
the `c_shots` argument of the estimators (default `accountant.C_SHOTS`);
every other fixed constant sits beside its only reader.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Fixed numerical tolerances (not meant to be tuned per run)."""

    # elementwise Hermitian symmetry check at construction
    herm: float = 1e-12
    # eigenvalues below this count as zero (rank / support decisions)
    rank_cutoff: float = 1e-12
    # trace-one check for density matrices
    trace_one: float = 1e-10
    # slack allowed on block-encoding invariants
    encoding_norm_slack: float = 1e-10
    encoding_err_slack: float = 1e-12
    # monomial conversion must agree with its Chebyshev source this well
    monomial_eval: float = 1e-8
    # headroom on the certified |P(x)| <= 1 bound for log-transform fits
    poly_bound_slack: float = 1e-9


TOL = Tolerances()

# dimensions the dense kernel accepts
MAX_DIM = 64
