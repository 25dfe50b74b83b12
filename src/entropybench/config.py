"""Centralized numerical tolerances and tunable constants.

Every module and every test reads its thresholds from the two records
below so that library and test suite can never disagree about what
"close enough" means.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    """Fixed numerical tolerances (not meant to be tuned per run)."""

    # elementwise Hermitian symmetry check at construction
    herm: float = 1e-12
    # operator-norm bound for eigendecomposition round trips
    reconstruction: float = 1e-10
    # operator-norm bound for orthonormality of eigenvector sets
    orthonormality: float = 1e-10
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


@dataclass(frozen=True)
class RuntimeConfig:
    """Tunable constants exposed to callers.

    c_shots scales every shot budget: a Bernoulli estimate at accuracy
    delta uses ceil(c_shots / delta^2) shots and the additive-noise
    amplitude-estimation model uses ceil(c_shots / delta) queries.  The
    default of 4 is calibrated so seeded runs hit >= 95% empirical
    coverage on the statistical fixtures; set it to 1 to reproduce the
    bare 1/delta^2 bookkeeping.
    """

    # shot multiplier, see above
    c_shots: float = 4.0
    # constant in the copy cost ceil(c * (1/D) log(1/D)) of the
    # density-to-block-encoding construction
    c_copy_cost: float = 1.0
    # degree-cap constant: log fits may use up to c_log*(1/beta)*ln(1/eps)
    c_log: float = 8.0
    # degree-cap constant for power-function fits
    c_power: float = 8.0
    # single global multiplier on every predicted sample-count formula
    big_o_multiplier: float = 1.0
    # additive accuracy of the simulated minimum-eigenvalue subroutine
    # when an estimator has to run it (blind mode)
    blind_theta: float = 0.02
    # monomial conversion refuses degrees above this (ill-conditioned)
    monomial_degree_cap: int = 30
    # polynomial sup error used by ideal-mode pipelines
    ideal_poly_eps: float = 1e-8

    def with_(self, **kw) -> "RuntimeConfig":
        return replace(self, **kw)


TOL = Tolerances()
DEFAULT_CONFIG = RuntimeConfig()

# dimensions the dense kernel accepts
MAX_DIM = 64
