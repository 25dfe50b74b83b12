"""Desk-scale simulator for entropy estimation from copies of a quantum state.

The library builds block encodings of a density matrix, transforms them
with certified Chebyshev polynomials (powers and logarithms), simulates
the ancilla measurement statistics each protocol induces, and accounts
for every copy of the state a physical run would consume.  An exact
spectral oracle validates all of it.
"""

from .accountant import (
    Budget,
    RegimeDecomposition,
    decompose_alpha,
    delta_budget,
    predicted_samples,
)
from .blockenc import (
    BlockEncoding,
    be_power,
    be_product,
    encode_density,
    rescale,
)
from .config import TOL
from .estimators import (
    EstimateReport,
    EstimationFailure,
    Plan,
    estimate,
    measure_p0,
    min_eig_estimate,
    plan,
    run,
)
from .numkernel import HermMatrix, Spectrum, hermitian_eig, op_norm, op_norm_dist
from .qsvtpoly import (
    PolyApprox,
    apply_poly,
    approx_log,
    approx_neg_power,
    approx_pos_power,
    cheb_fit,
    to_monomial,
)
from .states import (
    DensityMatrix,
    StateMeta,
    exact_entropies,
    from_spectrum,
    random_density,
)

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "RegimeDecomposition",
    "decompose_alpha",
    "delta_budget",
    "predicted_samples",
    "BlockEncoding",
    "be_power",
    "be_product",
    "encode_density",
    "rescale",
    "TOL",
    "EstimateReport",
    "EstimationFailure",
    "Plan",
    "estimate",
    "measure_p0",
    "min_eig_estimate",
    "plan",
    "run",
    "HermMatrix",
    "Spectrum",
    "hermitian_eig",
    "op_norm",
    "op_norm_dist",
    "PolyApprox",
    "apply_poly",
    "approx_log",
    "approx_neg_power",
    "approx_pos_power",
    "cheb_fit",
    "to_monomial",
    "DensityMatrix",
    "StateMeta",
    "exact_entropies",
    "from_spectrum",
    "random_density",
]
