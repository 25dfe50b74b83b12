"""Desk-scale simulator for entropy estimation from copies of a quantum state.

The library builds block encodings of a density matrix, transforms them
with certified Chebyshev polynomials (powers and logarithms), simulates
the ancilla measurement statistics each protocol induces, and accounts
for every copy of the state a physical run would consume.  An exact
spectral oracle validates all of it.

The package exports the names the README's Library section presents;
every other name is reached through its module (`entropybench.blockenc`,
`entropybench.qsvtpoly`, ...).
"""

from .blockenc import encode_density
from .estimators import (
    estimate,
    plan,
    run,
)
from .qsvtpoly import (
    apply_poly,
    approx_pos_power,
)
from .states import (
    exact_entropies,
    random_density,
)

__version__ = "0.1.0"

__all__ = [
    "random_density",
    "exact_entropies",
    "encode_density",
    "approx_pos_power",
    "apply_poly",
    "estimate",
    "plan",
    "run",
]
