"""Entropy functionals on finite probability simplices.

Probability types and factorization (`simplex`), the density catalog and
entropy evaluation (`densities`), the extremum scan (`numerics`),
curvature-ratio coefficient bounds and the growth index theta (`bounds`), and the
verification layer: extensivity residuals, the two-sided sandwich check,
power-law coefficient recovery, and the axiom suite (`extensivity`).
`extenso.cli` is the command-line front end.
"""

__version__ = "0.1.0"

from .bounds import coefficient_bounds
from .densities import EntropyFunctional, remark2_density, remark5_density, tsallis_density

__all__ = [
    "__version__",
    "EntropyFunctional",
    "coefficient_bounds",
    "remark2_density",
    "remark5_density",
    "tsallis_density",
]
