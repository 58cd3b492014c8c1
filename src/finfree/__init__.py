"""Finite free probability toolkit.

Partition-lattice combinatorics, finite free additive/multiplicative
convolutions and cumulants, closed-form limit-law targets, and a
desk-scale experiment harness for the associated limit theorems.
"""

__version__ = "0.1.0"

from .polycalc import MonicPoly, boxplus, boxtimes, boxtimes_pow, dilate
from .cumulants import CumulantVector, coeffs_from_cumulants, finite_cumulants

__all__ = [
    "MonicPoly",
    "boxplus",
    "boxtimes",
    "boxtimes_pow",
    "dilate",
    "CumulantVector",
    "finite_cumulants",
    "coeffs_from_cumulants",
    "__version__",
]
