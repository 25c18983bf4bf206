"""Exact 0-Hecke tableau modules and quasisymmetric series in types A, B, D.

The package builds the projective, row-separated, and one-dimensional
modules of the 0-Hecke algebras of the symmetric groups and the signed
permutation groups on explicit tableau bases, realizes the associated
quasisymmetric and noncommutative symmetric functions (with their type B
and D analogues) as exact sparse series over Z[q], and machine-verifies
the structural identities relating the two sides by independent
brute-force oracles at desk scale.
"""

from .groups import GroupElement, ResourceLimitError
from .modules import CertificationError, Filtration, HeckeModule
from .qpoly import QPoly
from .series import SeriesElement
from .shapes import Decomposition, Shape, ShapeError
from .tableaux import Tableau

__all__ = [
    "CertificationError",
    "Decomposition",
    "Filtration",
    "GroupElement",
    "HeckeModule",
    "QPoly",
    "ResourceLimitError",
    "SeriesElement",
    "Shape",
    "ShapeError",
    "Tableau",
]

__version__ = "0.1.0"
