"""Quasi-cyclic subcode indices and multiplicities for cyclic codes.

A cyclic code of length q^n - 1 whose dual zeros all lie in full-size
cyclotomic cosets has its subcodes classified by tuples of subspaces of
F_{q^n}.  This package computes the achievable quasi-cyclic indices of those
subcodes together with exact multiplicities, provides closed-form tables for
several classical families, and checks everything against a brute-force
oracle over explicitly constructed fields.
"""

from .closed_form import cross_check, family_table
from .enumeration import multiplicity_table
from .gf import CapExceededError
from .index_calc import index_set
from .numth import InvalidParameterError, validate_spec
from .oracle import measured_histogram

__version__ = "0.1.0"

__all__ = [
    "validate_spec",
    "multiplicity_table",
    "index_set",
    "family_table",
    "cross_check",
    "measured_histogram",
    "InvalidParameterError",
    "CapExceededError",
    "__version__",
]
