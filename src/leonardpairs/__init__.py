"""Exact-arithmetic construction, recognition and classification of Leonard pairs."""

from __future__ import annotations

from .field import (
    BACKEND,
    ExactPolynomial,
    Field,
    FieldElement,
    PrimeField,
    QuadraticExtension,
    Rationals,
    roots_in_field,
)
from .matrix import ExactMatrix, char_poly, is_multiplicity_free, shape
from .parray import (
    ParameterArray,
    check_poly_characterization,
    classify_beta,
    construct_bidiagonal,
    construct_tridiagonal,
    find_g_matrix,
    fingerprint,
    validate,
)
from .leonard import (
    LeonardSystem,
    extract_parameter_array,
    fit_askey_wilson,
    is_leonard_pair,
    verification_report,
)
from .generators import (
    build_lattice,
    example2,
    lattice_pair,
    random_nonexample,
    random_parameter_array,
    sl2_pair,
    uq_pair,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "ExactMatrix",
    "ExactPolynomial",
    "Field",
    "FieldElement",
    "LeonardSystem",
    "ParameterArray",
    "PrimeField",
    "QuadraticExtension",
    "Rationals",
    "build_lattice",
    "char_poly",
    "check_poly_characterization",
    "classify_beta",
    "construct_bidiagonal",
    "construct_tridiagonal",
    "example2",
    "extract_parameter_array",
    "find_g_matrix",
    "fingerprint",
    "fit_askey_wilson",
    "is_leonard_pair",
    "is_multiplicity_free",
    "lattice_pair",
    "random_nonexample",
    "random_parameter_array",
    "roots_in_field",
    "shape",
    "sl2_pair",
    "uq_pair",
    "validate",
    "verification_report",
    "__version__",
]
