"""Exact noncommutative linear algebra over skew fields.

Quasideterminants and positive quasiminors, Gauss LDU decomposition via
quasi-Plucker coordinates, Bruhat cell classification, twist maps, and the
factorization of double Bruhat cell elements into elementary one-parameter
factors -- all over exact scalars (rationals and rational quaternions), so
every identity is checked with exact equality.
"""

from .errors import (
    IndexOutOfRange,
    NotGeneric,
    NotInGaussCell,
    NotReducedWord,
    QBruhatError,
    RetriesExhausted,
    ShapeMismatch,
    WrongCell,
    ZeroInverse,
)
from .matrix import Matrix, interval, iota, matrix_from_json, matrix_to_json, sigma
from .quasidet import (
    MinorSpec,
    SnMinorSpec,
    positive_quasiminor,
    principal_quasiminor,
    quasi_plucker_left,
    quasi_plucker_right,
    quasideterminant,
    quasiminor_indexed,
    sylvester_reduce,
)
from .gauss import GaussTriple, gauss_parts, ldu, ldu_elimination
from .weyl import DoubleWord, Permutation, longest_in_range, representative
from .cells import CellLabel, classify, in_reduced_cell, twist_general, twist_reduced
from .factorize import (
    FactorizationOutput,
    Generator,
    generator_matrix,
    product_map,
    recover_params,
    solve_standard_unipotent,
    upper_factorize,
    factor_u_w0,
    factor_w0_v,
    verify_double_ratios,
)
from .scalars import (
    RationalQuaternion,
    format_scalar,
    parse_scalar,
    quat_inv,
)

__version__ = "0.1.0"

__all__ = [
    "CellLabel",
    "DoubleWord",
    "FactorizationOutput",
    "GaussTriple",
    "Generator",
    "IndexOutOfRange",
    "Matrix",
    "MinorSpec",
    "NotGeneric",
    "NotInGaussCell",
    "NotReducedWord",
    "Permutation",
    "QBruhatError",
    "RationalQuaternion",
    "RetriesExhausted",
    "ShapeMismatch",
    "SnMinorSpec",
    "WrongCell",
    "ZeroInverse",
    "classify",
    "factor_u_w0",
    "factor_w0_v",
    "format_scalar",
    "gauss_parts",
    "generator_matrix",
    "in_reduced_cell",
    "interval",
    "iota",
    "ldu",
    "ldu_elimination",
    "longest_in_range",
    "matrix_from_json",
    "matrix_to_json",
    "parse_scalar",
    "positive_quasiminor",
    "principal_quasiminor",
    "product_map",
    "quasi_plucker_left",
    "quasi_plucker_right",
    "quasideterminant",
    "quasiminor_indexed",
    "quat_inv",
    "recover_params",
    "representative",
    "sigma",
    "solve_standard_unipotent",
    "sylvester_reduce",
    "twist_general",
    "twist_reduced",
    "upper_factorize",
    "verify_double_ratios",
]
