"""LDPC codes from the incidence geometry of symmetric matrices over GF(q).

The package builds the line-point incidence matrix of the space of n x n
symmetric matrices over a finite field, verifies its regular-LDPC
structure and graph invariants (girth 8, small diameter), determines
minimum and stopping distances exactly or by explicit witnesses, and runs
reproducible belief-propagation and erasure-peeling simulations against
random regular baselines.
"""

from .codes import (
    FAMILY_GALLAGER,
    FAMILY_SYMMETRIC,
    FAMILY_TRANSPOSE,
    CodeSpec,
    c2q_witness,
    certified_min_distance,
    certified_stopping_distance,
    ctranspose_witness,
    gallager_random,
    geometry_dimension,
    independent_row_family,
    make_code,
    sym_space,
    symmetric_dimension_bound,
    transpose_dimension_bound,
)
from .decode import (
    AwgnChannel,
    DecodeOutcome,
    SumProductDecoder,
    bp_decode_awgn,
    peel_decode_bec,
)
from .gf import FieldTable, factor_prime_power, field_of_size
from .gf2 import (
    DistanceResult,
    code_dimension,
    columns_sum_zero,
    is_stopping_set,
    min_distance,
    null_space_basis,
    rank_gf2,
    stopping_distance,
    tanner_lower_bound,
)
from .incidence import (
    SparseBitMatrix,
    StructureReport,
    build_h,
    diameter,
    girth,
    point_graph_components,
    verify_structure,
)
from .sim import SimResult, results_to_csv, run_awgn_sweep, run_bec_sweep
from .symspace import Line, Motion, SymPoint, SymSpace

__version__ = "0.1.0"

__all__ = [
    "AwgnChannel",
    "CodeSpec",
    "DecodeOutcome",
    "DistanceResult",
    "FAMILY_GALLAGER",
    "FAMILY_SYMMETRIC",
    "FAMILY_TRANSPOSE",
    "FieldTable",
    "Line",
    "Motion",
    "SimResult",
    "SparseBitMatrix",
    "StructureReport",
    "SumProductDecoder",
    "SymPoint",
    "SymSpace",
    "bp_decode_awgn",
    "build_h",
    "c2q_witness",
    "certified_min_distance",
    "certified_stopping_distance",
    "code_dimension",
    "columns_sum_zero",
    "ctranspose_witness",
    "diameter",
    "factor_prime_power",
    "field_of_size",
    "gallager_random",
    "geometry_dimension",
    "girth",
    "independent_row_family",
    "is_stopping_set",
    "make_code",
    "min_distance",
    "null_space_basis",
    "peel_decode_bec",
    "point_graph_components",
    "rank_gf2",
    "results_to_csv",
    "run_awgn_sweep",
    "run_bec_sweep",
    "stopping_distance",
    "sym_space",
    "symmetric_dimension_bound",
    "tanner_lower_bound",
    "transpose_dimension_bound",
    "verify_structure",
]
