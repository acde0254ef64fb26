"""conedec: fundamental cones, relaxed polytopes, and pseudocodewords of
binary parity-check codes, with exact rational LP decoding."""

from .cone import (
    ConeSystem,
    RayList,
    augment_column_lift,
    blockrow_embed,
    build_fundamental_cone,
    extreme_rays,
    in_cone,
    repeated_block_membership,
)
from .errors import BoundExceeded, NumericalFailure
from .gf2 import (
    BinaryMatrix,
    BinaryVector,
    cyclic_shift,
    enumerate_codewords,
    enumerate_dual_words,
    format_alist,
    format_dense,
    is_quasi_cyclic,
    mat_vec_mod2,
    parse_alist,
    parse_dense,
)
from .lpdecode import (
    DecodeResult,
    bsc_sample,
    llr_bsc,
    lp_decode,
    ml_decode,
    shift_equivariance_experiment,
)
from .pcw import (
    GenFun,
    Pseudocodeword,
    enumerate_pseudocodewords,
    generating_function,
    genfun_product,
    genfun_restrict,
    is_gc_pseudocodeword,
)
from .polytope import (
    PolytopeSystem,
    PseudocodewordCensus,
    VertexSet,
    build_relaxed_polytope,
    codeword_polytope,
    enumerate_vertices,
    lp_pseudocodewords,
)
from .qcimprove import (
    ImprovementReport,
    ImproveTarget,
    add_qc_shifts,
    evaluate_lp_performance,
    improve_representation,
)

__version__ = "0.1.0"
