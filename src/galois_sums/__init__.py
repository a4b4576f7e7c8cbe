"""Galois ring arithmetic, character sums, and low-correlation codebooks."""

from types import ModuleType as _Module

from .errors import (
    BadLevel,
    BrokenInvariant,
    CodebookError,
    DegenerateDimensions,
    GaloisSumsError,
    InvalidModulus,
    NotAUnit,
    NotInBaseRing,
    NotPrimePower,
    RingMismatch,
    SizeLimit,
    TooLarge,
)
from .ring import (
    GaloisRing,
    RingElement,
    build_ring,
    find_basic_primitive_poly,
)
from .characters import (
    MultCharacter,
    RootOfUnity,
    UnitGroupBasis,
    character_levels,
    character_table_json,
    decompose_unit_group,
    enumerate_characters,
    extend_phi,
    section_json,
)
from .brute import count_unit_solutions_brute
from .laws import Expected, canonical_twists, count_unit_solutions, s_cardinality, s_cardinality_qn
from .sums import (
    SumValue,
    canonicalize,
    gauss_sum,
    jacobi,
    jacobi_brute,
    jacobi_expected,
    term_tolerance,
    tilde_jacobi_brute,
    tilde_jacobi_classify,
)
from .codebook import (
    Codebook,
    CodebookParams,
    EvalReport,
    Table2Row,
    asymptotic_ratio,
    build_codebook,
    codebook_size,
    export_codebook,
    imax_exhaustive,
    imax_formula,
    imax_remark,
    import_codebook,
    table2,
    welch_bound,
)
from .verify import SUITES, SuiteResult, run_suite

# the names imported above, not the submodules that importing them binds here
__all__ = [n for n, v in globals().items() if n[0] != "_" and not isinstance(v, _Module)]
__version__ = "0.1.0"
