"""Finite-model toolkit for program logics over topological state spaces."""

from .announce import AnnouncementResult, announce, check_test_announcement_identity
from .checker import (
    SubsetEvaluator,
    eval_dtl,
    eval_pdl_relational,
    eval_subset,
    state_extension,
    translate_pdl,
)
from .formula import (
    Atom,
    Atomic,
    BoxPdl,
    Cl,
    Diamond,
    Formula,
    FragmentViolation,
    Iff,
    Implies,
    Int,
    KHat,
    Know,
    Language,
    Next,
    Not,
    Or,
    And,
    ParseError,
    Program,
    Seq,
    Test,
    Top,
    format_formula,
    format_program,
    in_language,
    modal_depth,
    parse,
    parse_program,
    substitute,
)
from .frameprops import (
    CONTINUITY,
    OPENNESS,
    SERIALITY,
    FrameReport,
    build_continuity_countermodel,
    build_openness_countermodel,
    is_continuous,
    is_open_map,
    is_serial,
    validates_scheme,
)
from .harness import GenConfig, audit, gen_formula, gen_model, search_countermodel
from .models import (
    DTModel,
    PDLModel,
    Scenario,
    SubsetModel,
    Violation,
    image,
    model_from_json,
    model_to_json,
    program_function,
    validate,
)
from .proofkit import (
    DTEL,
    SPDL0,
    SPDL0_SEQ,
    Derivation,
    check_derivation,
    derivation_from_json,
    get_system,
    is_tautology,
    match_axiom,
    match_scheme,
)
from .topology import TopoSpace, all_functions, all_topologies
from .transform import (
    BudgetExceeded,
    DepthExceeded,
    NetworkSpace,
    NonSerialModel,
    build_network_space,
    check_shift_openness,
    check_truth_preservation,
    network_extension,
    stratum_counts,
)

__version__ = "0.1.0"
