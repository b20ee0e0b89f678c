"""Exact invariants of curve singularities and degeneration verdicts."""

from .branches import (
    branch_semigroup,
    delta_one_branch,
    delta_report,
    intersection_multiplicity,
)
from .errors import CurveInvError
from .jets import JetAlgebra, build_jet_algebra
from .lci import (
    LciPresentation,
    ObstructionReport,
    complex_term_ranks,
    embedding_dimension,
    obstruction,
    verify_parametrization,
)
from .plane import (
    LocalInvariants,
    PlaneAnalysis,
    PlaneSingularity,
    TailMap,
)
from .poly import (
    BranchParam,
    DeltaR,
    Poly,
    parse_branch,
    parse_poly,
    weight_feasibility,
)
from .report import AnalysisOptions, Report, analyze, run_corpus, to_json, to_text
from .schema import CurveDocument, build_curve, load_curve, serialize_curve
from .spectral import (
    CurveModel,
    GlobalInvariants,
    HCPages,
    SSPage,
    Verdict,
    degeneration_verdict,
    e1_page,
    e2_page,
    global_invariants,
    hc_pages,
    render_page,
)

__all__ = [
    "AnalysisOptions",
    "BranchParam",
    "CurveDocument",
    "CurveInvError",
    "CurveModel",
    "DeltaR",
    "GlobalInvariants",
    "HCPages",
    "JetAlgebra",
    "LciPresentation",
    "LocalInvariants",
    "ObstructionReport",
    "PlaneAnalysis",
    "PlaneSingularity",
    "Poly",
    "Report",
    "SSPage",
    "TailMap",
    "Verdict",
    "analyze",
    "branch_semigroup",
    "build_curve",
    "build_jet_algebra",
    "complex_term_ranks",
    "degeneration_verdict",
    "delta_one_branch",
    "delta_report",
    "e1_page",
    "e2_page",
    "embedding_dimension",
    "global_invariants",
    "hc_pages",
    "intersection_multiplicity",
    "load_curve",
    "obstruction",
    "parse_branch",
    "parse_poly",
    "render_page",
    "run_corpus",
    "serialize_curve",
    "to_json",
    "to_text",
    "verify_parametrization",
    "weight_feasibility",
]

__version__ = "0.1.0"
