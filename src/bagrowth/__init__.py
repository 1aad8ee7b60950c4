"""Scale-free network growth with exact finite-time degree laws."""

__version__ = "0.1.0"

from .chain import (
    ChainParams,
    DegreeLaw,
    MixtureDistribution,
    closed_form_pmt,
    evolve_vertex,
    evolve_vertex_exact,
    first_passage,
    network_distribution,
    p_via_first_passage,
    passage_curve,
    transition,
)
from .ensemble import (
    EnsembleStats,
    FitReport,
    compare_to_exact,
    compare_to_limit,
    run_replicates,
)
from .errors import ConfigurationError, EnumerationBoundError, VerificationError
from .graph import (
    GraphState,
    RunConfig,
    attachment_probability_exact,
    degree_histogram,
    generate,
    new_complete,
)
from .limits import (
    CesaroDiagnostic,
    cesaro_ratios,
    limit_recursion,
    steady_state,
    steady_state_exact,
    steady_state_partial_sum,
    tail_exponent,
)

__all__ = [
    "__version__",
    "ChainParams", "DegreeLaw", "MixtureDistribution", "closed_form_pmt",
    "evolve_vertex", "evolve_vertex_exact", "first_passage", "network_distribution",
    "p_via_first_passage", "passage_curve", "transition",
    "EnsembleStats", "FitReport", "compare_to_exact", "compare_to_limit",
    "run_replicates",
    "ConfigurationError", "EnumerationBoundError", "VerificationError",
    "GraphState", "RunConfig", "attachment_probability_exact",
    "degree_histogram", "generate", "new_complete",
    "CesaroDiagnostic", "cesaro_ratios", "limit_recursion", "steady_state",
    "steady_state_exact", "steady_state_partial_sum", "tail_exponent",
]
