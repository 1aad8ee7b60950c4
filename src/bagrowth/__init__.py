"""Scale-free network growth with exact finite-time degree laws."""

__version__ = "0.1.0"

from .chain import (
    ChainParams,
    DegreeLaw,
    MixtureDistribution,
    closed_form_pmt,
    evolve_vertex,
    network_distribution,
    passage_curve,
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
    "evolve_vertex", "network_distribution", "passage_curve",
    "EnsembleStats", "FitReport", "compare_to_exact", "compare_to_limit",
    "run_replicates",
    "ConfigurationError", "EnumerationBoundError", "VerificationError",
    "GraphState", "RunConfig", "degree_histogram", "generate", "new_complete",
    "CesaroDiagnostic", "cesaro_ratios", "limit_recursion", "steady_state",
    "steady_state_exact", "steady_state_partial_sum", "tail_exponent",
]
