"""Schedule optimization: Algorithm 1, Algorithm 2, greedy and ideal."""

from .bounds import BoundCalculator, chain_lower_bound, flatten_key
from .cache import PersistentCache, context_fingerprint, solution_digest
from .component import ComponentOptResult, ComponentOptimizer
from .engine import EngineMetrics, EvaluationEngine, effective_jobs
from .exhaustive import (
    ExhaustiveOptimizer,
    SearchSpaceTooLarge,
    search_space_size,
)
from .greedy import GreedyOptimizer
from .ideal import ideal_makespan_ns
from .pareto import (
    DEFAULT_WEIGHTS,
    OBJECTIVES,
    ComposedPoint,
    ParetoComponentResult,
    ParetoOptimizer,
    ParetoPoint,
    ScalarizedPoint,
    compose_fronts,
    dominates_vector,
    kernel_front,
    pareto_front,
    scalarize,
)
from .pruned import DEFAULT_PRUNED_MAX_POINTS, PrunedOptimizer, validate_shard
from .robust import (
    RISK_OBJECTIVES,
    CandidateRisk,
    RobustComponentResult,
    RobustOptimizer,
    SensitivityEntry,
    cvar_tail_count,
    risk_value,
)
from .shard import (
    ShardLog,
    SpaceStatus,
    StaticShardExchange,
    space_statuses,
    static_space_id,
)
from .solution import LevelParams, Solution
from .threadgroups import (
    dominates,
    generate_nondominated_thread_groups,
    nondominated,
    valid_assignments,
)
from .tilesizes import select_tile_sizes
from .tree import ComponentChoice, TreeOptResult, TreeOptimizer
from .vectorized import DEFAULT_MAX_CELLS, BatchEvaluator

__all__ = [
    "BoundCalculator", "chain_lower_bound", "flatten_key",
    "PersistentCache", "context_fingerprint", "solution_digest",
    "ComponentOptResult", "ComponentOptimizer",
    "EngineMetrics", "EvaluationEngine", "effective_jobs",
    "ExhaustiveOptimizer", "SearchSpaceTooLarge", "search_space_size",
    "GreedyOptimizer",
    "ideal_makespan_ns",
    "DEFAULT_WEIGHTS", "OBJECTIVES", "ComposedPoint",
    "ParetoComponentResult", "ParetoOptimizer", "ParetoPoint",
    "ScalarizedPoint", "compose_fronts", "dominates_vector",
    "kernel_front", "pareto_front", "scalarize",
    "DEFAULT_PRUNED_MAX_POINTS", "PrunedOptimizer", "validate_shard",
    "ShardLog", "SpaceStatus", "StaticShardExchange",
    "space_statuses", "static_space_id",
    "RISK_OBJECTIVES", "CandidateRisk", "RobustComponentResult",
    "RobustOptimizer", "SensitivityEntry", "cvar_tail_count", "risk_value",
    "LevelParams", "Solution",
    "dominates", "generate_nondominated_thread_groups", "nondominated",
    "valid_assignments",
    "select_tile_sizes",
    "ComponentChoice", "TreeOptResult", "TreeOptimizer",
    "DEFAULT_MAX_CELLS", "BatchEvaluator",
]
