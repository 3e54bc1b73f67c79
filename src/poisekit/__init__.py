"""poisekit: low-poise Steiner k-trees, telephone-model multicast schedules,
and exhaustive desk-scale oracles for checking the solvers' guarantees."""

from .cover import (
    CoverageSystem,
    CoverSelection,
    PartitionMatroid,
    build_coverage_instance,
    greedy_matroid_max,
    pm_cover,
    pm_cover_system,
)
from .directed import (
    AdditivePartition,
    GoodTree,
    complete,
    coverage_tree,
    greedy_packing,
    is_rho_good,
    solve_directed,
    solve_many_trees,
)
from .driver import SweepReport, bench_rows, run_sweep, solve_guess, stage_budget
from .errors import (
    GenerationError,
    InfeasibleGuessError,
    InfeasibleInstanceError,
    PoisekitError,
)
from .generators import generate_instance
from .graph import (
    Graph,
    MulticastInstance,
    PoiseGuess,
    PoiseTree,
    TreeMetrics,
    bfs_distances,
    bfs_parents,
    eccentricity,
    is_normalized,
    normalize_terminals,
    prune_beyond,
    shortest_path_tree,
    tree_metrics,
)
from .oracle import (
    OracleResult,
    exact_matroid_coverage,
    exact_min_poise_ktree,
    exact_multicast_rounds,
    poise_feasible,
)
from .scheduling import (
    Schedule,
    ValidationReport,
    broadcast_rounds,
    round_lower_bounds,
    tree_broadcast_schedule,
    validate_schedule,
)
from .undirected import (
    CoveredRegion,
    SuperTerminal,
    find_good_vertex_wrt_super,
    small,
    solve_undirected,
)

__version__ = "0.1.0"
