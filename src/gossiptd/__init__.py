"""Gossip-coupled distributed TD(0) policy evaluation on finite Markov chains."""

from .chain import (
    MarkovModel,
    StationaryWeights,
    add_self_loops,
    average_cost,
    basic_differential_value,
    bellman_average,
    bellman_discounted,
    discounted_value,
    mean_cost,
    orthogonal_contraction_factor,
    stationary_distribution,
    validate_chain,
    weighted_norm,
)
from .features import (
    BasisEnsemble,
    FeatureBasis,
    build_queue_bases,
    orthogonalize_against_ones,
    orthogonalize_ensemble,
    projection_apply,
    projection_onto_ones_complement,
    validate_independence,
)
from .gossip import GossipMatrix, sample_neighbors, validate_gossip
from .augmented import (
    AugmentedSystem,
    FixedPoint,
    build_augmented,
    check_a6,
    solve_average_fixed_point,
    solve_discounted_fixed_point,
)
from .learner import AgentEnsemble, PowerSchedule, RunConfig, Trajectory, run
from .analysis import (
    ErrorReport,
    MetricsSeries,
    compute_average_errors,
    compute_discounted_errors,
    metrics_over_time,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    QueueSpec,
    build_queue_chain,
    run_experiment,
)

__version__ = "0.1.0"
