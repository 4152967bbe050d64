"""cascadelab: generate, attack, and analyze homophyly security networks.

A numpy laboratory for threshold-cascade security of networks:
three generators (Erdős–Rényi, preferential attachment, and the
homophyly/randomness/PA security model), two attack semantics (threshold
cascades and physical node removal), and the structural measurements that
explain why the security model contains cascades (communities,
conductance, degree priority, power laws, distances, the community
priority tree, and seed-routed navigation).
"""

__version__ = "0.1.0"

from .cascade import (CascadeOutcome, CommunityStrength, ThresholdAssignment,
                      classify_community, count_vulnerable, infection_set,
                      injury_set, random_thresholds, security_threshold,
                      top_degree_nodes, uniform_thresholds)
from .experiment import (ConfigError, ExperimentConfig, ExperimentResult,
                         attack_size, default_config, read_config,
                         run_experiment)
from .generators import (attachment_probability, expected_seed_count, gen_er,
                         gen_pa, gen_security, generate)
from .graph import (EdgeTag, GraphFormatError, LabeledGraph, deserialize,
                    largest_connected_component, load_graph, save_graph,
                    serialize)
from .seeding import derive_seed, derive_trial_seed, rng_from, splitmix64
from .structure import (Community, CommunityConductance, DistanceStats,
                        NavigationResult, PowerlawFit, PriorityTree,
                        communities, community_conductances,
                        community_diameters, conductance, distance_stats,
                        infection_priority_tree, navigate, powerlaw_exponent)

__all__ = [
    "__version__",
    # graph core
    "LabeledGraph", "EdgeTag", "GraphFormatError",
    "largest_connected_component", "serialize", "deserialize",
    "save_graph", "load_graph",
    # generators
    "gen_er", "gen_pa", "gen_security", "generate",
    "attachment_probability", "expected_seed_count",
    # cascade engine
    "ThresholdAssignment", "CascadeOutcome", "CommunityStrength",
    "uniform_thresholds", "random_thresholds", "infection_set",
    "injury_set", "top_degree_nodes", "security_threshold",
    "classify_community", "count_vulnerable",
    # structure metrics
    "Community", "CommunityConductance", "DistanceStats", "NavigationResult",
    "PowerlawFit", "PriorityTree", "communities", "community_conductances",
    "community_diameters", "conductance", "distance_stats",
    "infection_priority_tree", "navigate", "powerlaw_exponent",
    # experiment harness
    "ExperimentConfig", "ExperimentResult", "ConfigError", "attack_size",
    "default_config", "read_config", "run_experiment",
    # seeding
    "derive_seed", "derive_trial_seed", "rng_from", "splitmix64",
]
