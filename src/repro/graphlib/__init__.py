"""Graph substrate: construction of social-graph DataFrames from action
logs and the collected CSR ``LocalGraph`` the online engine runs on."""

from repro.graphlib.builder import (  # noqa: F401
    LocalGraph,
    degree_stats,
    edges_with_array_probs,
    graph_from_trials,
    local_graph_from_network,
)
