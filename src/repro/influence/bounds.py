"""Upper-bound estimation for the best-effort framework (paper §II-C).

The paper: "we devise precomputation based, local graph based, and
neighborhood based methods" for "effective bound estimation". All three
are implemented here, with validity proved under the MIA spread model
(DESIGN.md §4) from the envelope pp_γ(e) ≤ pp_max(e) := max_z pp^z_e:

* **PB** (precomputation-based): σ_γ(u) ≤ σ_max(u), the MIA spread on the
  query-independent max-prob graph — precomputed offline for every user
  with the online MIOA kernel, one tree per root, fanned out over root
  ranges with ``mapInPandas`` (or looped on the driver).
* **NB** (neighborhood-based): σ_γ(u) ≤ 1 + Σ_{v∈N_out(u)} pp_γ(u,v)·σ_max(v)
  — every max-prob path factors through a first hop. O(out-degree) per
  user, fully vectorized across all users.
* **LB** (local-graph-based): exact MIA inside a radius-``r`` ball around
  ``u`` under the *query* probabilities, plus the boundary tail
  Σ_{v at depth r} ap_γ(u,v)·(σ_max(v) − 1). Tightest, costs one run of
  the MIOA kernel capped at depth r — used to refine the most promising
  candidates.
"""
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.mia import _dijkstra, mioa
from repro.graphlib.builder import LocalGraph


@dataclass
class Precomputed:
    """Offline per-user index on the max-prob graph: σ_max and MIA tree
    size (|{v : ap_max(u,v) ≥ θ}|), plus the θ it was built with."""

    sigma_max: np.ndarray   # (n,)
    tree_size: np.ndarray   # (n,)
    theta: float


def _root_stats(graph: LocalGraph, p_max: np.ndarray, roots, theta: float) -> tuple:
    """σ_max (sum of path probabilities) and size of each root's MIOA on
    the max-prob graph: the per-root loop both precompute paths run."""
    sigma = np.empty(len(roots))
    size = np.empty(len(roots), dtype=np.int64)
    for i, u in enumerate(roots):
        tree = mioa(graph, p_max, int(u), theta)
        sigma[i] = sum(p for p, _ in tree.values())
        size[i] = len(tree)
    return sigma, size


def precompute_local(graph: LocalGraph, *, theta: float = 0.01) -> Precomputed:
    """Driver-side precompute (small graphs, tests): one MIOA per root."""
    sigma, size = _root_stats(graph, graph.max_probs(), range(graph.n), theta)
    return Precomputed(sigma_max=sigma, tree_size=size, theta=theta)


def precompute_spark(
    spark: SparkSession, graph: LocalGraph, *, theta: float = 0.01
) -> Precomputed:
    """The offline Spark job: :func:`precompute_local`'s per-root loop
    fanned out over root ranges with ``mapInPandas``, one range per
    default-parallelism slot; identical output to the local build."""
    p_max = graph.max_probs()

    def run(batches):
        for pdf in batches:
            roots = pdf["id"].to_numpy()
            sigma, size = _root_stats(graph, p_max, roots, theta)
            yield pd.DataFrame({"root": roots, "sigma": sigma, "tree_size": size})

    n_parts = max(1, min(graph.n, spark.sparkContext.defaultParallelism))
    out = (
        spark.range(graph.n, numPartitions=n_parts)
        .mapInPandas(run, schema="root long, sigma double, tree_size long")
        .toPandas()
        .sort_values("root")
    )
    return Precomputed(
        sigma_max=out["sigma"].to_numpy(), tree_size=out["tree_size"].to_numpy(),
        theta=theta,
    )


def pb_bounds(pre: Precomputed) -> np.ndarray:
    """(n,) precomputation-based bound: σ_max, query-independent."""
    return pre.sigma_max


def nb_bounds(graph: LocalGraph, p_eff: np.ndarray, pre: Precomputed) -> np.ndarray:
    """(n,) neighborhood-based bound 1 + Σ pp_γ(u,v)·σ_max(v), vectorized
    as one scatter-add over the edge list."""
    contrib = p_eff * pre.sigma_max[graph.e_dst]
    b = np.ones(graph.n)
    np.add.at(b, graph.e_src, contrib)
    return b


def lb_bound(
    graph: LocalGraph,
    p_eff: np.ndarray,
    pre: Precomputed,
    u: int,
    *,
    radius: int = 2,
    theta: float = 0.01,
) -> float:
    """Local-graph bound for one user: exact MIA in the radius-``r`` ball
    under the query probabilities + σ_max boundary tail."""
    tree, depth = _dijkstra(graph, p_eff, u, theta, forward=True, max_depth=radius)
    total = 0.0
    for v, (ap, _) in tree.items():
        total += ap
        if depth[v] == radius:
            total += ap * max(pre.sigma_max[v] - 1.0, 0.0)
    return total


def best_upper_bounds(
    graph: LocalGraph,
    p_eff: np.ndarray,
    pre: Precomputed,
    *,
    lb_refine_top: int = 0,
    radius: int = 2,
) -> np.ndarray:
    """(n,) combined bound min(PB, NB), optionally tightened with LB on
    the ``lb_refine_top`` largest candidates (LB costs a small Dijkstra
    each, so it is spent where it matters)."""
    ub = np.minimum(pb_bounds(pre), nb_bounds(graph, p_eff, pre))
    if lb_refine_top > 0:
        top = np.argsort(-ub)[:lb_refine_top]
        for u in top:
            ub[u] = min(
                ub[u], lb_bound(graph, p_eff, pre, int(u), radius=radius, theta=pre.theta)
            )
    return ub


def nb_bounds_spark(
    spark: SparkSession, edges_df: DataFrame, sigma_df: DataFrame
) -> DataFrame:
    """NB bound as a Spark dataflow (oracle-checkable): edges (src,dst,p)
    ⋈ per-user σ_max (user_id, sigma_max) → (user_id, nb_bound)."""
    joined = edges_df.join(
        sigma_df.withColumnRenamed("user_id", "dst"), "dst"
    ).select("src", (F.col("p") * F.col("sigma_max")).alias("contrib"))
    return (
        joined.groupBy(F.col("src").alias("user_id"))
        .agg((F.lit(1.0) + F.sum("contrib")).alias("nb_bound"))
        .orderBy("user_id")
    )
