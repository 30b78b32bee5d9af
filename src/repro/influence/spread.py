"""Monte-Carlo influence spread under the independent cascade model.

The ground-truth estimator every faster method is validated against, and
the engine inside the paper's naive baseline ("compute pp_{u,v} for each
edge given the query and then employ the traditional IM algorithms").

Sampling is *coupled by sample id*: sample ``i`` always uses the RNG
stream ``default_rng(seed * 1_000_003 + i)``, so the local kernel and the
Spark ``mapInPandas`` fan-out produce bitwise-identical simulations and
their means are exactly equal — the distribution of work is testable.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.graphlib.builder import LocalGraph


def _sample_rng(seed: int, sample_id: int) -> np.random.Generator:
    return np.random.default_rng(seed * 1_000_003 + sample_id)


def simulate_cascade(
    graph: LocalGraph, p_eff: np.ndarray, seeds, rng: np.random.Generator
) -> set:
    """One IC cascade: lazily draw each out-edge of a newly activated node
    once (live-edge semantics); returns the activated node set."""
    active = set(int(s) for s in seeds)
    frontier = list(active)
    while frontier:
        nxt = []
        for u in frontier:
            eids = graph.out_edges(u)
            if len(eids) == 0:
                continue
            draws = rng.random(len(eids))
            for e, r in zip(eids, draws):
                if r < p_eff[e]:
                    v = int(graph.e_dst[e])
                    if v not in active:
                        active.add(v)
                        nxt.append(v)
        frontier = nxt
    return active


def mc_spread_local(
    graph: LocalGraph,
    p_eff: np.ndarray,
    seeds,
    *,
    n_samples: int = 200,
    seed: int = 0,
) -> float:
    """Mean activated-set size over ``n_samples`` coupled cascades."""
    total = 0
    for i in range(n_samples):
        total += len(simulate_cascade(graph, p_eff, seeds, _sample_rng(seed, i)))
    return total / n_samples


def mc_spread_samples_spark(
    spark: SparkSession,
    graph: LocalGraph,
    p_eff: np.ndarray,
    seeds,
    *,
    n_samples: int = 200,
    seed: int = 0,
) -> DataFrame:
    """Distributed cascade fan-out: one row per sample id, simulated in
    ``mapInPandas`` workers over the (closure-captured) graph.
    Returns (sample_id, activated)."""
    seeds = [int(s) for s in seeds]
    p_eff = np.asarray(p_eff, dtype=np.float64)

    def run(batches):
        for pdf in batches:
            ids = pdf["id"].to_numpy()
            out = [
                len(simulate_cascade(graph, p_eff, seeds, _sample_rng(seed, int(i))))
                for i in ids
            ]
            yield pd.DataFrame({"sample_id": ids, "activated": out})

    return spark.range(n_samples).mapInPandas(
        run, schema="sample_id long, activated long"
    )


def mc_spread_spark(
    spark: SparkSession,
    graph: LocalGraph,
    p_eff: np.ndarray,
    seeds,
    *,
    n_samples: int = 200,
    seed: int = 0,
) -> float:
    """Distributed mean spread; exactly equals :func:`mc_spread_local`
    with the same arguments (coupled sampling)."""
    df = mc_spread_samples_spark(
        spark, graph, p_eff, seeds, n_samples=n_samples, seed=seed
    )
    row = df.agg({"activated": "avg"}).collect()[0]
    return float(row[0])
