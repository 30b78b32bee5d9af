"""Reverse Influence Sampling (RIS) — the TIM/IMM-family machinery the
paper cites as [8] (Tang, Xiao, Shi, SIGMOD 2014).

A reverse-reachable (RR) set for a uniformly random root ``v`` is the set
of nodes with a live path *to* ``v`` in a sampled live-edge graph; a seed
set covering many RR sets has large spread: E[n · coverage/R] = σ(S).
Used here (a) as an IM baseline and (b) inside the influencer index of
the keyword-suggestion tool (coupled, topic-aware variant lives in
``core/keyword_suggest.py``).
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.graphlib.builder import LocalGraph


def _rr_rng(seed: int, set_id: int) -> np.random.Generator:
    return np.random.default_rng(seed * 7_368_787 + set_id)


def rr_set(
    graph: LocalGraph, p_eff: np.ndarray, root: int, rng: np.random.Generator
) -> set:
    """One RR set: reverse BFS from ``root``, drawing each in-edge lazily."""
    found = {int(root)}
    frontier = [int(root)]
    while frontier:
        nxt = []
        for v in frontier:
            eids = graph.in_edges(v)
            if len(eids) == 0:
                continue
            draws = rng.random(len(eids))
            for e, r in zip(eids, draws):
                if r < p_eff[e]:
                    u = int(graph.e_src[e])
                    if u not in found:
                        found.add(u)
                        nxt.append(u)
        frontier = nxt
    return found


def rr_sets_local(
    graph: LocalGraph,
    p_eff: np.ndarray,
    *,
    R: int = 500,
    seed: int = 0,
) -> list:
    """R RR sets with uniformly random roots, coupled by set id."""
    out = []
    for i in range(R):
        rng = _rr_rng(seed, i)
        root = int(rng.integers(0, graph.n))
        out.append(rr_set(graph, p_eff, root, rng))
    return out


def rr_sets_spark(
    spark: SparkSession,
    graph: LocalGraph,
    p_eff: np.ndarray,
    *,
    R: int = 500,
    seed: int = 0,
) -> DataFrame:
    """Distributed RR-set generation: (set_id, node) rows, one group per
    sampled root — identical sets to :func:`rr_sets_local` (coupled)."""
    p_eff = np.asarray(p_eff, dtype=np.float64)

    def run(batches):
        for pdf in batches:
            ids, nodes = [], []
            for i in pdf["id"].to_numpy():
                rng = _rr_rng(seed, int(i))
                root = int(rng.integers(0, graph.n))
                s = rr_set(graph, p_eff, root, rng)
                ids.extend([int(i)] * len(s))
                nodes.extend(sorted(s))
            yield pd.DataFrame({"set_id": ids, "node": nodes})

    return spark.range(R).mapInPandas(run, schema="set_id long, node long")


def greedy_max_cover(rr_sets: list, k: int, n: int) -> tuple:
    """Greedy max-cover over RR sets.

    Returns ``(seeds, est_spread)`` where est_spread = n · covered / R —
    the unbiased RIS spread estimate of the selected set.
    """
    R = len(rr_sets)
    if R == 0:
        return [], 0.0
    covering: dict = {}
    for i, s in enumerate(rr_sets):
        for u in s:
            covering.setdefault(u, []).append(i)
    covered = np.zeros(R, dtype=bool)
    gains = {u: len(ids) for u, ids in covering.items()}
    seeds = []
    for _ in range(min(k, len(gains))):
        u = max(gains, key=lambda x: (gains[x], -x))
        if gains[u] == 0:
            break
        seeds.append(u)
        for i in covering[u]:
            if not covered[i]:
                covered[i] = True
                for w in rr_sets[i]:
                    gains[w] -= 1
        del gains[u]
    return seeds, float(n * covered.sum() / R)


def ris_im(
    graph: LocalGraph,
    p_eff: np.ndarray,
    k: int,
    *,
    R: int = 1000,
    seed: int = 0,
) -> tuple:
    """RIS influence maximization baseline: (seeds, estimated spread)."""
    sets = rr_sets_local(graph, p_eff, R=R, seed=seed)
    return greedy_max_cover(sets, k, graph.n)
