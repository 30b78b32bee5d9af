"""Personalized influential keywords suggestion (paper §II-D, [6]).

Given a target user, suggest the k-sized keyword set maximizing *that
user's* influence spread — their "selling points". NP-hard (even to
approximate within a constant), so OCTOPUS estimates spreads by sampling
with three efficiency devices, all reproduced here:

* **lazy propagation sampling** — per-sample edge randomness ``r_e`` is a
  *stateless* hash of (index seed, sample id, edge id), drawn only for
  edges a traversal actually touches; the same ``r_e`` is reused across
  every candidate keyword set, so comparisons between sets are coupled
  (low variance) and nothing is resampled per query.
* **influencer index** — for R uniformly sampled "monitor" users, the
  reverse-reachable subgraph under the permissive envelope
  ``r_e ≤ pp_max(e)`` is precomputed (a Spark fan-out job). Because
  ``pp_γ(e) ≤ pp_max(e)`` for every γ, any edge live under any query is
  in the stored subgraph; online evaluation never touches the full graph.
* **pruning + delayed materialization** — a sample is materialized for a
  query only if the target user is in its envelope subgraph at all;
  γ-live reachability is then computed on the tiny stored subgraph.

The estimator is unbiased: E[n/R · #{samples whose monitor the target
reaches}] = σ_γ({target}) under IC.
"""
import itertools
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.mia import mia_sigma_single
from repro.core.model import TopicAwareInfluenceModel
from repro.graphlib.builder import LocalGraph
from repro.influence.spread import mc_spread_local
from repro.topics.keywords import user_keywords

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def edge_uniform(seed: int, sample_id: int, eids: np.ndarray) -> np.ndarray:
    """Stateless U(0,1) per (seed, sample, edge) via splitmix64 — the
    lazy-propagation randomness, identical regardless of traversal order
    or which process computes it."""
    c1 = (0x9E3779B97F4A7C15 * (sample_id + 1)) & 0xFFFFFFFFFFFFFFFF
    c2 = (0xD1B54A32D192ED03 * (seed + 1)) & 0xFFFFFFFFFFFFFFFF
    x = eids.astype(np.uint64)
    x = (x + np.uint64(c1)) & _MASK
    x = (x + np.uint64(c2)) & _MASK
    x ^= x >> np.uint64(30)
    x = (x * np.uint64(0xBF58476D1CE4E5B9)) & _MASK
    x ^= x >> np.uint64(27)
    x = (x * np.uint64(0x94D049BB133111EB)) & _MASK
    x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)).astype(np.float64) / float(1 << 53)


@dataclass
class _Sample:
    """One monitor's stored envelope subgraph."""

    root: int
    eids: np.ndarray       # stored edge ids (global)
    src: np.ndarray
    dst: np.ndarray
    r: np.ndarray          # the coupled randomness of each stored edge
    probs: np.ndarray      # (m, Z) per-topic probs of stored edges
    nodes: frozenset       # envelope reverse-reachable node set (pruning)
    in_adj: dict           # dst -> list of stored-edge positions


def _reverse_envelope(graph: LocalGraph, p_max: np.ndarray, root: int,
                      seed: int, sample_id: int) -> np.ndarray:
    """Edge ids kept by a reverse BFS from ``root`` under r_e ≤ pp_max(e)."""
    found = {root}
    frontier = [root]
    kept: list = []
    while frontier:
        nxt = []
        for v in frontier:
            eids = graph.in_edges(v)
            if len(eids) == 0:
                continue
            live = eids[edge_uniform(seed, sample_id, eids) <= p_max[eids]]
            kept.extend(live.tolist())
            for e in live:
                u = int(graph.e_src[e])
                if u not in found:
                    found.add(u)
                    nxt.append(u)
        frontier = nxt
    return np.asarray(kept, dtype=np.int64)


def _sample(graph: LocalGraph, root: int, seed: int, sample_id: int, eids) -> _Sample:
    """A monitor's stored subgraph from its kept edge ids; ``r_e`` is
    stateless, so it is recomputed rather than stored or shipped."""
    eids = np.asarray(eids, dtype=np.int64)
    src, dst = graph.e_src[eids], graph.e_dst[eids]
    in_adj: dict = {}
    for pos, d in enumerate(dst.tolist()):
        in_adj.setdefault(d, []).append(pos)
    return _Sample(
        root=root, eids=eids, src=src, dst=dst, r=edge_uniform(seed, sample_id, eids),
        probs=graph.probs[eids], nodes=frozenset([root, *src.tolist()]), in_adj=in_adj,
    )


@dataclass
class InfluencerIndex:
    """R monitor samples with coupled envelope subgraphs."""

    n: int
    R: int
    seed: int
    samples: list  # of _Sample

    def estimate(self, user: int, gamma: np.ndarray) -> float:
        """σ̂_γ({user}) = n/R · #{samples whose monitor ``user`` reaches
        under r_e ≤ pp_γ(e)} — pruned by the envelope node sets."""
        hits = 0
        gamma = np.asarray(gamma, dtype=np.float64)
        for s in self.samples:
            if user not in s.nodes:
                continue  # pruning: not even envelope-reachable
            if user == s.root:
                hits += 1
                continue
            # Delayed materialization: γ-liveness only on the stored edges.
            live = s.r <= (s.probs @ gamma)
            found = {s.root}
            frontier = [s.root]
            reached = False
            while frontier and not reached:
                nxt = []
                for v in frontier:
                    for pos in s.in_adj.get(v, ()):
                        if not live[pos]:
                            continue
                        u = int(s.src[pos])
                        if u == user:
                            reached = True
                            break
                        if u not in found:
                            found.add(u)
                            nxt.append(u)
                    if reached:
                        break
                frontier = nxt
            hits += int(reached)
        return self.n * hits / self.R


def _monitor_roots(n: int, R: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, n, size=R)


def build_influencer_index_local(
    graph: LocalGraph, *, R: int = 200, seed: int = 0
) -> InfluencerIndex:
    """Driver-side index build (tests / tiny graphs)."""
    p_max = graph.max_probs()
    samples = [
        _sample(graph, int(root), seed, i, _reverse_envelope(graph, p_max, int(root), seed, i))
        for i, root in enumerate(_monitor_roots(graph.n, R, seed))
    ]
    return InfluencerIndex(n=graph.n, R=R, seed=seed, samples=samples)


def build_influencer_index_spark(
    spark: SparkSession, graph: LocalGraph, *, R: int = 200, seed: int = 0
) -> InfluencerIndex:
    """The offline Spark job: envelope subgraphs fanned out over sample
    ids with ``mapInPandas``; workers emit (sample_id, eid) rows and the
    driver reassembles — ``r_e`` is stateless, so nothing else needs to
    be shipped. Identical index to the local build."""
    roots = _monitor_roots(graph.n, R, seed)
    p_max = graph.max_probs()

    def run(batches):
        for pdf in batches:
            sids, eids = [], []
            for i in pdf["id"].tolist():
                kept = _reverse_envelope(graph, p_max, int(roots[i]), seed, i)
                sids.extend([i] * len(kept))
                eids.extend(kept.tolist())
            yield pd.DataFrame({"sample_id": sids, "eid": eids}, dtype=np.int64)

    rows = (
        spark.range(R)
        .repartition(min(R, 64))
        .mapInPandas(run, schema="sample_id long, eid long")
        .toPandas()
        .sort_values("eid")
    )
    eids_of = dict(tuple(rows.groupby("sample_id")["eid"]))
    samples = [
        _sample(graph, int(root), seed, i, eids_of.get(i, []))
        for i, root in enumerate(roots)
    ]
    return InfluencerIndex(n=graph.n, R=R, seed=seed, samples=samples)


@dataclass
class SuggestResult:
    """A Scenario-2 answer."""

    user: int
    method: str
    keywords: list
    gamma: np.ndarray
    est_spread: float
    n_estimates: int


def _estimator(model: TopicAwareInfluenceModel, user: int, method: str,
               index: InfluencerIndex | None, n_mc: int, seed: int):
    g = model.graph

    def est(gamma) -> float:
        if method == "index":
            return index.estimate(user, gamma)
        if method == "mc":
            return mc_spread_local(
                g, g.effective_probs(gamma), [user], n_samples=n_mc, seed=seed
            )
        if method == "mia":
            return mia_sigma_single(g, g.effective_probs(gamma), user, model.theta)
        raise ValueError(f"unknown estimator {method!r}")

    return est


def suggest_keywords(
    model: TopicAwareInfluenceModel,
    user: int,
    k: int,
    *,
    method: str = "index",
    index: InfluencerIndex | None = None,
    items_pdf: pd.DataFrame | None = None,
    candidates: list | None = None,
    pool_size: int = 20,
    n_mc: int = 100,
    seed: int = 0,
    exhaustive: bool = False,
) -> SuggestResult:
    """Suggest the k keywords (from the user's own item vocabulary) that
    maximize the user's spread.

    ``method`` selects the spread estimator: ``index`` (influencer index,
    the OCTOPUS engine), ``mc`` (from-scratch Monte-Carlo, the slow
    baseline), ``mia``, or ``freq`` (no spread — frequency baseline).
    ``exhaustive=True`` scores every k-subset (test-scale only);
    otherwise keywords are added greedily.
    """
    items = items_pdf if items_pdf is not None else model.items
    if candidates is None:
        if items is None:
            raise ValueError("need items_pdf or candidates")
        candidates = user_keywords(items, user, max_candidates=pool_size)
    if method == "freq":
        W = candidates[:k]
        gm = model.gamma(W)
        sp = (
            index.estimate(user, gm)
            if index is not None
            else mia_sigma_single(model.graph, model.edge_probs(gm), user, model.theta)
        )
        return SuggestResult(user=user, method="freq", keywords=W, gamma=gm,
                             est_spread=float(sp), n_estimates=1)
    est = _estimator(model, user, method, index, n_mc, seed)
    n_est = 0
    if exhaustive:
        best, best_sp, best_gm = None, -1.0, None
        for combo in itertools.combinations(candidates, min(k, len(candidates))):
            gm = model.gamma(list(combo))
            sp = est(gm)
            n_est += 1
            if sp > best_sp:
                best, best_sp, best_gm = list(combo), sp, gm
        return SuggestResult(user=user, method=f"exhaustive-{method}", keywords=best,
                             gamma=best_gm, est_spread=float(best_sp), n_estimates=n_est)
    W: list = []
    gm = model.gamma(W)
    cur = -1.0
    for _ in range(min(k, len(candidates))):
        best_w, best_sp, best_gm = None, -1.0, None
        for w in candidates:
            if w in W:
                continue
            cand_gm = model.gamma(W + [w])
            sp = est(cand_gm)
            n_est += 1
            if sp > best_sp:
                best_w, best_sp, best_gm = w, sp, cand_gm
        if best_w is None:
            break
        W.append(best_w)
        gm, cur = best_gm, best_sp
    return SuggestResult(user=user, method=f"greedy-{method}", keywords=W, gamma=gm,
                         est_spread=float(cur), n_estimates=n_est)
