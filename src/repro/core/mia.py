"""Maximum Influence Arborescence engine (paper §II-E, model of [4]).

OCTOPUS restricts influence paths of a user ``u`` to a tree rooted at
``u`` where the u→v path is the maximum-probability path, ignoring paths
below a threshold ``θ``. This module provides:

* :func:`mioa` / :func:`miia` — forward / reverse arborescences via
  Dijkstra on −log probabilities (the online path-exploration engine).
* :func:`mia_sigma` / :func:`mia_marginal` — per-seed-set spread and
  marginal gains under the standard MIA independent-path approximation
  ``ap(S,v) = 1 − Π_{s∈S}(1 − ap(s,v))``, which powers instant greedy IM.
* :func:`extract_paths` — the rows the d3js front-end would visualize
  (node, probability, depth, full path, first-hop cluster).
Path probabilities multiply, so Dijkstra runs on weights −log pp(e) and
prunes any partial path with probability < θ; each tree is tiny in
practice, which is what makes the engine "online". One truncated-Dijkstra
kernel serves MIOA, MIIA, the depth-capped LB bound and the offline σ_max
precompute (``influence/bounds.py``), so every index and bound is built
from exactly the trees the online engine sees.
"""
import heapq
from math import log

import numpy as np
import pandas as pd

from repro.graphlib.builder import LocalGraph


def mioa(graph: LocalGraph, p_eff: np.ndarray, root: int, theta: float = 0.01) -> dict:
    """Maximum-influence out-arborescence of ``root``.

    ``p_eff``: (E,) effective edge probabilities pp_γ. Returns
    ``{node: (prob, parent)}`` for every node whose max-prob path from
    ``root`` has probability ≥ theta; the root maps to ``(1.0, -1)``.
    """
    return _dijkstra(graph, p_eff, root, theta, forward=True)[0]


def miia(graph: LocalGraph, p_eff: np.ndarray, root: int, theta: float = 0.01) -> dict:
    """Maximum-influence in-arborescence: who influences ``root`` and how.
    Returns ``{node: (prob, parent)}`` where ``parent`` is the next hop
    from ``node`` toward ``root`` (i.e. the tree is over reversed edges)."""
    return _dijkstra(graph, p_eff, root, theta, forward=False)[0]


def _dijkstra(graph, p_eff, root, theta, *, forward, max_depth=None):
    """Truncated Dijkstra on −log p_eff from ``root`` over out-edges
    (``forward``) or in-edges. Nodes at hop depth ``max_depth`` are settled
    but not expanded. Returns ``({node: (prob, parent)}, {node: depth})``,
    depth being the hop count of the node's max-prob path."""
    lim = -log(theta) if theta > 0 else float("inf")
    cap = float("inf") if max_depth is None else max_depth
    dist = {root: 0.0}
    parent = {root: -1}
    depth = {root: 0}
    done = set()
    heap = [(0.0, root)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if depth[u] >= cap:
            continue
        eids = graph.out_edges(u) if forward else graph.in_edges(u)
        for e in eids:
            p = p_eff[e]
            if p <= 0.0:
                continue
            v = int(graph.e_dst[e] if forward else graph.e_src[e])
            nd = d - log(p)
            if nd <= lim + 1e-12 and nd < dist.get(v, float("inf")) - 1e-15:
                dist[v] = nd
                parent[v] = u
                depth[v] = depth[u] + 1
                heapq.heappush(heap, (nd, v))
    return {v: (float(np.exp(-d)), parent[v]) for v, d in dist.items()}, depth


def mia_sigma_single(graph: LocalGraph, p_eff: np.ndarray, u: int, theta: float = 0.01) -> float:
    """σ(u) for a single seed: sum of path probabilities over its MIOA."""
    return float(sum(p for p, _ in mioa(graph, p_eff, u, theta).values()))


def mia_sigma(graph: LocalGraph, p_eff: np.ndarray, seeds, theta: float = 0.01) -> float:
    """Seed-set spread under the MIA independent-path approximation."""
    ap = _ap_map(mioa(graph, p_eff, s, theta) for s in seeds)
    return float(sum(ap.values()))


def _ap_map(trees) -> dict:
    """Per-node activation probability ap(S, v) = 1 − Π (1 − ap(s, v))
    from the seeds' MIOA trees."""
    one_minus: dict = {}
    for tree in trees:
        for v, (p, _) in tree.items():
            one_minus[v] = one_minus.get(v, 1.0) * (1.0 - p)
    return {v: 1.0 - om for v, om in one_minus.items()}


def mia_marginal(graph: LocalGraph, p_eff: np.ndarray, u: int, ap_seeds: dict,
                 theta: float = 0.01, tree: dict | None = None) -> float:
    """Marginal gain Δσ(u | S) given ``ap_seeds`` = ap(S, ·) map.

    Under the independence approximation,
    Δ = Σ_{v ∈ MIOA(u)} (1 − ap(S, v)) · ap(u, v).
    ``tree`` (u's MIOA) may be passed to reuse a cached tree.
    """
    if tree is None:
        tree = mioa(graph, p_eff, u, theta)
    return float(
        sum((1.0 - ap_seeds.get(v, 0.0)) * p for v, (p, _) in tree.items())
    )


def greedy_mia(graph: LocalGraph, p_eff: np.ndarray, k: int, theta: float = 0.01,
               candidates=None, *, upper_bounds=None, epsilon: float = 0.0,
               warm=None) -> tuple:
    """CELF greedy IM under MIA. With no ``upper_bounds`` it is plain
    greedy, the exact-answer reference that best-effort/topic-sample
    variants must reproduce; ``upper_bounds``, ``epsilon`` and ``warm``
    (warm-start candidates) pass through to :func:`celf`.

    Each candidate's MIOA is built once and reused for every marginal gain
    and, once it is a seed, for ap(S, ·).
    Returns ``(seeds, spread, n_tree_evals)``.
    """
    from repro.influence.celf import celf

    trees: dict = {}

    def tree_of(u):
        if u not in trees:
            trees[u] = mioa(graph, p_eff, u, theta)
        return trees[u]

    def marginal(u, seeds, ap_state):
        return mia_marginal(graph, p_eff, u, ap_state, theta, tree=tree_of(u))

    cand = range(graph.n) if candidates is None else candidates
    return celf(
        cand, marginal, k,
        upper_bounds=upper_bounds,
        state_update=lambda seeds: _ap_map(tree_of(s) for s in seeds),
        epsilon=epsilon,
        warm_start=warm,
    )


def extract_paths(tree: dict, root: int) -> pd.DataFrame:
    """Flatten an arborescence into visualization rows.

    Columns: node, prob, depth, path (root→node list), cluster (the
    first hop after the root — the demo's influence 'clusters').
    """
    rows = []
    for v, (p, _) in tree.items():
        path = [v]
        while path[-1] != root:
            path.append(tree[path[-1]][1])
        path.reverse()
        cluster = path[1] if len(path) > 1 else root
        rows.append((v, p, len(path) - 1, path, cluster))
    return (
        pd.DataFrame(rows, columns=["node", "prob", "depth", "path", "cluster"])
        .sort_values(["depth", "node"])
        .reset_index(drop=True)
    )

