"""Keyword-based influence maximization (paper §II-C, Scenario 1).

Given keywords ``W`` describing a topic, find the ``k`` seed users with
maximum influence spread under the induced γ. Four methods, from the
paper's narrative:

* :func:`naive_mc_im` — "compute pp_{u,v} for each edge given the query
  and then employ the traditional IM algorithms": per-query graph
  materialization + CELF greedy over Monte-Carlo spread. Extremely
  expensive; the reason OCTOPUS exists.
* :func:`naive_ris_im` — the stronger traditional baseline ([8]): fresh
  RIS sampling per query.
* :func:`naive_mia_im` — greedy over MIA spread with *no* bounds (every
  user's tree evaluated in round one); isolates the benefit of bounds.
* :func:`best_effort_im` — the paper's best-effort framework: PB/NB/LB
  upper bounds feed CELF so only promising users are ever evaluated.
  Output is identical to :func:`naive_mia_im` (guarantee preserved).
* :func:`topic_sample_im` — adds the offline topic-sample index: stored
  seed sets give warm starts + an ε tolerance, for the paper's
  "theoretical guarantee" variant with even fewer evaluations.
"""
from dataclasses import dataclass, field

import numpy as np

# ``mioa`` is not called here; it stays importable as ``keyword_im.mioa``
# because the perfbench tracer tests rebind and call it there.
from repro.core.mia import greedy_mia, mia_sigma, mioa  # noqa: F401
from repro.core.model import TopicAwareInfluenceModel
from repro.influence.bounds import Precomputed, best_upper_bounds
from repro.influence.celf import celf
from repro.influence.ris import ris_im
from repro.influence.samples import TopicSampleIndex, warm_start_candidates
from repro.influence.spread import mc_spread_local


@dataclass
class IMAnswer:
    """A keyword-IM result: seeds in greedy order + bookkeeping."""

    method: str
    keywords: list
    gamma: np.ndarray
    seeds: list
    spread: float            # objective value under the method's estimator
    n_exact_evals: int       # exact spread/tree evaluations performed
    mia_spread: float = float("nan")  # comparable MIA spread of the seed set


def _finish(model, method, keywords, gamma, seeds, spread, n_evals) -> IMAnswer:
    p_eff = model.edge_probs(gamma)
    return IMAnswer(
        method=method, keywords=list(keywords), gamma=gamma, seeds=list(seeds),
        spread=float(spread), n_exact_evals=int(n_evals),
        mia_spread=mia_sigma(model.graph, p_eff, seeds, model.theta),
    )


def naive_mc_im(
    model: TopicAwareInfluenceModel, keywords, k: int,
    *, n_samples: int = 100, seed: int = 0, candidates=None,
) -> IMAnswer:
    """The paper's straw-man: CELF over Monte-Carlo spread, from scratch,
    at query time. ``candidates`` may restrict the pool (benchmarks cap it
    — unrestricted MC-greedy is intractable, which is the point)."""
    gamma, p_eff = model.query_probs(keywords)
    g = model.graph
    cand = range(g.n) if candidates is None else candidates

    def marginal(u, seeds, state):
        base = state if state is not None else 0.0
        return (
            mc_spread_local(g, p_eff, list(seeds) + [u], n_samples=n_samples, seed=seed)
            - base
        )

    def state_update(seeds):
        if not seeds:
            return 0.0
        return mc_spread_local(g, p_eff, seeds, n_samples=n_samples, seed=seed)

    seeds, total, n_evals = celf(cand, marginal, k, state_update=state_update)
    return _finish(model, "naive-mc", keywords, gamma, seeds, total, n_evals)


def naive_ris_im(
    model: TopicAwareInfluenceModel, keywords, k: int,
    *, R: int = 2000, seed: int = 0,
) -> IMAnswer:
    """Traditional online baseline: fresh RIS per query ([8])."""
    gamma, p_eff = model.query_probs(keywords)
    seeds, est = ris_im(model.graph, p_eff, k, R=R, seed=seed)
    return _finish(model, "naive-ris", keywords, gamma, seeds, est, R)


def naive_mia_im(model: TopicAwareInfluenceModel, keywords, k: int) -> IMAnswer:
    """Exact greedy under MIA with no pruning — the reference answer the
    bounded methods must reproduce."""
    gamma, p_eff = model.query_probs(keywords)
    seeds, total, n_evals = greedy_mia(model.graph, p_eff, k, model.theta)
    return _finish(model, "naive-mia", keywords, gamma, seeds, total, n_evals)


def best_effort_im(
    model: TopicAwareInfluenceModel, pre: Precomputed, keywords, k: int,
    *, lb_refine_top: int = 0, radius: int = 2,
) -> IMAnswer:
    """Best-effort framework: CELF keyed by min(PB, NB[, LB]) bounds."""
    gamma, p_eff = model.query_probs(keywords)
    ub = best_upper_bounds(
        model.graph, p_eff, pre, lb_refine_top=lb_refine_top, radius=radius
    )
    seeds, total, n_evals = greedy_mia(
        model.graph, p_eff, k, model.theta, upper_bounds=ub
    )
    return _finish(model, "best-effort", keywords, gamma, seeds, total, n_evals)


def topic_sample_im(
    model: TopicAwareInfluenceModel, pre: Precomputed, index: TopicSampleIndex,
    keywords, k: int, *, epsilon: float = 0.05, m_nearest: int = 3,
    lb_refine_top: int = 0,
) -> IMAnswer:
    """Topic-sample accelerated variant: warm-start with the nearest
    precomputed seed sets and accept ε-near-greedy picks."""
    gamma, p_eff = model.query_probs(keywords)
    ub = best_upper_bounds(model.graph, p_eff, pre, lb_refine_top=lb_refine_top)
    warm = warm_start_candidates(index, gamma, m=m_nearest)[: 2 * k]
    seeds, total, n_evals = greedy_mia(
        model.graph, p_eff, k, model.theta, upper_bounds=ub, epsilon=epsilon, warm=warm
    )
    return _finish(model, "topic-sample", keywords, gamma, seeds, total, n_evals)
