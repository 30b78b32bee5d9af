"""Bound families: validity (dominate exact MIA spreads for arbitrary
queries), local↔Spark precompute equality, and DuckDB oracles for the
precompute (recursive CTE on a DAG) and the NB dataflow."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mia import mia_sigma_single
from repro.graphlib.builder import LocalGraph, effective_edges_pdf
from repro.influence.bounds import (
    best_upper_bounds,
    lb_bound,
    nb_bounds,
    nb_bounds_spark,
    pb_bounds,
    precompute_local,
    precompute_spark,
)
from repro.oracle import assert_equivalent
from tests.conftest import random_local_graph


def dirichlet_gamma(seed, Z):
    return np.random.default_rng(seed).dirichlet(np.full(Z, 0.5))


class TestPrecompute:
    def test_sigma_at_least_one(self, pre):
        assert (pre.sigma_max >= 1.0 - 1e-12).all()
        assert (pre.tree_size >= 1).all()

    def test_sigma_bounded_by_tree_size(self, pre):
        assert (pre.sigma_max <= pre.tree_size + 1e-9).all()

    def test_spark_matches_local(self, spark, graph):
        loc = precompute_local(graph, theta=0.05)
        dist = precompute_spark(spark, graph, theta=0.05)
        assert np.array_equal(loc.sigma_max, dist.sigma_max)
        assert np.array_equal(loc.tree_size, dist.tree_size)

    def test_spark_dag_oracle_recursive_cte(self, spark):
        """On a DAG, σ_max and tree size equal DuckDB's recursive CTE over
        every θ-surviving path (max probability per root and node)."""
        g = np.random.default_rng(0)
        rows = []
        for s in range(12):
            for d in range(s + 1, 12):
                if g.random() < 0.3:
                    rows.append((s, d, round(float(g.random() * 0.9 + 0.05), 3)))
        pdf = pd.DataFrame(rows, columns=["src", "dst", "p"])
        graph = LocalGraph.from_edges(pdf["src"], pdf["dst"], pdf["p"], n=12)
        pre = precompute_spark(spark, graph, theta=0.001)
        got = spark.createDataFrame(pd.DataFrame({
            "root": np.arange(12), "sigma": pre.sigma_max, "tree_size": pre.tree_size,
        }))
        assert_equivalent(
            got,
            """
            WITH RECURSIVE walk(root, node, prob) AS (
                SELECT range, range, CAST(1.0 AS DOUBLE) FROM range(12)
                UNION ALL
                SELECT w.root, e.dst, w.prob * e.p
                FROM walk w JOIN edges e ON w.node = e.src
                WHERE w.prob * e.p >= 0.001
            ),
            best AS (SELECT root, node, max(prob) AS prob FROM walk GROUP BY root, node)
            SELECT root, sum(prob) AS sigma, count(*) AS tree_size
            FROM best GROUP BY root ORDER BY root
            """,
            edges=pdf,
        )


@pytest.mark.parametrize("qseed", [0, 1, 2, 3])
class TestValidity:
    """Every family dominates the exact per-user MIA spread."""

    def _setup(self, graph, pre, qseed):
        gm = dirichlet_gamma(qseed, graph.Z)
        p_eff = graph.effective_probs(gm)
        users = np.random.default_rng(qseed).choice(graph.n, 40, replace=False)
        exact = np.array(
            [mia_sigma_single(graph, p_eff, int(u), pre.theta) for u in users]
        )
        return p_eff, users, exact

    def test_pb(self, graph, pre, qseed):
        p_eff, users, exact = self._setup(graph, pre, qseed)
        assert (pb_bounds(pre)[users] >= exact - 1e-9).all()

    def test_nb(self, graph, pre, qseed):
        p_eff, users, exact = self._setup(graph, pre, qseed)
        assert (nb_bounds(graph, p_eff, pre)[users] >= exact - 1e-9).all()

    def test_lb(self, graph, pre, qseed):
        p_eff, users, exact = self._setup(graph, pre, qseed)
        lb = np.array(
            [lb_bound(graph, p_eff, pre, int(u), radius=2, theta=pre.theta)
             for u in users]
        )
        assert (lb >= exact - 1e-9).all()

    def test_min_combination(self, graph, pre, qseed):
        p_eff, users, exact = self._setup(graph, pre, qseed)
        ub = best_upper_bounds(graph, p_eff, pre)
        assert (ub[users] >= exact - 1e-9).all()


class TestBoundShapes:
    def test_nb_isolated_node_is_one(self):
        g = random_local_graph(1, n=10, Z=2)
        pre = precompute_local(g, theta=0.01)
        p = g.effective_probs(np.array([0.5, 0.5]))
        nb = nb_bounds(g, p, pre)
        sinks = [u for u in range(g.n) if len(g.out_edges(u)) == 0]
        for u in sinks:
            assert abs(nb[u] - 1.0) < 1e-12

    def test_lb_refinement_never_loosens(self, graph, pre):
        gm = dirichlet_gamma(5, graph.Z)
        p_eff = graph.effective_probs(gm)
        base = best_upper_bounds(graph, p_eff, pre)
        refined = best_upper_bounds(graph, p_eff, pre, lb_refine_top=20)
        assert (refined <= base + 1e-12).all()

    def test_lb_radius_zero_is_sigma_style_bound(self, graph, pre):
        """radius=0: bound collapses to 1·σ_max(u) (the PB value)."""
        gm = dirichlet_gamma(6, graph.Z)
        p_eff = graph.effective_probs(gm)
        for u in (0, 5, 11):
            b = lb_bound(graph, p_eff, pre, u, radius=0, theta=pre.theta)
            assert abs(b - pre.sigma_max[u]) < 1e-9


class TestNbSpark:
    def test_matches_numpy_and_oracle(self, spark, graph, pre):
        gm = dirichlet_gamma(7, graph.Z)
        p_eff = graph.effective_probs(gm)
        edges_pdf = effective_edges_pdf(graph, gm)
        sigma_pdf = pd.DataFrame(
            {"user_id": np.arange(graph.n), "sigma_max": pre.sigma_max}
        )
        got = nb_bounds_spark(
            spark,
            spark.createDataFrame(edges_pdf),
            spark.createDataFrame(sigma_pdf),
        )
        # numpy equivalence (for users that have out-edges)
        nb = nb_bounds(graph, p_eff, pre)
        pdf = got.toPandas()
        for r in pdf.itertuples():
            assert abs(r.nb_bound - nb[int(r.user_id)]) < 1e-9
        # DuckDB oracle on the dataflow itself
        assert_equivalent(
            got,
            """
            SELECT e.src AS user_id,
                   1.0 + sum(e.p * s.sigma_max) AS nb_bound
            FROM edges e JOIN sigma s ON e.dst = s.user_id
            GROUP BY e.src ORDER BY user_id
            """,
            edges=edges_pdf,
            sigma=sigma_pdf,
        )
