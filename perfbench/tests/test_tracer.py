"""Tests of the benchmark's own tracer, closed loop and request streams.

    python -m pytest perfbench/tests -q
"""
import json
import sys
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[0:0] = [str(ROOT), str(ROOT / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from perfbench import run  # noqa: E402
from perfbench.tracer import Tracer, active_wrappers, self_time  # noqa: E402
from perfbench.workloads import Z, ImOnline, Request, SuggestOnline  # noqa: E402
from repro import synth_data as sd  # noqa: E402
from repro.core import keyword_im, mia  # noqa: E402
from repro.graphlib.builder import LocalGraph, local_graph_from_network  # noqa: E402
from repro.influence import bounds  # noqa: E402


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
    t = Tracer(clock=lambda: next(ticks))
    with t.span("root"):
        with t.span("a"):
            with t.span("a1"):
                pass
        with t.span("b"):
            pass
    names = [s.name for s in t.spans]
    assert names == ["root", "a", "a1", "b"]
    assert [s.parent for s in t.spans] == [None, 0, 1, 0]
    assert t.self_times() == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlap_once_and_clips_to_span():
    assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == 3.0
    assert self_time(0.0, 10.0, []) == 10.0


@pytest.fixture(scope="module")
def graph() -> LocalGraph:
    return local_graph_from_network(sd.social_network(sf=0.002, Z=3, seed=1))


def test_rebinding_reaches_every_importer_and_restores(graph):
    original = mia.mioa
    assert keyword_im.mioa is original and bounds.mioa is original
    p = graph.effective_probs(np.full(graph.Z, 1 / graph.Z))
    t = Tracer()
    with t.installed():
        for module in (mia, keyword_im, bounds):
            assert module.mioa is not original
            assert module.mioa.__perfbench_span__ == "mia.mioa"
        keyword_im.mioa(graph, p, 0)              # the CELF path's copy
        bounds.precompute_local(graph)            # the σ_max mirror's copy
        mia.mia_sigma_single(graph, p, 0)         # the defining module
        graph.effective_probs(np.full(graph.Z, 1 / graph.Z))
    assert mia.mioa is original
    assert keyword_im.mioa is original and bounds.mioa is original
    assert active_wrappers() == []
    names = [s.name for s in t.spans]
    assert names.count("mia.mioa") == 1 + graph.n + 1
    assert names.count("model.edge_probs") == 1
    assert all(s.count >= 1 for s in t.spans if s.name == "mia.mioa")


def _serve_probe(tracer):
    """Serve requests that record which span wrappers are installed;
    return what each call saw and the number of timed requests."""
    seen = []

    class Probe:
        def client(self):
            while True:
                yield Request(lambda: seen.append(active_wrappers()), {})

        def counters(self, req):
            return {}

    out = run.serve(Probe(), 0.2, tracer)
    assert out["failed"] == 0 and len(out["lat"]) > 0
    assert len(out["slow"]) == len(out["lat"]) and min(out["slow"]) > 0
    return seen, len(out["lat"])


def test_untraced_run_installs_no_wrappers():
    seen, timed = _serve_probe(None)
    assert len(seen) > timed and all(w == [] for w in seen)


def test_traced_run_pairs_untraced_and_traced_executions():
    seen, timed = _serve_probe(Tracer())
    warm, pairs = seen[:-2 * timed], seen[-2 * timed:]
    assert warm and all(w == [] for w in warm)
    assert all(bool(a) != bool(b) for a, b in zip(pairs[::2], pairs[1::2]))
    traced = [w for w in pairs if w]
    assert "repro.core.keyword_im.mioa" in traced[0]
    assert "repro.graphlib.builder.LocalGraph.effective_probs" in traced[0]
    assert active_wrappers() == []


def test_end_to_end_scales_each_latency_by_its_slowdown():
    online = {"lat": [0.002] * 6 + [0.003] * 4, "slow": [2.0] * 6 + [1.0] * 4,
              "failed": 0, "attempted": 10}
    m = run.end_to_end(12.0, online)
    assert m["setup_s"] == 12.0
    assert m["query_p50_ms"] == pytest.approx(1.0)
    assert m["query_p90_ms"] == pytest.approx(3.0)
    assert m["throughput_qps"] == pytest.approx(10 / (6 * 0.001 + 4 * 0.003))


def test_im_online_stream_is_total():
    """The keyword-query stream goes on past its distinct queries (a
    1-word slot runs out after 384) and repeats none before that."""
    w = ImOnline(seed=3)
    w.net = type("Net", (), {"topic_names": [f"t{z}" for z in range(Z)]})
    queries = [frozenset(r.info["keywords"]) for r in islice(w.client(), 2000)]
    assert len(queries) == 2000
    assert len(set(queries[:384])) == 384
    assert {len(q) for q in queries} == {1, 2, 3}


def test_suggest_stream_covers_the_distribution_in_any_window():
    """Any 64 consecutive targets hold 8 from each eighth of the schedule,
    which runs from the most to the fewest items."""
    w = SuggestOnline(seed=3)
    w.authors = np.arange(1024)
    w.cum_share = (np.arange(1024) + 1) / 1024
    users = np.array([r.info["user"] for r in islice(w.client(), 400)])
    for start in range(len(users) - 64):
        eighths = np.bincount(users[start:start + 64] * 8 // 1024, minlength=8)
        assert (eighths == 8).all()


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
