"""Run one OCTOPUS benchmark workload and print its metrics.

    python3 perfbench/run.py --workload im_online --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, scaled to a reference host speed (see
:func:`calibrate`); ``--trace 1`` runs the same requests twice, untraced
and traced in alternating order, and reports the per-layer metrics and the
tracing overhead. A record of the run, and in a traced run its spans, go to
``perfbench/out/``. See ``perfbench/README.md``.
"""
import argparse
import gc
import json
import os
import resource
import shlex
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
#: Seconds of requests served untimed before the timed window, so that the
#: first calls' one-off costs and a cold core do not enter the figures.
WARMUP_S = 0.5
#: Iterations of the calibration loop, and the CPU seconds it takes at the
#: reference speed: the faster of the two speeds at which a 4-vCPU KVM
#: guest on a shared Intel Xeon host (2.1 GHz) runs it.
CAL_LOOP, CAL_REF_S = 40_000, 2.7e-3
#: The online phase calibrates between requests at most this often.
CAL_EVERY_S = 0.05

#: (name, unit) of what a ``--trace 0`` run prints, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"), ("query_p50_ms", "ms"), ("query_p90_ms", "ms"),
    ("throughput_qps", "1/s"), ("success_frac", "ratio"), ("peak_rss_mb", "MB"),
)
#: Every build a workload may run; each is reported as seconds per build.
BUILDS = (
    "bounds.precompute_s", "samples.build_s", "suggest.index_build_s",
    "em.fit_s", "graph.from_trials_s", "model.from_em_s",
)
#: (name, unit) of what a ``--trace 1`` run prints. Per request unless the
#: name ends in ``_s`` (per build) or is a ``spark.``/``trace.`` figure.
PER_LAYER = (
    ("mia.mioa_calls", "count"), ("mia.mioa_ms", "ms"), ("mia.tree_nodes", "count"),
    ("mia.miia_ms", "ms"), ("mia.extract_paths_ms", "ms"), ("mia.marginal_ms", "ms"),
    ("keyword_im.finish_ms", "ms"),
    ("celf.self_ms", "ms"), ("celf.evals", "count"), ("celf.prune_frac", "ratio"),
    ("bounds.upper_bounds_ms", "ms"), ("samples.warm_start_ms", "ms"),
    ("keywords.gamma_calls", "count"), ("keywords.gamma_ms", "ms"),
    ("keywords.candidates_ms", "ms"),
    ("model.edge_probs_calls", "count"), ("model.edge_probs_ms", "ms"),
    ("index.estimate_calls", "count"), ("index.estimate_ms", "ms"),
    ("index.pruned_frac", "ratio"),
    *((b, "s") for b in BUILDS), ("em.iter_s", "s"),
    ("spark.jobs", "count"), ("spark.stages", "count"), ("spark.tasks", "count"),
    ("spark.failed_tasks", "count"), ("spark.session_start_s", "s"),
    ("trace.overhead_frac", "ratio"), ("trace.covered_frac", "ratio"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("im_online", "suggest_online", "learn_explore"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def driver_memory() -> str:
    """``SPARK_DRIVER_MEM`` if set, else the repository's tier-1 rule:
    half of physical memory, clamped to 2–8 GiB."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
        return f"{min(8, max(2, kib // 2097152))}g"
    except (OSError, StopIteration, ValueError):
        return "2g"


def spark_env() -> dict:
    """Environment for the Spark JVM and its Python workers, set before
    pyspark starts the JVM: workers import ``repro`` from ``src/`` (setting
    ``sys.path`` alone does not reach them), and scratch files stay in the
    checkout."""
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    cores = min(4, len(os.sched_getaffinity(0)))
    info = {
        "master": f"local[{cores}]",
        "nproc": len(os.sched_getaffinity(0)),
        "driver_memory": driver_memory(),
    }
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    os.environ["TMPDIR"] = os.environ["SPARK_LOCAL_DIRS"] = str(scratch)
    # -XX:-UsePerfData: the JVM would otherwise write /tmp/hsperfdata_*.
    java_opts = shlex.quote(f"-Djava.io.tmpdir={scratch} -XX:-UsePerfData")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {info['master']} --driver-memory {info['driver_memory']} "
        f"--driver-java-options {java_opts} pyspark-shell")
    return info


def start_spark():
    from pyspark.sql import SparkSession

    t0 = time.perf_counter()
    spark = (
        SparkSession.builder.appName("octopus-perfbench")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark, time.perf_counter() - t0


def stop_spark(spark) -> None:
    """Stop the session, then the JVM, and wait for it to exit (the JVM
    leaves when its stdin closes; the Python workers go with it)."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        if proc := getattr(gateway, "proc", None):
            proc.stdin.close()
            proc.wait(timeout=60)


def spark_counts(sc, group: str) -> dict:
    """Jobs, stages, tasks and failed task attempts of one job group."""
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    st = sc.statusTracker()
    c = Counter()
    stages = set()
    for jid in st.getJobIdsForGroup(group):
        c["spark.jobs"] += 1
        stages.update(st.getJobInfo(jid).stageIds)
    for sid in stages:
        info = st.getStageInfo(sid)
        if info is None or info.numCompletedTasks + info.numFailedTasks == 0:
            continue                      # skipped: its output was reused
        c["spark.stages"] += 1
        c["spark.tasks"] += info.numCompletedTasks + info.numFailedTasks
        c["spark.failed_tasks"] += info.numFailedTasks
    return c


def run_builds(spark, workload) -> tuple:
    """Each build once, timed whole, in its own job group."""
    sc = spark.sparkContext
    times, counts = {}, Counter()
    for name, build in workload.builds(spark):
        group = f"perfbench-{name}"
        sc.setJobGroup(group, name)
        t0 = time.perf_counter()
        build()
        times[name] = time.perf_counter() - t0
        counts += spark_counts(sc, group)
    return times, counts


def calibrate() -> float:
    """The host's slowdown now: the CPU time of a fixed pure-Python loop
    over ``CAL_REF_S`` (1 at the reference speed; 1.5 when the loop takes
    half again as long).

    A shared host can run this process at speeds 1.5× apart, switching
    over seconds to minutes, which swings request latencies by more than
    any bound worth having. Each latency is therefore divided by the
    slowdown read around it. (Spark builds, spread over all cores, do not
    slow with this loop, so ``setup_s`` is not scaled.) The loop is the
    benchmark's own code and allocates nothing the garbage collector
    tracks; it counts this thread's CPU time, so neither a wait for a core
    nor another thread holding the GIL makes it read slower."""
    t0 = time.thread_time()
    s = 0
    for i in range(CAL_LOOP):
        s += i * i % 7
    return (time.thread_time() - t0) / CAL_REF_S


def execute(req) -> tuple:
    """Run one request; a raised exception is a failed request."""
    t0 = time.perf_counter()
    try:
        req.result = req.fn()
        ok = True
    except Exception:
        traceback.print_exc()
        ok = False
    return time.perf_counter() - t0, ok


def serve(workload, seconds: float, tracer=None) -> dict:
    """The closed loop: one client sends its next request when the last
    one is answered, untimed for ``WARMUP_S`` seconds, then timed until
    ``seconds`` more have passed. With a ``tracer``, each timed request
    runs untraced and traced, the order alternating. Warm-up requests
    count as attempted (and failed, if they raise) but have no latency.
    Between requests, at most every ``CAL_EVERY_S`` seconds, the loop
    reads the host slowdown; each completed request gets the mean of the
    readings before and after it (``slow``, beside ``lat``)."""
    lat, traced_lat, slow, served = [], [], [], []
    counters = Counter()
    attempted = failed = 0
    stream = workload.client()
    end = time.perf_counter() + WARMUP_S
    while time.perf_counter() < end:
        attempted += 1
        failed += not execute(next(stream))[1]
    t0 = cal_t = time.perf_counter()
    end = t0 + seconds
    cal = calibrate()
    for req in stream:
        now = time.perf_counter()
        if now - cal_t >= CAL_EVERY_S or now >= end:
            new = calibrate()
            slow += [(cal + new) / 2] * (len(lat) - len(slow))
            cal, cal_t = new, time.perf_counter()
        if now >= end:
            break
        attempted += 1
        if tracer is None:
            dt, ok = execute(req)
        else:
            tracer.request = attempted
            runs = {}
            for traced in ((False, True) if attempted % 2 else (True, False)):
                if traced:
                    with tracer.installed(), tracer.span("request"):
                        runs[True] = execute(req)
                else:
                    runs[False] = execute(req)
            dt, ok = runs[False][0], runs[False][1] and runs[True][1]
            if ok:
                traced_lat.append(runs[True][0])
        if not ok:
            failed += 1
            continue
        lat.append(dt)
        counters.update(workload.counters(req))
        if req.keep:
            served.append(req)
    return {"lat": lat, "traced_lat": traced_lat, "slow": slow, "served": served,
            "counters": counters, "attempted": attempted, "failed": failed,
            "elapsed": time.perf_counter() - t0}


def end_to_end(setup_s: float, online: dict) -> dict:
    """Latencies at the reference speed: each divided by its slowdown.
    Throughput is requests per second of such service time."""
    lat = [d / f for d, f in zip(online["lat"], online["slow"], strict=True)]
    return {
        "setup_s": setup_s,
        "query_p50_ms": statistics.median(lat) * 1e3,
        "query_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "throughput_qps": len(lat) / sum(lat),
        "success_frac": 1 - online["failed"] / online["attempted"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, online: dict, builds: dict, spark_stats: Counter,
              session_s: float, n_users: int, em_iters: int) -> tuple:
    """Per-request layer figures from the spans of the traced executions,
    per-build times, Spark counts, and the tracing overhead and coverage;
    also each span name's total self time, for :func:`claims`."""
    n = max(len(online["traced_lat"]), 1)
    calls, incl, own, nodes = Counter(), defaultdict(float), defaultdict(float), Counter()
    for s, st in zip(tracer.spans, tracer.self_times()):
        calls[s.name] += 1
        incl[s.name] += s.end - s.start
        own[s.name] += st
        nodes[s.name] += s.count or 0
    c = online["counters"]
    ms = lambda name: incl[name] / n * 1e3
    m = {
        "mia.mioa_calls": calls["mia.mioa"] / n,
        "mia.mioa_ms": ms("mia.mioa"),
        "mia.tree_nodes": nodes["mia.mioa"] / n,
        "mia.miia_ms": ms("mia.miia"),
        "mia.extract_paths_ms": ms("mia.extract_paths"),
        "mia.marginal_ms": ms("mia.marginal"),
        "keyword_im.finish_ms": ms("keyword_im.finish"),
        "celf.self_ms": own["celf"] / n * 1e3,
        "celf.evals": c["celf.evals"] / n,
        "celf.prune_frac": 1 - c["celf.evals"] / (n * n_users) if calls["celf"] else 0.0,
        "bounds.upper_bounds_ms": ms("bounds.upper_bounds"),
        "samples.warm_start_ms": ms("samples.warm_start"),
        "keywords.gamma_calls": calls["keywords.gamma"] / n,
        "keywords.gamma_ms": ms("keywords.gamma"),
        "keywords.candidates_ms": ms("keywords.candidates"),
        "model.edge_probs_calls": calls["model.edge_probs"] / n,
        "model.edge_probs_ms": ms("model.edge_probs"),
        "index.estimate_calls": calls["index.estimate"] / n,
        "index.estimate_ms": ms("index.estimate"),
        "index.pruned_frac": c["index.pruned"] / c["index.pairs"] if c["index.pairs"] else 0.0,
        **{b: builds.get(b, 0.0) for b in BUILDS},
        "em.iter_s": builds.get("em.fit_s", 0.0) / em_iters if em_iters else 0.0,
        **{k: spark_stats[k] for k in ("spark.jobs", "spark.stages", "spark.tasks",
                                       "spark.failed_tasks")},
        "spark.session_start_s": session_s,
        "trace.overhead_frac": (statistics.median(online["traced_lat"])
                                / statistics.median(online["lat"]) - 1),
        "trace.covered_frac": 1 - own["request"] / incl["request"],
    }
    return m, own


def claims(workload: str, m: dict, own: dict, setup_s: float) -> list:
    """The ROADMAP's profile claims this workload can test."""
    if workload == "im_online":
        layers = {k: v for k, v in own.items() if k != "request"}
        top = max(layers, key=layers.get)
        return [("mia.mioa has the largest self time in im_online queries",
                 top == "mia.mioa", f"largest: {top} "
                 f"({layers[top] / sum(own.values()):.0%} of traced request time)")]
    if workload == "suggest_online":
        return [("suggest_online runs no MIOA", m["mia.mioa_calls"] == 0,
                 f"mia.mioa_calls={m['mia.mioa_calls']}")]
    share = m["em.fit_s"] / setup_s
    return [("em.fit_s is most of setup_s on learn_explore", share > 0.5,
             f"em.fit_s/setup_s={share:.2f}")]


def main(argv=None) -> int:
    t_main = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    info = spark_env()
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    spark, session_s = start_spark()
    try:
        t0 = time.perf_counter()
        workload.load(spark)
        load_s = time.perf_counter() - t0
        builds, spark_stats = run_builds(spark, workload)
    finally:
        # The online tools run on the driver alone, as the real-time
        # engine does; an idle JVM and its workers beside them add noise.
        stop_spark(spark)
    tracer = Tracer() if args.trace else None
    gc.collect()                          # the builds' garbage is not the queries'
    online = serve(workload, args.seconds, tracer)
    t0 = time.perf_counter()
    problems = (workload.check(online["served"]) if online["served"]
                else ["no answer was kept for the correctness gate"])
    check_s = time.perf_counter() - t0

    setup_s = sum(builds.values())
    record = {**info, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "builds_s": builds,
              "online_slowdown_median": statistics.median(online["slow"]),
              "online_wall_p50_ms": statistics.median(online["lat"]) * 1e3,
              "online_wall_qps": len(online["lat"]) / online["elapsed"],
              "spark": dict(spark_stats),
              "spark_session_start_s": session_s, "load_s": load_s, "check_s": check_s,
              "main_s": time.perf_counter() - t_main,
              "requests": len(online["lat"]), "failed": online["failed"],
              "beyond_p90": len(online["lat"]) - int(0.9 * len(online["lat"])),
              "problems": problems, "latency_ms": [x * 1e3 for x in online["lat"]],
              "slowdown": online["slow"]}
    if args.trace:
        metrics, own = per_layer(tracer, online, builds, spark_stats, session_s,
                                 workload.model.graph.n, getattr(workload, "EM_ITERS", 0))
        record["claims"] = [
            {"claim": c, "holds": ok, "measured": why}
            for c, ok, why in claims(args.workload, metrics, own, setup_s)]
        units = dict(PER_LAYER)
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    else:
        metrics = end_to_end(setup_s, online)
        units = dict(END_TO_END)
    record["metrics"] = metrics
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps({k: v for k, v in record.items() if k not in ("metrics", "latency_ms", "slowdown")},
                     default=str), file=sys.stderr)
    for p in problems:
        print(f"perfbench: correctness: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": online["attempted"],
        "failed": online["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
