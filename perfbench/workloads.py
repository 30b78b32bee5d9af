"""The three workloads. Each pairs offline Spark builds (the write path,
timed as ``setup_s``) with one online tool driven by one closed-loop client
(the read path).

A workload object is made from the workload seed and goes through four
steps, which ``run.py`` drives and times:

* ``load(spark)`` makes the inputs from ``repro.synth_data`` and lifts them
  into Spark. Input generation is load generation: it is not timed.
* ``builds(spark)`` lists ``(per-layer metric, callable)`` pairs; each build
  runs once, timed whole, in its own Spark job group.
* ``client()`` yields :class:`Request` objects. The client may read the
  previous request's ``result`` to choose the next one (a click).
* ``check(served)`` is the correctness gate, run after the timed phase on
  the requests kept in ``served``; it returns the problems found.

Requests call the program through its public names, looked up on the
module (``mia.mioa``), so that the traced run's rebinding sees them.
"""
import itertools
import math
from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from repro import synth_data as sd
from repro.core import keyword_im, mia
from repro.core.keyword_suggest import build_influencer_index_spark, suggest_keywords
from repro.core.model import TopicAwareInfluenceModel
from repro.graphlib.builder import graph_from_trials
from repro.influence.bounds import precompute_spark
from repro.influence.samples import build_topic_samples_spark
from repro.topics.em import em_fit_spark
from repro.topics.keywords import user_keywords

#: The ROADMAP's bench scale: Z topics, k seeds, MIA threshold θ.
Z, K, THETA = 8, 10, 0.01
#: The dataset is fixed: the SF=0.1 citation network (3 000 users, ~48k
#: edges) and the item logs, made with the repository's bench seed, which
#: also seeds the offline builds. The workload seed draws the request
#: streams. Runs then differ in their requests, not in the shape of the
#: graph, the index or the learned model, whose per-request cost would
#: otherwise swing a run's median.
DATA_SEED = 7
NET = dict(sf=0.1, Z=Z, seed=DATA_SEED)
#: Topical query words are drawn from each topic's ``TOP_WORDS`` most
#: frequent words, so every query word is in the vocabulary.
TOP_WORDS = 8


@dataclass
class Request:
    fn: object                      # () -> result; the timed call
    info: dict                      # what counters and the gate need
    keep: bool = True               # keep the result for the gate
    result: object = field(default=None, repr=False)


def _topic_words(net) -> list:
    return [[f"{name}_w{i}" for i in range(TOP_WORDS)] for name in net.topic_names]


def _slot_queries(words, z: int, size: int) -> list:
    """Every query of one ``im_online`` slot, in a fixed order: the pairs
    of topic ``z``'s words (``size`` 0), or the sets of ``size`` words
    from distinct topics led by ``z``."""
    if not size:
        return [list(q) for q in itertools.combinations(words[z], 2)]
    others = [y for y in range(len(words)) if y != z]
    return [list(q) for ys in itertools.combinations(others, size - 1)
            for q in itertools.product(*(words[y] for y in (z, *ys)))]


class ImOnline:
    """Keyword IM: best-effort or topic-sample answers to distinct
    keyword queries, over σ_max and the topic-sample index."""

    name = "im_online"
    #: Topic-sample answers may fall short of greedy by ε per seed.
    EPSILON = 0.05
    #: Dirichlet γ samples besides the Z pure topics. None: the 8 pure
    #: topics fan out over 4 cores in two waves, and four more samples
    #: would cost a third wave (~3 s of every run) for little warm start.
    N_RANDOM = 0

    def __init__(self, seed: int):
        self.seed = seed

    def load(self, spark) -> None:
        self.net = sd.social_network(**NET)
        self.model = TopicAwareInfluenceModel.from_network(self.net, theta=THETA)

    def builds(self, spark) -> list:
        g = self.model.graph

        def precompute():
            self.pre = precompute_spark(spark, g, theta=THETA)

        def samples():
            self.samples = build_topic_samples_spark(
                spark, g, k=K, theta=THETA, n_random=self.N_RANDOM, seed=DATA_SEED)

        return [("bounds.precompute_s", precompute), ("samples.build_s", samples)]

    def client(self):
        """Distinct queries in a fixed cycle of slots (kind, topic, size):
        topical pairs (γ near a stored sample) alternate with sets of 1-3
        words from distinct topics (flatter γ, weaker pruning); each pair
        of queries leads with the next topic in turn; best-effort
        alternates with topic-sample in pairs. The seed draws the words,
        so every run serves the same mix and the per-query cost, which
        varies mostly with the topic, does not swing the run's median.
        A drawn query that was asked before is replaced by a seeded pick
        among the slot's queries not yet asked; once a slot has none
        left (a 1-word slot after 384 queries), its queries repeat."""
        rng = np.random.default_rng([self.seed, 1])
        words = _topic_words(self.net)
        seen = set()
        i = 0
        while True:
            z, size = (i // 2) % Z, (i // 2) % 3 + 1
            if i % 2 == 0:
                W = [words[z][int(j)] for j in rng.choice(TOP_WORDS, 2, replace=False)]
            else:
                others = rng.choice([y for y in range(Z) if y != z], size - 1, replace=False)
                W = [words[int(y)][int(rng.integers(TOP_WORDS))] for y in (z, *others)]
            if frozenset(W) in seen:
                left = [q for q in _slot_queries(words, z, size if i % 2 else 0)
                        if frozenset(q) not in seen]
                if left:
                    W = left[int(rng.integers(len(left)))]
            seen.add(frozenset(W))
            if (i // 2) % 2 == 0:
                fn = lambda W=W: keyword_im.best_effort_im(self.model, self.pre, W, K)
                method = "best-effort"
            else:
                fn = lambda W=W: keyword_im.topic_sample_im(
                    self.model, self.pre, self.samples, W, K, epsilon=self.EPSILON)
                method = "topic-sample"
            i += 1
            yield Request(fn, {"keywords": W, "method": method})

    def counters(self, req) -> dict:
        return {"celf.evals": req.result.n_exact_evals}

    def check(self, served) -> list:
        """On one seeded query per method: best-effort seeds equal exact
        greedy's; topic-sample spread is within (1 − εk) of greedy's, and
        the same query answered by topic-sample at ε = 0 (warm start,
        bounds and CELF, with no tolerance) has greedy's spread."""
        rng = np.random.default_rng([self.seed, 2])
        problems = []
        for method in ("best-effort", "topic-sample"):
            mine = [r for r in served if r.info["method"] == method]
            if not mine:
                continue
            req = mine[int(rng.integers(len(mine)))]
            W, ans = req.info["keywords"], req.result
            exact = keyword_im.naive_mia_im(self.model, W, K)
            if method == "best-effort":
                if ans.seeds != exact.seeds:
                    problems.append(f"best-effort {W}: seeds {ans.seeds} "
                                    f"!= greedy {exact.seeds}")
                continue
            floor = (1 - self.EPSILON * K) * exact.mia_spread - 1e-9
            if ans.mia_spread < floor:
                problems.append(f"topic-sample {W}: spread {ans.mia_spread} < {floor}")
            tight = keyword_im.topic_sample_im(
                self.model, self.pre, self.samples, W, K, epsilon=0.0)
            if abs(tight.spread - exact.spread) >= 1e-9:
                problems.append(f"topic-sample {W} at ε=0: spread {tight.spread} "
                                f"!= greedy {exact.spread}")
        return problems


class SuggestOnline:
    """Keyword suggestion through the influencer index for target users
    drawn by item count."""

    name = "suggest_online"
    #: Action-log scale: 1 200 items, so prolific authors have pools.
    ITEMS_SF = 0.01
    R, KW, POOL = 200, 3, 12
    #: Points of the systematic sample of targets, a power of two; about
    #: one run of requests.
    SCHEDULE = 128

    def __init__(self, seed: int):
        self.seed = seed

    def load(self, spark) -> None:
        self.net = sd.social_network(**NET)
        log = sd.action_log(self.net, sf=self.ITEMS_SF, seed=DATA_SEED + 4)
        self.model = TopicAwareInfluenceModel.from_network(self.net, log, theta=THETA)
        counts = log.items.groupby("author").size().reset_index(name="n")
        counts = counts.sort_values(["n", "author"], ascending=[False, True])
        self.authors = counts["author"].to_numpy()
        self.cum_share = np.cumsum(counts["n"].to_numpy()) / counts["n"].sum()

    def builds(self, spark) -> list:
        def index():
            self.index = build_influencer_index_spark(
                spark, self.model.graph, R=self.R, seed=DATA_SEED)

        return [("suggest.index_build_s", index)]

    def client(self):
        """Targets in proportion to their item count, as a systematic
        sample: the authors at the midpoints of ``SCHEDULE`` equal shares
        of the item-count distribution (authors sorted by count), served
        round after round in bit-reversed order XOR a seeded mask. Any run
        of consecutive requests covers the distribution evenly, so every
        run asks for prolific and one-item authors in the same
        proportions, however much of a round it serves. The seed orders
        the requests but does not choose the targets: a request's cost
        varies 7× between a run's tenth and ninetieth percentiles, also
        among authors of equal item count, and a seeded choice of the
        128 targets moved a run's median by up to 28%."""
        rng = np.random.default_rng([self.seed, 1])
        points = (np.arange(self.SCHEDULE) + 0.5) / self.SCHEDULE
        picks = self.authors[np.searchsorted(self.cum_share, points)]
        bits = self.SCHEDULE.bit_length() - 1
        mask = int(rng.integers(self.SCHEDULE))
        order = [int(f"{i:0{bits}b}"[::-1], 2) ^ mask for i in range(self.SCHEDULE)]
        while True:
            for j in order:
                user = int(picks[j])
                yield Request(
                    lambda user=user: suggest_keywords(
                        self.model, user, self.KW, method="index", index=self.index,
                        pool_size=self.POOL),
                    {"user": user})

    def counters(self, req) -> dict:
        user, n_est = req.info["user"], req.result.n_estimates
        pruned = sum(user not in s.nodes for s in self.index.samples)
        return {"index.pruned": pruned * n_est, "index.pairs": self.R * n_est}

    def check(self, served) -> list:
        """The reported spread is the index estimate of the answer's γ, and
        the keywords are distinct picks from the user's candidate pool."""
        problems = []
        for req in served:
            user, ans = req.info["user"], req.result
            est = self.index.estimate(user, ans.gamma)
            if ans.est_spread != est:
                problems.append(f"user {user}: est_spread {ans.est_spread} != {est}")
            pool = user_keywords(self.model.items, user, max_candidates=self.POOL)
            kw = ans.keywords
            if (not set(kw) <= set(pool) or len(set(kw)) != len(kw)
                    or len(kw) != min(self.KW, len(pool))):
                problems.append(f"user {user}: keywords {kw} not from pool {pool}")
        return problems


class LearnExplore:
    """Action log → EM model → interactive MIA path exploration."""

    name = "learn_explore"
    #: The T5 learning scale: a 600-user network and a 600-item log.
    NET = dict(sf=0.02, Z=Z, seed=DATA_SEED)
    ITEMS_SF = 0.005
    #: Two iterations: one log-likelihood step for the gate, and ~5 s less
    #: per run than three, which the run-time budget needs.
    EM_ITERS = 2
    THETAS = (0.1, 0.03, 0.01)
    SESSION_CLICKS = 12
    #: Every KEEP_EVERY-th tree is kept for the gate (about 100 in a run,
    #: spread over it; coprime with SESSION_CLICKS, so every θ and both
    #: directions are kept); ORACLE_ROOTS of them are checked against networkx.
    KEEP_EVERY, ORACLE_ROOTS = 61, 4

    def __init__(self, seed: int):
        self.seed = seed

    def load(self, spark) -> None:
        self.net = sd.social_network(**self.NET)
        self.log = sd.action_log(self.net, sf=self.ITEMS_SF, seed=DATA_SEED + 4)
        self.items_df = self.log.items_df(spark)
        self.trials_df = self.log.trials_df(spark)

    def builds(self, spark) -> list:
        def em():
            self.em = em_fit_spark(spark, self.items_df, self.trials_df,
                                   Z=Z, n_iter=self.EM_ITERS, seed=0)

        def from_trials():
            self.edges = graph_from_trials(self.trials_df).toPandas()

        def from_em():
            self.model = TopicAwareInfluenceModel.from_em(
                self.em, self.edges, n_users=self.net.n_users, Z=Z,
                items=self.log.items, theta=THETA)

        return [("em.fit_s", em), ("graph.from_trials_s", from_trials),
                ("model.from_em_s", from_em)]

    def explore(self, keywords, root, theta, forward):
        """One click: γ and pp_γ for the session's query, the tree rooted
        at the clicked node, and its d3 rows."""
        _, p_eff = self.model.query_probs(keywords)
        tree = (mia.mioa if forward else mia.miia)(self.model.graph, p_eff, root, theta)
        return tree, mia.extract_paths(tree, root)

    def client(self):
        rng = np.random.default_rng([self.seed, 1])
        words = np.asarray(self.em.words)
        authors = self.log.items["author"].to_numpy()
        n = 0
        while True:
            W = [str(w) for w in rng.choice(words, int(rng.integers(1, 3)), replace=False)]
            root = int(rng.choice(authors))
            for click in range(self.SESSION_CLICKS):
                info = {"keywords": W, "root": root, "theta": self.THETAS[click % 3],
                        "forward": click % 2 == 0}
                req = Request(lambda info=info: self.explore(**info), info,
                              keep=n % self.KEEP_EVERY == 0)
                n += 1
                yield req
                tree = req.result[0] if req.result is not None else {}
                nodes = [v for v in tree if v != root]
                root = int(rng.choice(nodes)) if nodes else int(rng.choice(authors))

    def counters(self, req) -> dict:
        return {}

    def check(self, served) -> list:
        """Monotone EM likelihood; every kept tree obeys prob = parent prob
        × pp_γ(edge) ≥ θ; sampled roots match a networkx max-probability
        path oracle."""
        problems = []
        ll = np.asarray(self.em.loglik)
        if not (np.diff(ll) >= -1e-6).all():
            problems.append(f"EM log-likelihood not monotone: {ll.tolist()}")
        g = self.model.graph
        eid = {(int(s), int(d)): e for e, (s, d) in enumerate(zip(g.e_src, g.e_dst))}
        probs = {}
        for req in served:
            key = tuple(req.info["keywords"])
            if key not in probs:
                probs[key] = self.model.query_probs(req.info["keywords"])[1]
            problems += _tree_problems(req, probs[key], eid)
        rng = np.random.default_rng([self.seed, 2])
        for i in rng.choice(len(served), min(self.ORACLE_ROOTS, len(served)), replace=False):
            req = served[int(i)]
            problems += _oracle_problems(req, g, probs[tuple(req.info["keywords"])])
        return problems


def _tree_problems(req, p_eff, eid) -> list:
    info, tree = req.info, req.result[0]
    root, theta = info["root"], info["theta"]
    if tree.get(root) != (1.0, -1):
        return [f"tree {info}: root entry {tree.get(root)}"]
    out = []
    for v, (p, parent) in tree.items():
        if v == root:
            continue
        edge = (parent, v) if info["forward"] else (v, parent)
        if parent not in tree or edge not in eid:
            out.append(f"tree {info}: node {v} has no edge to parent {parent}")
            continue
        want = tree[parent][0] * p_eff[eid[edge]]
        if not math.isclose(p, want, rel_tol=1e-9) or p < theta * (1 - 1e-9):
            out.append(f"tree {info}: node {v} prob {p}, parent gives {want}")
    return out


def _oracle_problems(req, graph, p_eff) -> list:
    """Max-probability paths by networkx Dijkstra on −log pp_γ, compared
    with the tree; nodes within 1e-9 of the θ cut are not compared."""
    info, tree = req.info, req.result[0]
    lim = -math.log(info["theta"])
    G = nx.DiGraph()
    for s, d, p in zip(graph.e_src, graph.e_dst, p_eff):
        if p > 0:
            u, v = (int(s), int(d)) if info["forward"] else (int(d), int(s))
            G.add_edge(u, v, w=-math.log(p))
    G.add_node(info["root"])
    dist = nx.single_source_dijkstra_path_length(G, info["root"], cutoff=lim + 1e-9, weight="w")
    out = []
    for v in set(dist) | set(tree):
        if v in dist and abs(dist[v] - lim) <= 1e-9:
            continue
        if (v in dist) != (v in tree):
            out.append(f"oracle {info}: node {v} in tree={v in tree}, in oracle={v in dist}")
        elif not math.isclose(tree[v][0], math.exp(-dist[v]), rel_tol=1e-9):
            out.append(f"oracle {info}: node {v} prob {tree[v][0]} != {math.exp(-dist[v])}")
    return out


WORKLOADS = {w.name: w for w in (ImOnline, SuggestOnline, LearnExplore)}
