"""Synthetic topic-aware social networks and action logs.

Substitutes for the paper's ACMCite (aminer.org citation network) and QQ
(Tencent, proprietary) datasets — see DESIGN.md §2. The generator emits a
ground-truth topic-aware IC model (per-topic edge probabilities, topic
prior, keyword distributions) plus action logs sampled *from* that model,
so learned parameters and query answers can be validated against truth.
Generators are deterministic in ``seed`` so the DuckDB oracle sees
identical input; tests use SF<=0.01, benchmarks SF~=0.1.
"""
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


_N_USERS_PER_SF = 30_000
_N_ITEMS_PER_SF = 120_000

#: Human-readable topic labels used to synthesize a vocabulary. Mirrors the
#: research-area flavour of ACMCite in the paper's Scenario 1/2.
TOPIC_NAMES = [
    "mining", "learning", "systems", "networks",
    "graphics", "theory", "security", "databases",
    "multimedia", "hci",
]


@dataclass
class SocialNetwork:
    """A synthetic topic-aware social network with ground truth.

    Pandas frames are the source of truth (deterministic in ``seed``);
    ``edges_df``/``users_df``/``vocab_df`` lift them into Spark.
    """

    n_users: int
    Z: int
    topic_names: list
    words: list                    # vocabulary, length V
    pi: np.ndarray                 # (Z,) topic prior
    pwz: np.ndarray                # (Z, V) keyword distribution p(w|z)
    affinity: np.ndarray           # (n_users, Z) user topic affinity
    edges: pd.DataFrame            # src, dst, pp_0..pp_{Z-1}
    seed: int = 0

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def prob_cols(self) -> list:
        return [f"pp_{z}" for z in range(self.Z)]

    def edge_probs(self) -> np.ndarray:
        """(E, Z) per-topic activation probabilities, edge order = edges."""
        return self.edges[self.prob_cols].to_numpy(dtype=np.float64)

    def edges_df(self, spark: SparkSession) -> DataFrame:
        """Spark edges with per-topic probs in wide columns pp_z."""
        return spark.createDataFrame(self.edges)

    def users_df(self, spark: SparkSession) -> DataFrame:
        pdf = pd.DataFrame(
            {
                "user_id": np.arange(self.n_users),
                "primary_topic": self.affinity.argmax(axis=1),
            }
        )
        return spark.createDataFrame(pdf)

    def vocab_pdf(self) -> pd.DataFrame:
        """Long-form keyword/topic distribution: (word, z, p_w_given_z)."""
        V = len(self.words)
        return pd.DataFrame(
            {
                "word": np.repeat(self.words, self.Z),
                "z": np.tile(np.arange(self.Z), V),
                "p_w_given_z": self.pwz.T.reshape(-1),
            }
        )

    def vocab_df(self, spark: SparkSession) -> DataFrame:
        return spark.createDataFrame(self.vocab_pdf())


@dataclass
class ActionLog:
    """Items (papers / product posts) and propagation trials sampled from
    the ground-truth model — the 'social actions (UGC)' fed to OCTOPUS."""

    items: pd.DataFrame       # item_id, author, topic_true, keywords (list)
    trials: pd.DataFrame      # item_id, src, dst, success (bool)

    def items_df(self, spark: SparkSession) -> DataFrame:
        return spark.createDataFrame(self.items)

    def trials_df(self, spark: SparkSession) -> DataFrame:
        return spark.createDataFrame(self.trials)

    def item_words_pdf(self) -> pd.DataFrame:
        """Exploded (item_id, word) pairs — EM's E-step word evidence."""
        rows = self.items.explode("keywords").rename(columns={"keywords": "word"})
        return rows[["item_id", "word"]].reset_index(drop=True)


def _make_vocab(Z: int, words_per_topic: int, g: np.random.Generator):
    """Topic-blocked vocabulary: topic z concentrates ~92% of its mass on
    its own word block with a Zipfian profile, 8% spread uniformly —
    so keywords are informative but ambiguous enough to exercise Bayes."""
    names = [TOPIC_NAMES[z % len(TOPIC_NAMES)] for z in range(Z)]
    words = [f"{names[z]}_w{i}" for z in range(Z) for i in range(words_per_topic)]
    V = len(words)
    pwz = np.full((Z, V), 0.08 / V)
    zipf = 1.0 / np.arange(1, words_per_topic + 1) ** 0.8
    zipf /= zipf.sum()
    for z in range(Z):
        lo = z * words_per_topic
        pwz[z, lo : lo + words_per_topic] += 0.92 * zipf
    pwz /= pwz.sum(axis=1, keepdims=True)
    return words, pwz


def social_network(
    spark_or_none=None,
    *,
    sf: float = 0.01,
    Z: int = 8,
    words_per_topic: int = 25,
    avg_out_degree: float = 12.0,
    mutual: bool = False,
    seed: int = 7,
) -> SocialNetwork:
    """Generate a citation-style (``mutual=False``) or friendship-style
    (``mutual=True``, the QQ flavour) network with ground-truth topic model.

    Power-law out-degrees, topical homophily (edges prefer users sharing a
    primary topic), and per-topic edge probabilities boosted where both
    endpoints care about the topic. ``spark_or_none`` is accepted for call
    symmetry with the TPC-H generators but unused (frames are pandas).
    """
    n = max(20, int(_N_USERS_PER_SF * sf))
    g = _rng(seed)

    # User topic affinities: sparse Dirichlet → a dominant topic + tail.
    affinity = g.dirichlet(np.full(Z, 0.3), size=n)
    primary = affinity.argmax(axis=1)
    pi = np.bincount(primary, minlength=Z).astype(np.float64) + 1.0
    pi /= pi.sum()

    # Power-law out-degrees, preferential-attachment-ish in-degree weights.
    deg = np.minimum(
        (g.pareto(1.6, n) + 1.0) * avg_out_degree * 0.55, n / 3
    ).astype(np.int64)
    deg = np.maximum(deg, 1)
    in_weight = (g.pareto(1.4, n) + 1.0)
    in_weight /= in_weight.sum()

    srcs, dsts = [], []
    by_topic = [np.flatnonzero(primary == z) for z in range(Z)]
    for u in range(n):
        d = deg[u]
        same = by_topic[primary[u]]
        n_same = int(round(d * 0.7))
        cand = []
        if len(same) > 1 and n_same:
            w = in_weight[same].copy()
            w[same == u] = 0.0
            if w.sum() > 0:
                cand.append(
                    g.choice(same, size=min(n_same, (w > 0).sum()),
                             replace=False, p=w / w.sum())
                )
        n_rand = d - sum(len(c) for c in cand)
        if n_rand > 0:
            cand.append(g.choice(n, size=n_rand, replace=False, p=in_weight))
        tgt = np.unique(np.concatenate(cand)) if cand else np.array([], np.int64)
        tgt = tgt[tgt != u]
        srcs.append(np.full(len(tgt), u, dtype=np.int64))
        dsts.append(tgt.astype(np.int64))
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    if mutual:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        pairs = pd.DataFrame({"src": src, "dst": dst}).drop_duplicates()
        src = pairs["src"].to_numpy()
        dst = pairs["dst"].to_numpy()

    # Per-topic activation probabilities: base noise + homophily boost.
    E = len(src)
    base = g.random((E, Z)) * 0.04
    boost = 0.5 * np.sqrt(affinity[src] * affinity[dst])
    probs = np.clip(base + boost * (0.25 + 0.5 * g.random((E, 1))), 1e-4, 0.6)

    edges = pd.DataFrame({"src": src, "dst": dst})
    for z in range(Z):
        edges[f"pp_{z}"] = probs[:, z]
    edges = edges.sort_values(["src", "dst"]).reset_index(drop=True)

    words, pwz = _make_vocab(Z, words_per_topic, g)
    names = [TOPIC_NAMES[z % len(TOPIC_NAMES)] for z in range(Z)]
    return SocialNetwork(
        n_users=n, Z=Z, topic_names=names, words=words, pi=pi, pwz=pwz,
        affinity=affinity, edges=edges, seed=seed,
    )


def action_log(
    net: SocialNetwork,
    *,
    sf: float = 0.01,
    words_min: int = 3,
    words_max: int = 8,
    max_cascade: int = 200,
    seed: int = 11,
) -> ActionLog:
    """Sample items + IC propagation trials from the ground truth.

    Each item: an author (degree-weighted — prolific users write more), a
    topic drawn from the author's affinity, keywords from ``p(w|z)``, and a
    truncated IC cascade from the author under topic-z edge probabilities.
    Every exposure is recorded as a trial with its success bit — exactly
    the (positive and negative) evidence the EM learner in [2] consumes.
    """
    g = _rng(seed)
    n_items = max(10, int(_N_ITEMS_PER_SF * sf))
    Z, V = net.Z, len(net.words)
    probs = net.edge_probs()

    # CSR out-adjacency over the ground-truth edge list.
    order = np.argsort(net.edges["src"].to_numpy(), kind="stable")
    e_src = net.edges["src"].to_numpy()[order]
    e_dst = net.edges["dst"].to_numpy()[order]
    e_probs = probs[order]
    ptr = np.searchsorted(e_src, np.arange(net.n_users + 1))

    auth_w = np.bincount(net.edges["src"].to_numpy(), minlength=net.n_users) + 1.0
    auth_w /= auth_w.sum()
    authors = g.choice(net.n_users, size=n_items, p=auth_w)
    words_arr = np.asarray(net.words, dtype=object)

    item_rows, trial_rows = [], []
    for d in range(n_items):
        u0 = int(authors[d])
        z = int(g.choice(Z, p=net.affinity[u0]))
        n_w = int(g.integers(words_min, words_max + 1))
        kws = list(dict.fromkeys(g.choice(words_arr, size=n_w, p=net.pwz[z])))
        item_rows.append((d, u0, z, kws))
        active = {u0}
        frontier = [u0]
        while frontier and len(active) < max_cascade:
            nxt = []
            for u in frontier:
                lo, hi = ptr[u], ptr[u + 1]
                if lo == hi:
                    continue
                vs = e_dst[lo:hi]
                ps = e_probs[lo:hi, z]
                hit = g.random(hi - lo) < ps
                for v, s in zip(vs, hit):
                    v = int(v)
                    if v in active:
                        continue
                    trial_rows.append((d, u, v, bool(s)))
                    if s:
                        active.add(v)
                        nxt.append(v)
            frontier = nxt
    items = pd.DataFrame(
        item_rows, columns=["item_id", "author", "topic_true", "keywords"]
    )
    trials = pd.DataFrame(trial_rows, columns=["item_id", "src", "dst", "success"])
    return ActionLog(items=items, trials=trials)
