"""Span tracer that times the calls into each layer's public functions
from outside the program.

A traced run rebinds each public name listed in :data:`LAYERS` to a
wrapper that records a span (name, start, end, parent span, request id).
The name is rebound in every ``repro`` module that imported it, because
``from x import f`` copies the binding: patching only the defining module
would miss calls made through the importer's copy. Methods are rebound on
their class. :meth:`Tracer.installed` restores every original binding on
exit, and nothing is rebound outside it, so an untraced run executes the
program's own functions.

Spark workers unpickle the real module functions, so the wrappers never
reach inside an offline build; builds are timed whole by the caller.
"""
import functools
import importlib
import json
import pkgutil
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

#: (span name, defining module, public name, modules to rebind in).
#: ``None`` rebinds the name in every loaded ``repro`` module that holds the
#: original; a tuple restricts the rebinding to those importers, which
#: gives a call made from one module its own span name.
LAYERS = (
    ("mia.mioa", "repro.core.mia", "mioa", None),
    ("mia.miia", "repro.core.mia", "miia", None),
    ("mia.extract_paths", "repro.core.mia", "extract_paths", None),
    ("mia.marginal", "repro.core.mia", "mia_marginal", None),
    # ``_finish`` rebuilds the seed trees through this import only.
    ("keyword_im.finish", "repro.core.mia", "mia_sigma", ("repro.core.keyword_im",)),
    ("celf", "repro.influence.celf", "celf", None),
    ("bounds.upper_bounds", "repro.influence.bounds", "best_upper_bounds", None),
    ("samples.warm_start", "repro.influence.samples", "warm_start_candidates", None),
    ("keywords.gamma", "repro.topics.keywords", "gamma_from_keywords", None),
    ("keywords.candidates", "repro.topics.keywords", "user_keywords", None),
    ("model.edge_probs", "repro.graphlib.builder", "LocalGraph.effective_probs", None),
    ("index.estimate", "repro.core.keyword_suggest", "InfluencerIndex.estimate", None),
)

#: Per-span counts taken from the wrapped call's result.
COUNTS = {"mia.mioa": len}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index into Tracer.spans
    request: int | None
    count: int | None = None


def self_time(start: float, end: float, children) -> float:
    """Duration of ``[start, end]`` minus the part covered by the union of
    the ``(start, end)`` intervals in ``children``."""
    covered, reach = 0.0, start
    for s, e in sorted(children):
        s, e = max(s, reach), min(e, end)
        if e > s:
            covered += e - s
            reach = e
    return (end - start) - covered


class Tracer:
    """Spans kept in memory for one run; written out by :meth:`dump`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._bindings: list | None = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.request))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {idx} closed out of order")
        self._stack.pop()
        self.spans[idx].end = self.clock()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                self.spans[idx].count = count(out)
            return out

        traced.__perfbench_span__ = name
        return traced

    @contextmanager
    def installed(self):
        """Rebind every layer's public name to a span wrapper; restore the
        original bindings on exit. Cheap enough to enter per request."""
        if self._bindings is None:
            mods = _repro_modules()
            self._bindings = []
            for name, owner, attr, where in LAYERS:
                targets, key, original = _targets(mods, owner, attr, where)
                traced = self.wrap(name, original)
                self._bindings += [(t, key, original, traced) for t in targets]
        done = []
        try:
            for target, key, original, traced in self._bindings:
                setattr(target, key, traced)
                done.append((target, key, original))
            yield self
        finally:
            for target, key, original in reversed(done):
                setattr(target, key, original)

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        kids: dict[int, list] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append((s.start, s.end))
        return [self_time(s.start, s.end, kids.get(i, ())) for i, s in enumerate(self.spans)]

    def dump(self, path) -> None:
        """Write the spans as JSON lines, with each span's self time."""
        with open(path, "w") as f:
            for s, st in zip(self.spans, self.self_times()):
                f.write(json.dumps({**asdict(s), "self": st}) + "\n")


def _repro_modules() -> dict:
    """Every ``repro`` module, all imported first: a module imported after
    the rebinding would copy a wrapper that is never restored."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    return {n: m for n, m in list(sys.modules.items()) if n == "repro" or n.startswith("repro.")}


def _targets(mods: dict, owner: str, attr: str, where):
    """Where to rebind ``owner.attr``: its class for a method (``C.f``),
    else every module (or every module in ``where``) holding the original."""
    holder = importlib.import_module(owner)
    *path, key = attr.split(".")
    for part in path:
        holder = getattr(holder, part)
    original = holder.__dict__[key]
    if path:
        return [holder], key, original
    names = where or mods
    return [mods[n] for n in names if mods[n].__dict__.get(key) is original], key, original


def active_wrappers() -> list[str]:
    """Every binding in a ``repro`` module or class that is currently a
    span wrapper (empty outside :meth:`Tracer.installed`)."""
    found = set()
    for mname, mod in _repro_modules().items():
        for key, val in vars(mod).items():
            if hasattr(val, "__perfbench_span__"):
                found.add(f"{mname}.{key}")
            elif isinstance(val, type):
                found.update(
                    f"{val.__module__}.{val.__qualname__}.{k}"
                    for k, v in vars(val).items() if hasattr(v, "__perfbench_span__")
                )
    return sorted(found)
