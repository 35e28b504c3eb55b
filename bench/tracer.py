"""Span tracer for the traced run, and the per-layer metrics derived from it.

Spans are recorded from the benchmark's side only: the tracer replaces each
public function of the layer modules with a timing wrapper, in every
`sumprod.*` module that bound the name (`from .arith import mult_dim` makes
a second binding in `theorems`), and restores them afterwards.  `FinSet`
construction is timed by wrapping the class's `__init__`, and verdicts are
tallied by wrapping `Verdict.__post_init__`.  The `cli` layer is timed at
its entry point `cli.main` only; its self time is argument parsing, output
formatting and report writing.

A span is (id, function, start, end, parent id, item id, values out); spans
stay in memory until the pass ends.  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import itertools
import math
import statistics
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("exactset", "arith", "energy", "verdicts", "theorems", "progressions", "extremal", "cli")

class Tracer:
    """Installs timing wrappers into the loaded sumprod modules."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.verdicts: Counter = Counter()
        self.item: str | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "sumprod" or n.startswith("sumprod.")]
        finset = sys.modules["sumprod.exactset"].FinSet
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"sumprod.{layer}"]
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") and not isinstance(obj, type) and callable(obj)
                if public and getattr(obj, "__module__", None) == mod.__name__:
                    if layer != "cli" or attr == "main":
                        targets[id(obj)] = self._wrap(obj, f"{layer}.{attr}", finset)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets:
                    self._patch(mod, attr, targets[id(obj)])

        self._patch(finset, "__init__", self._wrap(finset.__init__, "exactset.FinSet", finset))
        verdict = sys.modules["sumprod.verdicts"].Verdict
        post_init = verdict.__post_init__
        tally = self.verdicts

        def counted(v) -> None:
            post_init(v)
            tally[v.holds] += 1

        self._patch(verdict, "__post_init__", counted)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name: str, finset: type):
        fid = len(self.names)
        self.names.append(name)
        spans, local, ids, tracer = self.spans, self._local, self._ids, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            out = -1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if type(result) is finset:
                    out = len(result)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((sid, fid, start, end, parent, tracer.item, out))

        return wrapper

    def take_pass(self) -> "PassTrace":
        """Hand over the spans and tallies recorded since the last call."""
        taken = PassTrace(self.names, list(self.spans), Counter(self.verdicts))
        self.spans.clear()
        self.verdicts.clear()
        return taken


class PassTrace:
    """The spans of one traced pass, folded per function."""

    def __init__(self, names: list[str], spans: list[tuple], verdicts: Counter) -> None:
        self.verdicts = verdicts
        child_ns: dict[int, int] = defaultdict(int)
        for sid, _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.values_out: Counter = Counter()
        # inclusive time per (item, function), top-level calls of that function only
        self.item_ns: Counter = Counter()
        name_of = {sid: names[fid] for sid, fid, *_ in spans}
        for sid, fid, start, end, parent, item, out in spans:
            name = names[fid]
            self.calls[name] += 1
            self.self_ns[name] += end - start - child_ns[sid]
            self.total_ns[name] += end - start
            if out >= 0:
                self.values_out[name] += out
            if name_of.get(parent) != name:
                self.item_ns[(item, name)] += end - start

    def table(self) -> dict[str, dict]:
        return {
            name: {
                "calls": self.calls[name],
                "self_s": self.self_ns[name] / 1e9,
                "total_s": self.total_ns[name] / 1e9,
                "values_out": self.values_out[name],
            }
            for name in sorted(self.calls)
        }


def pass_metrics(
    names: list[str], trace: PassTrace, items: list[dict], records: list[dict], cache_info
) -> dict:
    """The named per-layer metrics of one traced pass.

    records holds the runner's per-item record (bytes written, search
    leaves); cache_info is factor_int's cache statistics for the pass.
    The tracing overhead is filled in by the runner, which times both kinds
    of pass.
    """
    m: dict[str, float] = {}
    for name in names:
        fn, _, field = name.rpartition(".")
        if field == "calls":
            m[name] = trace.calls[fn]
        elif field == "self_s":
            m[name] = trace.self_ns[fn] / 1e9
        elif field == "values_out":
            m[name] = trace.values_out[fn]

    lookups = cache_info.hits + cache_info.misses
    m["arith.factor_int.cache_hit_ratio"] = cache_info.hits / lookups if lookups else 0.0
    met = sum(trace.verdicts[s] for s in ("true", "false", "inconclusive"))
    decided = trace.verdicts["true"] + trace.verdicts["false"]
    m["verdicts.decided_ratio"] = decided / met if met else 0.0
    m["cli.main.bytes_out"] = sum(r.get("bytes_out", 0) for r in records)

    sizes = defaultdict(dict)
    for it in items:
        if "scaling" in it:
            fn, n = it["scaling"]
            sizes[fn][n] = trace.item_ns[(it["id"], fn)]
    for fn in ("exactset.combine", "arith.mult_dim", "energy.energy"):
        points = sorted(sizes.get(fn, {}).items())
        slope = 0.0
        if len(points) == 2 and all(t > 0 for _, t in points):
            (n1, t1), (n2, t2) = points
            slope = math.log(t2 / t1) / math.log(n2 / n1)
        m[f"{fn}.scaling_exp"] = slope

    t1 = tn = 0.0
    leaves = 0
    for it, rec in zip(items, records):
        if it["kind"] != "search":
            continue
        secs = trace.item_ns[(it["id"], "extremal.search_min")] / 1e9
        if it["id"].endswith("-t1"):
            t1 += secs
            leaves += rec["leaves"]
        else:
            tn += secs
    m["extremal.search_min.t1_s"] = t1
    m["extremal.search_min.tN_s"] = tn
    m["extremal.search_min.leaves"] = leaves
    m["extremal.search_min.leaves_per_s"] = leaves / t1 if t1 else 0.0
    m["extremal.search_min.parallel_speedup"] = t1 / tn if tn else 0.0
    return m


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
