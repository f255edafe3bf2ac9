"""Span tracing of cutgap's public functions, installed from outside.

The tracer rebinds each traced function in every cutgap module that holds
it (so `from .fourier import wht_matrix` in the verifier is traced too) and
each traced method on its class. Every call records one span: its name,
start, end, parent span and operation id. Spans stay in memory until the
run writes them out. A span's self time is its duration minus the part of
its interval that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import statistics
import time
import weakref
from collections import defaultdict

# layers in the order the pipeline reaches them; hypercube runs only inside
# quotient.build_kv_instance and config does no measurable work, so neither
# gets a metric of its own, but both are traced so their time is not
# charged to the caller
MODULES = ("quotient", "hypercube", "unique_games", "tensor", "separator",
           "verifier", "fourier", "metrics", "simplex", "config")
# public functions outside a module's __all__ that still get a span
EXTRA_FUNCTIONS = (("fourier", "wht_matrix"),)
METHODS = (
    ("tensor", "GramCache.gram"),
    ("separator", "BESVectorAssignment.base_inner_flat"),
    ("separator", "BESVectorAssignment.base_gram_block"),
)
ROOT = "cli.main"
LAYERS = MODULES + ("cli",)


def _gram_misses():
    seen = weakref.WeakKeyDictionary()

    def count(args, kwargs, result):
        cache = args[0]
        delta = cache.misses - seen.get(cache, 0)
        seen[cache] = cache.misses
        return {"misses": delta}

    return count


COUNTS = (
    "separator.check_bes_feasibility.triples_checked",
    "separator.check_bes_feasibility.adversarial_pairs",
    "tensor.GramCache.gram.misses",
    "verifier.acceptance_probability_mc.samples",
    "simplex.solve_lp.iterations",
)


def _counters():
    """Counts read off arguments or results, keyed by traced name; every
    key they produce is declared in COUNTS."""
    return {
        "separator.check_bes_feasibility": lambda a, k, r: {
            "triples_checked": r.triples_checked,
            "adversarial_pairs": r.adversarial_pairs,
        },
        "tensor.GramCache.gram": _gram_misses(),
        "verifier.acceptance_probability_mc": lambda a, k, r: {
            "samples": k["samples"] if "samples" in k else a[2],
        },
        "simplex.solve_lp": lambda a, k, r: {"iterations": r.iterations},
    }


class Tracer:
    """Collects spans and counts; `op` tags spans with the current operation."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counts = dict.fromkeys(COUNTS, 0.0)
        self.op = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                for key, val in count(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += val
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def _targets():
    """(owner object, attribute, traced name) for every traced callable:
    the CLI entry point, the functions each module exports, and the methods
    that carry the separator's inner loops. Helpers a module does not export
    are charged to their caller's self time."""
    out = [(importlib.import_module("cutgap.cli"), "main", ROOT)]
    functions = [(m, attr) for m in MODULES
                 for attr in importlib.import_module(f"cutgap.{m}").__all__]
    for mod_name, attr in functions + list(EXTRA_FUNCTIONS):
        mod = importlib.import_module(f"cutgap.{mod_name}")
        fn = getattr(mod, attr)
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
            out.append((mod, attr, f"{mod_name}.{attr}"))
    for mod_name, qual in METHODS:
        cls_name, meth = qual.split(".")
        cls = getattr(importlib.import_module(f"cutgap.{mod_name}"), cls_name)
        out.append((cls, meth, f"{mod_name}.{qual}"))
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every target while the block runs, then restore the originals."""
    import cutgap

    modules = [importlib.import_module(f"cutgap.{m}") for m in MODULES + ("cli",)]
    counters = _counters()
    patches = []
    try:
        for owner, attr, name in _targets():
            orig = vars(owner)[attr]
            wrapped = tracer.wrap(name, orig, counters.get(name))
            if inspect.isclass(owner):
                patches.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules + [cutgap]:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        patches.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        yield tracer
    finally:
        for owner, attr, orig in reversed(patches):
            setattr(owner, attr, orig)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Total self time and total duration per span name:
    {name: (self_s, total_s, calls)}."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict = {}
    for idx, (name, start, end, _, _) in enumerate(spans):
        own = (end - start) - covered(children.get(idx, ()), start, end)
        s, t, c = out.get(name, (0.0, 0.0, 0))
        out[name] = (s + own, t + end - start, c + 1)
    return out


def layer_metrics(tracer: Tracer, n_ops: int, plain_times, traced_times) -> dict:
    """Per-operation self times and call counts of every traced name and
    layer, the declared counts, two rates, and the tracing overhead: the
    mean traced operation time minus the mean untraced one."""
    names = [name for _, _, name in _targets()]
    metrics = {f"{name}.{suffix}": 0.0 for name in names for suffix in ("self_s", "calls")}
    metrics.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    totals = defaultdict(float)
    for name, (own, total, calls) in self_times(tracer.spans).items():
        metrics[f"{name}.self_s"] = own / n_ops
        metrics[f"{name}.calls"] = calls / n_ops
        metrics[name.split(".")[0] + ".self_s"] += own / n_ops
        totals[name] = total
    metrics.update({key: val / n_ops for key, val in tracer.counts.items()})

    def rate(count: str, span: str) -> float:
        return tracer.counts[count] / totals[span] if totals[span] else 0.0

    iterations = "simplex.solve_lp.iterations"
    metrics["verifier.mc_samples_per_s"] = rate(
        "verifier.acceptance_probability_mc.samples", "verifier.acceptance_probability_mc")
    metrics["simplex.iterations"] = tracer.counts[iterations] / n_ops
    metrics["simplex.pivots_per_s"] = rate(iterations, "simplex.solve_lp")
    metrics["trace.op_s"] = statistics.fmean(traced_times)
    metrics["trace.overhead_s"] = statistics.fmean(traced_times) - statistics.fmean(plain_times)
    return metrics
