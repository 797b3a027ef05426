"""Timing wrappers around adlvkit's public functions, installed from outside.

``install()`` replaces each target in ``TARGETS`` with a wrapper in every
loaded ``adlvkit`` module that holds a reference to it, so calls between
modules (``from .affine_weyl import multiply``) go through the wrapper as
well. Nothing under ``src/`` is edited; ``uninstall()`` puts the originals
back.

Two kinds of record are kept in memory and written out at the end:

* spans, for coarse functions: ``(id, name, start, end, parent, parent_path)``
  where ``parent`` is the id of the enclosing span (0 at the top) and
  ``parent_path`` names the accumulated calls between the two (empty when
  the span is a direct child);
* accumulators, for hot functions such as ``multiply`` with hundreds of
  thousands of calls: calls and total time summed per
  ``(enclosing span, call path)``, the path being the chain of hot calls
  below that span, e.g. ``conjugacy.conjugate_by_simple/affine_weyl.multiply``.

Self time is a record's time minus the part its children cover
(``summarize``). Cache hit ratios are measured at the same boundary, from
the growth of the function's cache against its call count.
"""

from __future__ import annotations

import collections
import gzip
import importlib
import json
import multiprocessing.util
import os
import sys
import time

SPAN, HOT, GENERATOR = "span", "hot", "generator"


def _length_cache(x):
    return x.datum._length_cache


def _move_cache(w, *_args, **_kwargs):
    return w.datum._move_cache


# (record name, module, attribute, kind, options)
#   count=(counter name, f(result) -> int): adds f(result) to the counter
#   cache=f(*args) -> dict: the function's memo; its growth counts misses
TARGETS = (
    ("root_datum.build", "adlvkit.root_datum", "RootDatum.__init__", SPAN, {}),
    ("affine_weyl.multiply", "adlvkit.affine_weyl", "multiply", HOT, {}),
    ("affine_weyl.sigma_act", "adlvkit.affine_weyl", "sigma_act", HOT, {}),
    ("affine_weyl.length", "adlvkit.affine_weyl", "length", HOT, {"cache": _length_cache}),
    ("conjugacy.conjugate_by_simple", "adlvkit.conjugacy", "conjugate_by_simple", HOT, {}),
    ("conjugacy.shift_class", "adlvkit.conjugacy", "shift_class", SPAN, {}),
    ("conjugacy.is_min_len", "adlvkit.conjugacy", "is_min_len", SPAN, {}),
    ("conjugacy.class_invariant", "adlvkit.conjugacy", "class_invariant", HOT, {}),
    ("reduction_tree.build_tree", "adlvkit.reduction_tree", "build_tree", SPAN, {}),
    (
        "reduction_tree.find_reduction_move",
        "adlvkit.reduction_tree",
        "find_reduction_move",
        HOT,
        {"cache": _move_cache},
    ),
    ("reduction_tree.path_summary", "adlvkit.reduction_tree", "path_summary", SPAN, {}),
    ("bg_poset.leq", "adlvkit.bg_poset", "leq", HOT, {}),
    ("bg_poset.defect", "adlvkit.bg_poset", "defect", SPAN, {}),
    ("bg_poset.enumerate_straight", "adlvkit.bg_poset", "enumerate_straight", SPAN, {}),
    ("bg_poset.iter_elements", "adlvkit.bg_poset", "iter_elements", GENERATOR, {}),
    ("bg_poset.extrema", "adlvkit.bg_poset", "extrema", SPAN, {}),
    ("bg_poset.interval", "adlvkit.bg_poset", "interval", SPAN, {}),
    ("classifier.classify", "adlvkit.classifier", "classify", SPAN, {}),
    (
        "classifier.is_geometric_coxeter_type",
        "adlvkit.classifier",
        "is_geometric_coxeter_type",
        SPAN,
        {},
    ),
    (
        "classifier.strong_multiplicity_one",
        "adlvkit.classifier",
        "strong_multiplicity_one",
        SPAN,
        {},
    ),
    ("classifier.purity_report", "adlvkit.classifier", "purity_report", SPAN, {}),
    (
        "classifier.is_minimal_coxeter_type",
        "adlvkit.classifier",
        "is_minimal_coxeter_type",
        SPAN,
        {},
    ),
    ("classifier.mct_inequality", "adlvkit.classifier", "mct_inequality", SPAN, {}),
    ("checks.audit", "adlvkit.checks", "audit", SPAN, {}),
    ("checks.corpus", "adlvkit.checks", "corpus", SPAN, {"count": ("checks.corpus.elements", len)}),
    ("cli.main", "adlvkit.cli", "main", SPAN, {}),
    (
        "cli.cache.read",
        "adlvkit.cli",
        "ResultCache.read",
        SPAN,
        {"count": ("cli.cache.hits", lambda hit: hit is not None)},
    ),
    ("cli.cache.write", "adlvkit.cli", "ResultCache.write", SPAN, {}),
    (
        "cli.cache.should_reverify",
        "adlvkit.cli",
        "ResultCache.should_reverify",
        HOT,
        {"count": ("cli.cache.reverified", bool)},
    ),
)


class Recorder:
    """In-memory spans, accumulators and counters of one process."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []
        self.hot = collections.defaultdict(lambda: [0, 0.0])  # (span, path) -> [calls, s]
        self.counts = collections.Counter()
        self.growth = collections.Counter()  # name -> entries added to its cache
        self.generator_calls = collections.Counter()
        # frames of the calls in progress: (enclosing span id, hot path)
        self.stack = [(0, "")]
        self._next_id = 0

    def new_span_id(self):
        self._next_id += 1
        return self._next_id

    def dump(self):
        return {
            "pid": os.getpid(),
            "spans": self.spans,
            "hot": [[sid, path, calls, total] for (sid, path), (calls, total) in self.hot.items()],
            "counts": dict(self.counts),
            "growth": dict(self.growth),
            "generator_calls": dict(self.generator_calls),
        }

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            json.dump(self.dump(), fh)

    def dump_in_workers(self, directory):
        """Make forked or spawned worker processes write their own records.

        Each worker starts with empty records and writes them to
        ``directory/spans-<pid>.json.gz`` when it exits normally.
        """

        def start_worker(recorder):
            recorder.reset()
            path = os.path.join(directory, f"spans-{os.getpid()}.json.gz")
            multiprocessing.util.Finalize(None, recorder.write, args=(path,), exitpriority=100)

        multiprocessing.util.register_after_fork(self, start_worker)


def _span_wrapper(rec, name, fn, options):
    clock = time.perf_counter
    count = options.get("count")

    def wrapper(*args, **kwargs):
        stack = rec.stack
        parent, parent_path = stack[-1]
        sid = rec.new_span_id()
        stack.append((sid, ""))
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            rec.spans.append((sid, name, start, end, parent, parent_path))
        if count is not None:
            rec.counts[count[0]] += int(count[1](result))
        return result

    return wrapper


def _hot_wrapper(rec, name, fn, options):
    clock = time.perf_counter
    count = options.get("count")
    cache_of = options.get("cache")

    def wrapper(*args, **kwargs):
        stack = rec.stack
        sid, path = stack[-1]
        path = path + "/" + name if path else name
        stack.append((sid, path))
        if cache_of is not None:
            cache = cache_of(*args, **kwargs)
            before = len(cache)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            stack.pop()
            entry = rec.hot[(sid, path)]
            entry[0] += 1
            entry[1] += elapsed
        if cache_of is not None:
            rec.growth[name] += len(cache) - before
        if count is not None:
            rec.counts[count[0]] += int(count[1](result))
        return result

    return wrapper


def _generator_wrapper(rec, name, fn, options):
    counter = name + ".yielded"

    def wrapper(*args, **kwargs):
        rec.generator_calls[name] += 1
        counts = rec.counts
        for item in fn(*args, **kwargs):
            counts[counter] += 1
            yield item

    return wrapper


_WRAPPERS = {SPAN: _span_wrapper, HOT: _hot_wrapper, GENERATOR: _generator_wrapper}

_installed = []  # (owner, attribute, original value) to restore


def _adlvkit_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "adlvkit" or n.startswith("adlvkit.")]


def install() -> Recorder:
    """Wrap every target; returns the recorder that collects the calls."""
    if _installed:
        raise RuntimeError("tracing is already installed")
    rec = Recorder()
    for _name, module_name, *_rest in TARGETS:
        importlib.import_module(module_name)
    modules = _adlvkit_modules()
    for name, module_name, attribute, kind, options in TARGETS:
        module = sys.modules[module_name]
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__[method]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapped = _WRAPPERS[kind](rec, name, fn, options)
            _installed.append((owner, method, raw))
            setattr(owner, method, staticmethod(wrapped) if is_static else wrapped)
            continue
        fn = getattr(module, attribute)
        wrapped = _WRAPPERS[kind](rec, name, fn, options)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    _installed.append((mod, key, fn))
                    setattr(mod, key, wrapped)
    return rec


def uninstall():
    while _installed:
        owner, attribute, original = _installed.pop()
        setattr(owner, attribute, original)


# -- offline arithmetic ----------------------------------------------------------


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(dump):
    """Per-name calls, total and self seconds of one process's records.

    A span's self time is its duration minus the union of its direct child
    spans (clipped to the span) and the hot calls made directly under it.
    A hot entry's self time is its total minus the hot entries one level
    deeper on the same path and the spans started from inside it.
    """
    spans = dump["spans"]
    hot = dump["hot"]
    children = collections.defaultdict(list)  # (parent, parent_path) -> child spans
    for sid, name, start, end, parent, parent_path in spans:
        children[(parent, parent_path)].append((start, end))
    hot_total = {(sid, path): total for sid, path, _calls, total in hot}
    nested_hot = collections.defaultdict(float)  # (span, path) -> time of deeper hot calls
    for (sid, path), total in hot_total.items():
        head, sep, _tail = path.rpartition("/")
        nested_hot[(sid, head if sep else "")] += total

    out = collections.defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, name, start, end, _parent, _parent_path in spans:
        inside = [(max(a, start), min(b, end)) for a, b in children[(sid, "")] if b > start and a < end]
        stats = out[name]
        stats["calls"] += 1
        stats["total_s"] += end - start
        stats["self_s"] += (end - start) - _covered(inside) - nested_hot[(sid, "")]
    for sid, path, calls, total in hot:
        name = path.rpartition("/")[2]
        from_spans = sum(b - a for a, b in children[(sid, path)])
        stats = out[name]
        stats["calls"] += calls
        stats["total_s"] += total
        stats["self_s"] += total - nested_hot[(sid, path)] - from_spans
    for name, calls in dump["generator_calls"].items():
        out[name]["calls"] += calls
    return dict(out)


def merge(summaries):
    """Sum per-name statistics over processes."""
    out = collections.defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for summary in summaries:
        for name, stats in summary.items():
            for key, value in stats.items():
                out[name][key] += value
    return dict(out)


def load(path):
    with gzip.open(path, "rt") as fh:
        return json.load(fh)
