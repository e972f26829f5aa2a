"""Spans and counts around each layer's public functions, from outside the
program.

The wrappers replace the names as they are bound at their call sites in
``treeprofiles.cli`` and ``treeprofiles.profiles``; the library's own modules
are not edited.  The program is single-threaded, so spans nest strictly and a
span's children never overlap: its self time is its duration minus the sum
of its children's durations.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import numpy as np


def _count_nodes(key):
    def count(counts, tracer, args, result):
        counts[key] += result.node_count
    return count


def _count_alpha(counts, tracer, args, result):
    counts["partition.nodes"] += result.node_count
    counts["partition.alpha_calls"] += 1


def _count_attributes(counts, tracer, args, result):
    counts["attributes.calls"] += 1


def _count_filter(counts, tracer, args, result):
    tree, _table, attribute, threshold = args[:4]
    counts["profiles.filter_calls"] += 1
    tracer.keep_alive.append(tree)  # so id(tree) is not reused in this pass
    tracer.filter_keys.add((id(tree), str(attribute), float(threshold)))


def _count_stack(counts, tracer, args, result):
    data = result.data
    counts["profiles.columns"] += data.shape[1]
    counts["profiles.constant_columns"] += int(
        np.count_nonzero(data.max(axis=0) == data.min(axis=0)))


def _count_train(counts, tracer, args, result):
    counts["classifier.train_calls"] += 1
    counts["classifier.train_rows"] += len(args[0])
    counts["classifier.forest_nodes"] += sum(len(t.feature) for t in result.trees)


def _count_predict(counts, tracer, args, result):
    counts["classifier.predict_rows"] += len(args[1])


# (module, function, layer metric its self time goes to, counter)
SITES = (
    ("cli", "load_grayscale", "imagery.load_s", None),
    ("cli", "load_multiband", "imagery.load_s", None),
    ("cli", "load_labels", "imagery.load_s", None),
    ("cli", "pca_reduce", "imagery.pca_s", None),
    ("cli", "rescale_to_levels", "imagery.quantize_s", None),
    ("cli", "tree_bundle", "profiles.bundle_s", None),
    ("cli", "build_ap", "profiles.ladder_s", _count_stack),
    ("cli", "build_fp", "profiles.ladder_s", _count_stack),
    ("cli", "train_forest", "classifier.train_s", _count_train),
    ("cli", "predict", "classifier.predict_s", _count_predict),
    ("cli", "evaluate", "classifier.evaluate_s", None),
    ("profiles", "build_min_tree", "hierarchies.build_s",
     _count_nodes("hierarchies.nodes")),
    ("profiles", "build_max_tree", "hierarchies.build_s",
     _count_nodes("hierarchies.nodes")),
    ("profiles", "build_tree_of_shapes", "inclusion.tos_s",
     _count_nodes("inclusion.nodes")),
    ("profiles", "build_alpha_tree", "partition.alpha_s", _count_alpha),
    ("profiles", "build_omega_tree", "partition.omega_s",
     _count_nodes("partition.nodes")),
    ("profiles", "compute_attributes", "attributes.compute_s",
     _count_attributes),
    ("profiles", "filter_tree", "profiles.filter_s", _count_filter),
)
ROOT_SPAN = "cli.main"
ROOT_METRIC = "cli.self_s"
TIME_METRICS = tuple(dict.fromkeys([ROOT_METRIC] + [s[2] for s in SITES]))
COUNT_METRICS = (
    "hierarchies.nodes", "inclusion.nodes", "partition.nodes",
    "partition.alpha_calls", "attributes.calls", "profiles.filter_calls",
    "profiles.columns", "profiles.constant_columns",
    "classifier.train_calls", "classifier.train_rows",
    "classifier.forest_nodes", "classifier.predict_rows",
)
_METRIC_OF = {f"{mod}.{fn}": metric for mod, fn, metric, _ in SITES}
_METRIC_OF[ROOT_SPAN] = ROOT_METRIC


@dataclass
class Span:
    pass_id: int
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float


class Tracer:
    """Records spans and counts while installed; one pass at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = {}
        self.distinct_filters: dict[int, int] = {}
        self.pass_id = -1
        self.filter_keys: set = set()
        self.keep_alive: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def install(self, modules: dict) -> None:
        """Swap each call-site name for its traced wrapper."""
        for mod_name, fn_name, _, counter in SITES:
            module = modules[mod_name]
            original = getattr(module, fn_name)
            self._saved.append((module, fn_name, original))
            setattr(module, fn_name,
                    self._wrap(original, f"{mod_name}.{fn_name}", counter))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)
        self._saved.clear()

    def run_pass(self, fn, *args):
        """Run one traced pass under a root span; returns fn's result."""
        self.pass_id += 1
        self.counts[self.pass_id] = Counter()
        self.filter_keys, self.keep_alive = set(), []
        try:
            return self._wrap(fn, ROOT_SPAN, None)(*args)
        finally:
            self.distinct_filters[self.pass_id] = len(self.filter_keys)
            self.keep_alive.clear()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[span_id] = Span(self.pass_id, span_id, parent,
                                           name, start, end)
            if counter is not None:
                counter(self.counts[self.pass_id], self, args, result)
            return result
        return traced

    def self_times(self) -> dict[int, float]:
        """Self time of every span, by span id."""
        child_time = Counter()
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        return {s.span_id: s.end - s.start - child_time[s.span_id]
                for s in self.spans}

    def pass_summaries(self) -> list[dict]:
        """Per pass: layer self times, counts and the smallest self time."""
        own = self.self_times()
        out = []
        for pass_id in sorted(self.counts):
            spans = [s for s in self.spans if s.pass_id == pass_id]
            layer = dict.fromkeys(TIME_METRICS, 0.0)
            for s in spans:
                layer[_METRIC_OF[s.name]] += own[s.span_id]
            counts = {k: int(self.counts[pass_id][k]) for k in COUNT_METRICS}
            calls = counts["profiles.filter_calls"]
            out.append({
                "min_self_s": min(own[s.span_id] for s in spans),
                "times": layer,
                "counts": counts,
                "filter_distinct_ratio":
                    self.distinct_filters[pass_id] / calls if calls else 0.0,
            })
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        own = self.self_times()
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "pass": s.pass_id, "id": s.span_id, "parent": s.parent,
                    "name": s.name, "start": s.start, "end": s.end,
                    "self_s": own[s.span_id]}) + "\n")
