"""Span recorder and per-layer metrics for the traced benchmark run.

The recorder wraps public portcut functions at the module attribute their
callers look them up by (``from .spectral import spectral_bisect`` in
``portcut.tree`` binds ``portcut.tree.spectral_bisect``), so nothing in
``src/`` changes. Wrappers are installed only around traced ops; untraced
ops run the original functions. Spans are kept in memory and written out
once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


def _n_vertices(args, kwargs, result):
    return {"n": args[0].n_vertices}


def _oracle_candidates(args, kwargs, result):
    n = args[0].n_vertices
    return {"candidates": 2 ** (n - 1) - 1}


def _ingest_counts(args, kwargs, result):
    matrix, report = result
    n_cols = matrix.n_assets + len(report.dropped_assets)
    return {
        "bytes": os.path.getsize(args[0].path),
        "cells": (matrix.n_rows + len(report.dropped_rows)) * n_cols,
        "dropped_rows": len(report.dropped_rows),
    }


def _tree_counts(args, kwargs, result):
    policy = args[1] if len(args) > 1 else kwargs["policy"]
    objective = args[2] if len(args) > 2 else kwargs.get("objective")
    return {"cuts": result.k_performed, "key": repr((objective, policy))}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


# (module, attribute, span name, attribute extractor). A span name's prefix
# before the first dot is its layer. Several wrap points share a span name
# when different callers reach the same function through different modules.
WRAP_POINTS = [
    ("portcut.cli", "main", "cli.main", None),
    ("portcut.cli", "ingest_prices_with_report", "ingest.read", _ingest_counts),
    ("portcut.cli", "run_backtest", "backtest.run", None),
    ("portcut.cli", "report_to_dict", "serialization.report", None),
    ("portcut.cli", "canonical_json", "serialization.json", _text_bytes),
    ("portcut.cli", "wealth_to_csv", "serialization.csv", _text_bytes),
    ("portcut.cli", "wealth_to_svg", "serialization.svg", _text_bytes),
    ("portcut.backtest", "simple_returns", "market_graph.returns", None),
    ("portcut.backtest", "sample_covariance", "market_graph.covariance", None),
    ("portcut.backtest", "market_graph_from_covariance", "market_graph.graph", None),
    ("portcut.backtest", "build_cut_tree", "tree.build", _tree_counts),
    ("portcut.backtest", "allocate", "allocation.cluster", None),
    ("portcut.backtest", "asset_weights", "allocation.cluster", None),
    ("portcut.backtest", "min_variance_weights", "allocation.mv", None),
    ("portcut.tree", "build_cut_tree", "tree.build", _tree_counts),
    ("portcut.tree", "spectral_bisect", "spectral.bisect", None),
    ("portcut.allocation", "allocate", "allocation.cluster", None),
    ("portcut.allocation", "asset_weights", "allocation.cluster", None),
    ("portcut.spectral", "spectral_bisect", "spectral.bisect", None),
    ("portcut.spectral", "brute_force_min_cut", "spectral.oracle", _oracle_candidates),
    ("portcut.spectral", "fiedler_vector", "spectral.fiedler", _n_vertices),
    ("portcut.spectral", "jacobi_eigh", "eigen.jacobi", None),
]

# Wrap points that only count calls: they run hundreds of times per op and
# their time belongs to the enclosing tree build.
COUNT_POINTS = [
    ("portcut.tree", "induced_subgraph", "tree.induced_subgraph"),
]

# Per-layer metrics with their units, in the order they are reported.
LAYER_METRICS = {
    "ingest.s": "s",
    "ingest.cells": "count",
    "ingest.bytes": "bytes",
    "ingest.dropped_rows": "count",
    "market_graph.returns_s": "s",
    "market_graph.covariance_s": "s",
    "market_graph.graph_s": "s",
    "eigen.jacobi_s": "s",
    "eigen.jacobi_calls": "count",
    "spectral.fiedler_s": "s",
    "spectral.fiedler_calls": "count",
    "spectral.fiedler_n3": "n3-computed",
    "spectral.bisect_self_s": "s",
    "spectral.oracle_s": "s",
    "spectral.oracle_candidates": "count",
    "spectral.oracle_us_per_candidate": "us",
    "tree.build_s": "s",
    "tree.self_s": "s",
    "tree.induced_subgraph_calls": "count",
    "tree.cuts_performed": "count",
    "tree.cut_useful_ratio": "ratio",
    "allocation.cluster_s": "s",
    "allocation.mv_s": "s",
    "backtest.run_s": "s",
    "backtest.self_s": "s",
    "backtest.trees_built": "count",
    "backtest.tree_reuse_ratio": "ratio",
    "serialization.s": "s",
    "serialization.bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    id: int
    parent: Optional[int]
    op: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects nested spans and call counts, one op at a time."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[int, Counter] = {}
        self.skipped: List[str] = []
        self._stack: List[int] = []
        self._op = -1
        self._saved = []

    def begin_op(self, op_index: int) -> None:
        """Install the wrappers; spans recorded from here belong to ``op_index``."""
        self._op = op_index
        self.counts[op_index] = Counter()
        for module_name, attr, span_name, extract in WRAP_POINTS:
            self._patch(module_name, attr, self._span_wrapper(span_name, extract))
        for module_name, attr, count_name in COUNT_POINTS:
            self._patch(module_name, attr, self._count_wrapper(count_name))

    def end_op(self) -> None:
        """Restore the original functions."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        self._stack.clear()

    def _patch(self, module_name: str, attr: str, make: Callable) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            # The layer was removed from the program; its metrics read 0.
            label = f"{module_name}.{attr}"
            if label not in self.skipped:
                self.skipped.append(label)
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def _span_wrapper(self, name: str, extract) -> Callable:
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = Span(id=len(self.spans), parent=self._stack[-1] if self._stack else None,
                            op=self._op, name=name, start=0.0)
                self.spans.append(span)
                self._stack.append(span.id)
                span.start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    self._stack.pop()
                if extract is not None:
                    span.attrs = extract(args, kwargs, result)
                return result
            return wrapper
        return make

    def _count_wrapper(self, name: str) -> Callable:
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[self._op][name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def dump(self, path: str, extra: dict) -> None:
        payload = dict(extra)
        payload["skipped_wrap_points"] = self.skipped
        payload["spans"] = [
            {"id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
             "start": s.start, "end": s.end, "attrs": s.attrs}
            for s in self.spans
        ]
        payload["counts"] = {str(op): dict(c) for op, c in self.counts.items()}
        with open(path, "w") as handle:
            json.dump(payload, handle)


def op_layer_metrics(spans: List[Span], counts: Counter) -> Dict[str, float]:
    """Per-layer metrics of one op from its spans and call counts."""
    by_id = {s.id: s for s in spans}
    children: Dict[int, List[Span]] = {s.id: [] for s in spans}
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def named(*names):
        return [s for s in spans if s.name in names]

    def total(*names):
        return sum(s.duration for s in named(*names))

    def self_time(*names):
        return sum(s.duration - sum(c.duration for c in children[s.id])
                   for s in named(*names))

    def inside(span: Span, name: str) -> bool:
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == name:
                return True
        return False

    ingest = named("ingest.read")
    fiedler = named("spectral.fiedler")
    oracle = named("spectral.oracle")
    builds = named("tree.build")
    bt_builds = [s for s in builds if inside(s, "backtest.run")]
    build_solves = sum(1 for s in fiedler if inside(s, "tree.build"))
    cuts = sum(s.attrs["cuts"] for s in builds)
    candidates = sum(s.attrs["candidates"] for s in oracle)
    oracle_s = total("spectral.oracle")
    serialization = [s for s in spans if s.name.startswith("serialization.")]

    return {
        "ingest.s": total("ingest.read"),
        "ingest.cells": sum(s.attrs["cells"] for s in ingest),
        "ingest.bytes": sum(s.attrs["bytes"] for s in ingest),
        "ingest.dropped_rows": sum(s.attrs["dropped_rows"] for s in ingest),
        "market_graph.returns_s": total("market_graph.returns"),
        "market_graph.covariance_s": total("market_graph.covariance"),
        "market_graph.graph_s": total("market_graph.graph"),
        "eigen.jacobi_s": total("eigen.jacobi"),
        "eigen.jacobi_calls": len(named("eigen.jacobi")),
        "spectral.fiedler_s": total("spectral.fiedler"),
        "spectral.fiedler_calls": len(fiedler),
        "spectral.fiedler_n3": sum(s.attrs["n"] ** 3 for s in fiedler),
        "spectral.bisect_self_s": self_time("spectral.bisect"),
        "spectral.oracle_s": oracle_s,
        "spectral.oracle_candidates": candidates,
        "spectral.oracle_us_per_candidate": oracle_s / candidates * 1e6 if candidates else 0.0,
        "tree.build_s": total("tree.build"),
        "tree.self_s": self_time("tree.build"),
        "tree.induced_subgraph_calls": counts["tree.induced_subgraph"],
        "tree.cuts_performed": cuts,
        "tree.cut_useful_ratio": cuts / build_solves if build_solves else 0.0,
        "allocation.cluster_s": total("allocation.cluster"),
        "allocation.mv_s": total("allocation.mv"),
        "backtest.run_s": total("backtest.run"),
        "backtest.self_s": self_time("backtest.run"),
        "backtest.trees_built": len(bt_builds),
        "backtest.tree_reuse_ratio": (
            len({s.attrs["key"] for s in bt_builds}) / len(bt_builds) if bt_builds else 0.0
        ),
        "serialization.s": sum(s.duration for s in serialization),
        "serialization.bytes": sum(s.attrs.get("bytes", 0) for s in serialization),
        "cli.self_s": self_time("cli.main"),
    }


def layer_metrics(recorder: Recorder, traced_ops: List[int],
                  traced_times: List[float], untraced_times: List[float]) -> Dict[str, float]:
    """Median over traced ops of each per-layer metric, plus tracing overhead."""
    per_op = []
    for op in traced_ops:
        spans = [s for s in recorder.spans if s.op == op]
        per_op.append(op_layer_metrics(spans, recorder.counts.get(op, Counter())))
    metrics = {name: statistics.median(m[name] for m in per_op)
               for name in LAYER_METRICS if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (statistics.median(traced_times)
                                   - statistics.median(untraced_times))
    return metrics
