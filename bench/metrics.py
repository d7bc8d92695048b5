"""Metric definitions and the arithmetic that turns passes and spans into them.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names, units and
directions in ``BENCHMARK.json``; each per-layer entry also names the
end-to-end metric and workload it is expected to move.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracing import ITEM, LAYERS, busy_time, layer_of, self_times

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "items_per_s": ("1/s", "higher", 0.2),
    "item_p50_ms": ("ms", "lower", 0.2),
    "item_tail_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

# name -> (unit, better, what it should move)
PER_LAYER = {
    "linalg.q.rref.calls": ("count", "lower", "catalog items_per_s; separation item_p50_ms"),
    "linalg.q.rref.cells": ("count", "lower", "catalog items_per_s; separation item_p50_ms"),
    "linalg.q.busy_s": ("s", "lower", "catalog items_per_s; separation item_p50_ms"),
    "linalg.fp.rref.calls": ("count", "lower", "census items_per_s (r=2 items)"),
    "linalg.fp.rref.cells": ("count", "lower", "census items_per_s (r=2 items)"),
    "linalg.fp.busy_s": ("s", "lower", "census items_per_s (r=2 items)"),
    "linalg.contains.calls": ("count", "lower", "census items_per_s (r=2 items)"),
    "linalg.det.calls": ("count", "lower", "census items_per_s (r=2 items)"),
    "algebra.jordan.busy_s": ("s", "lower", "catalog items_per_s"),
    "algebra.derivation_algebra.busy_s": ("s", "lower", "catalog items_per_s"),
    "algebra.invariant_vector.calls": ("count", "lower", "separation items_per_s and item_p50_ms"),
    "algebra.invariant_vector.busy_s": ("s", "lower", "separation items_per_s and item_p50_ms"),
    "cohomology.h2.calls": ("count", "lower", "catalog items_per_s; census item_p50_ms"),
    "cohomology.h2.busy_s": ("s", "lower", "catalog items_per_s; census item_p50_ms"),
    "cohomology.h2.hit_ratio": ("ratio", "higher", "catalog items_per_s; census item_p50_ms"),
    "cohomology.self_s": ("s", "lower", "catalog items_per_s; census item_p50_ms"),
    "extension.central_extend.calls": ("count", "lower", "catalog items_per_s"),
    "extension.refused": ("count", "lower", "catalog items_per_s"),
    "extension.reconstruct.busy_s": ("s", "lower", "catalog items_per_s"),
    "extension.self_s": ("s", "lower", "catalog items_per_s"),
    "isomorphism.search.calls.f5": ("count", "lower", "separation item_tail_ms and items_per_s"),
    "isomorphism.search.calls.f7": ("count", "lower", "separation item_tail_ms and items_per_s"),
    "isomorphism.search.busy_s.f5": ("s", "lower", "separation item_tail_ms and items_per_s"),
    "isomorphism.search.busy_s.f7": ("s", "lower", "separation item_tail_ms and items_per_s"),
    "isomorphism.search.hits": ("count", "higher", "separation item_tail_ms and items_per_s"),
    "isomorphism.verify.calls": ("count", "lower", "separation item_tail_ms and items_per_s"),
    "isomorphism.search.useful_ratio": ("ratio", "higher", "separation items_per_s"),
    "isomorphism.enumerate_automorphisms.busy_s": ("s", "lower", "census items_per_s and peak_rss_mb"),
    "isomorphism.automorphisms": ("count", "lower", "census items_per_s and peak_rss_mb"),
    "isomorphism.orbit_census.self_s": ("s", "lower", "census items_per_s and peak_rss_mb"),
    "catalog.instantiate.busy_s": ("s", "lower", "setup_s"),
    "tracing.overhead": ("ratio", "lower", "none: traced pass time over untraced pass time"),
}
for _layer in LAYERS + ("bench",):
    PER_LAYER[f"{_layer}.self_share"] = (
        "ratio", "lower", "where a saving lands: the layer's self time over item time")


def tail_rank(n: int):
    """0-based index, in ascending order, of the highest percentile that has at
    least ten items beyond it, and that percentile; None below eleven items."""
    if n < 11:
        return None
    k = n - 10  # items at or below
    return k - 1, 100.0 * k / n


def latency_metrics(latencies):
    """item_p50_ms and item_tail_ms (with its percentile) over per-item seconds."""
    xs = sorted(latencies)
    out = {"item_p50_ms": 1000 * statistics.median(xs)}
    rank = tail_rank(len(xs))
    if rank is None:
        out["item_tail_ms"], pct = 1000 * xs[-1], 100.0
    else:
        out["item_tail_ms"], pct = 1000 * xs[rank[0]], rank[1]
    return out, pct


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass
# ---------------------------------------------------------------------------


class SpanTable:
    """The tracer's arrays plus derived self times, with name-based selectors."""

    def __init__(self, names, nid, start, end, parent, item):
        self.names = names
        self.nid, self.start, self.end, self.parent, self.item = nid, start, end, parent, item
        self.self_s = self_times(start, end, parent)

    def mask(self, pred):
        ids = [i for i, n in enumerate(self.names) if pred(n)]
        return np.isin(self.nid, ids)

    def calls(self, pred) -> int:
        return int(self.mask(pred).sum())

    def busy(self, pred) -> float:
        return busy_time(self.start, self.end, self.mask(pred))

    def self_sum(self, pred, items_only=False) -> float:
        m = self.mask(pred)
        if items_only:
            m &= self.item >= 0
        return float(self.self_s[m].sum())


def per_layer(table: SpanTable, counts, h2_info, overhead, useful_ratio):
    """Every PER_LAYER metric from one traced pass."""
    def named(*names):
        return lambda n: n in names

    def prefix(p):
        return lambda n: n.startswith(p)

    def layer(name):
        return lambda n: layer_of(n) == name

    lookups = h2_info.hits + h2_info.misses
    m = {
        "linalg.q.rref.calls": table.calls(named("linalg.q.Matrix.rref")),
        "linalg.q.rref.cells": counts["linalg.q.rref.cells"],
        "linalg.q.busy_s": table.busy(prefix("linalg.q.")),
        "linalg.fp.rref.calls": table.calls(named("linalg.fp.Matrix.rref")),
        "linalg.fp.rref.cells": counts["linalg.fp.rref.cells"],
        "linalg.fp.busy_s": table.busy(prefix("linalg.fp.")),
        "linalg.contains.calls": table.calls(named("linalg.q.Subspace.contains", "linalg.fp.Subspace.contains")),
        "linalg.det.calls": table.calls(named("linalg.q.Matrix.det", "linalg.fp.Matrix.det")),
        "algebra.jordan.busy_s": table.busy(named("algebra.jordan_identity_holds")),
        "algebra.derivation_algebra.busy_s": table.busy(named("algebra.derivation_algebra")),
        "algebra.invariant_vector.calls": table.calls(named("algebra.invariant_vector")),
        "algebra.invariant_vector.busy_s": table.busy(named("algebra.invariant_vector")),
        "cohomology.h2.calls": table.calls(named("cohomology.h2")),
        "cohomology.h2.busy_s": table.busy(named("cohomology.h2")),
        "cohomology.h2.hit_ratio": h2_info.hits / lookups if lookups else 0.0,
        "cohomology.self_s": table.self_sum(layer("cohomology")),
        "extension.central_extend.calls": table.calls(named("extension.central_extend")),
        "extension.refused": counts["extension.central_extend.refused"],
        "extension.reconstruct.busy_s": table.busy(named("extension.reconstruct")),
        "extension.self_s": table.self_sum(layer("extension")),
        "isomorphism.search.calls.f5": table.calls(named("isomorphism.search_isomorphism.f5")),
        "isomorphism.search.calls.f7": table.calls(named("isomorphism.search_isomorphism.f7")),
        "isomorphism.search.busy_s.f5": table.busy(named("isomorphism.search_isomorphism.f5")),
        "isomorphism.search.busy_s.f7": table.busy(named("isomorphism.search_isomorphism.f7")),
        "isomorphism.search.hits": counts["isomorphism.search.hits"],
        "isomorphism.verify.calls": table.calls(named("isomorphism.verify_isomorphism")),
        "isomorphism.search.useful_ratio": useful_ratio,
        "isomorphism.enumerate_automorphisms.busy_s": table.busy(named("isomorphism.enumerate_automorphisms")),
        "isomorphism.automorphisms": counts["isomorphism.automorphisms"],
        "isomorphism.orbit_census.self_s": table.self_sum(named("isomorphism.orbit_census")),
        "catalog.instantiate.busy_s": table.busy(named("catalog.instantiate")),
        "tracing.overhead": overhead,
    }
    item_time = float((table.end - table.start)[table.mask(named(ITEM))].sum())
    for name in LAYERS + ("bench",):
        share = table.self_sum(layer(name), items_only=True) / item_time if item_time else 0.0
        m[f"{name}.self_share"] = share
    return m
