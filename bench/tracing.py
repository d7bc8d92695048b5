"""Spans around the public entry points of the nilj layers, recorded from outside.

The benchmark never edits the package.  ``install`` replaces each public
function of a layer module, everywhere a ``nilj`` module binds it (so
``nilj.isomorphism.h2`` and ``nilj.isomorphism.joint_radical`` are traced as
well as ``nilj.cohomology.h2``), and the operation methods of ``Matrix`` and
``Subspace`` on the class itself.  ``Field`` arithmetic and the accessors of
``Matrix`` and ``Algebra`` (``at``, ``row``, ``vec_mul``, ...) are deliberately
not wrapped: they run millions of times per pass and a span each would swamp
the numbers, so their cost shows up as self time of the calling layer.

Spans live in flat arrays while the run lasts and are written once at the end.
A span's self time is its duration minus the durations of its direct children;
spans nest properly because the benchmark is one thread.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("linalg", "algebra", "cohomology", "extension", "isomorphism", "catalog")

# operation methods traced on the class; accessors and constructors are not
MATRIX_METHODS = ("rref", "rank", "nullspace", "solve", "det", "is_invertible", "inverse", "mul")
SUBSPACE_METHODS = ("span", "contains", "contains_subspace", "add", "intersect")

ITEM = "bench.item"


class Tracer:
    """In-memory span store: one row per span, parents by row index."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item = array("l")
        self.counts = Counter()
        self._stack = [-1]
        self._item = -1

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.item.append(self._item)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def exit(self, sid: int):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    def item_span(self, item_id: int):
        self._item = item_id
        return _Span(self, self.name_id(ITEM))

    def arrays(self):
        """(names, name ids, start, end, parent, item) as numpy arrays."""
        return (
            list(self.names),
            np.frombuffer(self.name, dtype=np.int64) if self.name else np.zeros(0, np.int64),
            np.frombuffer(self.start, dtype=np.float64) if self.start else np.zeros(0),
            np.frombuffer(self.end, dtype=np.float64) if self.end else np.zeros(0),
            np.frombuffer(self.parent, dtype=np.int64) if self.parent else np.zeros(0, np.int64),
            np.frombuffer(self.item, dtype=np.int64) if self.item else np.zeros(0, np.int64),
        )

    def save(self, path):
        names, nid, start, end, parent, item = self.arrays()
        np.savez_compressed(
            path, names=np.array(names), name=nid, start=start, end=end, parent=parent, item=item
        )


class _Span:
    __slots__ = ("tracer", "nid", "sid")

    def __init__(self, tracer, nid):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.sid = self.tracer.enter(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.exit(self.sid)
        return False


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def self_times(start, end, parent):
    """Duration minus the summed durations of direct children, per span."""
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child


def busy_time(start, end, mask) -> float:
    """Wall time covered by the spans in ``mask`` (nested ones counted once).

    Spans are stored in start order and nest properly, so a masked span is
    outermost exactly when it starts after every earlier masked span ended.
    """
    s, e = start[mask], end[mask]
    if not len(s):
        return 0.0
    reach = np.maximum.accumulate(e)
    outer = np.ones(len(s), dtype=bool)
    outer[1:] = s[1:] >= reach[:-1]
    return float((e[outer] - s[outer]).sum())


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


# ---------------------------------------------------------------------------
# installing the wrappers
# ---------------------------------------------------------------------------


def _field_tag(field) -> str:
    return "fp" if field.is_prime_field else "q"


class Installation:
    """The wrappers put in place by ``install``; ``remove`` restores the originals."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()


def _counting_hooks(tracer):
    """Counters taken at the layer boundary from a call's arguments and result."""
    counts = tracer.counts

    def rref(args, result):
        m = args[0]
        counts[f"linalg.{_field_tag(m.field)}.rref.cells"] += m.rows * m.cols

    def search(args, result):
        counts["isomorphism.search.hits"] += result is not None

    def automorphisms(args, result):
        counts["isomorphism.automorphisms"] += len(result)

    return {
        "Matrix.rref": rref,
        "search_isomorphism": search,
        "enumerate_automorphisms": automorphisms,
    }


# functions whose spans are split by the prime of the field argument at this index
FIELD_ARGUMENT = {"search_isomorphism": 2}


def _wrap_function(tracer, fn, span_name, hook, refusals, field_arg=None):
    nid = tracer.name_id(span_name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if field_arg is None:
            sid = tracer.enter(nid)
        else:
            sid = tracer.enter(tracer.name_id(f"{span_name}.f{args[field_arg].p}"))
        try:
            result = fn(*args, **kwargs)
        except refusals:
            tracer.counts[f"{span_name}.refused"] += 1
            raise
        finally:
            tracer.exit(sid)
        if hook is not None:
            hook(args, result)
        return result

    return traced


def _wrap_method(tracer, fn, layer, cls, meth, hook):
    ids = {}

    def nid_for(field):
        tag = _field_tag(field)
        key = ids.get(tag)
        if key is None:
            key = ids[tag] = tracer.name_id(f"{layer}.{tag}.{cls}.{meth}")
        return key

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        field = args[0] if meth == "span" else args[0].field
        sid = tracer.enter(nid_for(field))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(sid)
        if hook is not None:
            hook(args, result)
        return result

    return traced


def install(tracer: Tracer) -> Installation:
    """Wrap every public layer function and the linalg operation methods."""
    from nilj import errors, linalg

    inst = Installation()
    hooks = _counting_hooks(tracer)
    nilj_modules = [m for name, m in sys.modules.items() if name.startswith("nilj")]
    for layer in LAYERS:
        mod = sys.modules[f"nilj.{layer}"]
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                continue
            if getattr(fn, "__module__", None) != mod.__name__:
                continue
            refusals = errors.InvalidCocycleError if attr == "central_extend" else ()
            wrapped = _wrap_function(
                tracer, fn, f"{layer}.{attr}", hooks.get(attr), refusals, FIELD_ARGUMENT.get(attr)
            )
            for other in nilj_modules:
                for name, value in list(vars(other).items()):
                    if value is fn:
                        inst.set(other, name, wrapped)
    for cls, methods in ((linalg.Matrix, MATRIX_METHODS), (linalg.Subspace, SUBSPACE_METHODS)):
        for meth in methods:
            raw = cls.__dict__[meth]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            hook = hooks.get(f"{cls.__name__}.{meth}")
            wrapped = _wrap_method(tracer, fn, "linalg", cls.__name__, meth, hook)
            inst.set(cls, meth, staticmethod(wrapped) if is_static else wrapped)
    return inst
