"""Span tracer for the traced benchmark run.

``Tracer.install`` rebinds the public functions of each finfree layer to
timing wrappers, in every finfree namespace that holds them (the defining
module and every module that imported the name), so spans nest the way the
calls do: cli -> experiments -> cumulants -> partitions.  ``uninstall``
puts the originals back; the untraced run never installs anything.

A span is ``(id, parent, op, name, start, end, busy, items)``.  For a
plain function ``busy = end - start``.  A generator gets one span whose
``busy`` sums the time spent inside its ``next()`` calls and whose ``items``
counts what it yielded; code the consumer runs between two items belongs to
the consumer's span.  A span's self time is its busy time minus the busy
time of its children, and a layer's ``self_s`` sums that over its spans.

Spans are kept in memory and written out as JSON lines by ``write``.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

LAYERS = ("partitions", "identities", "cumulants", "polycalc", "freelimits",
          "experiments", "cli")

# Per-item helpers of the lattice (called once per partition or block).  Left
# unwrapped so a span is not recorded per partition; their time counts to the
# self time of the caller's span.
LEAF_HELPERS = {
    "partitions": {"mobius", "mobius_top", "mobius_bottom", "is_noncrossing",
                   "is_refinement", "join", "join_all", "bell_number"},
}

# Methods traced besides the module-level functions.
METHODS = (
    ("polycalc", "MonicPoly", "from_roots", "from_roots"),
    ("experiments", "ResultTable", "to_json", "table_format"),
    ("experiments", "ResultTable", "to_csv", "table_format"),
    ("freelimits", "PowerSeries", "exp", "PowerSeries.exp"),
)


def _scalar_tag(value) -> str:
    name = type(value).__name__
    if name in ("int", "Fraction"):
        return "exact"
    if name in ("mpf", "mpc"):
        return "mpf"
    return "f64"


def _tag_cumulants_from_atilde(args, kwargs):
    atilde = args[1] if len(args) > 1 else kwargs["atilde"]
    return _scalar_tag(atilde[1] if len(atilde) > 1 else atilde[0])


def _tag_roots_of(args, kwargs):
    digits = args[1] if len(args) > 1 else kwargs.get("digits")
    return "f64" if digits is None else "mp"


def _tag_count_r(args, kwargs):
    method = args[3] if len(args) > 3 else kwargs.get("method", "brute")
    return method


# Functions whose span name gets a suffix chosen from the call's arguments.
TAGS = {
    ("cumulants", "cumulants_from_atilde"): _tag_cumulants_from_atilde,
    ("polycalc", "roots_of"): _tag_roots_of,
    ("partitions", "count_R"): _tag_count_r,
}


class Tracer:
    """Records spans around the layer functions while installed."""

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []
        self.op = 0
        self._stack: list[int] = []
        self._next_id = 1
        self._patches: list[tuple] = []

    # -- span bookkeeping --------------------------------------------------

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        return sid, parent

    def _wrap_function(self, name: str, fn, tag=None):
        tracer = self
        stack = self._stack

        def traced(*args, **kwargs):
            span = name if tag is None else f"{name}.{tag(args, kwargs)}"
            sid, parent = tracer._open()
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, tracer.op, span, t0, t1, t1 - t0, 0))

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self
        stack = self._stack

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            sid = parent = op = 0
            start = end = busy = 0.0
            items = 0
            try:
                while True:
                    t0 = perf_counter()
                    if not sid:
                        sid, parent = tracer._open()
                        start, op = t0, tracer.op
                    stack.append(sid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end = perf_counter()
                        stack.pop()
                        busy += end - t0
                    items += 1
                    yield item
            finally:
                it.close()
                if sid:
                    tracer.spans.append((sid, parent, op, name, start, end, busy, items))

        traced.__wrapped__ = fn
        return traced

    def _wrap(self, layer: str, attr: str, fn, span_name: str | None = None):
        name = f"{layer}.{span_name or attr}"
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        return self._wrap_function(name, fn, TAGS.get((layer, attr)))

    # -- installation ------------------------------------------------------

    def _namespaces(self):
        prefix = self.package.__name__
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == prefix or n.startswith(prefix + "."))]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        prefix = self.package.__name__
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{prefix}.{layer}"]
            skip = LEAF_HELPERS.get(layer, set())
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_") and attr not in skip):
                    wrappers[fn] = self._wrap(layer, attr, fn)
        for namespace in self._namespaces():
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((namespace, attr, value))
                    setattr(namespace, attr, wrappers[value])
        for layer, cls_name, attr, span_name in METHODS:
            cls = getattr(sys.modules[f"{prefix}.{layer}"], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(layer, attr, raw.__func__, span_name))
            else:
                new = self._wrap(layer, attr, raw, span_name)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        keys = ("id", "parent", "op", "name", "start", "end", "busy", "items")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def summarize(spans: list[tuple]) -> dict:
    """Per-name and per-layer totals from a list of spans.

    ``busy`` per name counts only spans with no ancestor of the same name,
    so a function that reaches itself again is not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    child_busy: dict[int, float] = {}
    for s in spans:
        if s[1]:
            child_busy[s[1]] = child_busy.get(s[1], 0.0) + s[6]

    def has_same_name_ancestor(s) -> bool:
        parent = by_id.get(s[1])
        while parent is not None:
            if parent[3] == s[3]:
                return True
            parent = by_id.get(parent[1])
        return False

    names: dict[str, dict] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    root_busy = 0.0
    for s in spans:
        entry = names.setdefault(s[3], {"calls": 0, "busy": 0.0, "items": 0})
        entry["calls"] += 1
        entry["items"] += s[7]
        if not has_same_name_ancestor(s):
            entry["busy"] += s[6]
        layer_self[s[3].split(".", 1)[0]] += s[6] - child_busy.get(s[0], 0.0)
        if not s[1]:
            root_busy += s[6]

    noncrossing_ids = {s[0] for s in spans if s[3] == "partitions.enumerate_noncrossing"}
    visited = sum(s[7] for s in spans
                  if s[3] == "partitions.enumerate_partitions" and s[1] in noncrossing_ids)
    return {"names": names, "layer_self": layer_self, "root_busy": root_busy,
            "noncrossing_visited": visited}
