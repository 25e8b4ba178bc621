"""Span tracing of projlink from outside the package.

`Tracer.install()` replaces every public function of projlink's modules,
plus the two methods the layer metrics need, with a wrapper that records a
span: name, start, end and parent.  A function is reachable under several
names (`projlink.atlas.normal_form` is a separate binding from
`projlink.links.normal_form`), so every binding that holds the original is
patched.  No file under src/ changes.

Helpers that run once per element (an edge, a triple, a step) are counted
but not timed: a span around each would charge the tracer's own cost to the
caller's self time.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from functools import update_wrapper
from time import perf_counter

MODULES = ("links", "atlas", "jsj", "generators", "cli")
METHODS = (("jsj", "JsjTree", "adjacency"), ("atlas", "Atlas", "to_dict"))
COUNT_ONLY = frozenset({
    "links.make_link", "links.component_count", "links.lift",
    "links.link_to_dict", "links.step_to_dict", "jsj.edge_orientation",
})
# Units of work a call processed, read from its arguments or its result.
UNITS = {
    "atlas.universe": lambda args, res: len(res),
    "atlas.enumerate_classes": lambda args, res: sum(map(len, res.classes.values())),
    "atlas.closure_partition": lambda args, res: len(res),
    "atlas.relation_lift_compatibility": lambda args, res: res.checked_pairs,
    "jsj.validate_tree": lambda args, res: len(res.vertices),
    "jsj.cover_from_dict": lambda args, res: len(res.cover.vertices),
    "jsj.potential": lambda args, res: len(res),
    "jsj.outermost": lambda args, res: len(args[0].vertices),
    "jsj.lemma44_check": lambda args, res: len(args[0].cover.vertices),
    "generators.random_jsj_tree": lambda args, res: len(res.vertices),
    "generators.random_cover_spec": lambda args, res: len(res.cover.vertices),
}
REPEAT_TRACKED = "links.normal_form"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_units = array("d")
        self.counts: dict[str, int] = {}
        self.repeats = 0
        self._seen: set = set()
        self._stack = [-1]

    def install(self) -> None:
        """Patch every binding of every traced function in projlink."""
        package = importlib.import_module("projlink")
        modules = [package] + [importlib.import_module(f"projlink.{m}") for m in MODULES]
        wrappers = {}
        for short, mod in zip(MODULES, modules[1:]):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
        for short, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"projlink.{short}"), cls_name)
            setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}",
                                          vars(cls)[meth]))

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            counts = self.counts
            counts[name] = 0

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return update_wrapper(counted, fn)

        nid = len(self.names)
        self.names.append(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, span_units = self.span_start, self.span_end, self.span_units
        stack, units = self._stack, UNITS.get(name)
        seen = self._seen if name == REPEAT_TRACKED else None

        def traced(*args, **kwargs):
            if seen is not None:
                if args[0] in seen:
                    self.repeats += 1
                else:
                    seen.add(args[0])
            i = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_units.append(0.0)
            span_end.append(0.0)
            stack.append(i)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[i] = perf_counter()
                stack.pop()
            if units is not None:
                span_units[i] = units(args, result)
            return result
        return update_wrapper(traced, fn)

    def totals(self) -> dict:
        """Per name: calls, inclusive seconds, self seconds and units of work.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        n = len(self.span_start)
        child = [0.0] * n
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += dur[i]
        per = [[0, 0.0, 0.0, 0.0] for _ in self.names]
        for i, nid in enumerate(self.span_name):
            row = per[nid]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
            row[3] += self.span_units[i]
        out = {name: {"calls": r[0], "incl_s": r[1], "self_s": r[2], "units": r[3]}
               for name, r in zip(self.names, per)}
        for name, calls in self.counts.items():
            out[name] = {"calls": calls, "incl_s": 0.0, "self_s": 0.0, "units": 0.0}
        out["_repeats"] = {"calls": self.repeats, "incl_s": 0.0, "self_s": 0.0,
                           "units": 0.0}
        return out


def merge_totals(parts) -> dict:
    """Sum the per-name totals of several traced processes."""
    out: dict[str, dict] = {}
    for part in parts:
        for name, row in part.items():
            acc = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                        "units": 0.0})
            for key, value in row.items():
                acc[key] += value
    return out
