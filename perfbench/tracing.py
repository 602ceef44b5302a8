"""Spans recorded from outside the program by wrapping mmwpl's public functions.

install() replaces each public function of each mmwpl module, and a few
hot methods, with a wrapper that records a span: name, start, end, parent
span and op id, plus up to two work counts. Every namespace that bound the
original object is patched, not just the defining module, because
`from .x import f` copies the binding (cli.py binds partition_by_scenario,
synthesize, render_table, style_row_count and predict; fitting.py and
models.py bind ensure_fit_ready). Spans stay in memory until dump().

Only imported by the ops process of a traced run; the untraced run never
imports this module, so it carries no wrapper.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

MODULES = ("cli", "dataio", "taxonomy", "fitting", "models", "report",
           "presets", "synthesis", "freespace", "numformat")
METHODS = (("taxonomy", "Dataset", "arrays"), ("taxonomy", "Dataset", "frequencies"),
           ("report", "FitReport", "find"), ("report", "FitReport", "single"))
# cli.main is the op itself (the root span). validate_sample runs once per
# CSV row inside read_csv; a span per row would cost more than it measures.
SKIP = {"cli.main", "taxonomy.validate_sample"}


def _path_bytes(path):
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


# name -> (bound arguments, result) -> (count_a, count_b)
COUNTERS = {
    "dataio.read_csv": lambda p, r: (len(r[0]) + len(r[1]), _path_bytes(p["source"])),
    "dataio.write_csv": lambda p, r: (len(p["dataset"]), _path_bytes(p["dest"])),
    "synthesis.synthesize": lambda p, r: (len(r), 0),
    "taxonomy.partition_by_scenario": lambda p, r: (len(p["dataset"]), len(r)),
    "taxonomy.Dataset.arrays": lambda p, r: (len(p["self"]), 0),
    "fitting.fit_ci": lambda p, r: (len(p["dataset"]), 0),
    "fitting.fit_fi": lambda p, r: (len(p["dataset"]), 0),
    "fitting.fit_abg": lambda p, r: (len(p["dataset"]), 0),
    "fitting.fit_cif": lambda p, r: (len(p["dataset"]), 0),
    "fitting.compute_f0": lambda p, r: (len(p["dataset"]), 0),
    "fitting.fit_xpd": lambda p, r: (len(p["cross_dataset"]), 0),
    "models.predict": lambda p, r: (getattr(r, "size", 1), 0),
}


class Tracer:
    """Span store plus the wrappers that feed it. One per process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        # [name_id, start, end, parent index or -1, op id, count_a, count_b]
        self.spans = []
        self._stack = []
        self.op_id = -1

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, func):
        name_id = self._name_id(name)
        counter = COUNTERS.get(name)
        signature = inspect.signature(func)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1, self.op_id, 0, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5], span[6] = counter(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def begin_op(self, op_id):
        self.op_id = op_id
        self._stack.append(len(self.spans))
        self.spans.append([self._name_id("op"), time.perf_counter(), 0.0, -1, op_id, 0, 0])

    def end_op(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def reset(self):
        self.spans.clear()

    def install(self):
        """Wrap mmwpl's public functions in every namespace that binds them."""
        import mmwpl  # noqa: F401  (loads the submodules)

        modules = {m: sys.modules[f"mmwpl.{m}"] for m in MODULES}
        namespaces = [vars(sys.modules["mmwpl"])] + [vars(mod) for mod in modules.values()]
        originals = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    originals[id(obj)] = self.wrap(name, obj)
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                if id(obj) in originals:
                    ns[attr] = originals[id(obj)]
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", getattr(cls, meth)))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as stream:
            json.dump({"names": self.names, "spans": self.spans}, stream)


# ---------------------------------------------------------------- analysis

def load(path):
    with open(path, encoding="utf-8") as stream:
        doc = json.load(stream)
    return doc["names"], doc["spans"]


def analyse(names, spans):
    """Aggregate spans into per-name totals and per-module self time.

    Returns a dict with, per span name: inclusive seconds of the outermost
    span of that name (nested same-name spans are not double counted),
    calls, and the two counts summed; per module: self seconds (duration
    minus the time its direct children cover, the op root counting as
    cli); op count, op time and the op root's own self time; and the
    outermost estimator spans' time net of nested taxonomy spans.
    """
    children_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            children_time[s[3]] += s[2] - s[1]
    by_name = {}
    module_self = {}
    fitting_self = 0.0
    fitting_rows = 0
    ops, op_time, op_self = 0, 0.0, 0.0
    for i, (nid, start, end, parent, _op, a, b) in enumerate(spans):
        name = names[nid]
        dur = end - start
        self_time = dur - children_time[i]
        module = "cli" if name == "op" else name.split(".", 1)[0]
        module_self[module] = module_self.get(module, 0.0) + self_time
        if name == "op":
            ops += 1
            op_time += dur
            op_self += self_time
            continue
        agg = by_name.setdefault(name, {"s": 0.0, "calls": 0, "a": 0, "b": 0})
        agg["calls"] += 1
        agg["a"] += a
        agg["b"] += b
        ancestors = _ancestor_names(spans, names, parent)
        if name not in ancestors:
            agg["s"] += dur
        # estimator time: outermost fitting spans, net of the outermost
        # taxonomy (data-model) spans nested inside them
        in_fitting = any(n.startswith("fitting.") for n in ancestors)
        if module == "fitting" and not in_fitting:
            fitting_rows += a
            fitting_self += dur
        elif (module == "taxonomy" and in_fitting
              and not any(n.startswith("taxonomy.") for n in ancestors)):
            fitting_self -= dur
    return {"by_name": by_name, "module_self": module_self, "ops": ops, "op_time": op_time,
            "op_self": op_self, "fitting_self": fitting_self, "fitting_rows": fitting_rows}


def _ancestor_names(spans, names, parent):
    out = set()
    while parent >= 0:
        out.add(names[spans[parent][0]])
        parent = spans[parent][3]
    return out
