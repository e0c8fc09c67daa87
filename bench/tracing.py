"""Spans around the public functions of each dafbe layer, from outside.

``Tracer.install`` swaps each function listed in ``TARGETS`` for a
wrapper that records one span per call: name, start, end, parent span
and the id of the instance being solved.  Spans stay in flat arrays in
memory and are written out only when the run ends.  A layer's self time
is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array

# (span name, module, class or None, attribute).  Spans are named by the
# module that owns the function; kernels are the active backend module.
TARGETS = [
    ("cli.main", "dafbe.cli", None, "main"),
    ("formats.parse", "dafbe.formats", None, "parse_uai"),
    ("formats.parse", "dafbe.formats", None, "parse_wcsp"),
    ("keying.from_values", "dafbe.keying", "ValueKeySet", "from_values"),
    ("keying.redundancy", "dafbe.keying", None, "redundancy"),
    ("model.min_fill_ordering", "dafbe.model", None, "min_fill_ordering"),
    ("model.induced_width", "dafbe.model", None, "induced_width"),
    ("model.bucket_elimination", "dafbe.model", None, "bucket_elimination"),
    ("factor.from_table", "dafbe.factor", "DafsaFactor", "from_table"),
    ("factor.combine", "dafbe.factor", None, "combine"),
    ("factor.add_levels", "dafbe.factor", "DafsaFactor", "add_levels"),
    ("factor.project", "dafbe.factor", None, "project"),
    ("factor.value_at", "dafbe.factor", "DafsaFactor", "value_at"),
    ("automata.intersect", "dafbe.automata", "Dafsa", "intersect"),
    ("automata.union", "dafbe.automata", "Dafsa", "union"),
    ("automata.difference", "dafbe.automata", "Dafsa", "difference"),
    ("automata.remove_level", "dafbe.automata", "Dafsa", "remove_level"),
    ("automata.insert_wildcard_level", "dafbe.automata", "Dafsa", "insert_wildcard_level"),
    ("kernels.compile_sorted", "kernels", None, "compile_sorted"),
    ("kernels.product", "kernels", None, "product"),
    ("kernels.minimize", "kernels", None, "minimize"),
    ("kernels.determinize", "kernels", None, "determinize"),
    ("kernels.remove_level", "kernels", None, "remove_level"),
]

SPAN_NAMES = sorted({name for name, *_ in TARGETS})


class Tracer:
    def __init__(self):
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.instance = array("i")
        self.stack = []
        self.instance_id = -1
        # counts taken at span boundaries, for the waste ratios
        self.counts = {"from_values.values": 0, "combine.pairs": 0, "combine.nonempty": 0,
                       "project.entries_in": 0, "project.entries_kept": 0}

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        nid = self.name_ids[name]
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        instances, stack, clock = self.instance, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            instances.append(self.instance_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def _after_hooks(self):
        counts = self.counts
        combine_id = self.name_ids["factor.combine"]

        def combine(args, out):
            counts["combine.pairs"] += len(args[0].entries) * len(args[1].entries)

        def intersect(args, out):
            if self.stack and self.name[self.stack[-1]] == combine_id and not out.is_empty():
                counts["combine.nonempty"] += 1

        def project(args, out):
            counts["project.entries_in"] += len(args[0].entries)
            counts["project.entries_kept"] += len(out[0].entries)

        return {"factor.combine": combine, "automata.intersect": intersect,
                "factor.project": project}

    def install(self):
        """Wrap every target; rebind module-level aliases of wrapped functions."""
        from dafbe._backend import kernels

        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "dafbe" or name.startswith("dafbe.")}
        hooks = self._after_hooks()
        counts = self.counts
        for name, mod_name, cls_name, attr in TARGETS:
            owner = kernels if mod_name == "kernels" else modules[mod_name]
            if cls_name is not None:
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    fn = raw.__func__
                    if name == "keying.from_values":
                        def fn(klass, values, *a, _orig=raw.__func__, **kw):
                            values = values if hasattr(values, "__len__") else list(values)
                            counts["from_values.values"] += len(values)
                            return _orig(klass, values, *a, **kw)
                    setattr(cls, attr, classmethod(self._wrap(name, fn, hooks.get(name))))
                else:
                    setattr(cls, attr, self._wrap(name, raw, hooks.get(name)))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, hooks.get(name))
            # `from .x import f` copies f into other modules; rebind those too
            for mod in list(modules.values()) + [kernels]:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapped)
        return self

    # -- reading -------------------------------------------------------------

    def summary(self):
        """{span name: (calls, total seconds, self seconds)}."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for i in range(n):
            row = out[SPAN_NAMES[self.name[i]]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return {name: tuple(row) for name, row in out.items()}

    def write(self, path):
        """One tab-separated line per span: name, start, end, parent, instance."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("name\tstart\tend\tparent\tinstance\n")
            for i in range(len(self.start)):
                fh.write(f"{SPAN_NAMES[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\t"
                         f"{self.parent[i]}\t{self.instance[i]}\n")
