"""In-memory spans and counts around calls into each foamlib module.

The tracer wraps functions from outside the program: it replaces the
public functions of each `src/foamlib` module (and a few named methods)
with wrappers, and also rebinds every `from .module import name`
reference to them, so calls between modules pass through the wrappers
too.  Nothing in `src/foamlib` is edited.

A span is [name, start, end, parent index]; spans nest by call stack, and
a layer's self time is the duration of its spans minus the time their
child spans cover.  Fine-grained kernels, called hundreds of thousands of
times, are counted and not spanned, so their time stays in the self time
of the caller's layer.  Recording happens only while `active` is true:
the worker turns it on for set-up and for each timed job, and off for
the correctness checks.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import json
import sys
import time

LAYERS = ("exactalg", "fieldext", "tqft2d", "surfgen", "sylfoam", "mftrace",
          "wreathrep", "webgal", "cli")

# Public module functions that are kernels: counted, not spanned.
COUNTED = {
    "sylfoam": {"r_factors", "vandermonde_factors", "alphabet", "slots",
                "r_product"},
    "wreathrep": {"p_compose", "p_inverse", "p_identity", "p_cycles",
                  "cycle_string", "embed_block", "to_permutation",
                  "from_permutation", "beta_perm", "copy_of_center_element"},
    "webgal": {"q_factorial", "multinomial"},
}

# Methods of every fieldext backend class: kernels counted, the rest spanned.
# Counts and spans are named by layer and method, summed over the classes;
# a constructor is spanned as `fieldext.<Class>`.
BACKEND_COUNTED = {"mul", "trace_to_ground",
                   "relative_trace"}  # what trace_to_ground calls per entry
BACKEND_SPANNED = {"dual_bases", "handle_element", "random_element",
                   "embeddings", "include", "__init__"}

# exactalg is counted only: its hot methods, by class.
EXACTALG_COUNTED = (("MultiPoly", "eval"), ("ExtField", "mul"))

# Module functions whose first argument is an iterable of sylfoam Terms.
TERM_CONSUMERS = {"fraction_free_sum", "evaluate_terms_at"}


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[list] = []
        self.child_time: list[float] = []
        self.stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.seconds: collections.Counter = collections.Counter()
        self.self_seconds: collections.Counter = collections.Counter()
        self._depth: collections.Counter = collections.Counter()

    # -- recording -------------------------------------------------------

    def _span(self, fn, name: str, layer: str):
        tracer = self
        clock = time.perf_counter
        prefix = layer + "."

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.counts[name + ".calls"] += 1
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            if parent < 0 or not tracer.spans[parent][0].startswith(prefix):
                tracer.counts[layer + ".calls"] += 1  # a call into the layer
            rec = [name, 0.0, 0.0, parent]
            tracer.spans.append(rec)
            tracer.child_time.append(0.0)
            tracer.stack.append(idx)
            tracer._depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.stack.pop()
                tracer._depth[name] -= 1
                rec[1], rec[2] = start, end
                dur = end - start
                tracer.self_seconds[layer] += dur - tracer.child_time[idx]
                if parent >= 0:
                    tracer.child_time[parent] += dur
                if not tracer._depth[name]:  # outermost call of this name
                    tracer.seconds[name] += dur

        return wrapper

    def _count(self, fn, name: str):
        tracer = self
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_yields(self, fn, key: str):
        tracer = self

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if tracer.active:
                    tracer.counts[key] += 1
                yield item

        return wrapper

    def _count_terms(self, fn):
        tracer = self

        def wrapper(terms, *args, **kwargs):
            def counted(it):
                for t in it:
                    if tracer.active:
                        tracer.counts["sylfoam.terms"] += 1
                    yield t
            return fn(counted(terms), *args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer; call once, after foamlib is imported."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"foamlib.{layer}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if not (inspect.isfunction(fn) or hasattr(fn, "cache_info")):
                    continue  # classes, constants, modules
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue  # imported from another module
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(fn):
                    key = ("sylfoam.grid_points" if name == "sylfoam.grid_assignments"
                           else name + ".yields")
                    wrapped = self._count_yields(fn, key)
                elif attr in COUNTED.get(layer, ()):
                    wrapped = self._count(fn, name)
                else:
                    wrapped = self._span(fn, name, layer)
                if layer == "sylfoam" and attr in TERM_CONSUMERS:
                    wrapped = self._count_terms(wrapped)
                setattr(mod, attr, wrapped)
                replaced[id(fn)] = (fn, wrapped)
        exactalg = importlib.import_module("foamlib.exactalg")
        for cls_name, meth in EXACTALG_COUNTED:
            cls = getattr(exactalg, cls_name)
            setattr(cls, meth, self._count(cls.__dict__[meth],
                                           f"exactalg.{cls_name}.{meth}"))
        fieldext = importlib.import_module("foamlib.fieldext")
        for cls in vars(fieldext).values():
            if not (inspect.isclass(cls) and issubclass(cls, fieldext.FrobeniusBackend)):
                continue
            for meth in BACKEND_COUNTED | BACKEND_SPANNED:
                fn = cls.__dict__.get(meth)
                if fn is None:
                    continue
                if meth in BACKEND_COUNTED:
                    setattr(cls, meth, self._count(fn, f"fieldext.{meth}"))
                else:
                    name = (f"fieldext.{cls.__name__}" if meth == "__init__"
                            else f"fieldext.{meth}")
                    setattr(cls, meth, self._span(fn, name, "fieldext"))
        # rebind names imported into other modules (`from .x import f`)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("foamlib"):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    # -- results ---------------------------------------------------------

    def metrics(self, names) -> dict:
        """Per-layer metrics by name: `<fn>.s`, `<fn>.calls`, `<layer>.self_s`
        or a plain counter; a name with no record reads 0."""
        out = {}
        for name in names:
            if name.endswith(".self_s"):
                out[name] = self.self_seconds[name[:-len(".self_s")]]
            elif name.endswith(".s"):
                out[name] = self.seconds[name[:-2]]
            else:
                out[name] = self.counts[name]
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
