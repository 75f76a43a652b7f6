"""Span tracing of latred's layers from outside the package.

`Tracer.install()` replaces the public functions and class methods of each
layer module with wrappers.  A wrapped function is replaced at every binding
site: modules such as `sarith` and `covers` import functions by name, so
every `latred.*` module dict is scanned for the original function object.

Three kinds of wrapper:

* span wrappers record (name, start, end, parent span, op id) and charge
  the span's self time (duration minus the time its child spans cover) to
  its layer;
* counting wrappers, for fq's per-scalar classes (field elements,
  polynomials, rational functions), only count calls.  Their time is
  charged to the span that called them, so a span wrapper's cost is not
  paid millions of times per second;
* outermost-call wrappers, for the other per-scalar classes (ring
  contexts, `LocalizedRing`, exact logs), count every call and time only
  the outermost one inside the current span: one clock pair, no span row.
  That time is charged to the class's layer and taken out of the calling
  span's self time, so `rings`, `sarith` and `logs` show their own work.

Spans are kept in flat arrays and written out by `write()` when the run
ends.  Wrappers do nothing but forward the call while `active` is false,
so answer checks between ops are not traced.
"""

import array
import functools
import importlib
import json
import os
import sys
import time
from collections import Counter

LAYERS = ("fq", "logs", "rings", "matrices", "gflinalg", "filtration", "latz",
          "latff", "sarith", "building", "covers", "jsonio", "cli")

# Classes whose methods run once per scalar operation: counted, not spanned.
COUNTED_CLASSES = {"fq": ("GF", "FqPolynomial", "FqRationalFunction")}
# Per-scalar classes timed at their outermost call only.
OUTERMOST_CLASSES = {
    "rings": ("IntegerRing", "PolynomialRing"),
    "sarith": ("LocalizedRing",),
    "logs": ("ExactLog",),
}

# Special methods worth wrapping; everything else starting with "_" is left alone.
DUNDERS = ("__init__", "__post_init__", "__add__", "__radd__", "__sub__",
           "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
           "__floordiv__", "__mod__", "__divmod__", "__neg__", "__pow__",
           "__lt__", "__le__", "__gt__", "__ge__")

# Wrapped callables whose result length is summed into a counter.
RESULT_LENGTHS = {
    "latz.short_vectors": "latz.vectors_enumerated",
    "latz.enumerate_summands": "latz.summands_enumerated",
}


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self.names = []
        self._name_ids = {}
        self._name_layer = []
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_op = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack = []        # open span indices
        self._child = []        # time covered by children of each open span
        self._open_layers = Counter()
        self._in_scalar = False  # inside an outermost-call wrapper of this span
        self.calls = Counter()  # wrapped name -> calls while active
        self.sums = Counter()   # derived counters (result lengths, nesting)
        self.self_s = Counter()  # layer -> self time of its spans
        self._installed = False

    # -- recording ---------------------------------------------------------
    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._name_layer.append(name.split(".", 1)[0])
        return nid

    def _enter(self, nid):
        layer = self._name_layer[nid]
        if layer == "matrices" and self.names[nid] == "matrices.saturate" \
                and self._open_layers["latz"]:
            self.sums["latz.saturate_calls"] += 1
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op_id)
        self._stack.append(idx)
        self._child.append(0.0)
        self._open_layers[layer] += 1
        self.span_end.append(0.0)
        self.span_start.append(time.perf_counter())
        return idx

    def _exit(self, idx, nid):
        end = time.perf_counter()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self._stack.pop()
        child = self._child.pop()
        layer = self._name_layer[nid]
        self._open_layers[layer] -= 1
        self.self_s[layer] += dur - child
        if self._child:
            self._child[-1] += dur

    # -- wrappers ----------------------------------------------------------
    def _span_wrapper(self, name, fn):
        nid = self._name_id(name)
        length_key = RESULT_LENGTHS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            in_scalar, tracer._in_scalar = tracer._in_scalar, False
            idx = tracer._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx, nid)
                tracer._in_scalar = in_scalar
            if length_key is not None:
                tracer.sums[length_key] += len(result)
            return result
        return wrapped

    def _count_wrapper(self, name, fn):
        tracer = self
        calls = self.calls

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if tracer.active:
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def _outermost_wrapper(self, name, fn):
        layer = name.split(".", 1)[0]
        tracer = self
        calls = self.calls

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[name] += 1
            if tracer._in_scalar:
                return fn(*args, **kwargs)
            tracer._in_scalar = True
            # a frame without a span row: spans under it keep their real parent
            tracer._stack.append(tracer._stack[-1] if tracer._stack else -1)
            tracer._child.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                tracer._in_scalar = False
                tracer._stack.pop()
                tracer.self_s[layer] += dur - tracer._child.pop()
                if tracer._child:
                    tracer._child[-1] += dur
        return wrapped

    # -- installation ------------------------------------------------------
    def install(self):
        """Wrap every layer's public surface, once per process."""
        if self._installed:
            return
        self._installed = True
        modules = {layer: importlib.import_module(f"latred.{layer}")
                   for layer in LAYERS}
        replaced = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            counted = COUNTED_CLASSES.get(layer, ())
            outermost = OUTERMOST_CLASSES.get(layer, ())
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    kind = "count" if attr in counted else \
                        "outermost" if attr in outermost else "span"
                    self._wrap_class(layer, obj, kind)
                elif callable(obj) and hasattr(obj, "__code__"):
                    wrapper = self._span_wrapper(f"{layer}.{attr}", obj)
                    replaced[id(obj)] = (obj, wrapper)
        self._wrap_cli_commands(modules["cli"])
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "latred" and not name.startswith("latred."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, layer, cls, kind):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            if not callable(fn) or not hasattr(fn, "__code__"):
                continue  # properties, class attributes
            name = f"{layer}.{cls.__name__}.{attr}"
            wrapper = {"count": self._count_wrapper, "span": self._span_wrapper,
                       "outermost": self._outermost_wrapper}[kind](name, fn)
            setattr(cls, attr, staticmethod(wrapper) if static else wrapper)

    def _wrap_cli_commands(self, cli):
        # click commands are objects; their callbacks are the verb bodies
        def walk(group, prefix):
            for cmd_name, cmd in group.commands.items():
                if hasattr(cmd, "commands"):
                    walk(cmd, f"{prefix}{cmd_name}.")
                elif cmd.callback is not None:
                    cmd.callback = self._span_wrapper(
                        f"cli.{prefix}{cmd_name}", cmd.callback)
        walk(cli.main, "")

    # -- results -----------------------------------------------------------
    def aggregate(self):
        """Per-name call counts, derived sums and per-layer self times."""
        return {"calls": dict(self.calls), "sums": dict(self.sums),
                "self_s": dict(self.self_s), "spans": len(self.span_start)}

    def write(self, directory):
        """Write spans as flat binary arrays plus a JSON index."""
        os.makedirs(directory, exist_ok=True)
        for field in ("name", "parent", "op", "start", "end"):
            with open(os.path.join(directory, f"span_{field}.bin"), "wb") as fh:
                getattr(self, f"span_{field}").tofile(fh)
        with open(os.path.join(directory, "index.json"), "w") as fh:
            json.dump({"names": self.names,
                       "arrays": {"name": "i", "parent": "i", "op": "i",
                                  "start": "d", "end": "d"},
                       "aggregate": self.aggregate()}, fh, sort_keys=True)


def merge(aggregates):
    """Sum several `Tracer.aggregate()` results (one per CLI child)."""
    out = {"calls": Counter(), "sums": Counter(), "self_s": Counter(), "spans": 0}
    for agg in aggregates:
        for key in ("calls", "sums", "self_s"):
            out[key].update(agg[key])
        out["spans"] += agg["spans"]
    return out
