"""Span tracer for the benchmark's traced run.

`Tracer.install` replaces every public function of the layer modules, in
every `bnspecht` namespace that binds it, by a wrapper that records a span
(name, parent, start, end) and the counters computed from the call's
arguments and result. The arithmetic methods of `SparsePolynomial` and the
methods of `HasseDiagram` are wrapped on their classes. `uninstall` puts the
original objects back, so untraced passes run unpatched code.

Accessors such as `leading_exponents`, `__eq__`, `__hash__` and `__str__`,
and `order_key`, which `leading_exponents` calls, are left unwrapped: they
are called millions of times per pass, their cost stays with the caller, and
wrapping them would multiply the overhead and the span count.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import io
import json
import sys
import time
from array import array

LAYERS = ("polynomials", "groebner", "tableaux", "partitions", "varieties", "invariants", "cli")
NAMESPACES = ("bnspecht",) + tuple(f"bnspecht.{m}" for m in LAYERS + ("errors",))
CLASS_METHODS = {
    ("polynomials", "SparsePolynomial"): (
        "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__", "scale", "monic",
        "sign_normalized", "top_component", "substitute_squares", "evaluate", "extend",
    ),
    ("partitions", "HasseDiagram"): (
        "index", "closure", "maximal_chain_lengths", "to_json", "to_dot",
    ),
}
UNWRAPPED = ("polynomials.order_key",)
TRACED_FLAG = "__bench_traced__"


def _layer_functions(layer: str):
    """(span name, function) for every public function a layer module defines."""
    module = importlib.import_module(f"bnspecht.{layer}")
    for name, obj in vars(module).items():
        span = f"{layer}.{name}"
        if (
            inspect.isfunction(obj)
            and obj.__module__ == module.__name__
            and not name.startswith("_")
            and not inspect.isgeneratorfunction(obj)
            and span not in UNWRAPPED
        ):
            yield span, obj


class Tracer:
    """Spans and counters of one traced pass, kept in memory until written."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        # one row per span, in start order; parent is a row index or -1
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counters: dict[str, int] = {}
        self._stack: list[list[int]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- counters --------------------------------------------------------

    def add(self, counter: str, value: int):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def peak(self, counter: str, value: int):
        self.counters[counter] = max(self.counters.get(counter, 0), value)

    def _counter_hooks(self, span: str):
        """Counters computed at the wrapper from a call's arguments and result."""
        from bnspecht.polynomials import SparsePolynomial

        hooks = []
        if span.startswith("polynomials."):
            def max_terms(args, out):
                if isinstance(out, SparsePolynomial):
                    self.peak("polynomials.max_terms", len(out.terms))
            hooks.append(max_terms)
        if span == "polynomials.SparsePolynomial.__mul__":
            def term_products(args, out):
                if isinstance(args[1], SparsePolynomial):
                    self.add("polynomials.mul.term_products", len(args[0].terms) * len(args[1].terms))
            hooks.append(term_products)
        elif span == "groebner.buchberger":
            def basis(args, out):
                self.add("groebner.basis_gens", len(out.generators))
                self.add("groebner.basis_terms", sum(len(g.terms) for g in out.generators))
            hooks.append(basis)
        elif span == "tableaux.specht_generators":
            hooks.append(lambda args, out: self.add("tableaux.generators_out", len(out)))
        elif span == "varieties.decompose_variety":
            hooks.append(lambda args, out: self.add("varieties.classes_out", len(out)))
        elif span == "invariants.bn_orbit":
            hooks.append(lambda args, out: self.add("invariants.orbit_size", len(out)))
        elif span == "cli.run":
            # every CLI query writes into a fresh StringIO, so its length is this call's output
            def stdout_bytes(args, out):
                if isinstance(sys.stdout, io.StringIO):
                    self.add("cli.stdout_bytes", len(sys.stdout.getvalue().encode()))
            hooks.append(stdout_bytes)
        return tuple(hooks)

    # -- spans -----------------------------------------------------------

    def _wrap(self, fn, span: str):
        nid = self._name_ids[span] = len(self.names)
        self.names.append(span)
        self.calls.append(0)
        self.self_ns.append(0)
        hooks = self._counter_hooks(span)
        stack, calls, self_ns = self._stack, self.calls, self.self_ns
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0)
            ends.append(0)
            frame = [row, 0]  # row, time covered by child spans
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[row] = t0
                ends[row] = t1
                calls[nid] += 1
                self_ns[nid] += t1 - t0 - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            for hook in hooks:
                hook(args, out)
            return out

        setattr(traced, TRACED_FLAG, True)
        return traced

    def install(self):
        namespaces = [importlib.import_module(name) for name in NAMESPACES]
        wrappers = {}
        for layer in LAYERS:
            for span, fn in _layer_functions(layer):
                wrappers[fn] = self._wrap(fn, span)
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(ns, name, wrappers[obj])
        for (layer, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(importlib.import_module(f"bnspecht.{layer}"), cls_name)
            by_function = {}
            for name in methods:
                fn = cls.__dict__[name]
                # __rmul__ is __mul__: one wrapper, one span name
                if fn not in by_function:
                    by_function[fn] = self._wrap(fn, f"{layer}.{cls_name}.{name}")
                self._patch(cls, name, by_function[fn])

    def _patch(self, owner, name, wrapper):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- results ---------------------------------------------------------

    def _self_s(self, prefix: str) -> float:
        return sum(ns for name, ns in zip(self.names, self.self_ns) if name.startswith(prefix)) / 1e9

    def _of(self, values: list[int], span: str) -> int:
        nid = self._name_ids.get(span)
        return 0 if nid is None else values[nid]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metric name -> (value, unit)."""
        out = {f"{layer}.self_s": (self._self_s(f"{layer}."), "s") for layer in LAYERS}
        for metric, span in (
            ("groebner.buchberger.calls", "groebner.buchberger"),
            ("groebner.reduce.calls", "groebner.reduce"),
            ("polynomials.mul.calls", "polynomials.SparsePolynomial.__mul__"),
            ("polynomials.act.calls", "polynomials.act"),
            ("tableaux.specht_generators.calls", "tableaux.specht_generators"),
            ("partitions.bidominates.calls", "partitions.bidominates"),
            ("cli.run.calls", "cli.run"),
        ):
            out[metric] = (self._of(self.calls, span), "count")
        for metric, span in (
            ("groebner.buchberger.self_s", "groebner.buchberger"),
            ("tableaux.specht_generators.self_s", "tableaux.specht_generators"),
            ("partitions.hasse_diagram.self_s", "partitions.hasse_diagram"),
            ("partitions.maximal_chain_lengths.self_s", "partitions.HasseDiagram.maximal_chain_lengths"),
        ):
            out[metric] = (self._of(self.self_ns, span) / 1e9, "s")
        for counter in (
            "groebner.basis_gens", "groebner.basis_terms", "polynomials.mul.term_products",
            "polynomials.max_terms", "tableaux.generators_out", "varieties.classes_out",
            "invariants.orbit_size", "cli.stdout_bytes",
        ):
            unit = "bytes" if counter == "cli.stdout_bytes" else "count"
            out[counter] = (self.counters.get(counter, 0), unit)
        out["trace.spans"] = (len(self.span_name), "count")
        return out

    def write_spans(self, path):
        """Write every span as columns; times are ns after the first span's start."""
        origin = self.span_start[0] if self.span_start else 0
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_ns": [t - origin for t in self.span_start],
            "end_ns": [t - origin for t in self.span_end],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def traced_names() -> list[str]:
    """Names in the bnspecht namespaces and traced classes that are currently wrapped."""
    found = []
    for ns_name in NAMESPACES:
        ns = importlib.import_module(ns_name)
        found += [f"{ns_name}.{n}" for n, obj in vars(ns).items() if getattr(obj, TRACED_FLAG, False)]
    for layer, cls_name in CLASS_METHODS:
        cls = getattr(importlib.import_module(f"bnspecht.{layer}"), cls_name)
        found += [f"{cls_name}.{n}" for n, obj in vars(cls).items() if getattr(obj, TRACED_FLAG, False)]
    return found
