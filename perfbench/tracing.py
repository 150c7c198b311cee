"""Spans around the public callables of each ``qsg`` module, installed from
outside the package.

A span records name, start, end, parent and request index; spans stay in
memory and are written out once, at the end of the traced pass.  A span's
self time is its duration minus the time its child spans cover; calls run
on one thread, so children never overlap and the covered time is the sum of
their durations.

Modules bind functions by name (``from .calculus import covd_values``), so a
wrapper replaces every module-namespace entry that holds the original
function.  Methods are wrapped on the class that defines them.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# Span names, one per wrapped group of callables; each yields <name>.calls
# and <name>.self_s per request.  cli.main, the root of every request, comes
# last.
SPANS = (
    "fields.jets", "fields.poly_mul",
    "calculus.covd", "calculus.torsion", "calculus.levi_civita",
    "connections.conjugate",
    "structures.ops",
    "predicates.check",
    "generate.models", "generate.synthesize", "generate.lstsq",
    "propositions.section2", "propositions.section3", "propositions.section4",
    "propositions.negative",
    "model_io.load", "model_io.write",
    "cli.main",
)


class Tracer:
    """In-memory span recorder; wrappers record only while ``active``."""

    def __init__(self):
        self.active = False
        self.request = -1
        self.spans = []  # (id, parent id, name, start ns, end ns, request)
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self._stack = []  # [span id, ns covered by children]

    def span(self, name, fn):
        """Wrap ``fn`` so that each active call records one span."""
        spans, stack, calls, self_ns = self.spans, self._stack, self.calls, self.self_ns
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                self_ns[name] += dur - frame[1]
                spans[sid] = (sid, parent, name, start, end, self.request)

        return _named(traced, fn)

    def counter(self, name, fn):
        """Wrap ``fn`` so that each active call bumps ``counts[name]``."""
        counts = self.counts

        def counted(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return _named(counted, fn)

    def write(self, path):
        with open(path, "w") as f:
            f.write("id\tparent\tname\tstart_ns\tend_ns\trequest\n")
            for s in self.spans:
                f.write("\t".join(map(str, s)) + "\n")


def _named(wrapper, fn):
    wrapper.__name__ = getattr(fn, "__name__", "wrapped")
    wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    wrapper.__wrapped__ = fn
    return wrapper


def install(tr: Tracer):
    """Wrap qsg's layer callables; returns a function that restores them."""
    import qsg.cli
    from qsg import calculus, connections, fields, generate, model_io, predicates
    from qsg import propositions, structures

    modules = [m for n, m in sys.modules.items() if n == "qsg" or n.startswith("qsg.")]
    undo = []

    def rebind(owners, original, wrapper):
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    undo.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def functions(name, module, *attrs, make=None):
        for attr in attrs:
            fn = getattr(module, attr)
            rebind(modules, fn, (make or tr.span)(name, fn))

    def methods(name, cls, attr, make=None):
        fn = vars(cls)[attr]
        rebind([cls], fn, (make or tr.span)(name, fn))

    # fields: jets (points, cache misses), products, evaluations
    methods("fields.jets", fields.PolyTensorField, "jets", make=lambda n, fn: _jets(tr, fn))
    methods("fields.poly_mul", fields.PolyExpr, "__mul__")
    methods("fields.poly_eval.calls", fields.PolyExpr, "eval", make=tr.counter)
    methods("fields.poly_jet.calls", fields.PolyExpr, "jet", make=tr.counter)

    functions("calculus.covd", calculus, "covd_values")
    functions("calculus.torsion", calculus, "torsion_values")
    methods("calculus.levi_civita", calculus.LeviCivitaConnection, "gammas")

    for cls in (connections.BilinearConjugateConnection, connections.JConjugateConnection,
                connections.CombinationConnection):
        methods("connections.conjugate", cls, "gammas")

    functions("structures.ops", structures, "d_nabla_J_values", "d_nabla_metric_values",
              "tachibana_values", "vishnevskii_frame_values", "vishnevskii_jframe_values",
              "vishnevskii_on_fields", "fundamental_two_form", "twin_metric")
    # nijenhuis returns a lazily evaluated field: time its evaluations
    functions("structures.ops", structures, "nijenhuis", make=lambda n, fn: _derived(tr, n, fn))

    for key, fn in list(predicates.PREDICATES.items()):
        undo.append((predicates.PREDICATES, key, fn))
        predicates.PREDICATES[key] = tr.span("predicates.check", fn)

    functions("generate.models", generate, "gen_almost_complex", "gen_hermitian_metric",
              "gen_norden_metric", "gen_constant_structure_model", "gen_kahler_model",
              "gen_vishnevskii_zero_connection", "gen_connection", "torsion_project_poly",
              "j_conjugate_poly", "random_poly_field")
    functions("generate.synthesize", generate, "synthesize_connection")
    functions("generate.lstsq", generate, "_lstsq", make=lambda n, fn: _lstsq(tr, fn))
    # the synthesizer builds one constant connection per probe evaluation
    methods("generate.probe_evals", calculus.ConstantConnection, "__init__", make=tr.counter)

    functions("propositions.section2", propositions, "verify_section2")
    functions("propositions.section3", propositions, "verify_section3")
    functions("propositions.section4", propositions, "verify_section4")
    functions("propositions.negative", propositions, "verify_negative_controls")

    functions("model_io.load", model_io, "load_model")
    functions("model_io.write", model_io, "canonical_doc", "model_hash", "write_model")

    functions("cli.main", qsg.cli, "main")

    def restore():
        for owner, attr, value in reversed(undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    return restore


def _jets(tr: Tracer, fn):
    traced = tr.span("fields.jets", fn)
    counts = tr.counts

    def jets(self, pts):
        if not tr.active:
            return fn(self, pts)
        counts["fields.jets.points"] += len(pts) if getattr(pts, "ndim", 1) == 2 else 1
        before = counts["fields.poly_jet.calls"]
        out = traced(self, pts)
        if counts["fields.poly_jet.calls"] != before:
            counts["fields.jets.misses"] += 1
        return out

    return _named(jets, fn)


def _lstsq(tr: Tracer, fn):
    traced = tr.span("generate.lstsq", fn)

    def lstsq(rows, rhs):
        if tr.active:
            tr.maxima["generate.lstsq.rows_max"] = max(tr.maxima["generate.lstsq.rows_max"], rows.shape[0])
            tr.maxima["generate.lstsq.cols_max"] = max(tr.maxima["generate.lstsq.cols_max"], rows.shape[1])
        return traced(rows, rhs)

    return _named(lstsq, fn)


def _derived(tr: Tracer, name, factory):
    def make(*args, **kwargs):
        out = factory(*args, **kwargs)
        out._fn = tr.span(name, out._fn)
        return out

    return _named(make, factory)


def layer_metrics(tr: Tracer, requests: int) -> dict:
    """Per-request calls and self time of every span, plus the counters."""
    m = {}
    for name in SPANS[:-1]:
        if not name.startswith("propositions."):  # one call per section and dim
            m[f"{name}.calls"] = tr.calls[name] / requests
        m[f"{name}.self_s"] = tr.self_ns[name] / 1e9 / requests
    jets = tr.calls["fields.jets"]
    m["fields.jets.points"] = tr.counts["fields.jets.points"] / requests
    m["fields.jets.eval_ratio"] = tr.counts["fields.jets.misses"] / jets if jets else 0.0
    m["fields.poly_eval.calls"] = tr.counts["fields.poly_eval.calls"] / requests
    m["generate.probe_evals"] = tr.counts["generate.probe_evals"] / requests
    m["generate.lstsq.rows_max"] = tr.maxima["generate.lstsq.rows_max"]
    m["generate.lstsq.cols_max"] = tr.maxima["generate.lstsq.cols_max"]
    # the request's root span: its self time is what no layer span covers
    m["cli.unattributed_s"] = tr.self_ns["cli.main"] / 1e9 / requests
    return m
