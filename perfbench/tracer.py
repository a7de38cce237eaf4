"""Spans and counters recorded from outside the program.

`install(tracer)` replaces the public entry points of the helmdec modules
(and scipy's `splu`) with wrappers that record a span per call: name,
parent span, start and end.  Nothing inside `src/helmdec` changes; the
wrappers are swapped into every helmdec module namespace that holds the
original function, so calls made inside the program are caught too, and
`restore()` puts the originals back.  Spans stay in memory until
`per_layer()` folds them into the per-layer table.
"""

from __future__ import annotations

import functools
import sys
import time

import scipy.sparse.linalg as spla


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "attr", "_tracer", "_index")

    def __init__(self, tracer, name):
        self._tracer = tracer
        self.name = name
        self.attr = 0

    def __enter__(self):
        tr = self._tracer
        self.parent = tr.stack[-1] if tr.stack else -1
        self._index = len(tr.spans)
        tr.spans.append(self)
        tr.stack.append(self._index)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.t1 = time.perf_counter()
        self._tracer.stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []

    def span(self, name: str) -> Span:
        return Span(self, name)

    def wrap(self, name: str, fn, attr=None):
        """`fn` with a span per call; `attr(result)` sets the span's number."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with Span(self, name) as s:
                out = fn(*args, **kwargs)
                if attr is not None:
                    s.attr = attr(out)
                return out

        return traced

    def has_ancestor(self, span: Span, name: str) -> bool:
        p = span.parent
        while p >= 0:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False


class _TracedLU:
    """A SuperLU factorization whose `solve` records a span."""

    __slots__ = ("_lu", "_solve")

    def __init__(self, lu, tracer):
        self._lu = lu
        self._solve = tracer.wrap("scipy.solve", lu.solve)

    def solve(self, rhs, trans="N"):
        return self._solve(rhs, trans)

    def __getattr__(self, name):
        return getattr(self._lu, name)


# (module, function, span name, span number from the result)
ENTRY_POINTS = [
    ("mesh", "build_complex", "mesh.build_complex", lambda m: m.ne),
    ("trace", "surface", "trace.surface", None),
    ("trace", "tag_trace", "trace.tag_trace", None),
    ("fem", "assemble", "fem.assemble", None),
    ("fem", "cached_solver", "fem.cached_solver", None),
    ("fem", "norm", "fem.norm", None),
    ("operators", "curl_harmonic_extend", "operators.curl_harmonic_extend", None),
    ("operators", "harmonic_extend", "operators.harmonic_extend", None),
    ("operators", "build_loop", "operators.build_loop", None),
    ("operators", "loop_constant_extension", "operators.loop_constant_extension", None),
    ("decompose", "decompose", "decompose.decompose", None),
    ("decompose", "random_admissible_field", "decompose.input", None),
    ("decompose", "gradient_field", "decompose.input", None),
    ("hx", "assemble_problem", "hx.assemble_problem", None),
    ("hx", "HXPreconditioner", "hx.HXPreconditioner", None),
    ("hx", "pcg_solve", "hx.pcg_solve", None),
]


def install(tracer: Tracer):
    """Swap the traced wrappers in; returns a function that swaps them out."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "helmdec" or n.startswith("helmdec."))]
    undo = []
    for mod_name, fn_name, span_name, attr in ENTRY_POINTS:
        orig = getattr(sys.modules["helmdec." + mod_name], fn_name)
        traced = tracer.wrap(span_name, orig, attr)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, traced)
                    undo.append((mod, key, orig))

    orig_splu = spla.splu

    def splu(*args, **kwargs):
        with tracer.span("scipy.splu") as s:
            lu = orig_splu(*args, **kwargs)
            s.attr = lu.nnz
        return _TracedLU(lu, tracer)

    spla.splu = splu
    undo.append((spla, "splu", orig_splu))

    def restore():
        for mod, key, orig in reversed(undo):
            setattr(mod, key, orig)

    return restore


def per_layer(tracer: Tracer) -> dict:
    """Per-layer totals of one traced round.  Self time is a span's duration
    minus the time covered by its direct children."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.t1 - s.t0
    total: dict = {}
    self_t: dict = {}
    calls: dict = {}
    for i, s in enumerate(spans):
        d = s.t1 - s.t0
        total[s.name] = total.get(s.name, 0.0) + d
        self_t[s.name] = self_t.get(s.name, 0.0) + d - child[i]
        calls[s.name] = calls.get(s.name, 0) + 1

    fem_factor = [s for s in spans if s.name == "scipy.splu"
                  and not tracer.has_ancestor(s, "hx.HXPreconditioner")]
    aux_factor = [s for s in spans if s.name == "scipy.splu"
                  and tracer.has_ancestor(s, "hx.HXPreconditioner")]
    fem_solve = [s for s in spans if s.name == "scipy.solve"
                 and not tracer.has_ancestor(s, "hx.apply")]
    n_cached = calls.get("fem.cached_solver", 0)
    cache_misses = sum(1 for s in fem_factor
                       if tracer.has_ancestor(s, "fem.cached_solver"))
    top_decompose = [s for s in spans if s.name == "decompose.decompose"
                     and not tracer.has_ancestor(s, "decompose.decompose")]

    def dur(group):
        return sum(s.t1 - s.t0 for s in group)

    return {
        "mesh.build_s": (total.get("mesh.build_complex", 0.0), "s"),
        "mesh.edges": (sum(s.attr for s in spans if s.name == "mesh.build_complex"), "count"),
        "trace.surface_s": (total.get("trace.surface", 0.0), "s"),
        "trace.tag_s": (total.get("trace.tag_trace", 0.0), "s"),
        "fem.assemble_s": (total.get("fem.assemble", 0.0), "s"),
        "fem.assemble_calls": (calls.get("fem.assemble", 0), "count"),
        "fem.factor_s": (dur(fem_factor), "s"),
        "fem.factor_count": (len(fem_factor), "count"),
        "fem.factor_nnz_lu": (sum(s.attr for s in fem_factor), "count"),
        "fem.factor_nnz_lu_max": (max((s.attr for s in fem_factor), default=0), "count"),
        "fem.solve_s": (dur(fem_solve), "s"),
        "fem.solve_count": (len(fem_solve), "count"),
        "fem.solver_cache_hit_ratio": (
            (n_cached - cache_misses) / n_cached if n_cached else 0.0, "ratio"),
        "fem.norm_s": (total.get("fem.norm", 0.0), "s"),
        "fem.norm_calls": (calls.get("fem.norm", 0), "count"),
        "operators.curl_harmonic_s": (self_t.get("operators.curl_harmonic_extend", 0.0), "s"),
        "operators.curl_harmonic_calls": (calls.get("operators.curl_harmonic_extend", 0), "count"),
        "operators.harmonic_extend_s": (total.get("operators.harmonic_extend", 0.0), "s"),
        "operators.build_loop_s": (total.get("operators.build_loop", 0.0), "s"),
        "operators.build_loop_calls": (calls.get("operators.build_loop", 0), "count"),
        "operators.loop_constant_extension_s": (
            total.get("operators.loop_constant_extension", 0.0), "s"),
        "decompose.self_s": (self_t.get("decompose.decompose", 0.0), "s"),
        "decompose.input_s": (total.get("decompose.input", 0.0), "s"),
        "decompose.calls": (len(top_decompose), "count"),
        "hx.assemble_s": (total.get("hx.assemble_problem", 0.0), "s"),
        "hx.setup_self_s": (self_t.get("hx.HXPreconditioner", 0.0), "s"),
        "hx.aux_factor_s": (dur(aux_factor), "s"),
        "hx.aux_nnz_lu": (sum(s.attr for s in aux_factor), "count"),
        "hx.apply_s": (total.get("hx.apply", 0.0), "s"),
        "hx.apply_count": (calls.get("hx.apply", 0), "count"),
        "hx.pcg_self_s": (self_t.get("hx.pcg_solve", 0.0), "s"),
        "bench.spans": (len(spans), "count"),
    }
