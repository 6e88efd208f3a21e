"""Spans around the public functions of torfan's layers, taken from outside.

``Tracer`` replaces each traced function in every module that bound it
(its defining module, the package namespaces that re-export it, and the
modules that imported it by name) with a wrapper that records a span:
name, start, end and the index of the enclosing span.  Leaving the
``with`` block restores every original binding.

A span's self time is its duration minus the time its direct child spans
cover.  ``Tracer.take_pass`` folds the spans recorded since the last call
into per-function self time and call counts, plus a few quantities read
from return values, and clears them.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict

# (layer, defining module, functions).  Metrics are named
# "<layer>.<function>.self_s" and "<layer>.<function>.calls".
TARGETS = (
    ("exact_algebra", "torfan.exact_algebra.groebner", ("groebner_basis", "quotient_algebra")),
    (
        "exact_algebra",
        "torfan.exact_algebra.linalg",
        ("charpoly", "minpoly", "jordan_profile", "localize", "inverse", "factor_rational_poly"),
    ),
    ("lattice_fan", "torfan.lattice_fan", ("validate_fan", "primitive_collections")),
    ("polytope", "torfan.polytope", ("vertices",)),
    ("bundle_blowup", "torfan.bundle_blowup", ("nlb_from_k", "blowup_point")),
    (
        "quantum_algebra",
        "torfan.quantum_algebra",
        ("qh_presentation", "sh_presentation", "omega_operator", "c1_operator"),
    ),
    (
        "superpotential",
        "torfan.superpotential",
        ("jacobian_ring", "critical_points", "mirror_check", "perturb_and_separate"),
    ),
    (
        "perturbation",
        "torfan.perturbation",
        (
            "eigenprojection",
            "track_eigenvalues",
            "total_projection_limit_check",
            "derivative_spectrum",
            "semisimple_convergence_check",
            "gevec_convergence",
        ),
    ),
    ("cli", "torfan.cli", ("run_command", "render_report")),
)

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, _, fns in TARGETS for fn in fns)

# Span of one benchmark operation; its self time is the part of the
# operation no traced function covers.
OP_SPAN = "bench.other"

# Prefix of the stderr line on which a traced CLI process reports.
TRACE_PREFIX = "PERFBENCH-TRACE "


def _max_degree(basis):
    return max((sum(m) for g in basis for m in g.terms), default=0)


def _observe_groebner(tracer, args, kwargs, result):
    tracer.note_max("exact_algebra.groebner_basis.basis_size", len(result))
    tracer.note_max("exact_algebra.groebner_basis.max_degree", _max_degree(result))


def _observe_quotient(tracer, args, kwargs, result):
    tracer.note_max("exact_algebra.quotient_algebra.dimension", result.dimension)


def _observe_jacobian(tracer, args, kwargs, result):
    tracer.last_jacobian_dimension = result.dimension


def _observe_critical(tracer, args, kwargs, result):
    jac = kwargs.get("jac")
    dim = jac.dimension if jac is not None else tracer.last_jacobian_dimension
    if dim:
        tracer.note_sum("superpotential.critical_points.found", len(result))
        tracer.note_sum("superpotential.critical_points.expected", dim)


def _observe_projection(tracer, args, kwargs, result):
    tracer.note_max("perturbation.eigenprojection.defect_max", result.idempotency_defect)


OBSERVERS = {
    "exact_algebra.groebner_basis": _observe_groebner,
    "exact_algebra.quotient_algebra": _observe_quotient,
    "superpotential.jacobian_ring": _observe_jacobian,
    "superpotential.critical_points": _observe_critical,
    "perturbation.eigenprojection": _observe_projection,
}

# Quantities read from return values whose largest value in a pass is
# reported; superpotential.critical_points.yield is a ratio of two sums.
MAXIMA = (
    "exact_algebra.groebner_basis.basis_size",
    "exact_algebra.groebner_basis.max_degree",
    "exact_algebra.quotient_algebra.dimension",
    "perturbation.eigenprojection.defect_max",
)


class PassStats:
    """Per-function self time and calls, plus quantities, for one pass."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.maxes = {}
        self.sums = defaultdict(float)

    def merge(self, other):
        """Add a pass summary from another process (see ``as_json``)."""
        for name, v in other["self_s"].items():
            self.self_s[name] += v
        for name, v in other["calls"].items():
            self.calls[name] += v
        for name, v in other["maxes"].items():
            self.maxes[name] = max(v, self.maxes.get(name, v))
        for name, v in other["sums"].items():
            self.sums[name] += v

    def as_json(self):
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "maxes": dict(self.maxes),
            "sums": dict(self.sums),
        }

    def metrics(self):
        """Flat metric dict: every traced function appears, called or not."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
            out[f"{name}.calls"] = self.calls.get(name, 0)
        out[f"{OP_SPAN}.self_s"] = self.self_s.get(OP_SPAN, 0.0)
        for name in MAXIMA:
            out[name] = self.maxes.get(name, 0)
        expected = self.sums.get("superpotential.critical_points.expected", 0)
        found = self.sums.get("superpotential.critical_points.found", 0)
        out["superpotential.critical_points.yield"] = found / expected if expected else 0.0
        return out


class Tracer:
    """Context manager that wraps ``TARGETS`` where they are bound.

    ``consumers`` names extra modules, outside the ``torfan`` package,
    whose bindings are replaced too (the benchmark's own workload code).
    """

    def __init__(self, consumers=()):
        self.consumers = tuple(consumers)
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._patches = []
        self._stats = PassStats()
        self.last_jacobian_dimension = 0

    # -- installation ------------------------------------------------

    def _modules(self):
        for name, mod in list(sys.modules.items()):
            if mod is not None and (
                name == "torfan" or name.startswith("torfan.") or name in self.consumers
            ):
                yield mod

    def __enter__(self):
        originals = {}
        for layer, modname, fns in TARGETS:
            mod = importlib.import_module(modname)
            for fn in fns:
                orig = getattr(mod, fn)
                originals[id(orig)] = (orig, self._wrap(f"{layer}.{fn}", orig))
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))
        return self

    def __exit__(self, *exc):
        while self._patches:
            mod, attr, orig = self._patches.pop()
            setattr(mod, attr, orig)
        return False

    def _span(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][1] = start
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._span(name, fn, *args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    # -- benchmark-side spans and quantities --------------------------

    def op_span(self, run):
        """Run one benchmark operation inside an ``OP_SPAN`` span."""
        return self._span(OP_SPAN, run)

    def credit(self, seconds):
        """Charge ``seconds`` of work done by a traced child process to
        the open span, so its self time excludes that work."""
        if self._stack:
            self.spans.append(["", 0.0, seconds, self._stack[-1]])

    def merge(self, summary):
        self._stats.merge(summary)

    def note_max(self, name, value):
        self._stats.maxes[name] = max(value, self._stats.maxes.get(name, value))

    def note_sum(self, name, value):
        self._stats.sums[name] += value

    def covered_s(self):
        """Time spent inside outermost traced calls since the last pass."""
        return sum(end - start for name, start, end, parent in self.spans if name and parent < 0)

    def take_pass(self):
        """Fold the recorded spans into a ``PassStats`` and start afresh."""
        stats, self._stats = self._stats, PassStats()
        covered = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for idx, (name, start, end, parent) in enumerate(self.spans):
            if name:
                stats.self_s[name] += (end - start) - covered[idx]
                stats.calls[name] += 1
        self.spans.clear()
        return stats
