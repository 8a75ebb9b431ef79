"""Per-layer spans and counters, installed around mubar from outside.

Each wrapped function gets a span per call.  A span's self time is its
duration minus the time covered by the spans it caused, so a kernel
called from report is charged to the kernel and not to report.  The
wrapper replaces the function in every mubar module that binds it
(mubar, mubar.lattice, mubar.plumbing, ...), so calls between layers go
through it too.  Counters are bumped at the same boundaries.  Spans are
folded into totals as they close, so memory does not grow with the run.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute) -> span name.  Dotted attributes are methods.
SPANS = {
    ("lattice", "determinant"): "lattice.determinant",
    ("lattice", "inertia"): "lattice.inertia",
    ("lattice", "solve_mod2"): "lattice.solve_mod2",
    ("lattice", "smith_invariant_factors"): "lattice.smith_invariant_factors",
    ("lattice", "SymmetricIntMatrix.__init__"): "lattice.SymmetricIntMatrix",
    ("plumbing", "report"): "plumbing.report",
    ("plumbing", "star"): "plumbing.star",
    ("plumbing", "intersection_matrix"): "plumbing.intersection_matrix",
    ("seifert", "brieskorn_seifert"): "seifert.brieskorn_seifert",
    ("seifert", "canonical_plumbing"): "seifert.canonical_plumbing",
    ("seifert", "plumbing_to_seifert"): "seifert.plumbing_to_seifert",
    ("seifert", "plumbings_isomorphic"): "seifert.plumbings_isomorphic",
    ("kirby", "surgery_search"): "kirby.surgery_search",
    ("kirby", "reduce_with_trace"): "kirby.reduce_with_trace",
    ("kirby", "family_step"): "kirby.family_step",
    ("kirby", "gray_plumbing"): "kirby.gray_plumbing",
    ("kirby", "FramedLinkMatrix.augmented"): "kirby.augmented",
    ("families", "verify_family"): "families.verify_family",
    ("families", "verify_iteration"): "families.verify_iteration",
    ("cli", "main"): "cli.main",
}

# Per-layer metrics, in report order: name -> unit.  Kept in step with
# the per_layer list of BENCHMARK.json.
_FIELDS = [
    ("lattice.determinant", ("calls", "self_s")),
    ("lattice.inertia", ("calls", "self_s")),
    ("lattice.solve_mod2", ("calls", "self_s")),
    ("lattice.smith_invariant_factors", ("calls", "self_s")),
    ("lattice.SymmetricIntMatrix", ("calls", "self_s")),
    ("lattice", ("dim3_sum",)),
    ("plumbing.report", ("calls", "self_s", "vertices")),
    ("plumbing.star", ("calls", "self_s")),
    ("plumbing.intersection_matrix", ("calls", "self_s")),
    ("seifert.brieskorn_seifert", ("self_s",)),
    ("seifert.canonical_plumbing", ("self_s",)),
    ("seifert.plumbing_to_seifert", ("self_s",)),
    ("seifert.plumbings_isomorphic", ("calls", "self_s")),
    ("kirby.surgery_search",
     ("calls", "self_s", "candidates", "det_zero", "hits", "hit_ratio")),
    ("kirby.reduce_with_trace", ("calls", "self_s", "blow_downs")),
    ("kirby.family_step", ("calls", "self_s")),
    ("kirby.gray_plumbing", ("self_s",)),
    ("kirby.augmented", ("calls", "self_s")),
    ("families.verify_family", ("calls", "self_s")),
    ("families.verify_iteration", ("calls", "self_s", "branches")),
    ("cli.main", ("calls", "self_s", "output_bytes")),
]
_UNITS = {"self_s": "s", "dim3_sum": "ops", "hit_ratio": "hits/candidate",
          "output_bytes": "bytes"}
PER_LAYER = {
    "%s.%s" % (span, field): _UNITS.get(field, "count")
    for span, fields in _FIELDS
    for field in fields
}

DENSE_KERNELS = (
    "lattice.determinant",
    "lattice.inertia",
    "lattice.solve_mod2",
    "lattice.smith_invariant_factors",
)


class Tracer:
    """Span totals and counters for one traced run."""

    def __init__(self):
        self.calls = {name: 0 for name in SPANS.values()}
        self.self_s = {name: 0.0 for name in SPANS.values()}
        self.counts = {
            "lattice.dim3_sum": 0,
            "plumbing.report.vertices": 0,
            "kirby.surgery_search.candidates": 0,
            "kirby.surgery_search.det_zero": 0,
            "kirby.surgery_search.hits": 0,
            "kirby.reduce_with_trace.blow_downs": 0,
            "families.verify_iteration.branches": 0,
            "cli.main.output_bytes": 0,
        }
        self._open = []  # child time accumulated by each open span
        self._undo = []

    def _wrap(self, name, fn):
        calls, self_s, opened = self.calls, self.self_s, self._open
        before, after = self._hooks(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            opened.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = opened.pop()
                if opened:
                    opened[-1] += dt
                calls[name] += 1
                self_s[name] += dt - child
            if after:
                after(args, result, token)
            return result

        return wrapper

    def _hooks(self, name):
        """Counters bumped before and after a call of span `name`."""
        counts, calls = self.counts, self.calls
        if name in DENSE_KERNELS:
            def before(args):
                counts["lattice.dim3_sum"] += args[0].dim ** 3
            return before, None
        if name == "plumbing.report":
            def before(args):
                counts["plumbing.report.vertices"] += args[0].n_vertices
            return before, None
        if name == "kirby.surgery_search":
            def before(args):
                return (
                    calls["lattice.determinant"],
                    calls["lattice.smith_invariant_factors"],
                )

            def after(args, result, token):
                counts["kirby.surgery_search.candidates"] += (
                    calls["lattice.determinant"] - token[0]
                )
                counts["kirby.surgery_search.det_zero"] += (
                    calls["lattice.smith_invariant_factors"] - token[1]
                )
                counts["kirby.surgery_search.hits"] += len(result)
            return before, after
        if name == "kirby.reduce_with_trace":
            def after(args, result, token):
                counts["kirby.reduce_with_trace.blow_downs"] += len(result[1])
            return None, after
        if name == "families.verify_iteration":
            def after(args, result, token):
                counts["families.verify_iteration.branches"] += sum(
                    rec["branches"] for rec in result.step_records
                )
            return None, after
        if name == "cli.main":
            def before(args):
                return _written()

            def after(args, result, token):
                counts["cli.main.output_bytes"] += _written() - token
            return before, after
        return None, None

    def install(self):
        """Replace every traced function in every mubar namespace."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "mubar" or key.startswith("mubar."))
        ]
        for (mod_name, attr), span in SPANS.items():
            owner = sys.modules["mubar." + mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(span, orig))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(span, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, orig))
        return self

    def uninstall(self):
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()

    def per_round(self, rounds):
        """Every PER_LAYER metric, as totals divided by the rounds run."""
        raw = dict(self.counts)
        for span in SPANS.values():
            raw[span + ".calls"] = self.calls[span]
            raw[span + ".self_s"] = self.self_s[span]
        cand = raw["kirby.surgery_search.candidates"]
        out = {}
        for name, unit in PER_LAYER.items():
            if name == "kirby.surgery_search.hit_ratio":
                value = raw["kirby.surgery_search.hits"] / cand if cand else 0.0
            elif unit == "s":
                value = raw[name] / rounds
            else:
                value, rest = divmod(raw[name], rounds)
                if rest:
                    value = raw[name] / rounds
            out[name] = {"value": value, "unit": unit}
        return out


def _written():
    """Characters written so far to a captured (StringIO) stdout."""
    getvalue = getattr(sys.stdout, "getvalue", None)
    return len(getvalue()) if getvalue else 0
