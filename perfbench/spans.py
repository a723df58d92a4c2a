"""Span recording around dtnlab's public entry points, from outside the package.

Every function is wrapped at the name its callers look up (a module global or
a class attribute), so the program itself is unchanged.  A span records name,
start, end and parent; spans stay in memory and are written out at the end.
The tracer assumes one thread runs dtnlab at a time, which ``threads: 1``
guarantees: the sweep's single worker thread runs while the main thread waits
inside ``run_sweep``, so one shared span stack gives every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# span name -> the (module, attribute) bindings through which callers reach it
_FUNCTIONS = {
    "config.parse_config": [("dtnlab.cli", "parse_config")],
    "report.build_model": [("dtnlab.cli", "build_model"), ("dtnlab.report", "build_model")],
    "report.run_sweep": [("dtnlab.cli", "run_sweep")],
    "report.emit_report": [("dtnlab.cli", "emit_report")],
    "report.emit_csv": [("dtnlab.cli", "emit_csv")],
    "report.emit_plot_data": [("dtnlab.cli", "emit_plot_data")],
    "domain.oracle": [("dtnlab.cli", "oracle_eigendecomposition"),
                      ("dtnlab.report", "oracle_eigendecomposition")],
    "dtn.dtn_matrix": [("dtnlab.limits", "dtn_matrix"), ("dtnlab.dtn", "dtn_matrix"),
                       ("dtnlab.cli", "dtn_matrix")],
    "dtn.poisson_matrix": [("dtnlab.dtn", "poisson_matrix"), ("dtnlab.measures", "poisson_matrix")],
    "dtn.identity_suite": [("dtnlab.cli", "identity_suite")],
    "limits.slim_eta_M": [("dtnlab.classify", "slim_eta_M"), ("dtnlab.limits", "slim_eta_M")],
    "limits.boundary_value_M": [("dtnlab.classify", "boundary_value_M"),
                                ("dtnlab.limits", "boundary_value_M")],
    "limits.residue_contour": [("dtnlab.classify", "residue_contour")],
    "limits.analyticity_test": [("dtnlab.classify", "analyticity_test")],
    "limits.richardson_extrapolate": [("dtnlab.limits", "richardson_extrapolate"),
                                      ("dtnlab.measures", "richardson_extrapolate")],
    "classify.classify_point": [("dtnlab.report", "classify_point")],
    "classify.refine_pole": [("dtnlab.classify", "refine_pole")],
    "classify.ac_support": [("dtnlab.report", "ac_support")],
    "classify.sc_screen": [("dtnlab.report", "sc_screen")],
    "classify.purity_filter": [("dtnlab.report", "purity_filter")],
    "measures.stone_projection": [("dtnlab.cli", "stone_projection")],
    "measures.spectral_measure": [("dtnlab.cli", "spectral_measure")],
    "measures.ac_sc_supports": [("dtnlab.cli", "ac_sc_supports")],
    "measures.simplicity_rank": [("dtnlab.cli", "simplicity_rank")],
}
_METHODS = {
    "domain.factorize": ("dtnlab.domain", "DirichletOperator", "factorize"),
    "domain.solve": ("dtnlab.domain", "ShiftedSolver", "solve"),
}

# per-layer metrics of a traced pass, in report order: (name, unit)
PER_LAYER = [
    ("config.parse_config.s", "s"),
    ("report.build_model.s", "s"),
    ("domain.factorize.calls", "count"),
    ("domain.factorize.s", "s"),
    ("domain.solve.calls", "count"),
    ("domain.solve.cols", "count"),
    ("domain.solve.s", "s"),
    ("domain.near_spectrum", "count"),
    ("domain.oracle.s", "s"),
    ("dtn.dtn_matrix.calls", "count"),
    ("dtn.dtn_matrix.distinct_z", "count"),
    ("dtn.dtn_matrix.useful_ratio", "ratio"),
    ("dtn.dtn_matrix.s_per_call", "s"),
    ("dtn.poisson_matrix.calls", "count"),
    ("dtn.identity_suite.s", "s"),
    ("limits.slim_eta_M.calls", "count"),
    ("limits.slim_eta_M.s", "s"),
    ("limits.boundary_value_M.calls", "count"),
    ("limits.boundary_value_M.s", "s"),
    ("limits.residue_contour.calls", "count"),
    ("limits.residue_contour.s", "s"),
    ("limits.analyticity_test.calls", "count"),
    ("limits.analyticity_test.s", "s"),
    ("limits.richardson_extrapolate.calls", "count"),
    ("limits.richardson_extrapolate.s", "s"),
    ("classify.classify_point.calls", "count"),
    ("classify.classify_point.s", "s"),
    ("classify.refine_pole.calls", "count"),
    ("classify.refine_pole.s", "s"),
    ("classify.refine_pole.factorize_per_call", "ratio"),
    ("classify.ac_support.s", "s"),
    ("classify.sc_screen.s", "s"),
    ("classify.purity_filter.s", "s"),
    ("measures.stone_projection.s", "s"),
    ("measures.stone_projection.panels", "count"),
    ("measures.stone_projection.factorize", "count"),
    ("measures.spectral_measure.s", "s"),
    ("measures.ac_sc_supports.s", "s"),
    ("measures.simplicity_rank.s", "s"),
    ("report.run_sweep.s", "s"),
    ("report.emit.s", "s"),
    ("report.csv_rows", "count"),
]


class Patches:
    """Replaced bindings, restored by :meth:`restore`."""

    def __init__(self):
        self._saved = []

    def replace(self, target, attr, wrap):
        """Bind ``target.attr`` to ``wrap(original)``; a string target names a module."""
        if isinstance(target, str):
            target = importlib.import_module(target)
        original = getattr(target, attr)
        setattr(target, attr, wrap(original))
        self._saved.append((target, attr, original))

    def restore(self):
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)


def capture_stone_results(patches: Patches, sink: list):
    """Keep every StoneResult the CLI computes, for the oracle check after the pass."""
    def wrap(fn):
        @functools.wraps(fn)
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append(result)
            return result
        return captured
    patches.replace("dtnlab.cli", "stone_projection", wrap)


class Tracer:
    """In-memory span recorder with a few counters taken at the same boundaries."""

    def __init__(self):
        self.spans = []           # [name, start, end, parent index]
        self._stack = []
        self.dtn_z = set()
        self.solve_cols = 0
        self.near_spectrum = 0
        self.stone_panels = 0
        self.csv_rows = 0
        self.t0 = time.perf_counter()

    def _span(self, name, fn, before=None, after=None):
        from dtnlab.errors import NearSpectrum

        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except NearSpectrum as exc:
                # counted once, at the innermost span it leaves
                if not getattr(exc, "_traced", False):
                    exc._traced = True
                    self.near_spectrum += 1
                raise
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if after is not None:
                after(result)
            return result
        return traced

    def install(self, patches: Patches):
        hooks = {
            "dtn.dtn_matrix": (self._count_z, None),
            "domain.solve": (self._count_cols, None),
            "measures.stone_projection": (None, self._count_panels),
            "report.run_sweep": (None, self._count_rows),
        }
        targets = [(name, importlib.import_module(module_name), attr)
                   for name, bindings in _FUNCTIONS.items() for module_name, attr in bindings]
        targets += [(name, getattr(importlib.import_module(module_name), cls_name), attr)
                    for name, (module_name, cls_name, attr) in _METHODS.items()]
        for name, target, attr in targets:
            # a binding the program no longer has would leave its metrics at 0
            if not hasattr(target, attr):
                raise AttributeError(f"{name}: {target.__name__}.{attr} is gone; "
                                     f"update the bindings in perfbench/spans.py")
            before, after = hooks.get(name, (None, None))
            patches.replace(target, attr,
                            lambda fn, n=name, b=before, a=after: self._span(n, fn, b, a))

    @staticmethod
    def _arg(args, kwargs, index, name):
        return args[index] if len(args) > index else kwargs.get(name)

    def _count_z(self, args, kwargs):
        self.dtn_z.add(complex(self._arg(args, kwargs, 1, "lam")))

    def _count_cols(self, args, kwargs):
        shape = getattr(self._arg(args, kwargs, 1, "rhs"), "shape", ())
        self.solve_cols += shape[1] if len(shape) == 2 else 1

    def _count_panels(self, result):
        self.stone_panels += getattr(result, "panels", 0)

    def _count_rows(self, result):
        self.csv_rows += len(getattr(result, "samples", ()))

    # -- aggregation ---------------------------------------------------------

    def totals(self):
        """name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), covered in zip(self.spans, child):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered
        return out

    def _count_under(self, ancestor, name):
        """Spans called `name` that run inside a span called `ancestor`."""
        spans = self.spans
        count = 0
        for span in spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if spans[parent][0] == ancestor:
                    count += 1
                    break
                parent = spans[parent][3]
        return count

    def per_layer(self):
        """Metric name -> value for every name in PER_LAYER."""
        t = self.totals()

        def calls(name):
            return t[name][0] if name in t else 0

        def self_s(name):
            return t[name][2] if name in t else 0.0

        dtn_calls = calls("dtn.dtn_matrix")
        refine_calls = calls("classify.refine_pole")
        values = {
            "domain.near_spectrum": self.near_spectrum,
            "domain.solve.cols": self.solve_cols,
            "dtn.dtn_matrix.distinct_z": len(self.dtn_z),
            "dtn.dtn_matrix.useful_ratio": len(self.dtn_z) / dtn_calls if dtn_calls else 0.0,
            "dtn.dtn_matrix.s_per_call":
                t["dtn.dtn_matrix"][1] / dtn_calls if dtn_calls else 0.0,
            "classify.refine_pole.factorize_per_call":
                self._count_under("classify.refine_pole", "domain.factorize") / refine_calls
                if refine_calls else 0.0,
            "measures.stone_projection.panels": self.stone_panels,
            "measures.stone_projection.factorize":
                self._count_under("measures.stone_projection", "domain.factorize"),
            "report.emit.s": sum(self_s(n) for n in
                                 ("report.emit_report", "report.emit_csv", "report.emit_plot_data")),
            "report.csv_rows": self.csv_rows,
        }
        for metric, _ in PER_LAYER:
            if metric in values:
                continue
            layer, quantity = metric.rsplit(".", 1)
            values[metric] = calls(layer) if quantity == "calls" else self_s(layer)
        return values

    def write(self, path):
        """Write the spans as [name, start_s, end_s, parent] relative to tracer creation."""
        rows = [[n, round(s - self.t0, 9), round(e - self.t0, 9), p]
                for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)
