"""Spans around calls into the package's layers, and per-layer metrics.

The tracer wraps every public function of each layer module, everywhere
it is bound by name in the package (so ``cli``, ``suite``, ``psi`` and
``realize``, which import names from other layers, call the wrappers), plus
a few public methods.  A span is ``(name, start, end, parent, attr,
error)``; ``parent`` is the index of the enclosing span, so layer spans
nest under ``cli.dispatch``, ``suite.run_all`` and the benchmark's own
``job.<id>`` spans, and a span's self time is its duration minus its
children's.  Spans stay in memory until written out.

The Whitney size map is counted, not spanned: it is called millions of
times per pass, and a counting wrapper around ``WhitneyMap.__call__`` notes
each call and each new cache entry.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from typing import Callable, Dict, List

LAYERS = ("metric_core", "continua", "whitney", "chains", "realize", "psi",
          "cli", "suite")

# Geometric predicates that verify_chain and build_tower call per pair of
# links (hundreds of thousands of calls for a 3-level tower).  Their time
# shows as self time of the spans that call them.
UNSPANNED = {"chains.rects_intersect", "chains.rects_contain",
             "chains.rects_diameter", "chains.rects_connected"}

# Public methods wrapped as spans: (module, class, method, span name).
METHODS = (("psi", "PsiValues", "distance", "psi.PsiValues.distance"),
           ("psi", "PsiPathspace", "__init__", "psi.PsiPathspace"),
           ("psi", "PsiPathspace", "path_between",
            "psi.PsiPathspace.path_between"))


def _nested_len(obj) -> int:
    if isinstance(obj, list):
        return sum(_nested_len(v) for v in obj)
    return len(obj)


def _planck_pairs(args, kwargs, result) -> int:
    model = args[0]
    ample = sum(1 for e in model.elements if model.classify(e) == "ample")
    return ample * (len(model.elements) - ample) * len(model.elements)


# Work counted at the span, from the call's arguments and result.
ANNOTATE: Dict[str, Callable] = {
    "metric_core.hausdorff_distance":
        lambda a, k, r: len(a[0]) * len(a[1]),
    "continua.enumerate_subcontinua": lambda a, k, r: len(r),
    "continua.order_arcs_between": lambda a, k, r: len(r),
    "chains.is_crooked": lambda a, k, r: len(a[0]),
    "realize.build_tower":
        lambda a, k, r: r.grid_shape[0] * r.grid_shape[1],
    "realize.realize_planar": lambda a, k, r: _nested_len(r),
    "psi.build_psi_model": lambda a, k, r: len(r.elements),
    "psi.planck_report": _planck_pairs,
    "psi.PsiPathspace": lambda a, k, r: a[0].graph.nnz // 2,
    "psi.curvature_check": lambda a, k, r: r.trials,
}


class Tracer:
    """Records spans and size-map counts while ``active`` is true."""

    def __init__(self):
        self.spans: List[list] = []
        self.mu_calls = 0
        self.mu_distinct = 0
        self.active = False
        self._stack: List[int] = []
        self._undo: List[tuple] = []
        self._t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself: a job, set-up or a pass."""
        if not self.active:
            yield
            return
        sid = self._open(name)
        error = None
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self._close(sid, None, error)

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None,
                           None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, attr, error) -> None:
        self.spans[sid][2] = time.perf_counter()
        self.spans[sid][4] = attr
        self.spans[sid][5] = error
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        annotate = ANNOTATE.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(sid, None, type(exc).__name__)
                raise
            attr = annotate(args, kwargs, result) if annotate else None
            tracer._close(sid, attr, None)
            return result
        return traced

    def reset(self) -> None:
        self.spans = []
        self.mu_calls = self.mu_distinct = 0

    # -- installing and removing wrappers ---------------------------------

    def install(self) -> None:
        """Wrap the layers' public functions; the package must be imported."""
        mods = {layer: importlib.import_module(f"continuum_lab.{layer}")
                for layer in LAYERS}
        package = _package_modules()
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNSPANNED
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(name, fn)
                for other in package:
                    for bound, value in list(vars(other).items()):
                        if value is fn:
                            self._set(other, bound, wrapped)
        for layer, cls_name, method, name in METHODS:
            cls = getattr(mods[layer], cls_name)
            self._set(cls, method, self._wrap(name, vars(cls)[method]))
        self._count_mu(mods["whitney"].WhitneyMap)

    def _count_mu(self, cls) -> None:
        original = vars(cls)["__call__"]
        tracer = self

        @functools.wraps(original)
        def counted(mu, a):
            if not tracer.active:
                return original(mu, a)
            before = len(mu._cache)
            value = original(mu, a)
            tracer.mu_calls += 1
            if len(mu._cache) > before:
                tracer.mu_distinct += 1
            return value
        self._set(cls, "__call__", counted)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo = []

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        rows = [[s[0], s[1] - self._t0, s[2] - self._t0, s[3], s[4], s[5]]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "attr", "error"], "spans": rows}, fh)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name.startswith("continuum_lab.") and m is not None]


# ---------------------------------------------------------------------------
# per-layer metrics from spans

# Inclusive time of the outermost spans among these names.
TIME_METRICS = {
    "metric_core.hausdorff_s": ("metric_core.hausdorff_distance",),
    "continua.enumerate_s": ("continua.enumerate_subcontinua",),
    "continua.triod_s": ("continua.detect_triod",),
    "continua.order_arcs_s": ("continua.order_arcs_between",),
    "continua.terminal_s": ("continua.is_terminal",),
    "whitney.axioms_s": ("whitney.check_whitney_axioms",),
    "whitney.distance_s": ("whitney.hyperspace_distance_matrices",
                           "whitney.whitney_distance"),
    "whitney.level_s": ("whitney.whitney_level",),
    "chains.is_crooked_s": ("chains.is_crooked",),
    "chains.generate_s": ("chains.generate_crooked_pattern",),
    "chains.min_spanning_s": ("chains.minimal_spanning_crooked_length",),
    "chains.verify_chain_s": ("chains.verify_chain",),
    "realize.build_tower_s": ("realize.build_tower",),
    "realize.realize_planar_s": ("realize.realize_planar",),
    "psi.build_s": ("psi.build_psi_model",),
    "psi.planck_s": ("psi.planck_report",),
    "psi.normalize_s": ("psi.normalize_to_psi0",),
    "psi.pathspace_s": ("psi.PsiPathspace",),
    "psi.path_s": ("psi.PsiPathspace.path_between",),
    "psi.distance_s": ("psi.PsiValues.distance",),
    "psi.levels_s": ("psi.level_structure_report",),
    "psi.curvature_s": ("psi.curvature_check",),
    "cli.dispatch_s": ("cli.dispatch",),
    "suite.run_all_s": ("suite.run_all",),
}
# Sums of the work counted at these spans.
COUNT_METRICS = {
    "metric_core.hausdorff_pairs": "metric_core.hausdorff_distance",
    "continua.subcontinua": "continua.enumerate_subcontinua",
    "continua.order_arcs": "continua.order_arcs_between",
    "chains.pattern_links": "chains.is_crooked",
    "realize.grid_cells": "realize.build_tower",
    "realize.points": "realize.realize_planar",
    "psi.elements": "psi.build_psi_model",
    "psi.planck_pairs": "psi.planck_report",
    "psi.pathspace_edges": "psi.PsiPathspace",
    "psi.curvature_trials": "psi.curvature_check",
}
# distances_to materialises, per point pair, the 2-vector difference, its
# square (16 bytes each), their sum and its square root (8 bytes each).
HAUSDORFF_BYTES_PER_PAIR = 48


def layer_metrics(spans: List[list], mu_calls: int, mu_distinct: int,
                  report_bytes: int) -> Dict[str, float]:
    names = [s[0] for s in spans]
    out: Dict[str, float] = {}
    for metric, group in TIME_METRICS.items():
        total = 0.0
        for i, s in enumerate(spans):
            if s[0] in group and not _has_ancestor(spans, i, group):
                total += s[2] - s[1]
        out[metric] = total
    for metric, name in COUNT_METRICS.items():
        out[metric] = sum(s[4] or 0 for s in spans if s[0] == name)
    out["metric_core.hausdorff_calls"] = names.count(
        "metric_core.hausdorff_distance")
    out["metric_core.hausdorff_bytes"] = (HAUSDORFF_BYTES_PER_PAIR
                                          * out["metric_core.hausdorff_pairs"])
    towers = [s for s in spans if s[0] == "realize.build_tower"]
    built = sum(1 for s in towers if s[5] is None)
    out["realize.towers_built"] = built
    out["realize.towers_refused"] = sum(1 for s in towers
                                        if s[5] == "ResourceError")
    out["realize.built_ratio"] = built / len(towers) if towers else 0.0
    out["psi.path_calls"] = names.count("psi.PsiPathspace.path_between")
    out["whitney.mu_calls"] = mu_calls
    out["whitney.mu_distinct"] = mu_distinct
    out["whitney.mu_hit_ratio"] = (1.0 - mu_distinct / mu_calls
                                   if mu_calls else 0.0)
    out["cli.self_s"] = _self_time(spans, "cli.dispatch")
    out["cli.report_bytes"] = report_bytes
    return out


def _has_ancestor(spans, i: int, group) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in group:
            return True
        p = spans[p][3]
    return False


def _self_time(spans, name: str) -> float:
    child = {}
    for s in spans:
        if s[3] >= 0:
            child[s[3]] = child.get(s[3], 0.0) + (s[2] - s[1])
    return sum(s[2] - s[1] - child.get(i, 0.0)
               for i, s in enumerate(spans) if s[0] == name)


def bases(metrics: Dict[str, float]) -> Dict[str, str]:
    """The base of each ratio, printed beside it."""
    requests = (metrics["realize.towers_built"]
                + metrics["realize.towers_refused"])
    return {"realize.built_ratio": f"{requests:g} requests",
            "whitney.mu_hit_ratio":
                f"{metrics['whitney.mu_calls']:g} mu_calls"}
