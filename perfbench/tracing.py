"""Span tracing of krigesense from the outside, for the --trace runs.

The tracer replaces every public function of the layer modules at every
krigesense module binding that holds it (so ``sensitivity.kriging_weights``
is wrapped as well as ``kriging.kriging_weights``), plus
``KrigingSystem.build`` and the ``_LocalPlan`` methods. Each wrapped call
records one span: name, parent span, op id, start and end. Spans stay in
memory; ``save`` writes them out and ``layer_metrics`` reduces them to the
per-layer metrics. Nothing inside the package is edited: ``installed()``
restores every original binding on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("specfun", "linalg", "kernel", "kriging", "identifiability",
          "sensitivity", "classifier", "cli")


def _jitter_retry(args, result, parent):
    return {"linalg.spd_factor.jitter_retries": int(result.jitter_used > 0.0)}


def _values(key):
    def measure(args, result, parent):
        return {key: int(np.size(result))}
    return measure


def _unique_distances(args, result, parent):
    # kernel_matrix prices the covariance once per distinct distance, so
    # the size of its matern_covariance call is the unique-distance count
    if parent == "kernel.kernel_matrix":
        return {"kernel.kernel_matrix.unique": int(np.size(result))}
    return {}


def _scan_cells(args, result, parent):
    return {"identifiability.cells": len(result),
            "identifiability.failed_cells":
                sum(cell.band == "failed" for cell in result)}


def _candidates(args, result, parent):
    return {"classifier.candidates": result[1].evaluations}


def _plan_pairs(args, result, parent):
    plan = args[0]
    return {"classifier.pairs_unique": int(plan.pair_dist.size),
            "classifier.pairs_total": int(plan.pair_inv.size)}


# counts taken at a layer boundary, keyed by span name
_MEASURES = {
    "specfun.bessel_k_log_array": _values("specfun.bessel_k_log_array.values"),
    "kernel.matern_correlation": _values("kernel.matern_correlation.values"),
    "kernel.kernel_matrix": _values("kernel.kernel_matrix.entries"),
    "kernel.matern_covariance": _unique_distances,
    "linalg.spd_factor": _jitter_retry,
    "identifiability.collinearity_scan": _scan_cells,
    "classifier.grid_search": _candidates,
    "classifier._LocalPlan.__init__": _plan_pairs,
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack = [-1]

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def wrap(self, label: str, fn):
        """A function that calls fn inside a span named label."""
        name_id = self._label_id(label)
        measure = _MEASURES.get(label)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            parent = stack[-1]
            self.name.append(name_id)
            self.parent.append(parent)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                stack.pop()
            if measure is not None:
                parent_label = (self.labels[self.name[parent]]
                                if parent >= 0 else None)
                self.counts.update(measure(args, result, parent_label))
            return result
        return traced

    def count_calls(self, label: str, fn):
        """A function that counts calls to fn without opening a span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)
        return counted

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced binding for the duration of the block."""
        undo = _install(self)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def arrays(self) -> dict:
        return {"name": np.asarray(self.name, dtype=np.int32),
                "parent": np.asarray(self.parent, dtype=np.int64),
                "op": np.asarray(self.op, dtype=np.int64),
                "start": np.asarray(self.start),
                "end": np.asarray(self.end)}

    def save(self, path, environment_json: str) -> None:
        """Write every span plus the label table and environment."""
        np.savez(path, labels=np.asarray(self.labels),
                 environment=np.asarray(environment_json), **self.arrays())

    def times(self) -> tuple[dict, dict, dict]:
        """Per label: span count, inclusive seconds and self seconds."""
        a = self.arrays()
        n_labels = len(self.labels)
        duration = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child_time = np.bincount(a["parent"][nested],
                                 weights=duration[nested],
                                 minlength=duration.size)
        own = duration - child_time
        calls = np.bincount(a["name"], minlength=n_labels)
        inclusive = np.bincount(a["name"], weights=duration,
                                minlength=n_labels)
        self_time = np.bincount(a["name"], weights=own, minlength=n_labels)
        labels = self.labels
        return ({lab: int(calls[i]) for i, lab in enumerate(labels)},
                {lab: float(inclusive[i]) for i, lab in enumerate(labels)},
                {lab: float(self_time[i]) for i, lab in enumerate(labels)})


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (inspect.isfunction(obj) and not attr.startswith("_")
                and obj.__module__ == module.__name__):
            yield attr, obj


def _install(tracer: Tracer) -> list:
    """Replace every traced callable; returns (owner, attr, original)."""
    from krigesense import classifier, kriging, specfun

    modules = {layer: importlib.import_module(f"krigesense.{layer}")
               for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attr, fn in _public_functions(module):
            wrapped[id(fn)] = (fn, tracer.wrap(f"{layer}.{attr}", fn))
    fallback = specfun._log_k_small_x
    wrapped[id(fallback)] = (fallback, tracer.count_calls(
        "specfun.small_x_fallbacks", fallback))

    undo = []
    holders = [m for name, m in list(sys.modules.items())
               if name == "krigesense" or name.startswith("krigesense.")]
    for module in holders:
        for attr, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                undo.append((module, attr, obj))
                setattr(module, attr, hit[1])

    build = kriging.KrigingSystem.__dict__["build"]
    undo.append((kriging.KrigingSystem, "build", build))
    kriging.KrigingSystem.build = classmethod(
        tracer.wrap("kriging.KrigingSystem.build", build.__func__))
    for attr in ("__init__", "correlation", "latent_means"):
        method = classifier._LocalPlan.__dict__[attr]
        undo.append((classifier._LocalPlan, attr, method))
        setattr(classifier._LocalPlan, attr,
                tracer.wrap(f"classifier._LocalPlan.{attr}", method))
    return undo


_RESPONSES = ("sensitivity.response_weights", "sensitivity.response_variance")

# per-op span counts: metric -> span labels
_CALLS = {
    "specfun.bessel_k_log_array.calls": ("specfun.bessel_k_log_array",),
    "kernel.matern_correlation.calls": ("kernel.matern_correlation",),
    "kernel.kernel_matrix.calls": ("kernel.kernel_matrix",),
    "linalg.spd_factor.calls": ("linalg.spd_factor",),
    "linalg.spd_solve.calls": ("linalg.spd_solve",),
    "linalg.sym_eigenvalues.calls": ("linalg.sym_eigenvalues",),
    "kriging.systems": ("kriging.KrigingSystem.build",),
    "sensitivity.evaluations": _RESPONSES,
    "cli.main.calls": ("cli.main",),
}
# per-op self seconds: metric -> span label
_SELF = {
    "specfun.bessel_k_log_array.self_s": "specfun.bessel_k_log_array",
    "kernel.matern_correlation.self_s": "kernel.matern_correlation",
    "kernel.kernel_matrix.self_s": "kernel.kernel_matrix",
    "linalg.spd_factor.self_s": "linalg.spd_factor",
    "linalg.spd_solve.self_s": "linalg.spd_solve",
    "linalg.sym_eigenvalues.self_s": "linalg.sym_eigenvalues",
    "kriging.KrigingSystem.build.self_s": "kriging.KrigingSystem.build",
    "kriging.kriging_weights.self_s": "kriging.kriging_weights",
    "kriging.kriging_variance.self_s": "kriging.kriging_variance",
    "identifiability.local_sensitivities.self_s":
        "identifiability.local_sensitivities",
    "identifiability.collinearity_index.self_s":
        "identifiability.collinearity_index",
    "sensitivity.sobol_total.self_s": "sensitivity.sobol_total",
    "classifier.plan.self_s": "classifier._LocalPlan.__init__",
    "classifier.correlation.self_s": "classifier._LocalPlan.correlation",
    "classifier.latent_means.self_s": "classifier._LocalPlan.latent_means",
    "cli.main.self_s": "cli.main",
}
# per-op inclusive seconds: metric -> span labels
_INCLUSIVE = {
    "sensitivity.response_s": _RESPONSES,
    "classifier.classify_s": ("classifier.classify",),
}
# per-op counts taken by the measures
_COUNTED = (
    "specfun.bessel_k_log_array.values", "specfun.small_x_fallbacks",
    "kernel.matern_correlation.values", "linalg.spd_factor.jitter_retries",
    "identifiability.cells", "identifiability.failed_cells",
    "classifier.candidates",
)


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics over the traced ops; a ratio over zero reads 0."""
    calls, inclusive, own = tracer.times()
    counts = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for metric, labels in _CALLS.items():
        out[metric] = sum(calls[label] for label in labels) / ops
    for metric, label in _SELF.items():
        out[metric] = own[label] / ops
    for metric, labels in _INCLUSIVE.items():
        out[metric] = sum(inclusive[label] for label in labels) / ops
    for metric in _COUNTED:
        out[metric] = counts[metric] / ops
    out["specfun.bessel_k_log_array.ns_per_value"] = 1e9 * ratio(
        own["specfun.bessel_k_log_array"],
        counts["specfun.bessel_k_log_array.values"])
    out["kernel.kernel_matrix.unique_ratio"] = ratio(
        counts["kernel.kernel_matrix.unique"],
        counts["kernel.kernel_matrix.entries"])
    out["kriging.us_per_system"] = 1e6 * ratio(
        inclusive["kriging.kriging_weights"]
        + inclusive["kriging.kriging_variance"],
        calls["kriging.KrigingSystem.build"])
    out["classifier.ms_per_candidate"] = 1e3 * ratio(
        inclusive["classifier.grid_search"], counts["classifier.candidates"])
    out["classifier.unique_pair_ratio"] = ratio(
        counts["classifier.pairs_unique"], counts["classifier.pairs_total"])
    return out
