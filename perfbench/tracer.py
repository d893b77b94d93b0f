"""Outside-in tracing of the ``topostat`` layers.

The traced child wraps, from outside the package, every public function
of every ``topostat.<layer>`` module, in every ``topostat.*`` namespace
that binds it (``cli``, ``infer`` and ``simulate`` import names
directly), plus ``Dataset.load``. Each call becomes a span with a
parent link; self time is the span's duration minus the time covered by
its child spans, kept on an explicit span stack. Spans stay in memory
and are written out once, after the operation.

The parent turns the spans into per-layer metrics with
:func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "topostat"


def _load_counts(result) -> dict:
    return {"dataset.Dataset.load.bytes": result.nbytes}


def _table_counts(result) -> dict:
    return {"infer.n_peaks": len(result.peaks), "infer.n_clusters": len(result.clusters)}


def _realization_counts(result) -> dict:
    return {"simulate.realizations": result["n_realizations"]}


# Counters read from the return value of a traced call.
COUNTERS = {
    "dataset.Dataset.load": _load_counts,
    "infer.peak_table": _table_counts,
    "simulate.mc_ec": _realization_counts,
    "simulate.mc_fwe": _realization_counts,
}


class Tracer:
    """In-memory span recorder for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_self: list[float] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span index, time covered by children]

    def wrap(self, name: str, func):
        name_id = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(self.span_name)
            stack = self._stack
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_end.append(0.0)
            self.span_self.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            self.span_start.append(t0)
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                self.span_end[idx] = t1
                self.span_self[idx] = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if count is not None:
                for key, value in count(result).items():
                    self.counters[key] += value
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers of the already imported package."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        for modname in sorted(modules):
            if modname == PACKAGE:
                continue
            layer = modname.split(".", 1)[1]
            for attr, obj in list(vars(modules[modname]).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != modname):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", obj)
                for mod in modules.values():
                    for bound, value in list(vars(mod).items()):
                        if value is obj:
                            setattr(mod, bound, wrapped)
        dataset_cls = modules[PACKAGE + ".dataset"].Dataset
        dataset_cls.load = self.wrap("dataset.Dataset.load", dataset_cls.load)

    def dump(self, path) -> None:
        np.savez(path, name=np.array(self.span_name, dtype=np.int64),
                 parent=np.array(self.span_parent, dtype=np.int64),
                 start=np.array(self.span_start), end=np.array(self.span_end),
                 self_s=np.array(self.span_self),
                 names=np.array(json.dumps(self.names)),
                 counters=np.array(json.dumps(self.counters)))


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def layer_metrics(spans_path, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics from a span dump, keyed by metric name.

    ``<fn>.calls`` and ``<fn>.self_s`` exist for every wrapped function,
    ``<layer>.self_s`` sums a layer's functions. ``trace.layer_coverage``
    is the share of the traced wall time spent in layer code other than
    the ``cli`` glue.
    """
    with np.load(spans_path) as z:
        names = json.loads(str(z["names"]))
        counters = json.loads(str(z["counters"]))
        name_ids, self_s, start, end = z["name"], z["self_s"], z["start"], z["end"]
    calls = np.bincount(name_ids, minlength=len(names))
    self_sum = np.bincount(name_ids, weights=self_s, minlength=len(names))
    total_sum = np.bincount(name_ids, weights=end - start, minlength=len(names))

    out: dict[str, float] = {}
    layer_self: dict[str, float] = defaultdict(float)
    for i, name in enumerate(names):
        out[f"{name}.calls"] = int(calls[i])
        out[f"{name}.self_s"] = float(self_sum[i])
        layer_self[name.split(".", 1)[0]] += float(self_sum[i])
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = value
    total = {name: float(total_sum[i]) for i, name in enumerate(names)}

    n_peaks = counters.get("infer.n_peaks", 0)
    realizations = counters.get("simulate.realizations", 0)
    out.update({
        "dataset.Dataset.load.mb": counters.get("dataset.Dataset.load.bytes", 0) / 1e6,
        "infer.n_peaks": int(n_peaks),
        "infer.n_clusters": int(counters.get("infer.n_clusters", 0)),
        "ecd.expected_ec.calls_per_peak": _ratio(out["ecd.expected_ec.calls"], n_peaks),
        "lkc.residual_passes": _ratio(
            out["lkc.lkc_top.calls"] + out["lkc.fwhm_estimate.calls"],
            out["glm.normalized_residuals.calls"]),
        "simulate.realizations": int(realizations),
        "simulate.s_per_realization": _ratio(
            total["simulate.mc_ec"] + total["simulate.mc_fwe"], realizations),
        "trace.wrapped_calls": int(calls.sum()),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.layer_coverage": _ratio(
            sum(v for k, v in layer_self.items() if k != "cli"), traced_wall),
    })
    return out
