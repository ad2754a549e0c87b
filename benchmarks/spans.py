"""Span tracing of nstar's public functions, installed from outside the package.

`Tracer.install()` replaces every public function and public method defined
in the layer modules with a wrapper that records one span (name, start, end,
parent span, job id) per call, plus a few work counters. Modules bind each
other's functions by name (`from .numerics import invert_increasing`), so the
wrapper is written into every `nstar` module namespace that holds the
original object. Nothing under `src/` changes. Spans stay in flat arrays in
memory and are written out once, by `Tracer.dump`.

Self time of a span is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans. Time spent in
`families` and `errors` (value construction only) lands in the caller's
self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("numerics", "calculus", "space", "measure", "dual", "suite", "documents", "cli")

COUNTERS = (
    "numerics.quad_nodes",
    "numerics.inverter_f_evals",
    "numerics.inverter_targets",
    "numerics.table_points",
    "numerics.errors",
    "calculus.phi_calls",
    "calculus.phi_elems",
    "calculus.inverse_calls",
    "calculus.complement_builds",
    "space.lux_calls",
    "space.lux_iterations",
    "space.bytes_computed",
    "space.minor_faults",
)

# Bytes attributed to each generator evaluation made under a space call: one
# 8-byte read of the argument and one 8-byte write of the value. Computed from
# element counts, not measured.
BYTES_PER_SPACE_ELEMENT = 16


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _with_arg(args, kwargs, pos, name, value):
    if len(args) > pos:
        return args[:pos] + (value,) + args[pos + 1 :], kwargs
    return args, {**kwargs, name: value}


def _counting(fn, counts, key, elements):
    def counted(x):
        counts[key] += np.size(x) if elements else 1
        return fn(x)

    return counted


def _pre_gauss_panel(tr, args, kwargs):
    g = _arg(args, kwargs, 0, "g")
    return _with_arg(args, kwargs, 0, "g", _counting(g, tr.counts, "numerics.quad_nodes", True))


def _pre_inverter(fn_name, target_name):
    def pre(tr, args, kwargs):
        tr.counts["numerics.inverter_targets"] += np.size(_arg(args, kwargs, 1, target_name))
        fn = _arg(args, kwargs, 0, fn_name)
        return _with_arg(
            args, kwargs, 0, fn_name, _counting(fn, tr.counts, "numerics.inverter_f_evals", False)
        )

    return pre


def _pre_tabulate(tr, args, kwargs):
    tr.counts["numerics.table_points"] += int(kwargs["points"])
    return args, kwargs


def _pre_phi_call(tr, args, kwargs):
    n = np.size(_arg(args, kwargs, 1, "x"))
    tr.counts["calculus.phi_calls"] += 1
    tr.counts["calculus.phi_elems"] += n
    if tr.space_depth:
        tr.counts["space.bytes_computed"] += BYTES_PER_SPACE_ELEMENT * n
    return args, kwargs


def _pre_inverse(tr, args, kwargs):
    tr.counts["calculus.inverse_calls"] += 1
    return args, kwargs


def _post_complementary(tr, result):
    # registered closed complements carry no source table; numeric builds do
    if result.source_nfunction is not None:
        tr.counts["calculus.complement_builds"] += 1


def _post_luxemburg(tr, result):
    tr.counts["space.lux_calls"] += 1
    tr.counts["space.lux_iterations"] += result.iterations


_PRE = {
    "numerics.gauss_panel": _pre_gauss_panel,
    "numerics.invert_increasing": _pre_inverter("f", "y"),
    "numerics.generalized_inverse": _pre_inverter("m", "t"),
    "numerics.tabulate_density": _pre_tabulate,
    "calculus.NStarFunction.__call__": _pre_phi_call,
    "calculus.NStarFunction.inverse": _pre_inverse,
    "calculus.NFunction.inverse": _pre_inverse,
    "calculus.invert": _pre_inverse,
}
_POST = {
    "calculus.complementary": _post_complementary,
    "space.luxemburg_norm": _post_luxemburg,
}


class Tracer:
    """In-memory span store and counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.name_idx = array("i")
        self.parent = array("i")
        self.job_ids = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.job = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.space_depth = 0
        self._faults_at_entry = 0

    # -- installation -----------------------------------------------------

    def install(self) -> int:
        """Wrap every public function and method of the layer modules; return the count."""
        import importlib

        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"nstar.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(layer, name, obj))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "nstar" and not mod_name.startswith("nstar."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        return len(self.names)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            qual = f"{cls.__name__}.{attr}"
            if isinstance(val, classmethod):
                setattr(cls, attr, classmethod(self._wrap(layer, qual, val.__func__)))
            elif isinstance(val, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(layer, qual, val.__func__)))
            elif inspect.isfunction(val):
                setattr(cls, attr, self._wrap(layer, qual, val))

    def _wrap(self, layer: str, qualname: str, fn):
        key = f"{layer}.{qualname}"
        nid = len(self.names)
        self.names.append(key)
        self.layer_of.append(LAYERS.index(layer))
        pre = _PRE.get(key)
        post = _POST.get(key)
        is_space = layer == "space"
        is_numerics = layer == "numerics"
        numerics_id = LAYERS.index("numerics")
        tracer = self
        stack, names, parents, jobs = self.stack, self.name_idx, self.parent, self.job_ids
        starts, ends, layer_of, counts = self.start, self.end, self.layer_of, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(tracer, args, kwargs)
            idx = len(starts)
            parent = stack[-1] if stack else -1
            names.append(nid)
            parents.append(parent)
            jobs.append(tracer.job)
            ends.append(0.0)
            stack.append(idx)
            if is_space:
                tracer._enter_space()
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                # count an error once, where it leaves the numerics layer
                if is_numerics and (parent < 0 or layer_of[names[parent]] != numerics_id):
                    counts["numerics.errors"] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                if is_space:
                    tracer._exit_space()
            if post is not None:
                post(tracer, result)
            return result

        return wrapper

    def _enter_space(self) -> None:
        if self.space_depth == 0:
            self._faults_at_entry = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        self.space_depth += 1

    def _exit_space(self) -> None:
        self.space_depth -= 1
        if self.space_depth == 0:
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - self._faults_at_entry
            self.counts["space.minor_faults"] += faults

    def repair(self) -> None:
        """Restore consistent arrays after an alarm interrupted a job mid-span."""
        n = min(len(self.name_idx), len(self.parent), len(self.job_ids), len(self.start), len(self.end))
        for arr in (self.name_idx, self.parent, self.job_ids, self.start, self.end):
            del arr[n:]
        for i in range(n - 1, -1, -1):
            if self.job_ids[i] != self.job:
                break
            if self.end[i] < self.start[i]:
                self.end[i] = self.start[i]
        self.stack.clear()
        self.space_depth = 0

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Self time and span count per layer, suite instance count, and counters."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=float, count=n)
        dur = np.frombuffer(self.end, dtype=float, count=n) - start
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        layer_of = np.asarray(self.layer_of, dtype=np.int64)
        layer = layer_of[np.frombuffer(self.name_idx, dtype=np.int32, count=n)]
        nested = parent >= 0
        child = np.zeros(n)
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        nl = len(LAYERS)
        self_by_layer = np.bincount(layer, weights=self_time, minlength=nl)
        calls_by_layer = np.bincount(layer, minlength=nl)
        suite_id, space_id = LAYERS.index("suite"), LAYERS.index("space")
        parent_layer = np.where(nested, layer[np.maximum(parent, 0)], -1)
        instances = int(np.count_nonzero((layer == space_id) & (parent_layer == suite_id)))
        return {
            "spans": n,
            "self_s": {name: float(v) for name, v in zip(LAYERS, self_by_layer)},
            "calls": {name: int(v) for name, v in zip(LAYERS, calls_by_layer)},
            "suite_instances": instances,
            "counts": dict(self.counts),
        }

    def dump(self, path, extra: dict | None = None) -> None:
        """Write every span and the summary to one .npz file."""
        n = len(self.start)
        summary = self.summary()
        summary.update(extra or {})
        with open(path, "wb") as fh:
            np.savez(
                fh,
                names=np.asarray(self.names, dtype=str),
                name=np.frombuffer(self.name_idx, dtype=np.int32, count=n),
                start=np.frombuffer(self.start, dtype=float, count=n),
                end=np.frombuffer(self.end, dtype=float, count=n),
                parent=np.frombuffer(self.parent, dtype=np.int32, count=n),
                job=np.frombuffer(self.job_ids, dtype=np.int32, count=n),
                summary=np.asarray(json.dumps(summary)),
            )


def read_summary(path) -> dict:
    with np.load(path) as data:
        return json.loads(str(data["summary"]))
