"""In-process span recorder for the per-layer metrics.

The program is not changed.  `Tracer.install()` wraps, from outside, every
public function and method of each layer module of `nonembed`, the names
that other modules bound to those functions with `from ... import`, and
`scipy.sparse.linalg.splu` (which `bvp` calls for the pentagon LU).  Each
call then records one span: its name, start, end and parent.  Spans are
kept in flat in-memory arrays and written out once, at the end of the run.

Counters are taken from arguments, return values and file sizes at the
same boundaries (`_COUNTERS`).  The work a counter does is itself recorded
as a span of the `trace` layer, so it is not charged to any program layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("quadrature", "trees", "fields", "bvp", "mollify", "conformal",
          "assembly", "ruled", "gridio", "cli")
TRACE_LAYER = "trace"
# methods with these dunder names are wrapped too; the rest are plumbing
_DUNDER_KEPT = ("__init__", "__call__")


def _live_nodes(field) -> int:
    return int(np.count_nonzero(field.grid.mask != 0))  # bvp.EXTERIOR == 0


def _size(path) -> int:
    return os.path.getsize(path)


def _sidecar(path) -> Path:
    return Path(path).with_suffix(".json")


def _lu_fill(args, kwargs, lu, counts):
    counts["bvp.unknowns"] += int(args[0].shape[0])
    # L and U are built one at a time so only one copy is alive at once
    counts["bvp.lu_fill_nnz"] += int(lu.L.nnz)
    counts["bvp.lu_fill_nnz"] += int(lu.U.nnz)


def _quad_evals(args, kwargs, res, counts):
    counts["quadrature.evals"] += int(res.n_evals)


def _value_points(args, kwargs, res, counts):
    counts["mollify.value_points"] += int(np.size(args[1]))


def _one(key):
    def hook(args, kwargs, res, counts):
        counts[key] += 1
    return hook


def _instances(args, kwargs, res, counts):
    counts["ruled.instances_accepted"] += len(res)


def _write_csv(args, kwargs, res, counts):
    counts["gridio.nodes_written"] += _live_nodes(args[0])
    counts["gridio.bytes_written"] += _size(res) + _size(_sidecar(res))


def _write_json(args, kwargs, res, counts):
    counts["gridio.nodes_written"] += _live_nodes(args[0])
    counts["gridio.bytes_written"] += _size(res)


def _read_csv(args, kwargs, res, counts):
    counts["gridio.nodes_read"] += _live_nodes(res)
    counts["gridio.bytes_read"] += _size(args[0]) + _size(_sidecar(args[0]))


def _read_json(args, kwargs, res, counts):
    counts["gridio.nodes_read"] += _live_nodes(res)
    counts["gridio.bytes_read"] += _size(args[0])


# span name -> counter hook(args, kwargs, result, counts)
_COUNTERS = {
    "bvp.splu": _lu_fill,
    "quadrature.adaptive_log_quadrature": _quad_evals,
    "mollify.MollifiedGlue.value": _value_points,
    "mollify.MollifiedGlue.kernel_average": _one("mollify.kernel_points"),
    "ruled.project_point": _one("ruled.project_calls"),
    "ruled.comparison_check": _one("ruled.comparison_checks"),
    "ruled.hypothesis_instances": _instances,
    "gridio.write_grid_csv": _write_csv,
    "gridio.write_grid_json": _write_json,
    "gridio.read_grid_csv": _read_csv,
    "gridio.read_grid_json": _read_json,
}
COUNT_KEYS = ("quadrature.evals", "bvp.unknowns", "bvp.lu_fill_nnz",
              "mollify.value_points", "mollify.kernel_points",
              "ruled.project_calls", "ruled.comparison_checks",
              "ruled.instances_accepted", "gridio.nodes_written",
              "gridio.bytes_written", "gridio.nodes_read", "gridio.bytes_read")
# span names whose inclusive time is a metric of its own
_INCLUSIVE = {
    "bvp.factor_s": ("bvp.splu",),
    "bvp.poisson_s": ("bvp.solve_poisson",),
    "gridio.write_s": ("gridio.write_grid_csv", "gridio.write_grid_json"),
    "gridio.read_s": ("gridio.read_grid_csv", "gridio.read_grid_json"),
}


class Tracer:
    """Records spans while installed; `metrics()` turns them into the
    per-layer figures."""

    def __init__(self):
        self._names = []          # span name table; spans hold an index
        self._name_ids = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self._patches = []        # (owner, attribute, original value)

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = _COUNTERS.get(name)
        hook_id = self._name_id(f"{TRACE_LAYER}.count") if hook else -1
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                h = self._open(hook_id)
                try:
                    hook(args, kwargs, result, counts)
                finally:
                    self._close(h)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the layer boundaries.  Call `uninstall()` afterwards."""
        import scipy.sparse.linalg as spla
        modules = {layer: importlib.import_module(f"nonembed.{layer}")
                   for layer in LAYERS}
        wrapped = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            src = mod.__file__
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__code__.co_filename == src:
                    w = self.wrap(f"{layer}.{attr}", obj)
                    wrapped[id(obj)] = w
                    self._patch(mod, attr, w)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj, src)
        splu = spla.splu
        wrapped[id(splu)] = self.wrap("bvp.splu", splu)
        self._patch(spla, "splu", wrapped[id(splu)])
        # names bound elsewhere with `from nonembed.<layer> import name`
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    self._patch(mod, attr, w)

    def _wrap_class(self, layer: str, cls, src: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDER_KEPT:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                fn, rewrap = raw.__func__, staticmethod
            elif isinstance(raw, classmethod):
                fn, rewrap = raw.__func__, classmethod
            elif inspect.isfunction(raw):
                fn, rewrap = raw, None
            else:
                continue  # properties and data attributes
            if fn.__code__.co_filename != src:
                continue  # dataclass-generated methods
            w = self.wrap(name, fn)
            self._patch(cls, attr, rewrap(w) if rewrap else w)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def spans(self):
        """(names, name index, parent, start, end) as numpy arrays."""
        return (list(self._names), np.frombuffer(self._name, dtype=np.int32),
                np.frombuffer(self._parent, dtype=np.int32),
                np.frombuffer(self._start), np.frombuffer(self._end))

    def self_times(self) -> dict:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        names, nid, parent, start, end = self.spans()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        calls = np.bincount(nid, minlength=len(names))
        incl = np.bincount(nid, weights=dur, minlength=len(names))
        slf = np.bincount(nid, weights=self_t, minlength=len(names))
        return {n: (int(calls[i]), float(incl[i]), float(slf[i]))
                for i, n in enumerate(names)}

    def metrics(self) -> dict:
        by_name = self.self_times()
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for name, (_, _, slf) in by_name.items():
            layer = name.split(".", 1)[0]
            if layer in LAYERS:
                out[f"{layer}.self_s"] += slf
        for key, names in _INCLUSIVE.items():
            out[key] = sum(by_name[n][1] for n in names if n in by_name)
        out.update(self.counts)
        return out

    def write(self, path: Path) -> None:
        """Spans as a compressed npz plus a per-name summary in JSON."""
        names, nid, parent, start, end = self.spans()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path.with_suffix(".npz"), name=nid, parent=parent,
                            start=start, end=end)
        summary = {"names": names,
                   "by_name": {n: {"calls": c, "inclusive_s": i, "self_s": s}
                               for n, (c, i, s) in self.self_times().items()},
                   "counts": self.counts}
        path.with_suffix(".json").write_text(json.dumps(summary, indent=1,
                                                        sort_keys=True))
