"""Span tracer that wraps the public functions of the fractalzeta modules.

Tracing is installed from the benchmark's side: every public function of
``geometry``, ``zeta``, ``dimensions``, ``tube``, ``intervals`` and ``cli``
is replaced by a wrapper in every module namespace that bound it by name,
so calls across layers are caught as well as calls from the benchmark.
``ClosedFormZeta.evaluate`` is wrapped on the class.

A span records name, start, end, parent span id and job id.  Spans that
have traced children are kept whole; spans without children (about half a
million per ``fe_quadrature`` pass) are aggregated by ``(parent, name)``.
Per-name totals, self times (duration minus traced children) and the
descendant counts of every name are accumulated as spans close, so the
per-layer metrics need no second pass over the spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("geometry", "zeta", "dimensions", "tube", "intervals", "cli")

_TUBE_KIND = {
    "exact_1d": "exact",
    "exact_closed": "exact",
    "grid_count": "grid",
    "monte_carlo": "monte_carlo",
}


class _Frame:
    __slots__ = ("id", "start", "child_s", "sub", "has_child")

    def __init__(self, span_id: int, start: float):
        self.id = span_id
        self.start = start
        self.child_s = 0.0
        self.sub: dict[str, list] = {}
        self.has_child = False


class Tracer:
    """In-memory span collector; ``enabled`` switches recording on and off."""

    def __init__(self):
        self.enabled = False
        self.job = None
        self._stack: list[_Frame] = []
        self._next_id = 1
        self.top_s = 0.0
        self.spans: list[tuple] = []
        self.leaves: dict[tuple, list] = {}
        # name -> [calls, total_s, self_s, work]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        # name -> descendant name -> [calls, work]
        self.descendants: dict[str, dict[str, list]] = defaultdict(dict)

    def _enter(self) -> _Frame:
        frame = _Frame(self._next_id, time.perf_counter())
        self._next_id += 1
        if self._stack:
            self._stack[-1].has_child = True
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, name: str, work: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame.start
        self_s = dur - frame.child_s
        st = self.stats[name]
        st[0] += 1
        st[1] += dur
        st[2] += self_s
        st[3] += work
        parent = self._stack[-1] if self._stack else None
        parent_id = parent.id if parent is not None else 0
        if frame.has_child:
            self.spans.append((frame.id, name, frame.start, end, parent_id, self.job, self_s, work))
            desc = self.descendants[name]
            for sub_name, (calls, sub_work) in frame.sub.items():
                acc = desc.setdefault(sub_name, [0, 0])
                acc[0] += calls
                acc[1] += sub_work
        else:
            leaf = self.leaves.setdefault((parent_id, name), [0, 0.0, 0])
            leaf[0] += 1
            leaf[1] += dur
            leaf[2] += work
        if parent is None:
            self.top_s += dur
        else:
            parent.child_s += dur
            psub = parent.sub
            for sub_name, (calls, sub_work) in frame.sub.items():
                acc = psub.setdefault(sub_name, [0, 0])
                acc[0] += calls
                acc[1] += sub_work
            acc = psub.setdefault(name, [0, 0])
            acc[0] += 1
            acc[1] += work

    def wrap(self, fn, name, work=None, rename=None):
        """Wrap ``fn`` in a span; ``work`` and ``rename`` see (args, kwargs, result)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._enter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, name, 0)
                raise
            span_name = rename(args, kwargs, out) if rename is not None else name
            tracer._exit(frame, span_name, work(args, kwargs, out) if work is not None else 0)
            return out

        return traced

    def dump(self, path) -> None:
        """Write the kept spans and the aggregated leaf spans as gzipped JSON."""
        payload = {
            "span_fields": ["id", "name", "start", "end", "parent", "job", "self_s", "work"],
            "spans": self.spans,
            "leaf_fields": ["parent", "name", "calls", "total_s", "work"],
            "leaves": [[p, n, *v] for (p, n), v in self.leaves.items()],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def _arg(args, kwargs, index, key):
    return kwargs[key] if key in kwargs else args[index]


def _tube_kind(args, kwargs, out):
    return f"geometry.tube_volume.{_TUBE_KIND[out.method.value]}"


def _cli_name(args, kwargs, out):
    argv = _arg(args, kwargs, 0, "argv") or ["none"]
    return "cli." + str(argv[0]).replace("-", "_")


_WORK = {
    "geometry.distances_to_set": lambda a, k, o: int(np.shape(o)[0]),
    "geometry.sample_tube_curve": lambda a, k, o: len(o),
    "zeta.distance_zeta_numeric": lambda a, k, o: int(_arg(a, k, 2, "cfg").mc_samples),
    "dimensions.find_poles_argument_principle": lambda a, k, o: len(o),
}

_RENAME = {
    "geometry.tube_volume": _tube_kind,
    "cli.main": _cli_name,
}


def install(tracer: Tracer) -> None:
    """Replace every public function of the package modules by a traced wrapper."""
    package = importlib.import_module("fractalzeta")
    modules = {name: importlib.import_module(f"fractalzeta.{name}") for name in LAYERS}
    namespaces = [package, *modules.values()]
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if layer == "cli" and attr != "main":
                # subcommand bodies count as the CLI span's self time
                continue
            name = f"{layer}.{attr}"
            wrapped = tracer.wrap(obj, name, _WORK.get(name), _RENAME.get(name))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is obj:
                        setattr(ns, key, wrapped)
    cls = modules["zeta"].ClosedFormZeta
    evaluate = cls.evaluate
    wrapped = tracer.wrap(
        evaluate, "zeta.ClosedFormZeta.evaluate", lambda a, k, o: int(np.size(a[1] if len(a) > 1 else k["s"]))
    )
    cls.evaluate = wrapped
    if cls.__call__ is evaluate:
        cls.__call__ = wrapped


def layer_metrics(tracer: Tracer, passes: int, traced_wall_s: float) -> dict[str, float]:
    """Per-pass per-layer figures named as in BENCHMARK.json (without trace.overhead_s).

    ``traced_wall_s`` is the summed wall time of the traced passes; the part
    of it outside every span (gates, fingerprints, job set-up) is the
    benchmark's own ``bench.self_s``.
    """
    st = tracer.stats
    desc = tracer.descendants

    def get(name):
        calls, total, self_s, work = st.get(name, (0, 0.0, 0.0, 0))
        return calls, total, self_s, work

    def rate(num, den):
        return num / den if den > 0 else 0.0

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v[2] for k, v in st.items() if k.split(".", 1)[0] == layer) / passes
    out["bench.self_s"] = (traced_wall_s - tracer.top_s) / passes

    calls, total, self_s, work = get("geometry.distances_to_set")
    out["geometry.distances_to_set.calls"] = calls / passes
    out["geometry.distances_to_set.points"] = work / passes
    out["geometry.distances_to_set.self_s"] = self_s / passes
    out["geometry.distances_to_set.points_per_s"] = rate(work, total)

    for kind in ("grid", "monte_carlo"):
        calls, total, self_s, _ = get(f"geometry.tube_volume.{kind}")
        out[f"geometry.tube_volume.{kind}.calls"] = calls / passes
        out[f"geometry.tube_volume.{kind}.self_s"] = self_s / passes
        out[f"geometry.tube_volume.{kind}.total_s_per_t"] = rate(total, calls)
    calls, _, self_s, _ = get("geometry.tube_volume.exact")
    out["geometry.tube_volume.exact.calls"] = calls / passes
    out["geometry.tube_volume.exact.self_s"] = self_s / passes
    out["geometry.sample_tube_curve.self_s"] = get("geometry.sample_tube_curve")[2] / passes

    calls, total, self_s, work = get("zeta.distance_zeta_numeric")
    out["zeta.distance_zeta_numeric.calls"] = calls / passes
    out["zeta.distance_zeta_numeric.self_s"] = self_s / passes
    out["zeta.distance_zeta_numeric.samples_per_s"] = rate(work, total)

    calls, _, self_s, _ = get("zeta.tube_zeta_numeric")
    tv_calls = desc["zeta.tube_zeta_numeric"].get("geometry.tube_volume.exact", [0, 0])[0]
    out["zeta.tube_zeta_numeric.calls"] = calls / passes
    out["zeta.tube_zeta_numeric.self_s"] = self_s / passes
    out["zeta.tube_zeta_numeric.tube_volume_calls_per_call"] = rate(tv_calls, calls)
    out["zeta.functional_equation_residual.self_s"] = get("zeta.functional_equation_residual")[2] / passes

    calls, _, self_s, _ = get("intervals.fatten_intervals")
    out["intervals.fatten_intervals.calls"] = calls / passes
    out["intervals.fatten_intervals.self_s"] = self_s / passes

    calls, total, self_s, work = get("zeta.ClosedFormZeta.evaluate")
    out["zeta.ClosedFormZeta.evaluate.calls"] = calls / passes
    out["zeta.ClosedFormZeta.evaluate.points"] = work / passes
    out["zeta.ClosedFormZeta.evaluate.self_s"] = self_s / passes
    out["zeta.ClosedFormZeta.evaluate.points_per_s"] = rate(work, total)

    calls, total, self_s, poles = get("dimensions.find_poles_argument_principle")
    eval_points = desc["dimensions.find_poles_argument_principle"].get(
        "zeta.ClosedFormZeta.evaluate", [0, 0]
    )[1]
    out["dimensions.find_poles_argument_principle.calls"] = calls / passes
    out["dimensions.find_poles_argument_principle.self_s"] = self_s / passes
    out["dimensions.find_poles_argument_principle.total_s"] = total / passes
    out["dimensions.find_poles_argument_principle.eval_points_per_pole"] = rate(eval_points, poles)
    calls, _, self_s, _ = get("dimensions.residue_contour")
    out["dimensions.residue_contour.calls"] = calls / passes
    out["dimensions.residue_contour.self_s"] = self_s / passes
    out["dimensions.languidity_probe.self_s"] = get("dimensions.languidity_probe")[2] / passes

    for fn in (
        "series_from_zeta",
        "tube_formula_truncated",
        "compare_tube_formula",
        "measurability_criterion",
        "box_dimension_fit",
    ):
        calls, _, self_s, _ = get(f"tube.{fn}")
        out[f"tube.{fn}.calls"] = calls / passes
        out[f"tube.{fn}.self_s"] = self_s / passes

    for cmd in ("tube_compare", "poles", "measurability", "zeta_eval"):
        _, total, self_s, _ = get(f"cli.{cmd}")
        out[f"cli.{cmd}.total_s"] = total / passes
        out[f"cli.{cmd}.self_s"] = self_s / passes

    calls, _, self_s, _ = get("zeta.catalog_zeta")
    out["zeta.catalog_zeta.calls"] = calls / passes
    out["zeta.catalog_zeta.self_s"] = self_s / passes
    return out
