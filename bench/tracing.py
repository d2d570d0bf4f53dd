"""In-memory span tracer for the traced benchmark run.

The tracer replaces catscatter functions at the module attributes that
callers look up at call time, so every call across a layer boundary opens
a span.  The library source is not touched: :meth:`Tracer.install` swaps
attributes and :meth:`Tracer.uninstall` puts the originals back.

A span records its name, start, end, parent span and job id, plus the
counts the wrapped call exposes (integrand evaluations, subdivisions,
points).  Spans stay in memory; :meth:`Tracer.dump` writes them out once
the run is over.  The layer of a span is the catscatter module that
defines the called function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

import numpy as np

# Callers whose cross-module imports are wrapped, and public functions that
# are wrapped in their own module because the benchmark or a sibling
# function calls them through the module attribute.
CALLER_MODULES = ("scattering", "states", "analysis", "cli")
OWN_PUBLIC = {
    "scattering": ("event_density", "event_density_cat_closed",
                   "event_density_cat_quadrature", "event_density_gaussian",
                   "event_density_general"),
    "states": ("wigner_values", "wigner_normalization", "negativity_scan"),
    "analysis": ("azimuthal_asymmetry", "peak_theta", "sweep"),
    "cli": ("run",),
}

# Route functions of the scattering layer, by the method they compute.
DNU_ROUTES = {
    "event_density_cat_closed": "closed_form",
    "event_density_cat_quadrature": "quadrature2d",
    "event_density_gaussian": "quadrature2d",
    "event_density_general": "general4d",
}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "job", "counts")

    def __init__(self, name, layer, parent, job):
        self.name = name
        self.layer = layer
        self.start = self.end = 0.0
        self.parent = parent
        self.job = job
        self.counts = None


def _counts(name: str, args, result) -> dict | None:
    if name in ("integrate_1d", "integrate_nd"):
        dim = 1 if name == "integrate_1d" else len(args[1])
        return {"dim": dim, "neval": result.neval,
                "subdivisions": result.subdivisions}
    if name == "hydrogen_amplitude":
        return {"points": int(np.size(args[0]))}
    if name == "wigner_values":
        return {"points": int(np.size(result))}
    return None


class Tracer:
    """Collects spans while installed; one instance per traced pass set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _call(self, layer: str, name: str, fn, args=(), kwargs=None):
        span = Span(name, layer, self._stack[-1] if self._stack else None, self._job)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        span.counts = _counts(name, args, result)
        return result

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(layer, fn.__name__, fn, args, kwargs)

        return traced

    def install(self) -> None:
        for short in CALLER_MODULES:
            mod = importlib.import_module(f"catscatter.{short}")
            names = set(OWN_PUBLIC.get(short, ()))
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj)
                        and obj.__module__.startswith("catscatter.")
                        and obj.__module__ != mod.__name__):
                    names.add(attr)
            for attr in sorted(names):
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def run_job(self, job_id: int, fn):
        """Run ``fn`` inside a root span that carries ``job_id``."""
        self._job = job_id
        try:
            return self._call("bench", "job", fn)
        finally:
            self._job = None

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": f"{s.layer}.{s.name}", "start": s.start,
                    "end": s.end, "parent": s.parent, "job": s.job,
                    "counts": s.counts,
                }) + "\n")


def layer_report(spans: list[Span], first: int, last: int) -> dict:
    """Per-layer counts and self times of the spans ``spans[first:last]``.

    Self time is a span's duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    ``busy_s`` holds the whole time spent in the two kernels that the
    integrands call.
    """
    child_time = [0.0] * (last - first)
    for s in spans[first:last]:
        if s.parent is not None and s.parent >= first:
            child_time[s.parent - first] += s.end - s.start

    def ancestors(i):
        p = spans[i].parent
        while p is not None and p >= first:
            yield spans[p]
            p = spans[p].parent

    self_s: dict[str, float] = {}
    busy_s = {"hydrogen_amplitude": 0.0, "wigner_values": 0.0}
    c = {"calls_1d": 0, "calls_2d": 0, "calls_4d": 0, "neval": 0,
         "subdivisions": 0, "dnu.closed_form": 0, "dnu.quadrature2d": 0,
         "dnu.general4d": 0, "integrals_in_dnu": 0, "neval_in_dnu": 0,
         "asym_calls": 0, "dnu_in_asym": 0, "amplitude_calls": 0,
         "amplitude_points": 0, "wigner_calls": 0, "wigner_points": 0,
         "cli_runs": 0, "spans": last - first}
    for k, s in enumerate(spans[first:last]):
        i = first + k
        own = (s.end - s.start) - child_time[k]
        self_s[s.layer] = self_s.get(s.layer, 0.0) + own
        if s.name in ("integrate_1d", "integrate_nd"):
            c[f"calls_{s.counts['dim']}d"] += 1
            c["neval"] += s.counts["neval"]
            c["subdivisions"] += s.counts["subdivisions"]
            if any(a.name in DNU_ROUTES for a in ancestors(i)):
                c["integrals_in_dnu"] += 1
                c["neval_in_dnu"] += s.counts["neval"]
        elif s.name in DNU_ROUTES:
            c[f"dnu.{DNU_ROUTES[s.name]}"] += 1
            if any(a.name == "azimuthal_asymmetry" for a in ancestors(i)):
                c["dnu_in_asym"] += 1
        elif s.name == "azimuthal_asymmetry":
            c["asym_calls"] += 1
        elif s.name == "hydrogen_amplitude":
            c["amplitude_calls"] += 1
            c["amplitude_points"] += s.counts["points"]
            busy_s[s.name] += s.end - s.start
        elif s.name == "wigner_values":
            c["wigner_calls"] += 1
            busy_s[s.name] += s.end - s.start
            c["wigner_points"] += s.counts["points"]
        elif s.layer == "cli" and s.name == "run":
            c["cli_runs"] += 1
    return {"counts": c, "self_s": self_s, "busy_s": busy_s}
