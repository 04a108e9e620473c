"""Spans around the public functions that netspectra's modules call.

A traced experiment replaces, for its duration, the names a calling module
imported (``netspectra.pipeline.simulate``, ``netspectra.reconstruct.
estimate_inverse_cpsd``, ...) with wrappers that record one span per call.
Nothing under ``src/`` changes.  Spans are kept in memory and written out by
the caller when the run ends; per-layer metrics are derived from them.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

MIB = float(1 << 20)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    workload: str
    seed: int
    experiment: int
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


# What each span records besides its times, from the call's arguments and
# result.  Probes run after the span has ended.

def _samples(args, result) -> dict:
    return {"samples": result.n_samples}


def _file_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _segments(args, result) -> dict:
    return {"segments": result.segment_count, "channels": result.n_nodes}


def _loaded(args, result) -> dict:
    return {"loaded": int(result.loaded)}


def _diagnostics(args, result) -> dict:
    d = result.diagnostics
    if d is None:
        return {}
    return {"clamped": d.clamp_count, "suppressed": d.suppressed_count}


# (module under netspectra, attribute, span name, probe).  The attribute is
# the name the module calls, so the wrapper sits at the layer boundary.
TARGETS = (
    ("pipeline", "simulate", "simulate.full", _samples),
    ("pipeline", "simulate_grounded", "simulate.grounded", _samples),
    ("pipeline", "save_timeseries", "simulate.save", _file_bytes),
    ("pipeline", "load_timeseries", "simulate.load", _file_bytes),
    ("pipeline", "estimate_cpsd_matrix", "spectral.estimate", _segments),
    ("pipeline", "select_omega0", "spectral.select_omega0", None),
    ("reconstruct", "estimate_inverse_cpsd", "spectral.invert", _loaded),
    ("pipeline", "analytic_cpsd", "lti.analytic_cpsd", None),
    ("pipeline", "save_cpsd", "lti.save_cpsd", _file_bytes),
    ("pipeline", "load_cpsd", "lti.load_cpsd", _file_bytes),
    ("pipeline", "boolean_directed", "reconstruct.route", _diagnostics),
    ("pipeline", "exact_directed", "reconstruct.route", _diagnostics),
    ("pipeline", "nonreciprocal", "reconstruct.route", _diagnostics),
    ("pipeline", "exact_undirected", "reconstruct.route", None),
    ("pipeline", "threshold_heuristic", "reconstruct.threshold", None),
    ("pipeline", "compare", "graphs.compare", None),
    ("cli", "compare", "graphs.compare", None),
    ("pipeline", "run_pipeline", "pipeline.run", None),
    ("pipeline", "stage_generate", "pipeline.generate", None),
    ("pipeline", "stage_simulate", "pipeline.simulate", None),
    ("pipeline", "stage_estimate", "pipeline.estimate", None),
    ("pipeline", "stage_oracle_spectra", "pipeline.oracle_spectra", None),
    ("pipeline", "stage_reconstruct", "pipeline.reconstruct", None),
    ("pipeline", "stage_evaluate", "pipeline.evaluate", None),
    ("pipeline", "load_saved_runs", "pipeline.load_saved_runs", None),
    ("pipeline", "load_saved_spectra", "pipeline.load_saved_spectra", None),
)

class Tracer:
    """Records spans of one workload run; install it around each traced experiment."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.experiment = 0
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, probe: Optional[Callable] = None, args=()):
        """Time the body as one span; ``probe(args, result)`` fills its info."""
        stack = self._stack()
        span = Span(next(self._ids), name, 0.0, 0.0, stack[-1] if stack else None,
                    self.workload, self.seed, self.experiment)
        stack.append(span.id)
        box: dict = {}
        span.start = time.perf_counter()
        try:
            yield box
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if probe is not None and "result" in box:
            span.info = probe(args, box["result"])

    def _wrap(self, fn: Callable, name: str, probe: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, probe, args) as box:
                box["result"] = fn(*args, **kwargs)
            return box["result"]

        return traced

    def _pool(self) -> type:
        """Thread pool whose tasks open their spans under the submitting span."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = list(tracer._stack()[-1:])

                def run(*a, **kw):
                    tracer._local.stack = list(parent)
                    return fn(*a, **kw)

                return super().submit(run, *args, **kwargs)

        return TracedPool

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Patch every target in ``modules`` (name -> module) for the body."""
        saved = []
        try:
            for mod_name, attr, name, probe in TARGETS:
                mod = modules[mod_name]
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._wrap(getattr(mod, attr), name, probe))
            pipeline = modules["pipeline"]
            saved.append((pipeline, "ThreadPoolExecutor", pipeline.ThreadPoolExecutor))
            pipeline.ThreadPoolExecutor = self._pool()
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.start)]


def _covered(start: float, end: float, intervals: list) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_seconds(spans: list[Span], prefix: str) -> float:
    """Sum over spans named ``prefix*`` of duration minus child coverage."""
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return sum(
        s.seconds - _covered(s.start, s.end, children.get(s.id, []))
        for s in spans if s.name.startswith(prefix)
    )


def layer_metrics(spans: list[Span], names: list[str]) -> dict:
    """The per-layer metrics ``names`` of one experiment's spans.

    The counts and ``pipeline.self_s`` have their own rules below; any other
    ``<span>_s`` is the summed duration of the spans so named, 0 where the
    layer did not run.
    """
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def infos(name):
        return [s.info for s in by_name.get(name, [])]

    def total(name, key):
        return sum(i.get(key, 0) for i in infos(name))

    estimates = infos("spectral.estimate")
    routes = infos("reconstruct.route")
    derived = {
        "simulate.samples": total("simulate.full", "samples")
        + total("simulate.grounded", "samples"),
        "simulate.save_mb": total("simulate.save", "bytes") / MIB,
        "simulate.load_mb": total("simulate.load", "bytes") / MIB,
        "spectral.estimate_calls": len(estimates),
        "spectral.segments": estimates[0]["segments"] if estimates else 0,
        "spectral.invert_calls": len(by_name.get("spectral.invert", [])),
        "spectral.loaded": total("spectral.invert", "loaded"),
        "lti.save_cpsd_mb": total("lti.save_cpsd", "bytes") / MIB,
        "reconstruct.route_calls": len(routes),
        "reconstruct.clamped": routes[-1].get("clamped", 0) if routes else 0,
        "reconstruct.suppressed": routes[-1].get("suppressed", 0) if routes else 0,
        "pipeline.self_s": self_seconds(spans, "pipeline."),
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith("_s"):
            out[name] = sum(s.seconds for s in by_name.get(name[:-2], []))
        else:
            raise ValueError(f"no rule for the per-layer metric {name!r}")
    return out


def median_metrics(per_experiment: list[dict]) -> dict:
    """Median of each metric over experiments; counts stay whole numbers."""
    out = {}
    for key in per_experiment[0]:
        values = [m[key] for m in per_experiment]
        exact = all(isinstance(v, int) for v in values)
        out[key] = (statistics.median_low if exact else statistics.median)(values)
    return out
