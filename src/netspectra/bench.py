"""Wall-clock benchmarking of the pipeline's computational stages.

Each sweep point ``(N, L)`` is built as ``run`` builds a run: the node from
``[node]``, the network from ``[network]`` with ``n_nodes = N``, and the runs
the mode needs, each of ``L`` samples; so ``bench`` exits 2, 3 or 4 where
``run`` would.  Three cost centres are timed separately, on the calling
thread; only a simulation's noise draw runs beside it, one block ahead on a
helper thread (see :mod:`netspectra.simulate`):

* ``correlation`` -- producing every run's CPSD matrix.
  ``cost_model="fft"`` times ``run``'s own streaming
  :func:`~netspectra.pipeline.estimate_spectra`, simulation included.
  ``cost_model="paper"`` times explicit full-lag cross-correlations
  (quadratic in the record length) of whole records.  They are simulated,
  untimed, just before each timed correlation and released after it, so
  only one sweep point's N+1 records are held at a time.
* ``inversion`` -- inverting every CPSD matrix once.
* ``reconstruction`` -- the configured route as ``run`` calls it
  (:func:`~netspectra.pipeline.reconstruct`), its own inversions and S_w
  recovery included.

Spectra are taken at the config's omega0: ``fft`` snaps it as ``run`` does,
``paper`` and the oracle modes' :func:`~netspectra.pipeline.oracle_spectra`
(untimed) take it unsnapped.  ``paper`` refuses a fixed omega0 that ``run``
cannot snap (exit 3 at the DC bin, exit 2 at or above Nyquist), but not a
record shorter than two segments, since it averages no segments.  The other
stages take the spectra of the correlation timed just before them, in the
same round.  Timings are the minimum over a configurable number of repeats;
scaling factors are measured, never asserted.
"""

from __future__ import annotations

import csv
import time
from collections.abc import Callable
from dataclasses import replace

from .errors import ConfigError
from .lti import NodeDynamics
from .pipeline import (
    ExperimentConfig,
    _analytic_omega0,
    _build_network,
    _build_node,
    _require_snappable,
    _run_keys,
    estimate_spectra,
    oracle_spectra,
    reconstruct,
    simulated_runs,
)
from .spectral import estimate_cpsd_lag_domain, estimate_inverse_cpsd

__all__ = ["benchmark", "write_bench_csv", "parse_sweep"]


def parse_sweep(text: str) -> list[tuple[int, int]]:
    """Parse ``"N:L,N:L,..."`` into a list of (n_nodes, n_samples) pairs.

    Every node is grounded in turn, so N must be at least 2, as must L.
    """
    pairs = []
    for item in text.split(","):
        try:
            n, l = item.split(":")
            pairs.append((int(n), int(l)))
        except ValueError as exc:
            raise ConfigError(
                f"bad sweep item {item!r}; expected N:L pairs like 8:16384"
            ) from exc
        if min(pairs[-1]) < 2:
            raise ConfigError(f"bad sweep item {item!r}: N and L must be at least 2")
    if not pairs:
        raise ConfigError("empty sweep")
    return pairs


def _sweep_point(cfg: ExperimentConfig, n: int, l: int, cost_model: str,
                 node: NodeDynamics) -> Callable[[], dict[str, float]]:
    """Build sweep point ``(n, l)`` once, as ``run`` builds a run; return its ``measure()``.

    ``measure()`` times one round of the point's stages, in order, and returns
    ``{stage: seconds}``.  Under ``paper`` it first simulates the records,
    untimed, and releases them after the correlation.
    """
    cfg = replace(cfg, network=replace(cfg.network, n_nodes=n),
                  sim=replace(cfg.sim, n_samples=l))
    g = _build_network(cfg, node)
    if g.n_nodes != n:
        raise ConfigError(f"the network file has {g.n_nodes} nodes, not the sweep's {n}")
    keys = _run_keys(cfg, n)
    if cfg.recon.oracle:
        oracle = oracle_spectra(cfg, g, node)
    else:
        runs = simulated_runs(cfg, g, node)
        if cost_model == "paper":
            _require_snappable(cfg)
            omega0 = _analytic_omega0(cfg)

    def measure() -> dict[str, float]:
        seconds = {}
        if cfg.recon.oracle:
            spectra = oracle
        elif cost_model == "paper":
            records = [runs(key).into() for key in keys]  # held whole, untimed
            t0 = time.perf_counter()
            spectra = [estimate_cpsd_lag_domain(ts, omega0) for ts in records]
            seconds["correlation"] = time.perf_counter() - t0
            del records
        else:
            t0 = time.perf_counter()
            spectra = estimate_spectra(cfg, runs, node, n)
            seconds["correlation"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        for mat in spectra:
            estimate_inverse_cpsd(mat)
        t1 = time.perf_counter()
        reconstruct(cfg, spectra[0], list(zip(keys[1:], spectra[1:])), node, g.eigenpair)
        seconds["inversion"] = t1 - t0
        seconds["reconstruction"] = time.perf_counter() - t1
        return seconds

    return measure


def benchmark(
    cfg: ExperimentConfig,
    sweep: list[tuple[int, int]],
    cost_model: str = "fft",
    repeats: int = 3,
) -> list[dict]:
    """Time the pipeline stages for every (N, L) in the sweep.

    Repeat rounds are interleaved across the sweep points (rather than
    exhausting one size before the next), so transient machine slowdowns
    cannot skew the scaling trend of a single size; the minimum over rounds
    is reported.
    """
    if cost_model not in ("fft", "paper"):
        raise ConfigError(f"unknown cost model {cost_model!r}")
    if repeats < 1:
        raise ConfigError(f"repeats must be at least 1, got {repeats}")
    node = _build_node(cfg)
    points = [((n, l), _sweep_point(cfg, n, l, cost_model, node)) for n, l in sweep]
    best: dict[tuple[int, int], dict[str, float]] = {}
    for round_index in range(repeats):
        # alternate the visit order so slow machine drift cannot
        # systematically penalise one end of the sweep
        for point, measure in points if round_index % 2 == 0 else points[::-1]:
            point_best = best.setdefault(point, {})
            for stage, dt in measure().items():
                point_best[stage] = min(point_best.get(stage, dt), dt)
    label = "oracle" if cfg.recon.oracle else cost_model
    return [{"n_nodes": n, "n_samples": l, "cost_model": label, "stage": stage,
             "seconds": seconds, "repeats": repeats}
            for n, l in sweep for stage, seconds in best[(n, l)].items()]


def write_bench_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["n_nodes", "n_samples", "cost_model", "stage", "seconds", "repeats"]
        )
        writer.writeheader()
        writer.writerows(rows)
