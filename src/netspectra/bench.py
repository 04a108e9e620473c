"""Wall-clock benchmarking of the pipeline's computational stages.

Each sweep point ``(N, L)`` is built as ``run`` builds a run: the node from
``[node]``, the network from ``[network]`` with ``n_nodes = N``, and the runs
the mode needs, each of ``L`` samples; so ``bench`` exits 2, 3 or 4 where
``run`` would.  Three cost centres are timed separately:

* ``correlation`` -- producing the CPSD matrix of every run from its time
  series.  With ``cost_model="paper"`` this goes through explicit full-lag
  cross-correlations (quadratic in the record length, linear-in-L
  single-frequency transform); with ``cost_model="fft"`` it uses the default
  segment-averaged estimator.
* ``inversion`` -- inverting every CPSD matrix once.
* ``reconstruction`` -- the configured route as ``run`` calls it
  (:func:`~netspectra.pipeline.reconstruct`), its own inversions and S_w
  recovery included.

Every spectrum is taken at ``BENCH_OMEGA0`` (snapped to a bin by the ``fft``
estimator).  Oracle modes skip simulation and estimation and take the
analytic spectra of the config's noise model.  Timings are the minimum over
a configurable number of repeats; scaling factors are measured, never
asserted.
"""

from __future__ import annotations

import csv
import time
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError
from .lti import NetworkSystem, NodeDynamics, analytic_cpsd
from .pipeline import (
    ExperimentConfig,
    _build_network,
    _build_node,
    _require_input_psd,
    _run_keys,
    reconstruct,
    simulated_runs,
)
from .spectral import (
    estimate_cpsd_lag_domain,
    estimate_cpsd_matrix,
    estimate_inverse_cpsd,
    snap_frequency,
)

__all__ = ["benchmark", "write_bench_csv", "parse_sweep"]

BENCH_OMEGA0 = 0.5


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


def _make_stages(cfg: ExperimentConfig, n: int, l: int, cost_model: str,
                 node: NodeDynamics) -> list[tuple[str, object]]:
    cfg = replace(cfg, network=replace(cfg.network, n_nodes=n),
                  sim=replace(cfg.sim, n_samples=l))
    g = _build_network(cfg, node)
    if g.n_nodes != n:
        raise ConfigError(f"the network file has {g.n_nodes} nodes, not the sweep's {n}")
    _require_input_psd(cfg, g.eigenpair)
    keys = _run_keys(cfg, n)
    stages: list[tuple[str, object]] = []
    if cfg.recon.oracle:
        sys = NetworkSystem(node, g)
        model = cfg.noise.input_psd_model(cfg.sim.dt)
        mats = {key: analytic_cpsd(sys if key == "full" else sys.grounded(key), model,
                                   BENCH_OMEGA0) for key in keys}
    else:
        runs = simulated_runs(cfg, g, node)
        records = {key: runs(key, True) for key in keys}
        if cost_model == "paper":
            estimate = lambda ts: estimate_cpsd_lag_domain(ts, BENCH_OMEGA0)
        else:
            snapped, _ = snap_frequency(BENCH_OMEGA0, cfg.sim.dt, cfg.spectral)
            estimate = lambda ts: estimate_cpsd_matrix(ts, snapped, cfg.spectral)

        def correlate():
            return {key: estimate(ts) for key, ts in records.items()}

        stages.append(("correlation", correlate))
        mats = correlate()
    grounded = [(key, mats[key]) for key in keys[1:]]

    def invert():
        for mat in mats.values():
            estimate_inverse_cpsd(mat)

    stages.append(("inversion", invert))
    stages.append(("reconstruction",
                   lambda: reconstruct(cfg, mats["full"], grounded, node, g.eigenpair)))
    return stages


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
    prepared = [
        (n, l, _make_stages(cfg, n, l, cost_model, node)) for n, l in sweep
    ]
    best: dict[tuple, float] = {}
    for round_index in range(repeats):
        # alternate the visit order so slow machine drift cannot
        # systematically penalise one end of the sweep
        ordered = prepared if round_index % 2 == 0 else prepared[::-1]
        for n, l, stages in ordered:
            for name, fn in stages:
                t0 = time.perf_counter()
                fn()
                dt = time.perf_counter() - t0
                key = (n, l, name)
                best[key] = min(best.get(key, float("inf")), dt)
    rows = []
    for n, l, stages in prepared:
        for name, _ in stages:
            rows.append(
                {
                    "n_nodes": n,
                    "n_samples": l,
                    "cost_model": "oracle" if cfg.recon.oracle else cost_model,
                    "stage": name,
                    "seconds": best[(n, l, name)],
                    "repeats": repeats,
                }
            )
    return rows


def write_bench_csv(path, rows: list[dict]) -> None:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["n_nodes", "n_samples", "cost_model", "stage", "seconds", "repeats"]
        )
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
