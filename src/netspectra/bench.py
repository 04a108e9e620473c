"""Wall-clock benchmarking of the pipeline's computational stages.

Measures the three cost centres separately for a sweep of problem sizes:

* ``correlation`` -- producing the N x N (and N grounded) CPSD matrices from
  time series.  With ``cost_model="paper"`` this goes through explicit
  full-lag cross-correlations (quadratic in the record length, linear-in-L
  single-frequency transform); with ``cost_model="fft"`` it uses the default
  segment-averaged estimator.
* ``inversion`` -- inverting the N+1 Hermitian CPSD matrices.
* ``reconstruction`` -- assembling all coupling rows from the inverses.

Oracle modes skip simulation and estimation and time only the inversion and
reconstruction stages on analytic matrices.  Timings are the minimum over a
configurable number of repeats; scaling factors are measured, never asserted.
"""

from __future__ import annotations

import csv
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import families
from .errors import ConfigError, StabilityError
from .graphs import ConnectivityMatrix
from .lti import NetworkSystem, NodeDynamics, analytic_cpsd, is_hurwitz
from .pipeline import ExperimentConfig, simulated_runs
from .reconstruct import recover_row
from .spectral import (
    estimate_cpsd_lag_domain,
    estimate_cpsd_matrix,
    estimate_inverse_cpsd,
    snap_frequency,
)

__all__ = ["benchmark", "write_bench_csv", "parse_sweep"]

BENCH_OMEGA0 = 0.5


def parse_sweep(text: str) -> list[tuple[int, int]]:
    """Parse ``"N:L,N:L,..."`` into a list of (n_nodes, n_samples) pairs."""
    pairs = []
    for item in text.split(","):
        try:
            n, l = item.split(":")
            pairs.append((int(n), int(l)))
        except ValueError as exc:
            raise ConfigError(
                f"bad sweep item {item!r}; expected N:L pairs like 8:16384"
            ) from exc
    if not pairs:
        raise ConfigError("empty sweep")
    return pairs


def _stable_sparse(n: int, rng: np.random.Generator, node: NodeDynamics) -> ConnectivityMatrix:
    """Sparse directed coupling rescaled until the closed loop is Hurwitz."""
    w = families.directed_sparse(n, max(0.05, min(0.3, 8.0 / n)), (0.3, 1.0), rng).weights
    rho = np.abs(np.linalg.eigvals(w)).max()
    if rho > 0:
        w = w * (0.5 / rho)
    for _ in range(20):
        g = ConnectivityMatrix(w)
        if is_hurwitz(NetworkSystem(node, g)).stable:
            return g
        w = 0.5 * w
    raise StabilityError(f"could not stabilise a {n}-node benchmark network")


def _make_stages(cfg: ExperimentConfig, n: int, l: int, cost_model: str,
                 node: NodeDynamics) -> list[tuple[str, object]]:
    rng = np.random.default_rng(cfg.network.seed + n)
    g = _stable_sparse(n, rng, node)
    keys = ["full", *range(1, n + 1)]  # key j: node j grounded, as in the pipeline
    stages: list[tuple[str, object]] = []
    if cfg.recon.oracle:
        sys = NetworkSystem(node, g)
        mats = {key: analytic_cpsd(sys if key == "full" else sys.grounded(key), 1.0, BENCH_OMEGA0)
                for key in keys}
    else:
        runs = simulated_runs(replace(cfg, sim=replace(cfg.sim, n_samples=l)), g, node)
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
    inverses: dict = {}

    def invert():
        for key, mat in mats.items():
            inverses[key] = estimate_inverse_cpsd(mat)

    invert()

    def reconstruct():
        w = np.zeros((n, n))
        s_inv = inverses["full"].values
        for j in keys[1:]:
            w[j - 1] = recover_row(s_inv, inverses[j].values, j, 1.0).weights
        return w

    stages.append(("inversion", invert))
    stages.append(("reconstruction", reconstruct))
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
    if cfg.node.preset != "scalar-pole":
        raise ConfigError("benchmark supports the scalar-pole node preset")
    node = NodeDynamics.scalar_pole(cfg.node.pole)
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
