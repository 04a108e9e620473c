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
from pathlib import Path

import numpy as np

from . import families
from .errors import ConfigError, StabilityError
from .graphs import ConnectivityMatrix
from .lti import NetworkSystem, NodeDynamics, analytic_cpsd, is_hurwitz
from .pipeline import ExperimentConfig
from .reconstruct import recover_row
from .simulate import simulate, simulate_grounded
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
                 oracle: bool, node: NodeDynamics) -> list[tuple[str, object]]:
    rng = np.random.default_rng(cfg.network.seed + n)
    g = _stable_sparse(n, rng, node)
    sys = NetworkSystem(node, g)
    stages: list[tuple[str, object]] = []
    if oracle:
        mats = [analytic_cpsd(sys, 1.0, BENCH_OMEGA0)]
        for j in range(1, n + 1):
            mats.append(analytic_cpsd(sys.grounded(j), 1.0, BENCH_OMEGA0))
    else:
        sim = type(cfg.sim)(dt=cfg.sim.dt, n_samples=l, burn_in=cfg.sim.burn_in)
        runs = [simulate(sys, cfg.noise, sim)]
        for j in range(1, n + 1):
            runs.append(simulate_grounded(sys, j, cfg.noise, sim))
        if cost_model == "paper":
            def correlate():
                return [estimate_cpsd_lag_domain(ts, BENCH_OMEGA0) for ts in runs]
        else:
            snapped, _ = snap_frequency(BENCH_OMEGA0, sim.dt, cfg.spectral)

            def correlate():
                return [estimate_cpsd_matrix(ts, snapped, cfg.spectral) for ts in runs]

        stages.append(("correlation", correlate))
        mats = correlate()
    inverses: dict = {}

    def invert():
        inverses.clear()
        inverses["full"] = estimate_inverse_cpsd(mats[0])
        for j in range(1, n + 1):
            inverses[j] = estimate_inverse_cpsd(mats[j])

    invert()

    def reconstruct():
        w = np.zeros((n, n))
        s_inv = inverses["full"].values
        for j in range(1, n + 1):
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
    oracle = cfg.recon.mode.startswith("oracle-")
    if cfg.node.preset != "scalar-pole":
        raise ConfigError("benchmark supports the scalar-pole node preset")
    node = NodeDynamics.scalar_pole(cfg.node.pole)
    prepared = [
        (n, l, _make_stages(cfg, n, l, cost_model, oracle, node)) for n, l in sweep
    ]
    best: dict[tuple, float] = {}
    for round_index in range(max(1, repeats)):
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
                    "cost_model": "oracle" if oracle else cost_model,
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
