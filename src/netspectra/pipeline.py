"""Config-driven experiment pipeline: generate, simulate, estimate, reconstruct, evaluate.

Experiments are described by a declarative INI-style file with ``key = value``
sections (unknown sections or keys are errors, so typos cannot silently fall
back to defaults).  Every stage reads and writes documented artifact files
under the output directory, so stages can be rerun or golden-tested in
isolation, and a ``manifest.json`` plus ``config.resolved.ini`` capture
everything needed to reproduce a run bit for bit.

:func:`run_pipeline` streams: each run's simulation blocks go straight into a
single-bin CPSD accumulator (:func:`stage_stream`), so it holds no whole record
(with ``omega0 = auto``, the full run's alone, to choose the bin) and writes no
``timeseries/``.  The staged :func:`stage_simulate` and :func:`stage_estimate`
persist the records and give the same spectra byte for byte; they pass the
records one at a time (up to ``workers`` in flight while simulating), as does
the ``paper`` cost model, whose lag-domain estimator needs whole records.

Section/key reference (defaults in parentheses)::

    [network]   source (random) | file; family (laplacian): directed-sparse,
                laplacian, nonreciprocal-ring, symmetric, reference;
                graph (ring): ring, pairs, random   [laplacian subfamily]
                n_nodes (6); edge_prob (0.3); weight_min (0.5);
                weight_max (1.0); seed (1); file ()
    [node]      preset (scalar-pole) | file; pole (-1.0); file ()
    [noise]     variance (1.0); shaping (none) | lowpass; shaping_pole ();
                seed (7)
    [simulation]dt (0.01); n_samples (65536); burn_in (auto)
    [spectral]  segment_length (4096); overlap (0.5); window (hann) |
                rectangular; detrend (mean) | none; omega0 (auto)
    [reconstruction] mode (exact-directed): boolean, exact-directed,
                undirected, nonreciprocal, oracle-<any of those>;
                threshold (gap) | fixed; tau (1e-6)
    [output]    directory (out)
"""

from __future__ import annotations

import configparser
import json
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np
import scipy

from . import __version__
from .errors import ConfigError, NetspectraError, ValidationError
from .graphs import (
    BooleanStructure,
    ConnectivityMatrix,
    compare,
    load_matrix,
    save_matrix,
)
from .lti import (
    CpsdMatrix,
    NetworkSystem,
    NodeDynamics,
    analytic_cpsd,
    load_cpsd,
    load_node,
    nodal_transfer,
    save_cpsd,
    save_node,
)
from .reconstruct import (
    ReconstructionResult,
    boolean_directed,
    exact_directed,
    exact_undirected,
    input_psd_from_eigenpair,
    nonreciprocal,
    threshold_heuristic,
)
from .simulate import (
    NoiseConfig,
    SimConfig,
    TimeSeriesMatrix,
    load_timeseries,
    save_timeseries,
    simulate,
    simulate_blocks,
    simulate_grounded,
)
from .spectral import (
    CpsdAccumulator,
    SpectralConfig,
    estimate_cpsd_lag_domain,
    estimate_cpsd_matrix,
    select_omega0,
    snap_frequency,
)
from . import families

EMPIRICAL_MODES = ("boolean", "exact-directed", "undirected", "nonreciprocal")
MODES = EMPIRICAL_MODES + tuple("oracle-" + m for m in EMPIRICAL_MODES)
GROUNDING_MODES = ("boolean", "exact-directed")

#: Looser eigenvalue clamp for the undirected square root on estimated CPSDs.
ESTIMATED_EIG_CLAMP = 0.05


@dataclass(frozen=True)
class NetworkSpec:
    source: str = "random"
    file: str = ""
    family: str = "laplacian"
    graph: str = "ring"
    n_nodes: int = 6
    edge_prob: float = 0.3
    weight_min: float = 0.5
    weight_max: float = 1.0
    seed: int = 1


@dataclass(frozen=True)
class NodeSpec:
    preset: str = "scalar-pole"
    pole: float = -1.0
    file: str = ""


@dataclass(frozen=True)
class ReconSpec:
    mode: str = "exact-directed"
    threshold: str = "gap"
    tau: float = 1e-6


@dataclass(frozen=True)
class ExperimentConfig:
    network: NetworkSpec = NetworkSpec()
    node: NodeSpec = NodeSpec()
    noise: NoiseConfig = NoiseConfig(seed=7)
    sim: SimConfig = SimConfig(n_samples=65536)
    spectral: SpectralConfig = SpectralConfig()
    omega0: str = "auto"
    recon: ReconSpec = ReconSpec()
    out_dir: str = "out"

    def omega0_value(self) -> Optional[float]:
        if self.omega0 == "auto":
            return None
        return float(self.omega0)


_SCHEMA = {
    "network": (
        "source", "file", "family", "graph", "n_nodes", "edge_prob",
        "weight_min", "weight_max", "seed",
    ),
    "node": ("preset", "pole", "file"),
    "noise": ("variance", "shaping", "shaping_pole", "seed"),
    "simulation": ("dt", "n_samples", "burn_in"),
    "spectral": ("segment_length", "overlap", "window", "detrend", "omega0"),
    "reconstruction": ("mode", "threshold", "tau"),
    "output": ("directory",),
}


def _get(parser, section, key, fallback, conv):
    if not parser.has_option(section, key):
        return fallback
    raw = parser.get(section, key)
    try:
        return conv(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment configuration file."""
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path} not found or empty")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    try:
        network = NetworkSpec(
            source=_get(parser, "network", "source", "random", str),
            file=_get(parser, "network", "file", "", str),
            family=_get(parser, "network", "family", "laplacian", str),
            graph=_get(parser, "network", "graph", "ring", str),
            n_nodes=_get(parser, "network", "n_nodes", 6, int),
            edge_prob=_get(parser, "network", "edge_prob", 0.3, float),
            weight_min=_get(parser, "network", "weight_min", 0.5, float),
            weight_max=_get(parser, "network", "weight_max", 1.0, float),
            seed=_get(parser, "network", "seed", 1, int),
        )
        shaping_pole = _get(parser, "noise", "shaping_pole", "", str)
        noise = NoiseConfig(
            variance=_get(parser, "noise", "variance", 1.0, float),
            shaping=_get(parser, "noise", "shaping", "none", str),
            shaping_pole=float(shaping_pole) if shaping_pole else None,
            seed=_get(parser, "noise", "seed", 7, int),
        )
        burn = _get(parser, "simulation", "burn_in", "auto", str)
        sim = SimConfig(
            dt=_get(parser, "simulation", "dt", 0.01, float),
            n_samples=_get(parser, "simulation", "n_samples", 65536, int),
            burn_in=None if burn == "auto" else int(burn),
        )
        spectral = SpectralConfig(
            segment_length=_get(parser, "spectral", "segment_length", 4096, int),
            overlap_fraction=_get(parser, "spectral", "overlap", 0.5, float),
            window=_get(parser, "spectral", "window", "hann", str),
            detrend=_get(parser, "spectral", "detrend", "mean", str),
        )
        omega0 = _get(parser, "spectral", "omega0", "auto", str)
        if omega0 != "auto":
            float(omega0)  # validate now, keep the string for the manifest
        recon = ReconSpec(
            mode=_get(parser, "reconstruction", "mode", "exact-directed", str),
            threshold=_get(parser, "reconstruction", "threshold", "gap", str),
            tau=_get(parser, "reconstruction", "tau", 1e-6, float),
        )
        out_dir = _get(parser, "output", "directory", "out", str)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    cfg = ExperimentConfig(
        network=network, node=NodeSpec(
            preset=_get(parser, "node", "preset", "scalar-pole", str),
            pole=_get(parser, "node", "pole", -1.0, float),
            file=_get(parser, "node", "file", "", str),
        ),
        noise=noise, sim=sim, spectral=spectral, omega0=omega0,
        recon=recon, out_dir=out_dir,
    )
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.network.source not in ("random", "file"):
        raise ConfigError(f"unknown network source {cfg.network.source!r}")
    if cfg.network.source == "file" and not cfg.network.file:
        raise ConfigError("network source 'file' needs a file path")
    if cfg.network.source == "random" and cfg.network.family not in (
        "directed-sparse", "laplacian", "nonreciprocal-ring", "symmetric",
        "reference",
    ):
        raise ConfigError(f"unknown network family {cfg.network.family!r}")
    if cfg.node.preset not in ("scalar-pole", "file"):
        raise ConfigError(f"unknown node preset {cfg.node.preset!r}")
    if cfg.node.preset == "file" and not cfg.node.file:
        raise ConfigError("node preset 'file' needs a file path")
    if cfg.recon.mode not in MODES:
        raise ConfigError(f"unknown reconstruction mode {cfg.recon.mode!r}")
    if cfg.recon.threshold not in ("gap", "fixed"):
        raise ConfigError(f"unknown threshold policy {cfg.recon.threshold!r}")
    if cfg.network.n_nodes < 2:
        raise ConfigError("n_nodes must be at least 2")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Fully resolved configuration (defaults included) as section dicts."""
    return {
        "network": {
            "source": cfg.network.source,
            "file": cfg.network.file,
            "family": cfg.network.family,
            "graph": cfg.network.graph,
            "n_nodes": str(cfg.network.n_nodes),
            "edge_prob": format(cfg.network.edge_prob, ".17g"),
            "weight_min": format(cfg.network.weight_min, ".17g"),
            "weight_max": format(cfg.network.weight_max, ".17g"),
            "seed": str(cfg.network.seed),
        },
        "node": {
            "preset": cfg.node.preset,
            "pole": format(cfg.node.pole, ".17g"),
            "file": cfg.node.file,
        },
        "noise": {
            "variance": format(cfg.noise.variance, ".17g"),
            "shaping": cfg.noise.shaping,
            "shaping_pole": "" if cfg.noise.shaping_pole is None
            else format(cfg.noise.shaping_pole, ".17g"),
            "seed": str(cfg.noise.seed),
        },
        "simulation": {
            "dt": format(cfg.sim.dt, ".17g"),
            "n_samples": str(cfg.sim.n_samples),
            "burn_in": "auto" if cfg.sim.burn_in is None else str(cfg.sim.burn_in),
        },
        "spectral": {
            "segment_length": str(cfg.spectral.segment_length),
            "overlap": format(cfg.spectral.overlap_fraction, ".17g"),
            "window": cfg.spectral.window,
            "detrend": cfg.spectral.detrend,
            "omega0": cfg.omega0,
        },
        "reconstruction": {
            "mode": cfg.recon.mode,
            "threshold": cfg.recon.threshold,
            "tau": format(cfg.recon.tau, ".17g"),
        },
        "output": {"directory": cfg.out_dir},
    }


def config_to_ini(cfg: ExperimentConfig) -> str:
    """Render a fully resolved configuration as a rerunnable config file."""
    blocks = []
    for section, entries in config_to_dict(cfg).items():
        lines = [f"[{section}]"]
        lines += [f"{key} = {value}" for key, value in entries.items()]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def apply_seed_override(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    return replace(
        cfg,
        network=replace(cfg.network, seed=seed),
        noise=replace(cfg.noise, seed=seed),
    )


# ---------------------------------------------------------------------------
# stages

def _build_network(cfg: ExperimentConfig, node: NodeDynamics) -> ConnectivityMatrix:
    spec = cfg.network
    if spec.source == "file":
        return load_matrix(spec.file)
    rng = np.random.default_rng(spec.seed)
    wr = (spec.weight_min, spec.weight_max)
    if spec.family == "reference":
        if spec.n_nodes == 6:
            return families.reference_laplacian_6()
        if spec.n_nodes == 5:
            return families.reference_laplacian_5()
        raise ConfigError("reference networks exist for n_nodes in (5, 6)")
    if spec.family == "directed-sparse":
        factory = lambda r: families.directed_sparse(spec.n_nodes, spec.edge_prob, wr, r)
    elif spec.family == "laplacian":
        factory = lambda r: families.laplacian_network(
            spec.n_nodes, spec.graph, wr, r, edge_prob=spec.edge_prob
        )
    elif spec.family == "nonreciprocal-ring":
        factory = lambda r: families.nonreciprocal_ring(spec.n_nodes, wr, r)
    else:  # symmetric
        factory = lambda r: families.symmetric_network(spec.n_nodes, spec.edge_prob, wr, r)
    return families.ensure_hurwitz(factory, node, rng)


def _build_node(cfg: ExperimentConfig) -> NodeDynamics:
    if cfg.node.preset == "file":
        return load_node(cfg.node.file)
    return NodeDynamics.scalar_pole(cfg.node.pole)


def stage_generate(cfg: ExperimentConfig, out: Path) -> tuple[ConnectivityMatrix, NodeDynamics]:
    """Materialise the ground-truth network and node dynamics."""
    node = _build_node(cfg)
    g = _build_network(cfg, node)
    out.mkdir(parents=True, exist_ok=True)
    save_matrix(out / "network.txt", g)
    save_node(out / "node.txt", node)
    return g, node


def _needs_grounding(mode: str) -> bool:
    return mode.replace("oracle-", "") in GROUNDING_MODES


def _take(pending: deque) -> tuple:
    """Pop the oldest ``(j, future)`` and return ``(j, record)``, keeping no reference."""
    j, future = pending.popleft()
    return j, future.result()


def _simulate_runs(cfg: ExperimentConfig, sys: NetworkSystem, workers: int) -> Iterator[tuple]:
    """Yield ``("full", record)`` then, when the mode grounds, ``(j, record)`` in node order.

    A grounded run goes to the ``workers`` pool only after the caller has
    asked for the next record, so a caller that drops each record before
    asking holds at most ``workers`` records, counting those in flight.
    """
    yield "full", simulate(sys, cfg.noise, cfg.sim)
    if not _needs_grounding(cfg.recon.mode):
        return
    workers = max(1, workers)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for j in range(1, sys.n_nodes + 1):
            if len(pending) == workers:
                yield _take(pending)
            pending.append((j, pool.submit(simulate_grounded, sys, j, cfg.noise, cfg.sim)))
        while pending:
            yield _take(pending)


def _timeseries_name(key) -> str:
    return "full.nsts" if key == "full" else f"grounded_{key}.nsts"


def stage_simulate(
    cfg: ExperimentConfig, out: Path, g: ConnectivityMatrix, node: NodeDynamics,
    workers: int = 1,
) -> None:
    """Run the full (and, when the mode grounds, the N grounded) simulations.

    Each record is written to ``timeseries/*.nsts`` for the staged
    ``estimate`` and dropped before the next is asked for, so at most
    ``workers`` records are held; ``run`` streams instead (:func:`stage_stream`).
    """
    ts_dir = out / "timeseries"
    ts_dir.mkdir(parents=True, exist_ok=True)
    for key, ts in _simulate_runs(cfg, NetworkSystem(node, g), workers):
        save_timeseries(ts_dir / _timeseries_name(key), ts)
        del ts  # before the loop asks for the next record


def _resolve_omega0_empirical(
    cfg: ExperimentConfig, full_ts: TimeSeriesMatrix, node: NodeDynamics
) -> float:
    fixed = cfg.omega0_value()
    if fixed is not None:
        return fixed
    band = cfg.noise.input_psd_model(cfg.sim.dt)
    return select_omega0(full_ts, band, cfg.spectral, node=node)


def _write_spectra(out: Path, s_full: CpsdMatrix, grounded: list, info: dict) -> None:
    sp_dir = out / "spectra"
    sp_dir.mkdir(parents=True, exist_ok=True)
    save_cpsd(sp_dir / "cpsd_full.txt", s_full)
    for j, sj in grounded:
        save_cpsd(sp_dir / f"cpsd_grounded_{j}.txt", sj)
    (sp_dir / "estimate.json").write_text(json.dumps(info, indent=2) + "\n")


def _estimate_info(omega0: float, s_full: CpsdMatrix, cost_model: str) -> dict:
    return {
        "omega0_requested": omega0,
        "omega0": s_full.omega,
        "snap_distance": s_full.snap_distance,
        "segment_count": s_full.segment_count,
        "stderr": s_full.stderr,
        "cost_model": cost_model,
    }


def stage_estimate(
    cfg: ExperimentConfig, out: Path, runs: Iterable[tuple], node: NodeDynamics,
    cost_model: str = "fft",
) -> tuple[CpsdMatrix, list, dict]:
    """Estimate the full and grounded CPSD matrices at one snapped frequency.

    ``runs`` yields ``("full", record)`` first, then ``(j, record)`` for the
    grounded runs in node order (:func:`load_saved_runs`, or the simulations
    themselves).  omega0 is resolved on the full record; each record is estimated
    and dropped before the next is pulled, so one record is held at a time.
    """
    if cost_model not in ("fft", "paper"):
        raise ConfigError(f"unknown cost model {cost_model!r}")
    runs = iter(runs)
    _, full_ts = next(runs)
    omega0 = _resolve_omega0_empirical(cfg, full_ts, node)
    snapped, _ = snap_frequency(omega0, full_ts.dt, cfg.spectral)

    def estimate_one(ts: TimeSeriesMatrix) -> CpsdMatrix:
        if cost_model == "paper":
            s = estimate_cpsd_lag_domain(ts, snapped)
            return replace(s, snap_distance=float(abs(snapped - abs(omega0))))
        return estimate_cpsd_matrix(ts, omega0, cfg.spectral)

    s_full = estimate_one(full_ts)
    del full_ts
    grounded = []
    for j, ts in runs:
        grounded.append((j, estimate_one(ts)))
        del ts  # before the loop asks for the next record
    info = _estimate_info(omega0, s_full, cost_model)
    _write_spectra(out, s_full, grounded, info)
    return s_full, grounded, info


def _stream_cpsd(sys: NetworkSystem, cfg: ExperimentConfig, omega0: float,
                 ground: Optional[int] = None) -> CpsdMatrix:
    acc = CpsdAccumulator(sys.n_nodes - (ground is not None), cfg.sim.dt, omega0, cfg.spectral)
    for block in simulate_blocks(sys, cfg.noise, cfg.sim, ground=ground):
        acc.feed(block)
    return acc.result()


def stage_stream(
    cfg: ExperimentConfig, out: Path, g: ConnectivityMatrix, node: NodeDynamics,
    workers: int = 1,
) -> tuple[CpsdMatrix, list, dict]:
    """Simulate and estimate in one pass, block by block, holding no whole record.

    Each run's blocks go straight into a :class:`CpsdAccumulator`; the
    grounded runs share the ``workers`` pool.  The spectra equal, byte for
    byte, those of :func:`stage_simulate` then :func:`stage_estimate`.  With
    ``omega0 = auto`` the bin is chosen on the full run's PSD grid, so that one
    record (only) is held while it is estimated.
    """
    sys = NetworkSystem(node, g)
    omega0 = cfg.omega0_value()
    if omega0 is None:
        full_ts = simulate(sys, cfg.noise, cfg.sim)
        omega0 = _resolve_omega0_empirical(cfg, full_ts, node)
        s_full = estimate_cpsd_matrix(full_ts, omega0, cfg.spectral)
        del full_ts
    else:
        s_full = _stream_cpsd(sys, cfg, omega0)
    grounded = []
    if _needs_grounding(cfg.recon.mode):
        nodes = range(1, sys.n_nodes + 1)
        with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
            grounded = list(zip(nodes, pool.map(
                lambda j: _stream_cpsd(sys, cfg, omega0, ground=j), nodes)))
    info = _estimate_info(omega0, s_full, "fft")
    _write_spectra(out, s_full, grounded, info)
    return s_full, grounded, info


def _oracle_omega0(cfg: ExperimentConfig) -> float:
    fixed = cfg.omega0_value()
    if fixed is not None:
        return fixed
    band = cfg.noise.input_psd_model(cfg.sim.dt)
    return min(0.5, band.omega_max / 2.0)


def stage_oracle_spectra(
    cfg: ExperimentConfig, out: Path, g: ConnectivityMatrix, node: NodeDynamics
) -> tuple[CpsdMatrix, list, dict]:
    """Analytic CPSD matrices in place of simulation + estimation."""
    sys = NetworkSystem(node, g)
    model = cfg.noise.input_psd_model(cfg.sim.dt)
    omega0 = _oracle_omega0(cfg)
    s_full = analytic_cpsd(sys, model, omega0)
    grounded = []
    if _needs_grounding(cfg.recon.mode):
        for j in range(1, sys.n_nodes + 1):
            grounded.append((j, analytic_cpsd(sys.grounded(j), model, omega0)))
    info = {
        "omega0_requested": omega0,
        "omega0": s_full.omega,
        "snap_distance": 0.0,
        "segment_count": None,
        "stderr": None,
        "cost_model": "oracle",
        "true_input_psd": model(omega0),
    }
    _write_spectra(out, s_full, grounded, info)
    return s_full, grounded, info


def _recover_input_psd(
    cfg: ExperimentConfig,
    s_full: CpsdMatrix,
    h: complex,
    eigenpair,
    oracle: bool,
) -> tuple[Optional[float], str]:
    if eigenpair is not None:
        lam, u = eigenpair
        return input_psd_from_eigenpair(s_full, h, lam, u), "eigenpair"
    if oracle:
        model = cfg.noise.input_psd_model(cfg.sim.dt)
        return model(s_full.omega), "noise-model (oracle)"
    return None, "unavailable"


def stage_reconstruct(
    cfg: ExperimentConfig,
    out: Path,
    s_full: CpsdMatrix,
    grounded: list,
    node: NodeDynamics,
    eigenpair=None,
) -> ReconstructionResult:
    """Run the configured reconstruction on previously estimated spectra."""
    mode = cfg.recon.mode.replace("oracle-", "")
    oracle = cfg.recon.mode.startswith("oracle-")
    h = nodal_transfer(node, s_full.omega)
    s_w, s_w_source = _recover_input_psd(cfg, s_full, h, eigenpair, oracle)

    def pick_tau(raw: np.ndarray) -> float:
        if cfg.recon.threshold == "fixed":
            return cfg.recon.tau
        vals = raw[np.isfinite(raw)]
        return threshold_heuristic(vals, fallback_tau=cfg.recon.tau)

    if mode == "boolean":
        first = boolean_directed(s_full, grounded, tau=cfg.recon.tau)
        tau = pick_tau(first.diagnostics.raw_differences)
        result = boolean_directed(s_full, grounded, tau=tau)
    elif mode == "exact-directed":
        if s_w is None:
            raise ConfigError(
                "exact-directed reconstruction needs S_w: provide a network "
                "eigenpair (laplacian/regular families do) or use an oracle mode"
            )
        first = exact_directed(s_full, grounded, s_w, tau=cfg.recon.tau)
        tau = pick_tau(first.diagnostics.raw_differences)
        result = exact_directed(s_full, grounded, s_w, tau=tau)
    elif mode == "undirected":
        if s_w is None:
            raise ConfigError(
                "undirected reconstruction needs S_w: provide a network "
                "eigenpair or use an oracle mode"
            )
        clamp = 1e-8 if s_full.source == "analytic" else ESTIMATED_EIG_CLAMP
        rec = exact_undirected(s_full, h, s_w, eig_clamp_tol=clamp)
        tau = cfg.recon.tau
        result = ReconstructionResult(
            omega0=s_full.omega,
            boolean_structure=BooleanStructure.from_weights(
                rec.connectivity.weights, tau
            ),
            weights=rec.connectivity,
            input_psd_estimate=s_w,
            threshold_used=tau,
            diagnostics=None,
        )
        (out / "undirected_branch.json").write_text(
            json.dumps(
                {
                    "flipped": rec.flipped,
                    "branch_score": rec.branch_score,
                    "branch_score_alternative": rec.branch_score_alternative,
                    "clamped_eigenvalues": rec.clamped_eigenvalues,
                    "condition_number": rec.condition_number,
                },
                indent=2,
            )
            + "\n"
        )
    elif mode == "nonreciprocal":
        first = nonreciprocal(s_full, h, s_w, tau=cfg.recon.tau)
        tau = pick_tau(first.diagnostics.raw_differences)
        result = nonreciprocal(s_full, h, s_w, tau=tau)
    else:
        raise ConfigError(f"unknown reconstruction mode {cfg.recon.mode!r}")

    out.mkdir(parents=True, exist_ok=True)
    if result.boolean_structure is not None:
        save_matrix(out / "recovered_boolean.txt", result.boolean_structure)
    if result.weights is not None:
        save_matrix(out / "recovered_weights.txt", result.weights)
    _write_report(out / "result.txt", cfg, result, s_w_source)
    return result


def _write_report(path: Path, cfg: ExperimentConfig, result: ReconstructionResult,
                  s_w_source: str) -> None:
    lines = [
        "netspectra reconstruction report",
        f"mode {cfg.recon.mode}",
        f"omega0 {result.omega0:.17g}",
        f"input_psd {result.input_psd_estimate if result.input_psd_estimate is not None else 'n/a'}"
        f" ({s_w_source})",
        f"threshold {result.threshold_used}",
    ]
    d = result.diagnostics
    if d is not None:
        lines.append(f"clamp_count {d.clamp_count}")
        lines.append(f"suppressed_count {d.suppressed_count}")
        lines.append(f"loaded {','.join(d.loaded) if d.loaded else 'none'}")
        for name in sorted(d.condition_numbers):
            lines.append(f"condition_{name} {d.condition_numbers[name]:.6g}")
        for note in d.notes:
            lines.append(f"note {note}")
        lines.append("raw_differences")
        for row in d.raw_differences:
            lines.append(" ".join(format(v, ".17g") for v in row))
    if result.weights is not None:
        lines.append("weights")
        for row in result.weights.weights:
            lines.append(" ".join(format(v, ".17g") for v in row))
    if result.boolean_structure is not None:
        lines.append("boolean")
        for row in result.boolean_structure.entries:
            lines.append(" ".join(str(int(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def stage_evaluate(
    cfg: ExperimentConfig, out: Path, truth: ConnectivityMatrix,
    result: ReconstructionResult, info: dict,
) -> dict:
    """Score the recovery against the ground truth and write metrics.json."""
    recovered = result.weights if result.weights is not None else result.boolean_structure
    if recovered is None:
        raise NetspectraError("reconstruction produced no output to evaluate")
    metrics = compare(truth, recovered, edge_tol=cfg.recon.tau).as_dict()
    metrics["omega0"] = result.omega0
    metrics["threshold_used"] = result.threshold_used
    metrics["input_psd_estimate"] = result.input_psd_estimate
    if "true_input_psd" in info:
        metrics["true_input_psd"] = info["true_input_psd"]
    (out / "metrics.json").write_text(json.dumps(metrics, indent=2) + "\n")
    return metrics


def _write_manifest(cfg: ExperimentConfig, out: Path, info: dict,
                    workers: int, cost_model: str) -> None:
    manifest = {
        "netspectra_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "workers": workers,
        "cost_model": cost_model,
        "estimate": info,
        "seeds": {"network": cfg.network.seed, "noise": cfg.noise.seed},
        "config": config_to_dict(cfg),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    (out / "config.resolved.ini").write_text(config_to_ini(cfg))


def run_pipeline(
    cfg: ExperimentConfig,
    out_dir=None,
    workers: int = 1,
    cost_model: str = "fft",
) -> dict:
    """Full generate -> (simulate -> estimate | oracle) -> reconstruct -> evaluate run.

    Returns the metrics dictionary; all artifacts land under the output
    directory.  Reruns with the same resolved configuration are byte-identical.
    """
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    truth, node = stage_generate(cfg, out)
    if cfg.recon.mode.startswith("oracle-"):
        s_full, grounded, info = stage_oracle_spectra(cfg, out, truth, node)
    elif cost_model == "fft":
        s_full, grounded, info = stage_stream(cfg, out, truth, node, workers=workers)
    else:  # the lag-domain estimator ("paper") needs whole records
        runs = _simulate_runs(cfg, NetworkSystem(node, truth), workers)
        s_full, grounded, info = stage_estimate(cfg, out, runs, node, cost_model=cost_model)
    result = stage_reconstruct(cfg, out, s_full, grounded, node,
                               eigenpair=truth.eigenpair)
    metrics = stage_evaluate(cfg, out, truth, result, info)
    _write_manifest(cfg, out, info, workers, cost_model)
    return metrics


# helpers for running later stages from previously saved artifacts ----------

def load_saved_runs(out: Path) -> Iterator[tuple]:
    """The saved records as ``("full", record)``, then ``(j, record)`` in node order.

    Each file is read only when its record is asked for; a missing
    ``full.nsts`` raises :class:`ConfigError` at the call.
    """
    ts_dir = out / "timeseries"
    if not (ts_dir / "full.nsts").exists():
        raise ConfigError(f"no saved time series under {ts_dir}; run simulate first")
    nodes = sorted(int(p.stem.split("_")[1]) for p in ts_dir.glob("grounded_*.nsts"))
    return ((key, load_timeseries(ts_dir / _timeseries_name(key))) for key in ["full", *nodes])


def _load_estimate_info(out: Path) -> dict:
    info_path = out / "spectra" / "estimate.json"
    return json.loads(info_path.read_text()) if info_path.exists() else {}


def load_saved_spectra(out: Path) -> tuple[CpsdMatrix, list, dict]:
    sp_dir = out / "spectra"
    full_path = sp_dir / "cpsd_full.txt"
    if not full_path.exists():
        raise ConfigError(f"no saved spectra under {sp_dir}; run estimate first")
    info = _load_estimate_info(out)

    def load(path: Path) -> CpsdMatrix:
        # every matrix of one estimate shares the snapped bin, so its snap distance
        return replace(load_cpsd(path), snap_distance=info.get("snap_distance"))

    s_full = load(full_path)
    grounded = []
    for p in sorted(sp_dir.glob("cpsd_grounded_*.txt"),
                    key=lambda p: int(p.stem.split("_")[2])):
        j = int(p.stem.split("_")[2])
        grounded.append((j, load(p)))
    return s_full, grounded, info


def load_saved_result(out: Path) -> tuple[ReconstructionResult, dict]:
    """The saved recovery and the estimate's info, as :func:`stage_evaluate` takes them.

    The matrices come from ``recovered_*.txt``; ω0, the S_w estimate and the
    threshold from the head of ``result.txt``, which holds them at round-trip
    precision; the info from ``spectra/estimate.json``.
    """
    report = out / "result.txt"
    if not report.exists():
        raise ConfigError(f"no recovery artifacts under {out}; run reconstruct first")
    try:
        head = dict(line.split(" ", 1) for line in report.read_text().splitlines()[1:5])
        omega0 = float(head["omega0"])
        s_w, tau = (None if v in ("n/a", "None") else float(v)
                    for v in (head["input_psd"].split()[0], head["threshold"]))
    except (KeyError, ValueError, IndexError) as exc:
        raise ValidationError(f"malformed reconstruction report {report}: {exc}") from exc
    weights_path, boolean_path = out / "recovered_weights.txt", out / "recovered_boolean.txt"
    result = ReconstructionResult(
        omega0=omega0,
        boolean_structure=(BooleanStructure(load_matrix(boolean_path).weights)
                           if boolean_path.exists() else None),
        weights=load_matrix(weights_path) if weights_path.exists() else None,
        input_psd_estimate=s_w,
        threshold_used=tau,
    )
    return result, _load_estimate_info(out)
