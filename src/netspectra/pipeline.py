"""Config-driven experiment pipeline: generate, simulate, estimate, reconstruct, evaluate.

Experiments are described by a declarative INI-style file with ``key = value``
sections (unknown sections or keys are errors, so typos cannot silently fall
back to defaults).  Every stage reads and writes documented artifact files
under the output directory, so stages can be rerun or golden-tested in
isolation; ``config.resolved.ini`` alone reproduces a run bit for bit.

An experiment's runs are listed once, by :func:`_run_keys`, and go through
:func:`_each_run`, which holds at most ``workers`` records.  :func:`run_pipeline`
is the staged commands with one shortcut: it streams :func:`simulated_runs` into
the single-bin CPSD accumulators of :func:`stage_estimate` and writes no
``timeseries/`` (it holds the full record only with ``omega0 = auto``), where
the staged ``estimate`` reads :func:`load_saved_runs` and gives the same
spectra byte for byte.  Oracle modes take :func:`stage_oracle_spectra` in place
of both stages.  Reconstruction and evaluation read their inputs from the run
directory, in ``run`` too.

Every key is declared once, in the ``_KEYS`` table, which drives parsing, the
unknown-key check and the rendering of ``config.resolved.ini``; each config
part checks its own values when it is built.

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
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import Optional

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
    estimate_cpsd_matrix,
    require_two_segments,
    select_omega0,
    snap_frequency,
)
from . import families

EMPIRICAL_MODES = ("boolean", "exact-directed", "undirected", "nonreciprocal")
MODES = EMPIRICAL_MODES + tuple("oracle-" + m for m in EMPIRICAL_MODES)
GROUNDING_MODES = ("boolean", "exact-directed")


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

    def __post_init__(self):
        if self.source not in ("random", "file"):
            raise ValidationError(f"unknown network source {self.source!r}")
        if self.source == "file" and not self.file:
            raise ValidationError("network source 'file' needs a file path")
        if self.source == "random" and self.family not in (
            "directed-sparse", "laplacian", "nonreciprocal-ring", "symmetric",
            "reference",
        ):
            raise ValidationError(f"unknown network family {self.family!r}")
        if self.graph not in ("ring", "pairs", "random"):
            raise ValidationError(f"unknown laplacian graph {self.graph!r}")
        if self.n_nodes < 2:
            raise ValidationError("n_nodes must be at least 2")
        if self.source == "random" and self.family == "reference" and self.n_nodes not in (5, 6):
            raise ValidationError("reference networks exist for n_nodes in (5, 6)")
        if self.seed < 0:
            raise ValidationError("network seed must be nonnegative")


@dataclass(frozen=True)
class NodeSpec:
    preset: str = "scalar-pole"
    pole: float = -1.0
    file: str = ""

    def __post_init__(self):
        if self.preset not in ("scalar-pole", "file"):
            raise ValidationError(f"unknown node preset {self.preset!r}")
        if self.preset == "file" and not self.file:
            raise ValidationError("node preset 'file' needs a file path")


@dataclass(frozen=True)
class ReconSpec:
    mode: str = "exact-directed"
    threshold: str = "gap"
    tau: float = 1e-6

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"unknown reconstruction mode {self.mode!r}")
        if self.threshold not in ("gap", "fixed"):
            raise ValidationError(f"unknown threshold policy {self.threshold!r}")

    @property
    def oracle(self) -> bool:
        """Whether the mode takes analytic spectra in place of simulation and estimation."""
        return self.mode.startswith("oracle-")


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


def _finite(raw: str) -> float:
    """A float key's value: nan and inf are refused, as no stage can use them."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be a finite number")
    return value


def _omega0_text(raw: str) -> str:
    """``auto`` or a frequency, checked as a finite float but kept as written."""
    if raw != "auto":
        _finite(raw)
    return raw


#: Every config key, declared once: ``(section, key, attribute path in
#: ExperimentConfig, type, text that stands for None)``.  Parsing, the
#: unknown-key check and rendering all read it; rendering keeps its order.
_KEYS = (
    ("network", "source", "network.source", str, None),
    ("network", "file", "network.file", str, None),
    ("network", "family", "network.family", str, None),
    ("network", "graph", "network.graph", str, None),
    ("network", "n_nodes", "network.n_nodes", int, None),
    ("network", "edge_prob", "network.edge_prob", _finite, None),
    ("network", "weight_min", "network.weight_min", _finite, None),
    ("network", "weight_max", "network.weight_max", _finite, None),
    ("network", "seed", "network.seed", int, None),
    ("node", "preset", "node.preset", str, None),
    ("node", "pole", "node.pole", _finite, None),
    ("node", "file", "node.file", str, None),
    ("noise", "variance", "noise.variance", _finite, None),
    ("noise", "shaping", "noise.shaping", str, None),
    ("noise", "shaping_pole", "noise.shaping_pole", _finite, ""),
    ("noise", "seed", "noise.seed", int, None),
    ("simulation", "dt", "sim.dt", _finite, None),
    ("simulation", "n_samples", "sim.n_samples", int, None),
    ("simulation", "burn_in", "sim.burn_in", int, "auto"),
    ("spectral", "segment_length", "spectral.segment_length", int, None),
    ("spectral", "overlap", "spectral.overlap_fraction", _finite, None),
    ("spectral", "window", "spectral.window", str, None),
    ("spectral", "detrend", "spectral.detrend", str, None),
    ("spectral", "omega0", "omega0", _omega0_text, None),
    ("reconstruction", "mode", "recon.mode", str, None),
    ("reconstruction", "threshold", "recon.threshold", str, None),
    ("reconstruction", "tau", "recon.tau", _finite, None),
    ("output", "directory", "out_dir", str, None),
)


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment configuration file."""
    parser = configparser.ConfigParser(interpolation=None)
    if not parser.read(path):
        raise ConfigError(f"config file {path} not found or empty")
    known = {(section, key) for section, key, *_ in _KEYS}
    for section in parser.sections():
        if section not in {s for s, _ in known}:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if (section, key) not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    top: dict = {}
    nested: dict = {}
    for section, key, attr, kind, none_text in _KEYS:
        if not parser.has_option(section, key):
            continue
        raw = parser.get(section, key)
        try:
            value = None if raw == none_text else kind(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
        head, _, name = attr.partition(".")
        if name:
            nested.setdefault(head, {})[name] = value
        else:
            top[head] = value
    base = ExperimentConfig()
    try:
        parts = {head: replace(getattr(base, head), **fields)
                 for head, fields in nested.items()}
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    return replace(base, **parts, **top)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Fully resolved configuration (defaults included) as section dicts."""
    out: dict = {}
    for section, key, attr, kind, none_text in _KEYS:
        value = attrgetter(attr)(cfg)
        if value is None:
            text = none_text
        elif kind is _finite:
            text = format(value, ".17g")
        else:
            text = str(value)
        out.setdefault(section, {})[key] = text
    return out


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
    if spec.family == "reference":  # NetworkSpec admits n_nodes 5 or 6 only
        return (families.reference_laplacian_6() if spec.n_nodes == 6
                else families.reference_laplacian_5())
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


def _run_keys(cfg: ExperimentConfig, n_nodes: int) -> list:
    """``["full", 1..N]`` (key j: node j grounded), or ``["full"]`` when the mode does not ground.

    The only place that decides which runs exist.
    """
    if cfg.recon.mode.replace("oracle-", "") in GROUNDING_MODES:
        return ["full", *range(1, n_nodes + 1)]
    return ["full"]


def _run_name(key) -> str:
    return "full" if key == "full" else f"grounded_{key}"


def _each_run(fn, keys: list, workers: int) -> list:
    """``[fn(key) for key in keys]``: the first key in this thread, the rest on the pool.

    The full run goes first, alone, so that it can fix what the others share
    (the ``omega0 = auto`` bin).  ``fn`` is done with its run's record when it
    returns (it saves or estimates it), so at most ``workers`` records are held.
    """
    first = fn(keys[0])
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return [first, *pool.map(fn, keys[1:])]


def simulated_runs(cfg: ExperimentConfig, g: ConnectivityMatrix, node: NodeDynamics):
    """The run source that simulates: ``source(key, whole)`` for a key of :func:`_run_keys`.

    It returns the whole record when ``whole``, else the block generator of
    :func:`simulate_blocks`, which yields the same numbers and holds no record.
    """
    sys = NetworkSystem(node, g)

    def source(key, whole: bool):
        if not whole:
            return simulate_blocks(sys, cfg.noise, cfg.sim, ground=None if key == "full" else key)
        if key == "full":
            return simulate(sys, cfg.noise, cfg.sim)
        return simulate_grounded(sys, key, cfg.noise, cfg.sim)

    return source


def stage_simulate(
    cfg: ExperimentConfig, out: Path, g: ConnectivityMatrix, node: NodeDynamics,
    workers: int = 1,
) -> None:
    """Run the full (and, when the mode grounds, the N grounded) simulations.

    Each record is written to ``timeseries/*.nsts`` for the staged
    ``estimate`` by the task that simulated it, so at most ``workers`` records
    are held; ``run`` streams instead (:func:`stage_estimate`).  Oracle modes
    take analytic spectra (:func:`stage_oracle_spectra`), so they simulate and
    write nothing; a mode without S_w (:func:`_require_input_psd`) or a record
    the estimate stage cannot take (:func:`_require_estimable`) raises first.
    """
    _require_input_psd(cfg, g.eigenpair)
    if cfg.recon.oracle:
        return
    _require_estimable(cfg)
    ts_dir = out / "timeseries"
    ts_dir.mkdir(parents=True, exist_ok=True)
    runs = simulated_runs(cfg, g, node)
    _each_run(lambda key: save_timeseries(ts_dir / f"{_run_name(key)}.nsts", runs(key, True)),
              _run_keys(cfg, g.n_nodes), workers)


def _write_spectra(cfg: ExperimentConfig, out: Path, keys: list, spectra: list,
                   **extra) -> dict:
    """Save one CPSD matrix per run key and ``estimate.json``; return the latter's dict.

    ``estimate.json`` is the one place the snap distance ``| |omega| - |omega0| |``
    is computed: every matrix of one estimate shares the bin of ``s_full``.
    Under ``omega0 = auto`` nothing was requested to snap from, so the
    request reads ``"auto"`` and the distance ``null``.
    """
    s_full, requested = spectra[0], cfg.omega0_value()
    info = {"omega0_requested": "auto" if requested is None else requested,
            "omega0": s_full.omega,
            "snap_distance": None if requested is None
            else abs(abs(s_full.omega) - abs(requested)),
            "segment_count": s_full.segment_count, "stderr": s_full.stderr,
            "cost_model": "oracle" if s_full.source == "analytic" else "fft", **extra}
    sp_dir = out / "spectra"
    sp_dir.mkdir(parents=True, exist_ok=True)
    for key, s in zip(keys, spectra):
        save_cpsd(sp_dir / f"cpsd_{_run_name(key)}.txt", s)
    (sp_dir / "estimate.json").write_text(json.dumps(info, indent=2) + "\n")
    return info


def stage_estimate(
    cfg: ExperimentConfig, out: Path, runs, node: NodeDynamics, n_nodes: int,
    workers: int = 1,
) -> dict:
    """Estimate the CPSD matrix of each run of :func:`_run_keys` at one snapped frequency.

    ``runs(key, whole)`` (:func:`simulated_runs`, :func:`load_saved_runs`)
    gives run ``key`` as a :class:`TimeSeriesMatrix` or, unless ``whole``,
    possibly as (channels x samples) blocks.  With a fixed omega0, blocks
    stream into a :class:`CpsdAccumulator` sized from the key; ``omega0 =
    auto`` holds the full record to choose the bin on its PSD grid.  Writes
    ``spectra/`` and returns the ``estimate.json`` dict.
    """
    omega0 = cfg.omega0_value()

    def estimate(key) -> CpsdMatrix:
        nonlocal omega0
        run = runs(key, omega0 is None)
        if omega0 is None:  # auto: chosen on the full run, which _each_run estimates first
            omega_max = cfg.noise.input_psd_model(cfg.sim.dt).omega_max
            omega0 = select_omega0(run, omega_max, cfg.spectral, node=node)
        if isinstance(run, TimeSeriesMatrix):
            return estimate_cpsd_matrix(run, omega0, cfg.spectral)
        acc = CpsdAccumulator(n_nodes - (key != "full"), cfg.sim.dt, omega0, cfg.spectral)
        for block in run:
            acc.feed(block)
        return acc.result()

    keys = _run_keys(cfg, n_nodes)
    return _write_spectra(cfg, out, keys, _each_run(estimate, keys, workers))


def stage_oracle_spectra(
    cfg: ExperimentConfig, out: Path, g: ConnectivityMatrix, node: NodeDynamics
) -> dict:
    """Analytic CPSD matrices in place of simulation + estimation.

    Writes ``spectra/`` and returns the ``estimate.json`` dict, as
    :func:`stage_estimate` does.
    """
    sys = NetworkSystem(node, g)
    model = cfg.noise.input_psd_model(cfg.sim.dt)
    omega0 = cfg.omega0_value()
    if omega0 is None:
        omega0 = min(0.5, model.omega_max / 2.0)
    keys = _run_keys(cfg, sys.n_nodes)
    spectra = [analytic_cpsd(sys if key == "full" else sys.grounded(key), model, omega0)
               for key in keys]
    return _write_spectra(cfg, out, keys, spectra, true_input_psd=model(omega0))


def _require_input_psd(cfg: ExperimentConfig, eigenpair) -> None:
    """Raise :class:`ConfigError` when an empirical weighted mode has no eigenpair for S_w."""
    if eigenpair is None and cfg.recon.mode in ("exact-directed", "undirected"):
        raise ConfigError(
            f"{cfg.recon.mode} reconstruction needs S_w: provide a network eigenpair "
            "(laplacian/regular families do) or use an oracle mode"
        )


def _require_estimable(cfg: ExperimentConfig) -> None:
    """Raise what :func:`stage_estimate` would, before anything is simulated for it.

    The record must hold two segments, and a fixed omega0 must snap to a bin
    (:func:`snap_frequency`); the exit codes are the estimate stage's.
    """
    require_two_segments(cfg.sim.n_samples, cfg.spectral)
    omega0 = cfg.omega0_value()
    if omega0 is not None:
        snap_frequency(omega0, cfg.sim.dt, cfg.spectral)


def reconstruct(cfg: ExperimentConfig, s_full: CpsdMatrix, grounded: list,
                node: NodeDynamics, eigenpair) -> tuple[ReconstructionResult, str, Optional[dict]]:
    """The configured route on one set of spectra: ``(result, S_w source, branch audit)``.

    ``grounded`` is as :func:`load_saved_spectra` gives it.  Only the weighted
    routes recover S_w; the branch audit is the undirected route's, else
    ``None``.  ``stage_reconstruct`` and ``bench`` both call this, and it reads
    the route names at each call, so a route patched on this module runs in both.
    """
    mode = cfg.recon.mode.replace("oracle-", "")
    # the gap policy reads the route's own raw statistics, so each route runs once
    tau = cfg.recon.tau if cfg.recon.threshold == "fixed" else (
        lambda raw: threshold_heuristic(raw, fallback_tau=cfg.recon.tau))
    if mode == "boolean":
        return boolean_directed(s_full, grounded, tau=tau), "unused", None
    h = nodal_transfer(node, s_full.omega)
    if eigenpair is not None:
        s_w, s_w_source = input_psd_from_eigenpair(s_full, h, *eigenpair), "eigenpair"
    elif cfg.recon.oracle:
        s_w = cfg.noise.input_psd_model(cfg.sim.dt)(s_full.omega)
        s_w_source = "noise-model (oracle)"
    else:
        s_w, s_w_source = None, "unavailable"
    if mode == "exact-directed":
        return exact_directed(s_full, grounded, s_w, tau=tau), s_w_source, None
    if mode == "undirected":
        rec = exact_undirected(s_full, h, s_w, tau=tau)
        branch = {k: v for k, v in rec._asdict().items() if k != "result"}
        return rec.result, s_w_source, branch
    # nonreciprocal; ReconSpec admits no other mode
    return nonreciprocal(s_full, h, s_w, tau=tau), s_w_source, None


def stage_reconstruct(cfg: ExperimentConfig, out: Path) -> None:
    """Run :func:`reconstruct` on the saved truth and spectra under ``out`` and write its output."""
    truth, node = load_saved_truth(out)
    _require_input_psd(cfg, truth.eigenpair)
    s_full, grounded = load_saved_spectra(cfg, out, truth.n_nodes)
    result, s_w_source, branch = reconstruct(cfg, s_full, grounded, node, truth.eigenpair)
    if branch is not None:
        (out / "undirected_branch.json").write_text(json.dumps(branch, indent=2) + "\n")
    if result.boolean_structure is not None:
        save_matrix(out / "recovered_boolean.txt", result.boolean_structure)
    if result.weights is not None:
        save_matrix(out / "recovered_weights.txt", result.weights)
    _write_report(out / "result.txt", cfg, result, s_w_source)


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


def stage_evaluate(cfg: ExperimentConfig, out: Path) -> dict:
    """Score the saved recovery against the saved truth; write and return metrics.json.

    The matrices come from ``recovered_*.txt``; ω0, the S_w estimate and the
    threshold from the head of ``result.txt``, which holds them at round-trip
    precision; the oracle's true S_w from ``spectra/estimate.json``.
    """
    truth, _ = load_saved_truth(out)
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
    if weights_path.exists():
        recovered = load_matrix(weights_path)
    elif boolean_path.exists():
        recovered = BooleanStructure(load_matrix(boolean_path).weights)
    else:
        raise NetspectraError("reconstruction produced no output to evaluate")
    metrics = compare(truth, recovered, edge_tol=cfg.recon.tau).as_dict()
    metrics["omega0"] = omega0
    metrics["threshold_used"] = tau
    metrics["input_psd_estimate"] = s_w
    info_path = out / "spectra" / "estimate.json"
    info = json.loads(info_path.read_text()) if info_path.exists() else {}
    if "true_input_psd" in info:
        metrics["true_input_psd"] = info["true_input_psd"]
    (out / "metrics.json").write_text(json.dumps(metrics, indent=2) + "\n")
    return metrics


def _write_manifest(cfg: ExperimentConfig, out: Path, info: dict, workers: int) -> None:
    manifest = {
        "netspectra_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "workers": workers,
        "estimate": info,
        "seeds": {"network": cfg.network.seed, "noise": cfg.noise.seed},
        "config": config_to_dict(cfg),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    (out / "config.resolved.ini").write_text(config_to_ini(cfg))


def run_pipeline(cfg: ExperimentConfig, out_dir=None, workers: int = 1) -> dict:
    """The staged generate -> (simulate -> estimate | oracle) -> reconstruct -> evaluate.

    Simulation streams into estimation, so no ``timeseries/`` is written; every
    later stage reads the run directory as its staged command does.  Returns
    the metrics dictionary and adds ``manifest.json`` and ``config.resolved.ini``;
    a rerun of the resolved configuration is byte-identical.
    """
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    truth, node = stage_generate(cfg, out)
    _require_input_psd(cfg, truth.eigenpair)
    if cfg.recon.oracle:
        info = stage_oracle_spectra(cfg, out, truth, node)
    else:
        _require_estimable(cfg)
        info = stage_estimate(cfg, out, simulated_runs(cfg, truth, node), node,
                              truth.n_nodes, workers=workers)
    stage_reconstruct(cfg, out)
    metrics = stage_evaluate(cfg, out)
    _write_manifest(cfg, out, info, workers)
    return metrics


# helpers for running later stages from previously saved artifacts ----------

def _saved(directory: Path, names: list, stage: str) -> list:
    """The paths of ``names`` under ``directory``; a missing one raises :class:`ConfigError`."""
    missing = [name for name in names if not (directory / name).exists()]
    if missing:
        raise ConfigError(f"no saved {', '.join(missing)} under {directory}; run {stage} first")
    return [directory / name for name in names]


def load_saved_truth(out: Path) -> tuple[ConnectivityMatrix, NodeDynamics]:
    """The saved ``network.txt`` and ``node.txt``; a missing one raises :class:`ConfigError`."""
    net_path, node_path = _saved(out, ["network.txt", "node.txt"], "generate")
    return load_matrix(net_path), load_node(node_path)


def load_saved_runs(cfg: ExperimentConfig, out: Path, n_nodes: int):
    """The run source that reads the saved ``timeseries/*.nsts`` records.

    ``source(key, whole)`` reads run ``key``'s file, whole, only when asked
    for it.  Every run of :func:`_run_keys` must be saved: a missing file
    raises :class:`ConfigError` at the call; files of other runs are ignored.
    """
    keys = _run_keys(cfg, n_nodes)
    names = [f"{_run_name(key)}.nsts" for key in keys]
    paths = dict(zip(keys, _saved(out / "timeseries", names, "simulate")))
    return lambda key, whole: load_timeseries(paths[key])


def load_saved_spectra(
    cfg: ExperimentConfig, out: Path, n_nodes: int,
) -> tuple[CpsdMatrix, list]:
    """The saved ``spectra/cpsd_*.txt`` of each run of :func:`_run_keys`: ``(s_full, grounded)``.

    ``grounded`` pairs each grounded key with its matrix, as the routes take
    them; ``estimate.json`` is not read, since reconstruction needs only the
    matrices.  A missing file raises :class:`ConfigError`; files of other
    runs are ignored.
    """
    keys = _run_keys(cfg, n_nodes)
    paths = _saved(out / "spectra", [f"cpsd_{_run_name(key)}.txt" for key in keys], "estimate")
    spectra = [load_cpsd(p) for p in paths]
    return spectra[0], list(zip(keys[1:], spectra[1:]))

