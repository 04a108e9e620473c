"""Config-driven experiment pipeline: generate, simulate, estimate, reconstruct, evaluate.

Experiments are described by a declarative INI-style file with ``key = value``
sections (unknown sections or keys are errors, so typos cannot silently fall
back to defaults).  Every stage reads and writes documented artifact files
under the output directory, so stages can be rerun or golden-tested in
isolation; ``config.resolved.ini`` alone reproduces a run bit for bit.

An experiment's runs are listed once, by :func:`_run_keys`, and go through
:func:`_each_run`, ``workers`` at a time.  A run source gives each run as a
stream: ``runs(key)`` is a :class:`StreamedRecord` whose ``into(sink)``
produces the run afresh, block by block, into a sink.  :func:`simulated_runs`
simulates it (:func:`simulate`, :func:`simulate_grounded`) and
:func:`load_saved_runs` reads it from ``timeseries/``
(:func:`load_timeseries`); the staged ``simulate`` streams the first into the
second (:func:`save_timeseries`).  No stage holds a whole record:
:func:`estimate_spectra` streams each run into a single-bin CPSD accumulator
(:func:`estimate_cpsd_matrix`), after one more pass over the full run under
``omega0 = auto`` to choose the bin (:func:`select_omega0`).
:func:`run_pipeline` is the staged commands with one shortcut: it hands the
spectra stage, :func:`stage_estimate`, :func:`simulated_runs` in place of the
saved records, writes no ``timeseries/``, and gives the staged spectra byte
for byte, since both sources are deterministic.  That stage alone asks where
the spectra come from: oracle modes take :func:`oracle_spectra`, which, like
:func:`estimate_spectra` and :func:`reconstruct`, touches no file: each stage
writes what one of them returns, and ``bench`` times them.  Reconstruction and
evaluation read their inputs from the run directory, in ``run`` too, except
that ``run`` hands reconstruction the truth it admitted.  Every refusal is
asked once per command, in one order, by :func:`_admit`, which each command
calls before its first stage and no stage calls; once it passes, each stage
removes its own and every later stage's files (``_ARTIFACTS``).
Reconstruction writes one record, ``result.json``, and renders ``result.txt``
from it.  Evaluation reads no config and scores the recovery that record
names, counting the nonzero off-diagonal entries as edges (``tau`` thresholds
the raw statistic only).

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
    [simulation]dt (0.01); n_samples (65536)
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
import shutil
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from . import __version__
from .errors import ConfigError, ValidationError
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
    eigenpair_input_psd,
    exact_directed,
    exact_undirected,
    nonreciprocal,
    threshold_heuristic,
)
from .simulate import (
    NoiseConfig,
    SimConfig,
    StreamedRecord,
    channel_labels,
    load_timeseries,
    run_system,
    save_timeseries,
    simulate,
    simulate_grounded,
)
from .spectral import (
    SpectralConfig,
    estimate_cpsd_matrix,
    select_omega0,
    snap_frequency,
)
from . import families

ROUTES = ("boolean", "exact-directed", "undirected", "nonreciprocal")
MODES = ROUTES + tuple("oracle-" + route for route in ROUTES)
GROUNDING_ROUTES = ("boolean", "exact-directed")


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
        if self.source == "random" and not 0 <= self.weight_min <= self.weight_max:
            raise ValidationError("network weights must satisfy 0 <= weight_min <= weight_max")
        if self.source == "random" and not 0 <= self.edge_prob <= 1:
            raise ValidationError("network edge_prob must lie in [0, 1]")


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

    @property
    def route(self) -> str:
        """The reconstruction route: the mode without its ``oracle-`` prefix."""
        return self.mode.removeprefix("oracle-")


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
    """``auto`` or a frequency, checked as a finite nonnegative float but kept as written."""
    if raw != "auto" and _finite(raw) < 0:
        raise ValueError("must be auto or a nonnegative frequency")
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
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"config file {path} not found or unreadable")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
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


def config_to_ini(cfg: ExperimentConfig) -> str:
    """Render a fully resolved configuration (defaults included) as a rerunnable config file."""
    sections: dict = {}
    for section, key, attr, kind, none_text in _KEYS:
        value = attrgetter(attr)(cfg)
        text = (none_text if value is None else format(value, ".17g") if kind is _finite
                else str(value))
        sections.setdefault(section, []).append(f"{key} = {text}")
    return "\n\n".join("\n".join([f"[{section}]", *lines])
                       for section, lines in sections.items()) + "\n"


def apply_seed_override(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    return replace(
        cfg,
        network=replace(cfg.network, seed=seed),
        noise=replace(cfg.noise, seed=seed),
    )


# ---------------------------------------------------------------------------
# stages

#: The names each stage writes under the run directory, declared once, in stage order.
_ARTIFACTS = (
    ("generate", ("network.txt", "node.txt")),
    ("simulate", ("timeseries",)),
    ("estimate", ("spectra",)),
    ("reconstruct", ("result.txt", "recovered_boolean.txt", "recovered_weights.txt",
                     "result.json")),
    ("evaluate", ("metrics.json",)),
    ("run", ("config.resolved.ini",)),
)


def _replace_from(out: Path, stage: str) -> None:
    """Remove only what ``stage`` and the later stages list under ``out``; a link, not its target."""
    first = [name for name, _ in _ARTIFACTS].index(stage)
    for _, names in _ARTIFACTS[first:]:
        for path in (out / name for name in names):
            if path.is_dir() and not path.is_symlink():
                shutil.rmtree(path)
            else:
                path.unlink(missing_ok=True)


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


def _build_truth(cfg: ExperimentConfig) -> tuple[ConnectivityMatrix, NodeDynamics]:
    """The ground-truth network and node dynamics of ``cfg``."""
    node = _build_node(cfg)
    return _build_network(cfg, node), node


def stage_generate(cfg: ExperimentConfig, out: Path,
                   truth: Optional[tuple[ConnectivityMatrix, NodeDynamics]] = None,
                   ) -> tuple[ConnectivityMatrix, NodeDynamics]:
    """Materialise the ground-truth network and node dynamics: ``truth``, else built from ``cfg``."""
    g, node = truth if truth is not None else _build_truth(cfg)
    _replace_from(out, "generate")
    out.mkdir(parents=True, exist_ok=True)
    save_matrix(out / "network.txt", g)
    save_node(out / "node.txt", node)
    return g, node


def _run_keys(cfg: ExperimentConfig, n_nodes: int) -> list:
    """``["full", 1..N]`` (key j: node j grounded), or ``["full"]`` when the mode does not ground.

    The only place that decides which runs exist.
    """
    if cfg.recon.route in GROUNDING_ROUTES:
        return ["full", *range(1, n_nodes + 1)]
    return ["full"]


def _run_name(key) -> str:
    return "full" if key == "full" else f"grounded_{key}"


def _ground(key) -> Optional[int]:
    """The node run ``key`` grounds, or None for the full run."""
    return None if key == "full" else key


def _record(cfg: ExperimentConfig, n_nodes: int, key) -> tuple:
    """Run ``key``'s record header, as its ``.nsts`` file holds it: ``(labels, n_samples, dt)``."""
    return channel_labels(n_nodes, _ground(key)), cfg.sim.n_samples, cfg.sim.dt


def _each_run(fn, keys: list, workers: int) -> list:
    """``[fn(key) for key in keys]``, ``workers`` keys at a time."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, keys))


def _admit(cfg: ExperimentConfig, truth, segments: bool = True,
           ) -> tuple[ConnectivityMatrix, NodeDynamics]:
    """``truth()``, the network and node dynamics, once ``cfg`` passes every refusal rule.

    The one refusal gate: each command that simulates, estimates or
    reconstructs calls it once, before it writes, and hands its result to the
    stages, so a config exits alike in all of them.  An oracle mode asks
    nothing; otherwise, in order: the record length
    (:meth:`SpectralConfig.n_segments`) and a fixed omega0
    (:func:`snap_frequency`), before ``truth()``; then an eigenpair for S_w in
    ``exact-directed`` and ``undirected``, a Hurwitz system for every run
    (:func:`run_system`) and K > N.  ``segments=False`` skips both K rules.
    """
    if cfg.recon.oracle:
        return truth()
    if segments:
        cfg.spectral.n_segments(cfg.sim.n_samples)
    if cfg.omega0_value() is not None:
        snap_frequency(cfg.omega0_value(), cfg.sim.dt, cfg.spectral)
    g, node = truth()
    if g.eigenpair is None and cfg.recon.mode in ("exact-directed", "undirected"):
        raise ConfigError(
            f"{cfg.recon.mode} reconstruction needs S_w: provide a network eigenpair "
            "(laplacian/regular families do) or use an oracle mode"
        )
    sys = NetworkSystem(node, g)
    for key in _run_keys(cfg, g.n_nodes):
        run_system(sys, _ground(key))
    if segments:
        cfg.spectral.n_segments(cfg.sim.n_samples, g.n_nodes)
    return g, node


def simulated_runs(cfg: ExperimentConfig, g: ConnectivityMatrix, node: NodeDynamics):
    """The run source that simulates: ``source(key)`` streams run ``key`` as it is simulated.

    Each ``into(sink)`` simulates the run afresh, the same numbers every
    time, through :func:`simulate` or :func:`simulate_grounded`.
    """
    sys = NetworkSystem(node, g)

    def source(key) -> StreamedRecord:
        if key == "full":
            into = lambda sink=None: simulate(sys, cfg.noise, cfg.sim, sink)
        else:
            into = lambda sink=None: simulate_grounded(sys, key, cfg.noise, cfg.sim, sink)
        return StreamedRecord(*_record(cfg, g.n_nodes, key), into)

    return source


def stage_simulate(
    cfg: ExperimentConfig, out: Path, g: ConnectivityMatrix, node: NodeDynamics,
    workers: int = 1,
) -> None:
    """Run the full (and, when the mode grounds, the N grounded) simulations.

    Each run streams block by block into ``timeseries/*.nsts`` as it is
    simulated (``run`` streams into :func:`estimate_spectra` instead).  An
    oracle mode simulates and writes nothing: its spectra stage reads none.
    The caller has passed :func:`_admit`.
    """
    runs = simulated_runs(cfg, g, node)
    _replace_from(out, "simulate")
    ts_dir = out / "timeseries"
    if cfg.recon.oracle:
        return
    ts_dir.mkdir(parents=True)
    _each_run(lambda key: save_timeseries(ts_dir / f"{_run_name(key)}.nsts", runs(key)),
              _run_keys(cfg, g.n_nodes), workers)


def _write_spectra(cfg: ExperimentConfig, out: Path, keys: list, spectra: list,
                   **extra) -> dict:
    """Write ``spectra/``: one CPSD matrix per run key and ``estimate.json``; return the latter.

    ``estimate.json`` is the one place the snap distance ``| |omega| - |omega0| |``
    is computed: every matrix of one estimate shares the bin of ``s_full``.
    Under ``omega0 = auto`` nothing was requested to snap from, so the
    request reads ``"auto"`` and the distance ``null``.  Every run has the
    config's length, so the full run's K_eff
    (:meth:`SpectralConfig.effective_segment_count`) serves all; the inverse
    CPSD's mean is inflated by ``K_eff / (K_eff - N)`` (Goodman 1963), null
    where it is not finite and for analytic spectra.
    """
    s_full, requested = spectra[0], cfg.omega0_value()
    k = s_full.segment_count
    k_eff = None if k is None else cfg.spectral.effective_segment_count(k)
    info = {"omega0_requested": "auto" if requested is None else requested,
            "omega0": s_full.omega,
            "snap_distance": None if requested is None
            else abs(abs(s_full.omega) - abs(requested)),
            "segment_count": k, "effective_segment_count": k_eff,
            "inverse_inflation": k_eff / (k_eff - s_full.n_nodes)
            if k_eff is not None and k_eff > s_full.n_nodes else None,
            "cost_model": "oracle" if s_full.source == "analytic" else "fft", **extra}
    sp_dir = out / "spectra"
    sp_dir.mkdir(parents=True)
    for key, s in zip(keys, spectra):
        save_cpsd(sp_dir / f"cpsd_{_run_name(key)}.txt", s)
    (sp_dir / "estimate.json").write_text(json.dumps(info, indent=2) + "\n")
    return info


def estimate_spectra(cfg: ExperimentConfig, runs, node: NodeDynamics, n_nodes: int,
                     workers: int = 1) -> list:
    """The CPSD matrix of each run of :func:`_run_keys` at one snapped frequency.

    Each run, ``runs(key)`` (:func:`simulated_runs`, :func:`load_saved_runs`),
    streams into :func:`estimate_cpsd_matrix`.  Under ``omega0 = auto`` the
    full run is passed once more, first, to choose the bin on its PSD grid
    (:func:`select_omega0`).
    """
    omega0 = cfg.omega0_value()
    if omega0 is None:
        omega_max = cfg.noise.input_psd_model(cfg.sim.dt).omega_max
        omega0 = select_omega0(runs("full"), omega_max, cfg.spectral, node=node)
    return _each_run(lambda key: estimate_cpsd_matrix(runs(key), omega0, cfg.spectral),
                     _run_keys(cfg, n_nodes), workers)


def stage_estimate(cfg: ExperimentConfig, out: Path, g: ConnectivityMatrix, node: NodeDynamics,
                   runs=None, workers: int = 1) -> dict:
    """Write each run's CPSD matrix to ``spectra/``: analytic in an oracle mode, else estimated
    from ``runs``, by default the saved records.  Return the ``estimate.json`` dict."""
    if cfg.recon.oracle:
        return stage_oracle_spectra(cfg, out, g, node)
    runs = runs or load_saved_runs(cfg, out, g.n_nodes)
    _replace_from(out, "estimate")
    return _write_spectra(cfg, out, _run_keys(cfg, g.n_nodes),
                          estimate_spectra(cfg, runs, node, g.n_nodes, workers=workers))


def _analytic_omega0(cfg: ExperimentConfig) -> float:
    """The analytic frequency: omega0 unsnapped, or 0.5 within the noise band under ``auto``."""
    omega0 = cfg.omega0_value()
    if omega0 is None:
        return min(0.5, cfg.noise.input_psd_model(cfg.sim.dt).omega_max / 2.0)
    return omega0


def oracle_spectra(cfg: ExperimentConfig, g: ConnectivityMatrix, node: NodeDynamics) -> list:
    """The analytic CPSD matrix of each run of :func:`_run_keys` at :func:`_analytic_omega0`."""
    sys = NetworkSystem(node, g)
    model = cfg.noise.input_psd_model(cfg.sim.dt)
    omega0 = _analytic_omega0(cfg)
    return [analytic_cpsd(sys if key == "full" else sys.grounded(key), model, omega0)
            for key in _run_keys(cfg, g.n_nodes)]


def stage_oracle_spectra(cfg: ExperimentConfig, out: Path, g: ConnectivityMatrix,
                         node: NodeDynamics) -> dict:
    """Write :func:`oracle_spectra` and the true S_w to ``spectra/``; return the estimate dict."""
    _replace_from(out, "estimate")
    spectra = oracle_spectra(cfg, g, node)
    model = cfg.noise.input_psd_model(cfg.sim.dt)
    return _write_spectra(cfg, out, _run_keys(cfg, g.n_nodes), spectra,
                          true_input_psd=model(spectra[0].omega))


def reconstruct(cfg: ExperimentConfig, s_full: CpsdMatrix, grounded: list,
                node: NodeDynamics, eigenpair) -> tuple[ReconstructionResult, str, Optional[dict]]:
    """The configured route on one set of spectra: ``(result, S_w source, branch audit)``.

    ``grounded`` is as :func:`load_saved_spectra` gives it.  Only the weighted
    routes recover S_w, from an eigenpair as a policy
    (:func:`eigenpair_input_psd`) that the route calls on the full CPSD's
    inverse, so every CPSD matrix is inverted once, by
    :func:`~netspectra.reconstruct.estimate_inverse_cpsd`; the branch audit is
    the undirected route's, else ``None``.  ``stage_reconstruct`` and
    ``bench`` both call this, and it reads the route names at each call, so a
    route patched on this module runs in both.
    """
    route = cfg.recon.route
    # the gap policy reads the route's own raw statistics, so each route runs once
    tau = cfg.recon.tau if cfg.recon.threshold == "fixed" else (
        lambda raw: threshold_heuristic(raw, fallback_tau=cfg.recon.tau))
    if route == "boolean":
        return boolean_directed(s_full, grounded, tau=tau), "unused", None
    h = nodal_transfer(node, s_full.omega)
    if eigenpair is not None:
        s_w, s_w_source = eigenpair_input_psd(s_full, h, *eigenpair), "eigenpair"
    elif s_full.source == "analytic":
        s_w, s_w_source = cfg.noise.input_psd_model(cfg.sim.dt)(s_full.omega), "noise-model (oracle)"
    else:
        s_w, s_w_source = None, "unavailable"
    if route == "exact-directed":
        return exact_directed(s_full, grounded, s_w, tau=tau), s_w_source, None
    if route == "undirected":
        k = s_full.segment_count  # None for analytic spectra; an estimate without K raises
        k_eff = None if k is None else cfg.spectral.effective_segment_count(k)
        rec = exact_undirected(s_full, h, s_w, tau=tau, k_eff=k_eff)
        branch = {k: v for k, v in rec._asdict().items() if k != "result"}
        return rec.result, s_w_source, branch
    # nonreciprocal; ReconSpec admits no other route
    return nonreciprocal(s_full, h, s_w, tau=tau), s_w_source, None


def stage_reconstruct(cfg: ExperimentConfig, out: Path, g: ConnectivityMatrix,
                      node: NodeDynamics) -> None:
    """Run :func:`reconstruct` on the saved spectra under ``out`` and write its output.

    That is the recovered matrices and the reconstruction's one record
    (:func:`_result_record`): compactly as ``result.json``, and rendered as
    ``result.txt`` (:func:`_report`).  The caller has passed :func:`_admit`,
    which gave ``g`` and ``node``.
    """
    s_full, grounded = load_saved_spectra(cfg, out, g.n_nodes)
    _replace_from(out, "reconstruct")
    result, s_w_source, branch = reconstruct(cfg, s_full, grounded, node, g.eigenpair)
    record = _result_record(cfg, result, s_w_source, branch)
    (out / "result.json").write_text(json.dumps(record, separators=(",", ":")) + "\n")
    save_matrix(out / "recovered_boolean.txt", result.boolean_structure)
    if result.weights is not None:
        save_matrix(out / "recovered_weights.txt", result.weights)
    (out / "result.txt").write_text(_report(record, result))


def _result_record(cfg: ExperimentConfig, result: ReconstructionResult, s_w_source: str,
                   branch: Optional[dict]) -> dict:
    """One reconstruction's record: versions, the head and diagnostics ``result.txt`` prints
    (``null`` for a missing S_w and the raw statistic's diagonal), and the undirected
    route's branch audit as ``undirected``.  It holds no time, path or date."""
    d = result.diagnostics  # every route gives them
    record = {"versions": {"netspectra": __version__, "numpy": np.__version__,
                           "scipy": scipy.__version__},
              "mode": cfg.recon.mode, "omega0": result.omega0,
              "input_psd": result.input_psd_estimate, "input_psd_source": s_w_source,
              "threshold": result.threshold_used,
              "clamp_count": d.clamp_count, "suppressed_count": d.suppressed_count,
              "loaded": list(d.loaded),
              "condition_numbers": dict(sorted(d.condition_numbers.items())),
              "notes": list(d.notes),
              "raw_differences": [[None if math.isnan(v) else v for v in row]
                                  for row in d.raw_differences.tolist()]}
    if branch is not None:
        record["undirected"] = branch
    return record


def _report(record: dict, result: ReconstructionResult) -> str:
    """``result.txt``: ``record``'s head and diagnostics, then the recovered matrices."""
    s_w = "n/a" if record["input_psd"] is None else record["input_psd"]
    lines = [
        "netspectra reconstruction report",
        f"mode {record['mode']}",
        f"omega0 {record['omega0']:.17g}",
        f"input_psd {s_w} ({record['input_psd_source']})",
        f"threshold {record['threshold']}",
        f"clamp_count {record['clamp_count']}",
        f"suppressed_count {record['suppressed_count']}",
        f"loaded {','.join(record['loaded']) or 'none'}",
        *(f"condition_{name} {value:.6g}" for name, value in record["condition_numbers"].items()),
        *(f"note {note}" for note in record["notes"]),
        "raw_differences",
        *(" ".join("nan" if v is None else format(v, ".17g") for v in row)
          for row in record["raw_differences"]),
    ]
    if result.weights is not None:
        lines.append("weights")
        lines += [" ".join(format(v, ".17g") for v in row) for row in result.weights.weights]
    lines.append("boolean")
    lines += [" ".join(str(int(v)) for v in row) for row in result.boolean_structure.entries]
    return "\n".join(lines) + "\n"


def stage_evaluate(cfg: ExperimentConfig, out: Path) -> dict:
    """Score the recovery ``result.json`` names against the saved truth; write, return metrics.json.

    It is ``recovered_weights.txt`` when the record gives S_w (every route
    weighs its edges exactly then), else ``recovered_boolean.txt``; an edge is
    a nonzero off-diagonal entry, as every route writes an absent one as 0.
    ω0, S_w and the threshold come from the record, which must hold each as a
    finite number (S_w may be ``null``), the oracle's true S_w from
    ``spectra/estimate.json``; ``cfg`` is not read.
    """
    truth, _ = load_saved_truth(out)
    path, = _saved(out, ["result.json"])
    try:
        record = json.loads(path.read_text())
        head = {key: record[key] for key in ("omega0", "input_psd", "threshold")}
        for key, value in head.items():
            if not (value is None and key == "input_psd"
                    or type(value) in (int, float) and math.isfinite(value)):
                raise ValueError(f"{key} {value!r} is not a finite number")
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ValidationError(
            f"malformed reconstruction record {path}: {type(exc).__name__}: {exc}") from exc
    s_w = head["input_psd"]
    name = "recovered_boolean.txt" if s_w is None else "recovered_weights.txt"
    recovered = load_matrix(*_saved(out, [name]))
    if s_w is None:
        recovered = BooleanStructure(recovered.weights)
    metrics = compare(truth, recovered, edge_tol=0.0).as_dict()
    metrics.update(omega0=head["omega0"], threshold_used=head["threshold"], input_psd_estimate=s_w)
    info = json.loads(_saved(out / "spectra", ["estimate.json"])[0].read_text())
    if "true_input_psd" in info:
        metrics["true_input_psd"] = info["true_input_psd"]
    _replace_from(out, "evaluate")
    (out / "metrics.json").write_text(json.dumps(metrics, indent=2) + "\n")
    return metrics


def run_pipeline(cfg: ExperimentConfig, out_dir=None, workers: int = 1) -> dict:
    """The staged generate -> simulate -> estimate -> reconstruct -> evaluate.

    Simulation streams into estimation, so no ``timeseries/`` is written; every
    later stage reads the run directory as its staged command does.  Returns
    the metrics and adds ``config.resolved.ini``, whose rerun is
    byte-identical.  :func:`_admit` refuses before any file goes.
    """
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    truth, node = _admit(cfg, lambda: _build_truth(cfg))
    stage_generate(cfg, out, (truth, node))
    stage_estimate(cfg, out, truth, node, simulated_runs(cfg, truth, node), workers=workers)
    stage_reconstruct(cfg, out, truth, node)
    metrics = stage_evaluate(cfg, out)
    (out / "config.resolved.ini").write_text(config_to_ini(cfg))
    return metrics


# helpers for running later stages from previously saved artifacts ----------

def _saved(directory: Path, names: list) -> list:
    """The paths of ``names`` under ``directory``; a missing one raises :class:`ConfigError`."""
    missing = [name for name in names if not (directory / name).exists()]
    if missing:
        writer = {name: stage for stage, owned in _ARTIFACTS for name in owned}
        stage = writer.get(missing[0]) or writer[directory.name]  # else in timeseries/, spectra/
        raise ConfigError(f"no saved {', '.join(missing)} under {directory}; run {stage} first")
    return [directory / name for name in names]


def load_saved_truth(out: Path) -> tuple[ConnectivityMatrix, NodeDynamics]:
    """The saved ``network.txt`` and ``node.txt``; a missing one raises :class:`ConfigError`."""
    net_path, node_path = _saved(out, ["network.txt", "node.txt"])
    return load_matrix(net_path), load_node(node_path)


def load_saved_runs(cfg: ExperimentConfig, out: Path, n_nodes: int):
    """The run source that reads the saved ``timeseries/*.nsts`` records.

    ``source(key).into(sink)`` opens run ``key``'s file afresh and streams its
    blocks into ``sink`` (:func:`load_timeseries`); a file whose header is not
    the run's (channel labels, length and dt of the resolved config) raises
    :class:`ValidationError`.  Every run of :func:`_run_keys` must be saved: a
    missing file raises :class:`ConfigError` at the call; files of other runs
    are ignored.
    """
    keys = _run_keys(cfg, n_nodes)
    names = [f"{_run_name(key)}.nsts" for key in keys]
    paths = dict(zip(keys, _saved(out / "timeseries", names)))

    def source(key) -> StreamedRecord:
        header = _record(cfg, n_nodes, key)
        return StreamedRecord(*header, lambda sink=None: load_timeseries(paths[key], *header, sink))

    return source


def load_saved_spectra(
    cfg: ExperimentConfig, out: Path, n_nodes: int,
) -> tuple[CpsdMatrix, list]:
    """The saved ``spectra/cpsd_*.txt`` of each run of :func:`_run_keys`: ``(s_full, grounded)``.

    ``grounded`` pairs each grounded key with its matrix, as the routes take
    them.  A missing file raises :class:`ConfigError`; ``estimate.json`` and
    the files of other runs are not read.
    """
    keys = _run_keys(cfg, n_nodes)
    paths = _saved(out / "spectra", [f"cpsd_{_run_name(key)}.txt" for key in keys])
    spectra = [load_cpsd(p) for p in paths]
    return spectra[0], list(zip(keys[1:], spectra[1:]))

