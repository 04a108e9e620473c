"""The benchmark's workloads and the output checks that gate each experiment.

Every workload starts from ``configs/reference.ini`` and varies its keys; the
benchmark seed replaces the network and noise seeds through
``pipeline.apply_seed_override``.  One experiment is one full pipeline run
(or, for ``staged``, the five CLI stages in order) into an empty directory.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from netspectra import cli, graphs, lti, pipeline

# Output-check constants, fixed before measuring (see README.md).
#: Acceptance criterion 8: largest relative weight error on the true edges.
MAX_WEIGHT_REL_ERR = 0.10
#: Analytic spectra recover the weights to this relative accuracy.
ORACLE_WEIGHT_REL_ERR = 1e-9
#: Bound on ||S_est - S||_F / ||S||_F * sqrt(K) for every estimated CPSD.
MAX_CPSD_ERR_SQRT_K = 6.0
#: Edge threshold used to read edges off weight matrices (the config's tau).
EDGE_TOL = 1e-6

STAGED_COMMANDS = ("generate", "simulate", "estimate", "reconstruct", "evaluate")


class CheckFailed(Exception):
    """An experiment's outputs do not meet the workload's check."""

    def __init__(self, message: str, quality: dict):
        super().__init__(message)
        self.quality = quality


@dataclass(frozen=True)
class Experiment:
    """Everything one experiment needs: resolved config, output dir, seed."""

    cfg: pipeline.ExperimentConfig
    config_path: Path
    out: Path
    seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    vary: Callable[[pipeline.ExperimentConfig, bool], pipeline.ExperimentConfig]
    run: Callable
    check: Callable[[Experiment], dict]


# ---------------------------------------------------------------------------
# artifact readers (independent of the package's own parsers)

def _read_matrix(path: Path) -> np.ndarray:
    lines = [ln.split() for ln in path.read_text().splitlines() if ln.strip()]
    n = int(lines[0][0])
    return np.array([[float(v) for v in row] for row in lines[1:1 + n]])


def _read_cpsd(path: Path) -> tuple[np.ndarray, float, int]:
    lines = [ln.split() for ln in path.read_text().splitlines() if ln.strip()]
    header = {row[0]: row[1] for row in lines[:4]}
    n = int(header["N"])
    values = np.array([[complex(v) for v in row] for row in lines[4:4 + n]])
    return values, float(header["omega"]), int(header["K"])


def _report_value(out: Path, key: str) -> float:
    for line in (out / "result.txt").read_text().splitlines():
        if line.startswith(key + " "):
            return float(line.split()[1])
    raise CheckFailed(f"result.txt has no {key!r} line", {})


# ---------------------------------------------------------------------------
# checks

def recovery_quality(exp: Experiment) -> dict:
    """Edge F1, largest relative weight error, and input-PSD error of a run."""
    truth = _read_matrix(exp.out / "network.txt")
    recovered = _read_matrix(exp.out / "recovered_weights.txt")
    off = ~np.eye(truth.shape[0], dtype=bool)
    t_edges = (np.abs(truth) > EDGE_TOL) & off
    r_edges = (np.abs(recovered) > EDGE_TOL) & off
    tp = int(np.sum(t_edges & r_edges))
    wrong = int(np.sum(t_edges ^ r_edges))
    f1 = 2 * tp / (2 * tp + wrong) if (2 * tp + wrong) else 1.0
    rel = np.abs(np.abs(recovered[t_edges]) - np.abs(truth[t_edges])) / np.abs(truth[t_edges])
    model = exp.cfg.noise.input_psd_model(exp.cfg.sim.dt)
    s_w = model(_report_value(exp.out, "omega0"))
    return {
        "edge_f1": f1,
        "weight_rel_err": float(rel.max()) if rel.size else 0.0,
        "input_psd_rel_err": abs(_report_value(exp.out, "input_psd") / s_w - 1.0),
    }


def _check_recovery(exp: Experiment, max_rel_err: float) -> dict:
    q = recovery_quality(exp)
    if q["edge_f1"] != 1.0:
        raise CheckFailed(f"edge F1 {q['edge_f1']:.4g} != 1", q)
    if not q["weight_rel_err"] <= max_rel_err:
        raise CheckFailed(f"weight error {q['weight_rel_err']:.3g} > {max_rel_err:g}", q)
    return q


def check_empirical(exp: Experiment) -> dict:
    return _check_recovery(exp, MAX_WEIGHT_REL_ERR)


def check_oracle(exp: Experiment) -> dict:
    return _check_recovery(exp, ORACLE_WEIGHT_REL_ERR)


def cpsd_errors(exp: Experiment) -> dict:
    """||S_est - S||_F / ||S||_F * sqrt(K) for the full and each grounded CPSD."""
    truth = _read_matrix(exp.out / "network.txt")
    system = lti.NetworkSystem(
        lti.NodeDynamics.scalar_pole(exp.cfg.node.pole),
        graphs.ConnectivityMatrix(truth),
    )
    model = exp.cfg.noise.input_psd_model(exp.cfg.sim.dt)
    spectra = exp.out / "spectra"
    errors = {}
    for j in range(truth.shape[0] + 1):
        path = spectra / ("cpsd_full.txt" if j == 0 else f"cpsd_grounded_{j}.txt")
        est, omega, k = _read_cpsd(path)
        exact = lti.analytic_cpsd(system if j == 0 else system.grounded(j), model, omega).values
        errors[path.stem] = float(
            np.linalg.norm(est - exact) / np.linalg.norm(exact) * np.sqrt(k)
        )
    return errors


def check_cpsd(exp: Experiment) -> dict:
    errors = cpsd_errors(exp)
    worst = max(errors, key=errors.get)
    q = recovery_quality(exp)
    q["cpsd_err_sqrt_k"] = errors[worst]
    if not errors[worst] <= MAX_CPSD_ERR_SQRT_K:
        raise CheckFailed(
            f"{worst}: CPSD error * sqrt(K) = {errors[worst]:.3g} > {MAX_CPSD_ERR_SQRT_K}", q
        )
    return q


# ---------------------------------------------------------------------------
# experiments

def run_pipeline(exp: Experiment, tracer=None) -> None:
    pipeline.run_pipeline(exp.cfg, exp.out, workers=1)


def run_staged(exp: Experiment, tracer=None) -> None:
    common = ["--config", str(exp.config_path), "--out", str(exp.out),
              "--seed-override", str(exp.seed), "--workers", "1"]
    for command in STAGED_COMMANDS:
        span = tracer.span(f"cli.{command}") if tracer else contextlib.nullcontext()
        with span:
            code = cli.main([command, *common])
        if code != 0:
            raise RuntimeError(f"netspectra {command} exited with code {code}")


def _reference(cfg, tiny):
    if tiny:
        return replace(cfg, sim=replace(cfg.sim, n_samples=1 << 16))
    return cfg


def _defective_ring(cfg, tiny):
    return replace(
        cfg,
        network=replace(cfg.network, family="reference", n_nodes=5),
        sim=replace(cfg.sim, n_samples=1 << (14 if tiny else 18)),
        omega0="auto",
    )


def _oracle_wide(cfg, tiny):
    return replace(
        cfg,
        network=replace(cfg.network, family="laplacian", graph="random",
                        n_nodes=12 if tiny else 128, edge_prob=0.05),
        recon=replace(cfg.recon, mode="oracle-exact-directed"),
    )


WORKLOADS = {
    w.name: w for w in (
        Workload("reference", _reference, run_pipeline, check_empirical),
        Workload("defective-ring", _defective_ring, run_pipeline, check_cpsd),
        Workload("oracle-wide", _oracle_wide, run_pipeline, check_oracle),
        Workload("staged", _reference, run_staged, check_empirical),
    )
}


def make_experiment(name: str, root: Path, out: Path, seed: int, tiny: bool) -> Experiment:
    """Build the inputs of workload ``name``: config file, resolved config, paths."""
    workload = WORKLOADS[name]
    config_path = root / "configs" / "reference.ini"
    base = pipeline.load_config(config_path)
    cfg = pipeline.apply_seed_override(workload.vary(base, tiny), seed)
    if name == "staged" and tiny:
        out.parent.mkdir(parents=True, exist_ok=True)
        config_path = out.parent / "staged-tiny.ini"
        config_path.write_text(pipeline.config_to_ini(replace(cfg, out_dir=str(out))))
    return Experiment(cfg=cfg, config_path=config_path, out=out, seed=seed)

