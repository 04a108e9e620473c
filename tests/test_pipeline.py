import contextlib
import dataclasses
import functools
import importlib.util
import json
import re
import struct
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy

import netspectra
from netspectra import (
    ConfigError,
    ConnectivityMatrix,
    NodeDynamics,
    NumericalError,
    ValidationError,
    laplacian_connectivity,
    load_config,
    load_matrix,
    run_pipeline,
    save_matrix,
    save_node,
)
from netspectra.bench import benchmark, parse_sweep
from netspectra.cli import main
from netspectra import bench as bn
from netspectra import pipeline as pl

# the module; the package's name ``simulate`` is its function
sim = importlib.import_module("netspectra.simulate")


BASE_CONFIG = """
[network]
source = random
family = laplacian
graph = ring
n_nodes = 4
weight_min = 0.5
weight_max = 1.0
seed = 3

[node]
preset = scalar-pole
pole = -1.0

[noise]
variance = 1.0
seed = 11

[simulation]
dt = 0.01
n_samples = 32768

[spectral]
segment_length = 1024
omega0 = 0.5

[reconstruction]
mode = oracle-exact-directed
threshold = fixed
tau = 1e-6

[output]
directory = out
"""


def write_config(tmp_path, overrides=None, text=BASE_CONFIG):
    overrides = dict(overrides or {})
    lines = []
    section = None
    for line in text.strip().splitlines():
        stripped = line.strip()
        if stripped.startswith("["):
            section = stripped.strip("[]")
        elif "=" in stripped and section:
            key = stripped.split("=")[0].strip()
            if (section, key) in overrides:
                line = f"{key} = {overrides.pop((section, key))}"
        lines.append(line)
    for (section, key), value in overrides.items():
        at = lines.index(f"[{section}]")
        lines.insert(at + 1, f"{key} = {value}")
    path = tmp_path / "exp.ini"
    path.write_text("\n".join(lines) + "\n")
    return path


def config_ini_of(sections: dict) -> str:
    return "\n\n".join(
        "\n".join([f"[{section}]"] + [f"{k} = {v}" for k, v in entries.items()])
        for section, entries in sections.items()) + "\n"


REFERENCE = (Path(__file__).resolve().parents[1] / "configs" / "reference.ini").read_text()
# configs/reference.ini at L = 2^16 (K = 31 segments)
REFERENCE_L16 = {("simulation", "n_samples"): "65536"}
# BASE_CONFIG, empirical and short: K = 31 segments of 512 samples, whose first
# bin omega0 = 1.5 snaps to (0.5 would snap to the DC bin)
SHORT = {("reconstruction", "mode"): "exact-directed", ("simulation", "n_samples"): "8192",
         ("spectral", "segment_length"): "512", ("spectral", "omega0"): "1.5"}
STAGES = ("generate", "simulate", "estimate", "reconstruct", "evaluate")


def _mode(mode: str) -> dict:
    return {("reconstruction", "mode"): mode}


def reference_config(tmp_path, overrides=None):
    """``configs/reference.ini`` with ``overrides``, written under ``tmp_path``."""
    return write_config(tmp_path, overrides, text=REFERENCE)


def commands(tmp_path, cmds, overrides=None, *flags, text=BASE_CONFIG, out="run") -> list:
    """The exit codes of ``cmds``, each run with ``flags`` into ``tmp_path / out``.

    Their config is ``text`` with ``overrides``, written to a folder of its own
    under ``tmp_path``.
    """
    folder = tmp_path / f"cfg-{len(list(tmp_path.glob('cfg-*')))}"
    folder.mkdir()
    p = str(write_config(folder, overrides, text=text))
    return [main([cmd, "--config", p, "--out", str(tmp_path / out), *flags]) for cmd in cmds]


@pytest.fixture
def no_simulation(monkeypatch):
    """Fail the test if a run is simulated."""
    def refuse(*args, **kwargs):
        raise AssertionError("simulated a run of a refused config")

    for name in ("simulate", "simulate_grounded"):
        monkeypatch.setattr(pl, name, refuse)


class TestConfig:
    def test_defaults_and_roundtrip(self, tmp_path):
        p = tmp_path / "min.ini"
        p.write_text("[network]\nn_nodes = 3\n")
        cfg = load_config(p)
        assert cfg.network.n_nodes == 3
        assert cfg.spectral.segment_length == 4096
        assert cfg.recon.mode == "exact-directed"
        # the rendered resolved config parses back to the same values
        p2 = tmp_path / "resolved.ini"
        p2.write_text(pl.config_to_ini(cfg))
        assert load_config(p2) == cfg

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[netwrk]\nn_nodes = 3\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[network]\nnodes = 3\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[network]\nn_nodes = soon\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_bad_mode_rejected(self, tmp_path):
        p = write_config(tmp_path, _mode("psychic"))
        with pytest.raises(ConfigError):
            load_config(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini")

    @pytest.mark.parametrize("part, field, value, message", [
        (pl.NetworkSpec, "source", "randm", "unknown network source"),
        (pl.NetworkSpec, "source", "file", "needs a file path"),
        (pl.NetworkSpec, "family", "laplacain", "unknown network family"),
        (pl.NetworkSpec, "graph", "rnig", "unknown laplacian graph"),
        (functools.partial(pl.NetworkSpec, family="reference"), "n_nodes", 8,
         "reference networks exist for n_nodes in"),
        (pl.NetworkSpec, "n_nodes", 1, "n_nodes must be at least 2"),
        (pl.NetworkSpec, "seed", -1, "network seed must be nonnegative"),
        (pl.NetworkSpec, "weight_min", 2.0, "0 <= weight_min <= weight_max"),
        (pl.NetworkSpec, "weight_min", -0.5, "0 <= weight_min <= weight_max"),
        (pl.NetworkSpec, "edge_prob", -0.5, "edge_prob must lie in"),
        (pl.NetworkSpec, "edge_prob", 1.5, "edge_prob must lie in"),
        (pl.NodeSpec, "preset", "scalar", "unknown node preset"),
        (pl.NodeSpec, "preset", "file", "needs a file path"),
        (pl.ReconSpec, "mode", "exact-direct", "unknown reconstruction mode"),
        (pl.ReconSpec, "threshold", "fixd", "unknown threshold policy"),
    ])
    def test_parts_reject_typos_at_construction(self, part, field, value, message):
        # a config built in code is checked as a config file is
        with pytest.raises(ValidationError, match=message):
            part(**{field: value})

    # every key set away from its default, in another order and spelling
    EVERY_KEY = """
[output]
directory = runs/every-key

[reconstruction]
tau = 1e-5
threshold = fixed
mode = oracle-nonreciprocal

[network]
source = file
file = net.txt
family = symmetric
graph = pairs
n_nodes = 5
edge_prob = 0.4
weight_min = 0.25
weight_max = 2
seed = 3

[node]
preset = file
pole = -2.5
file = node.txt

[noise]
variance = 0.5
shaping = lowpass
shaping_pole = -3
seed = 9

[simulation]
dt = 0.02
n_samples = 8192

[spectral]
segment_length = 512
overlap = 0.25
window = rectangular
detrend = none
omega0 = 1.5
"""

    # what config.resolved.ini holds for it, byte for byte
    EVERY_KEY_RESOLVED = """\
[network]
source = file
file = net.txt
family = symmetric
graph = pairs
n_nodes = 5
edge_prob = 0.40000000000000002
weight_min = 0.25
weight_max = 2
seed = 3

[node]
preset = file
pole = -2.5
file = node.txt

[noise]
variance = 0.5
shaping = lowpass
shaping_pole = -3
seed = 9

[simulation]
dt = 0.02
n_samples = 8192

[spectral]
segment_length = 512
overlap = 0.25
window = rectangular
detrend = none
omega0 = 1.5

[reconstruction]
mode = oracle-nonreciprocal
threshold = fixed
tau = 1.0000000000000001e-05

[output]
directory = runs/every-key
"""

    def test_every_key_renders_to_the_pinned_text(self, tmp_path):
        p = tmp_path / "every.ini"
        p.write_text(self.EVERY_KEY)
        cfg = load_config(p)
        assert cfg != pl.ExperimentConfig()
        assert pl.config_to_ini(cfg) == self.EVERY_KEY_RESOLVED

    def test_pinned_text_loads_back_equal(self, tmp_path):
        p, q = tmp_path / "every.ini", tmp_path / "resolved.ini"
        p.write_text(self.EVERY_KEY)
        q.write_text(self.EVERY_KEY_RESOLVED)
        assert load_config(q) == load_config(p)

    def test_key_table_declares_every_field_once(self):
        from netspectra import NoiseConfig, SimConfig, SpectralConfig

        specs = {"network": pl.NetworkSpec, "node": pl.NodeSpec, "noise": NoiseConfig,
                 "sim": SimConfig, "spectral": SpectralConfig, "recon": pl.ReconSpec}
        fields = [f"{head}.{f.name}" for head, cls in specs.items()
                  for f in dataclasses.fields(cls)] + ["omega0", "out_dir"]
        attrs = [attr for _, _, attr, _, _ in pl._KEYS]
        assert sorted(attrs) == sorted(fields)
        keys = [(section, key) for section, key, *_ in pl._KEYS]
        assert len(set(keys)) == len(keys)

    def test_module_reference_lists_every_key_with_its_default(self, tmp_path):
        reference = pl.__doc__.split("Section/key reference")[1]
        documented = {}
        for section, body in re.findall(r"\[(\w+)\]\s*(.*?)(?=\n\s*\[\w+\]|\Z)",
                                        reference, re.S):
            for key, default in re.findall(r"(\w+) \(([^)]*)\)", body):
                documented[(section, key)] = default
        assert set(documented) == {(section, key) for section, key, *_ in pl._KEYS}
        p = tmp_path / "documented.ini"
        p.write_text(config_ini_of(
            {section: {key: default for (s, key), default in documented.items()
                       if s == section and default}
             for section in {s for s, _ in documented}}))
        assert load_config(p) == pl.ExperimentConfig()


class TestOraclePipeline:
    def test_oracle_run_is_exact_and_rerunnable(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        m1 = run_pipeline(cfg, out1)
        m2 = run_pipeline(cfg, out2)
        assert m1["f1"] == 1.0
        assert m1["max_abs_error"] <= 1e-8
        assert (out1 / "recovered_weights.txt").read_bytes() == (
            out2 / "recovered_weights.txt"
        ).read_bytes()
        assert (out1 / "network.txt").read_bytes() == (out2 / "network.txt").read_bytes()
        resolved = load_config(out1 / "config.resolved.ini")
        assert {"network": resolved.network.seed, "noise": resolved.noise.seed} == {
            "network": 3, "noise": 11}
        assert resolved.omega0 == "0.5"

    def test_resolved_config_reproduces_run(self, tmp_path):
        # no input outside the config changes an artifact: every file of a rerun
        # of config.resolved.ini, result.json's versions included, equals the first run's,
        # also when the first run had two workers and the rerun the default
        empirical = {**SHORT, ("simulation", "n_samples"): "16384"}
        for name, overrides, workers in (("oracle", {}, 1), ("empirical", empirical, 1),
                                         ("workers", empirical, 2)):
            first, rerun = tmp_path / name, tmp_path / f"{name}-rerun"
            run_pipeline(load_config(write_config(tmp_path, overrides)), first, workers=workers)
            run_pipeline(load_config(first / "config.resolved.ini"), rerun)
            files = sorted(str(f.relative_to(first)) for f in first.rglob("*") if f.is_file())
            assert "result.json" in files
            assert files == sorted(str(f.relative_to(rerun))
                                   for f in rerun.rglob("*") if f.is_file())
            for f in files:
                assert (first / f).read_bytes() == (rerun / f).read_bytes(), (name, f)

    def test_oracle_boolean_empty_graph(self, tmp_path):
        p = write_config(
            tmp_path,
            {
                ("network", "family"): "directed-sparse",
                ("network", "edge_prob"): "0.0",
                ("reconstruction", "mode"): "oracle-boolean",
            },
        )
        metrics = run_pipeline(load_config(p), tmp_path / "o")
        assert metrics["n_recovered_edges"] == 0
        recovered = load_matrix(tmp_path / "o" / "recovered_boolean.txt")
        assert np.all(recovered.weights == 0)

    def test_oracle_undirected_and_nonreciprocal(self, tmp_path):
        p = write_config(
            tmp_path,
            {
                ("network", "family"): "nonreciprocal-ring",
                ("reconstruction", "mode"): "oracle-nonreciprocal",
            },
        )
        metrics = run_pipeline(load_config(p), tmp_path / "nr")
        assert metrics["f1"] == 1.0
        # no eigenpair on a plain ring: the oracle mode takes S_w from the
        # noise model instead, so weights come out exact
        assert metrics["input_psd_estimate"] == pytest.approx(metrics["true_input_psd"])
        assert metrics["max_abs_error"] <= 1e-8

        p2 = write_config(
            tmp_path,
            {
                ("network", "family"): "laplacian",
                ("network", "graph"): "pairs",
                ("reconstruction", "mode"): "oracle-exact-directed",
            },
        )
        metrics2 = run_pipeline(load_config(p2), tmp_path / "prs")
        assert metrics2["f1"] == 1.0
        assert metrics2["max_abs_error"] <= 1e-8

        p3 = write_config(
            tmp_path,
            {
                ("network", "family"): "symmetric",
                ("network", "edge_prob"): "0.5",
                ("reconstruction", "mode"): "oracle-undirected",
            },
        )
        out3 = tmp_path / "und"
        metrics3 = run_pipeline(load_config(p3), out3)
        assert metrics3["f1"] == 1.0
        branch = json.loads((out3 / "result.json").read_text())["undirected"]
        assert branch["flipped"] is False


class TestReconstructOnce:
    # N = 4: the full matrix and 4 grounded ones.  The eigenpair S_w is a policy on the
    # full matrix's inverse, which the route has computed, so it adds no inversion; the
    # laplacian ring has an eigenpair and no bidirectional pair, and the symmetric
    # Laplacian is read from a file
    @pytest.mark.parametrize("threshold", ["gap", "fixed"])
    @pytest.mark.parametrize("mode, family, route, inversions", [
        ("oracle-exact-directed", "laplacian", "exact_directed", 4 + 1),
        ("oracle-boolean", "directed-sparse", "boolean_directed", 4 + 1),
        ("oracle-boolean", "laplacian", "boolean_directed", 4 + 1),
        ("oracle-nonreciprocal", "nonreciprocal-ring", "nonreciprocal", 1),
        ("oracle-nonreciprocal", "laplacian", "nonreciprocal", 1),
        ("oracle-undirected", "symmetric-laplacian-file", "exact_undirected", 1),
    ])
    def test_route_runs_once_and_inverts_each_matrix_once(
        self, tmp_path, monkeypatch, threshold, mode, family, route, inversions
    ):
        import netspectra.reconstruct as rc

        calls = {"invert": 0, "route": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(rc, "estimate_inverse_cpsd",
                            counted("invert", rc.estimate_inverse_cpsd))
        monkeypatch.setattr(pl, route, counted("route", getattr(pl, route)))
        network = {("network", "family"): family}
        if family == "symmetric-laplacian-file":
            ring = np.roll(np.eye(4), 1, axis=0)
            save_matrix(tmp_path / "net.txt", laplacian_connectivity(ring + ring.T))
            network = {("network", "source"): "file",
                       ("network", "file"): str(tmp_path / "net.txt")}
        p = write_config(tmp_path, {**network, ("reconstruction", "mode"): mode,
                                    ("reconstruction", "threshold"): threshold})
        metrics = run_pipeline(load_config(p), tmp_path / "o")
        assert calls == {"invert": inversions, "route": 1}
        assert metrics["f1"] == 1.0

    def test_boolean_recovers_no_s_w(self, tmp_path):
        # the Boolean route weighs nothing, even where an eigenpair would give S_w
        p = write_config(tmp_path, _mode("oracle-boolean"))
        run_pipeline(load_config(p), tmp_path / "o")
        assert (tmp_path / "o" / "result.txt").read_text().splitlines()[3] == (
            "input_psd n/a (unused)")


def assert_report_prints_the_record(report: str, record: dict) -> None:
    """Every number ``result.txt`` prints above its matrices is ``record``'s, in the report's
    format: ``.17g`` (``nan`` for ``null``), ``str`` for S_w and the threshold, ``.6g``
    for the condition numbers."""
    lines = report.splitlines()
    at = lines.index("raw_differences")
    end = next(i for i in range(at, len(lines)) if lines[i] in ("weights", "boolean"))
    head = dict(line.split(" ", 1) for line in lines[1:at] if not line.startswith("note "))
    g17 = lambda v: "nan" if v is None else format(v, ".17g")  # noqa: E731
    s_w = "n/a" if record["input_psd"] is None else str(record["input_psd"])
    assert head.pop("mode") == record["mode"]
    assert head.pop("omega0") == g17(record["omega0"])
    assert head.pop("input_psd") == f"{s_w} ({record['input_psd_source']})"
    assert head.pop("threshold") == str(record["threshold"])
    assert head.pop("clamp_count") == str(record["clamp_count"])
    assert head.pop("suppressed_count") == str(record["suppressed_count"])
    assert head.pop("loaded") == (",".join(record["loaded"]) or "none")
    assert head == {f"condition_{name}": format(value, ".6g")
                    for name, value in record["condition_numbers"].items()}
    assert [line[5:] for line in lines[1:at] if line.startswith("note ")] == record["notes"]
    assert lines[at + 1:end] == [" ".join(map(g17, row)) for row in record["raw_differences"]]


class TestStagedArtifacts:
    # overrides of BASE_CONFIG, or of configs/reference.ini for "reference"
    EVALUATED = {
        "reference": {("simulation", "n_samples"): "32768"},
        "oracle-boolean": {("reconstruction", "mode"): "oracle-boolean",
                           ("simulation", "n_samples"): "8192"},
        # the node's dynamics read from a file (saved by the test)
        "node-file": {**SHORT, ("reconstruction", "threshold"): "gap", ("node", "preset"): "file"},
        # no eigenpair: the route has no S_w, so it writes no weights and is scored on
        # its Boolean structure
        "nonreciprocal-without-eigenpair": {**SHORT, ("reconstruction", "threshold"): "gap",
                                            ("network", "family"): "nonreciprocal-ring",
                                            ("reconstruction", "mode"): "nonreciprocal"},
        "random-laplacian": {("network", "graph"): "random", ("network", "edge_prob"): "0.5",
                             ("simulation", "n_samples"): "8192"},
    }

    @pytest.mark.parametrize("config", list(EVALUATED))
    def test_staged_evaluate_writes_the_run_metrics(self, tmp_path, config):
        overrides = dict(self.EVALUATED[config])
        if ("node", "preset") in overrides:
            save_node(tmp_path / "node.txt", NodeDynamics.scalar_pole(-2.0))
            overrides[("node", "file")] = str(tmp_path / "node.txt")
        text = BASE_CONFIG if config != "reference" else REFERENCE
        out_run, out_staged = tmp_path / "run", tmp_path / "staged"
        assert commands(tmp_path, ["run"], overrides, text=text) == [0]
        assert commands(tmp_path, STAGES, overrides, text=text, out="staged") == [0] * 5
        metrics = (out_run / "metrics.json").read_text()
        assert (out_staged / "metrics.json").read_text() == metrics
        assert {"omega0", "threshold_used", "input_psd_estimate"} <= json.loads(metrics).keys()
        # weights exactly where the route recovered S_w
        assert (out_run / "recovered_weights.txt").exists() == (
            json.loads(metrics)["input_psd_estimate"] is not None)

    # networks the grounding-free routes apply to, each with an eigenpair for S_w
    ROUTE_NETWORKS = {
        "undirected": laplacian_connectivity(0.5 * (np.roll(np.eye(4), 1, axis=0)
                                                    + np.roll(np.eye(4), -1, axis=0))),
        "nonreciprocal": ConnectivityMatrix(0.8 * np.roll(np.eye(4), 1, axis=0),
                                            eigenpair=(0.8, np.ones(4))),
    }

    @pytest.mark.parametrize("mode, omega0, workers", [
        *[pytest.param(mode, "1.5", "1", id=mode) for mode in pl.MODES],
        # auto passes over the full run once more, to choose the bin
        pytest.param("exact-directed", "auto", "2", id="auto-run-workers-2"),
        pytest.param("exact-directed", "1.5", "2", id="run-workers-2"),
    ])
    def test_staged_files_equal_the_run_files(self, tmp_path, mode, omega0, workers):
        # every file but run's config.resolved.ini, byte for byte, whatever run's --workers
        overrides = {**SHORT, ("reconstruction", "mode"): mode, ("spectral", "omega0"): omega0}
        network = self.ROUTE_NETWORKS.get(mode.replace("oracle-", ""))
        if network is not None:
            save_matrix(tmp_path / "net.txt", network)
            overrides.update({("network", "source"): "file",
                              ("network", "file"): str(tmp_path / "net.txt")})
        out_run, out_staged = tmp_path / "run", tmp_path / "staged"
        assert commands(tmp_path, ["run"], overrides, "--workers", workers) == [0]
        assert commands(tmp_path, STAGES, overrides, out="staged") == [0] * 5
        ran, staged = ({str(f.relative_to(out)) for f in out.rglob("*") if f.is_file()}
                       for out in (out_run, out_staged))
        timeseries = {name for name in staged if name.startswith("timeseries/")}
        assert bool(timeseries) != mode.startswith("oracle-")
        assert ran - {"config.resolved.ini"} == staged - timeseries
        for name in staged - timeseries:
            assert (out_run / name).read_bytes() == (out_staged / name).read_bytes(), name
        # result.txt prints the record's numbers, and evaluate reads the record alone
        record = json.loads((out_staged / "result.json").read_text())
        assert_report_prints_the_record((out_staged / "result.txt").read_text(), record)
        assert record["versions"] == {"netspectra": netspectra.__version__,
                                      "numpy": np.__version__, "scipy": scipy.__version__}
        assert ("undirected" in record) == mode.endswith("undirected")
        metrics = (out_staged / "metrics.json").read_bytes()
        (out_staged / "result.txt").unlink()
        assert commands(tmp_path, ["evaluate"], overrides, out="staged") == [0]
        assert (out_staged / "metrics.json").read_bytes() == metrics
        # one CPSD matrix per run, each with its segment count when estimated
        grounded = range(1, 5) if mode.removeprefix("oracle-") in pl.GROUNDING_ROUTES else []
        assert sorted(name for name in staged if name.startswith("spectra/cpsd_")) == [
            "spectra/cpsd_full.txt", *[f"spectra/cpsd_grounded_{j}.txt" for j in grounded]]
        info = json.loads((out_staged / "spectra" / "estimate.json").read_text())
        assert (info["segment_count"] is None) == mode.startswith("oracle-")

    def test_run_holds_no_whole_record(self, tmp_path):
        # a fixed omega0, and auto, which passes over the full run once more
        for omega0 in ("0.5", "auto"):
            p = write_config(
                tmp_path,
                {
                    ("reconstruction", "mode"): "exact-directed",
                    ("simulation", "n_samples"): str(2**20),
                    ("spectral", "omega0"): omega0,
                },
            )
            cfg = load_config(p)
            tracemalloc.start()
            try:
                run_pipeline(cfg, tmp_path / f"mem-{omega0}")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            record_bytes = cfg.network.n_nodes * cfg.sim.n_samples * 8
            assert peak < record_bytes / 4, (omega0, peak / record_bytes)

    def test_staged_commands_hold_one_record(self, tmp_path):
        p = write_config(
            tmp_path,
            {
                ("reconstruction", "mode"): "exact-directed",
                ("simulation", "n_samples"): str(2**20),
            },
        )
        cfg = load_config(p)
        out = tmp_path / "mem"
        args = ["--config", str(p), "--out", str(out), "--workers", "1"]
        assert main(["generate", *args]) == 0
        record_bytes = cfg.network.n_nodes * cfg.sim.n_samples * 8
        for cmd in ("simulate", "estimate"):
            tracemalloc.start()
            try:
                assert main([cmd, *args]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < record_bytes / 4, (cmd, peak / record_bytes)

    def test_staged_workers_give_identical_artifacts(self, tmp_path):
        overrides = {**SHORT, ("simulation", "n_samples"): "16384"}
        for w in (1, 2):
            assert commands(tmp_path, STAGES[:4], overrides, "--workers", str(w),
                            out=f"w{w}") == [0] * 4
        outs = {w: tmp_path / f"w{w}" for w in (1, 2)}
        names = sorted(
            str(f.relative_to(outs[1]))
            for pattern in ("timeseries/*.nsts", "spectra/*", "recovered_weights.txt")
            for f in outs[1].glob(pattern)
        )
        assert len(names) == 5 + 6 + 1
        for name in names:
            assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name

    def test_staged_saves_and_loads_each_record_once(self, tmp_path, monkeypatch):
        # the benchmark's spans sit on these names; each record crosses them once
        calls = {"save_timeseries": 0, "load_timeseries": 0}
        for name in calls:
            def counted(*args, _fn=getattr(pl, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(pl, name, counted)
        assert commands(tmp_path, STAGES[:3], SHORT, "--workers", "2") == [0] * 3
        assert calls == {"save_timeseries": 4 + 1, "load_timeseries": 4 + 1}

    def test_estimate_ignores_a_stray_timeseries_file(self, tmp_path):
        assert commands(tmp_path, ["generate", "simulate"], SHORT) == [0, 0]
        (tmp_path / "run" / "timeseries" / "grounded_x.nsts").write_bytes(b"")
        assert commands(tmp_path, ["estimate"], SHORT) == [0]

    def test_non_grounding_mode_estimates_only_the_full_run(self, tmp_path, monkeypatch):
        # simulate leaves the grounded runs behind
        assert commands(tmp_path, ["generate", "simulate"], SHORT) == [0, 0]
        loads = []

        def counted(path, *args, _fn=pl.load_timeseries):
            loads.append(Path(path).name)
            return _fn(path, *args)

        monkeypatch.setattr(pl, "load_timeseries", counted)
        nonreciprocal = {**SHORT, ("reconstruction", "mode"): "nonreciprocal"}
        assert commands(tmp_path, ["estimate"], nonreciprocal) == [0]
        assert loads == ["full.nsts"]
        assert sorted(f.name for f in (tmp_path / "run" / "spectra").iterdir()) == [
            "cpsd_full.txt", "estimate.json"]
        assert commands(tmp_path, ["reconstruct"], nonreciprocal) == [0]

    @pytest.mark.parametrize("key, value", [("dt", "0.005"), ("n_samples", "4096")])
    def test_estimate_refuses_a_run_of_another_config(self, tmp_path, capsys, key, value):
        # the header of each saved run must be the run the config describes
        assert commands(tmp_path, ["generate", "simulate"], SHORT) == [0, 0]
        assert commands(tmp_path, ["estimate"], {**SHORT, ("simulation", key): value}) == [2]
        assert "not the run's" in capsys.readouterr().err
        assert not (tmp_path / "run" / "spectra").exists()

    def test_estimate_needs_every_grounded_run(self, tmp_path, capsys):
        assert commands(tmp_path, ["generate", "simulate"], SHORT) == [0, 0]
        (tmp_path / "run" / "timeseries" / "grounded_3.nsts").unlink()
        assert commands(tmp_path, ["estimate"], SHORT) == [2]
        assert "grounded_3.nsts" in capsys.readouterr().err

    def test_estimate_requires_saved_runs(self, tmp_path):
        assert commands(tmp_path, ["estimate"]) == [2]

    @pytest.mark.parametrize("mode, omega0", [("exact-directed", "0.5"),
                                              ("oracle-exact-directed", "0.5"),
                                              ("exact-directed", "auto")],
                             ids=["exact-directed", "oracle-exact-directed", "auto"])
    def test_estimate_records_snap_distance(self, tmp_path, mode, omega0):
        # reference spectral settings: 0.5 snaps to bin 3 of 4096 samples at dt = 0.01,
        # 0.46019, a snap distance of 0.0398; the oracle takes 0.5 exactly; under
        # auto no frequency was requested, so there is no distance to report
        overrides = {("reconstruction", "mode"): mode, ("simulation", "n_samples"): "20480",
                     ("spectral", "segment_length"): "4096", ("spectral", "omega0"): omega0}
        assert commands(tmp_path, STAGES[:3], overrides) == [0] * 3
        info = json.loads((tmp_path / "run" / "spectra" / "estimate.json").read_text())
        if omega0 == "auto":
            assert info["omega0_requested"] == "auto"
            assert info["snap_distance"] is None
            k = info["omega0"] / (2 * np.pi / (4096 * 0.01))
            assert k == pytest.approx(round(k)) and round(k) >= 1
            return
        snapped = 0.5 if mode.startswith("oracle-") else 3 * 2 * np.pi / (4096 * 0.01)
        assert info["omega0_requested"] == 0.5
        assert info["omega0"] == pytest.approx(snapped)
        assert info["snap_distance"] == pytest.approx(0.5 - snapped)
        assert (info["snap_distance"] == 0.0) == mode.startswith("oracle-")

    def test_truncated_timeseries_exit_code(self, tmp_path):
        exact = _mode("exact-directed")
        assert commands(tmp_path, ["generate", "simulate"], exact) == [0, 0]
        full = tmp_path / "run" / "timeseries" / "full.nsts"
        full.write_bytes(full.read_bytes()[:-8])
        assert commands(tmp_path, ["estimate"], exact) == [2]

    def test_estimate_refuses_a_channel_major_record(self, tmp_path, capsys):
        # NSTS0001, the format before, held each channel's samples in turn
        assert commands(tmp_path, ["generate", "simulate"], SHORT) == [0, 0]
        full = tmp_path / "run" / "timeseries" / "full.nsts"
        labels = sim.channel_labels(4)
        data = sim.load_timeseries(full, labels, 8192, 0.01).data
        full.write_bytes(b"NSTS0001" + struct.pack("<IQd4I", 4, 8192, 0.01, *labels)
                         + data.astype("<f8").tobytes())
        capsys.readouterr()
        assert commands(tmp_path, ["estimate"], SHORT) == [2]
        assert "NSTS0001" in capsys.readouterr().err
        assert not (tmp_path / "run" / "spectra").exists()

    def test_run_reads_the_run_directory_after_estimating(self, tmp_path, monkeypatch):
        # reconstruct loads its spectra and evaluate its inputs as the staged commands
        # do; reconstruct takes the truth run admitted
        calls = {"load_saved_truth": 0, "load_saved_spectra": 0}
        for name in calls:
            def counted(*args, _fn=getattr(pl, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(pl, name, counted)
        run_pipeline(load_config(write_config(tmp_path, SHORT)), tmp_path / "run")
        assert calls == {"load_saved_truth": 1, "load_saved_spectra": 1}

    def test_seed_override(self, tmp_path):
        p = write_config(
            tmp_path,
            {("network", "family"): "directed-sparse", ("reconstruction", "mode"): "oracle-boolean"},
        )
        main(["run", "--config", str(p), "--out", str(tmp_path / "s1"), "--seed-override", "5"])
        main(["run", "--config", str(p), "--out", str(tmp_path / "s2"), "--seed-override", "6"])
        a = (tmp_path / "s1" / "network.txt").read_bytes()
        b = (tmp_path / "s2" / "network.txt").read_bytes()
        assert a != b


class TestNonreciprocalGap:
    def test_gap_reads_only_the_positive_skew(self, tmp_path):
        # the skew statistic is antisymmetric: its negative half mirrors the
        # edges, so the gap policy must not take it for a noise sample
        # (with it, this run's threshold was 98.0 and F1 0.286)
        ring = ConnectivityMatrix(0.8 * np.roll(np.eye(6), 1, axis=0),
                                  eigenpair=(0.8, np.ones(6)))
        net = tmp_path / "ring.txt"
        save_matrix(net, ring)
        p = reference_config(tmp_path, {("network", "source"): "file",
                                        ("network", "file"): str(net),
                                        ("reconstruction", "mode"): "nonreciprocal"})
        metrics = run_pipeline(load_config(p), tmp_path / "nr")
        assert metrics["threshold_used"] == pytest.approx(32.9, abs=0.05)
        assert metrics["f1"] == 1.0


def worst_relative_edge_error(truth, recovered) -> float:
    edges = (truth.weights != 0) & ~np.eye(truth.n_nodes, dtype=bool)
    return float(np.max(np.abs(recovered.weights[edges] / truth.weights[edges] - 1.0)))


class TestEmpiricalRecovery:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_undirected_route_recovers_a_symmetric_ring(self, tmp_path, seed):
        # one simulation, no grounding: edges are the off-diagonal weights
        # above the gap threshold, and the Laplacian diagonal is kept
        adjacency = np.roll(np.eye(6), 1, axis=0)
        ring = laplacian_connectivity(adjacency + adjacency.T)
        save_matrix(tmp_path / "ring.txt", ring)
        p = reference_config(tmp_path, {("network", "source"): "file",
                                        ("network", "file"): str(tmp_path / "ring.txt"),
                                        ("reconstruction", "mode"): "undirected"})
        out = tmp_path / "und"
        assert main(["run", "--config", str(p), "--out", str(out),
                     "--seed-override", str(seed)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        recovered = load_matrix(out / "recovered_weights.txt")
        assert metrics["f1"] == 1.0
        assert worst_relative_edge_error(ring, recovered) <= 0.15
        assert np.abs(np.diag(recovered.weights) + 2.0).max() <= 0.3
        report = (out / "result.txt").read_text().splitlines()
        at = report.index("raw_differences") + 1
        raw = np.array([[float(v) for v in line.split()] for line in report[at:at + 6]])
        gap = pl.threshold_heuristic(raw[np.isfinite(raw)], fallback_tau=1e-6)
        assert metrics["threshold_used"] == gap != 1e-6
        branch = json.loads((out / "result.json").read_text())["undirected"]
        assert branch["flipped"] is False
        assert 0.0 < branch["skew"] < 0.2  # recorded, not judged

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exact_directed_recovers_under_lowpass_input_noise(self, tmp_path, seed):
        # the input PSD is unknown to the method: at omega0 = 0.5 this one is
        # about a quarter of the unshaped level
        p = reference_config(tmp_path, {("noise", "shaping"): "lowpass",
                                        ("noise", "shaping_pole"): "-2.0"})
        cfg = pl.apply_seed_override(load_config(p), seed)
        out = tmp_path / "lp"
        metrics = run_pipeline(cfg, out)
        truth, recovered = (load_matrix(out / name)
                            for name in ("network.txt", "recovered_weights.txt"))
        model = cfg.noise.input_psd_model(cfg.sim.dt)(metrics["omega0"])
        assert metrics["f1"] == 1.0
        assert worst_relative_edge_error(truth, recovered) <= 0.10
        assert abs(metrics["input_psd_estimate"] / model - 1.0) <= 0.10

    def test_oracle_undirected_rejects_a_directed_network(self, tmp_path, capsys):
        p = reference_config(tmp_path, _mode("oracle-undirected"))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
        assert "inconsistent with a symmetric network" in capsys.readouterr().err


class TestUndirectedSymmetry:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_undirected_refuses_the_directed_reference_network(self, tmp_path, capsys, seed):
        # this run once exited 0 with F1 0.667: the route assumed the symmetry
        # it now tests, and the reference network's estimate reads T near 300
        # on 15 degrees of freedom
        p = reference_config(tmp_path, _mode("undirected"))
        out = tmp_path / "und"
        assert main(["run", "--config", str(p), "--out", str(out),
                     "--seed-override", str(seed)]) == 3
        assert re.search(r"symmetry test: T = .* p = \S+ < 0\.01", capsys.readouterr().err)
        assert not (out / "result.json").exists()
        assert not (out / "metrics.json").exists()

    def test_symmetric_ring_records_its_statistic(self, tmp_path):
        from scipy.special import chdtrc

        adjacency = np.roll(np.eye(6), 1, axis=0)
        save_matrix(tmp_path / "ring.txt", laplacian_connectivity(adjacency + adjacency.T))
        p = reference_config(tmp_path, {("network", "source"): "file",
                                        ("network", "file"): str(tmp_path / "ring.txt"),
                                        ("simulation", "n_samples"): "65536",
                                        ("reconstruction", "mode"): "undirected"})
        run_pipeline(load_config(p), tmp_path / "und")
        branch = json.loads((tmp_path / "und" / "result.json").read_text())["undirected"]
        assert branch["symmetry_p"] == pytest.approx(chdtrc(15, branch["symmetry_chi2"]),
                                                     rel=1e-12)
        assert branch["symmetry_p"] >= 0.01

    def test_symmetric_ring_refusal_rate_with_the_pipelines_k_eff(self, tmp_path):
        # 60 runs of K = 15 overlapping hann segments (K_eff = 14.26) at the
        # reference omega0 (bin 3): T should be chi-square on 15 degrees of
        # freedom, so about 0.6 refusals (4 or more has probability 0.003) and a
        # mean T of 15 +- 0.71; a K_eff off by a quarter moves the mean by 3.7
        adjacency = np.roll(np.eye(6), 1, axis=0)
        save_matrix(tmp_path / "ring.txt", laplacian_connectivity(adjacency + adjacency.T))
        p = reference_config(tmp_path, {("network", "source"): "file",
                                        ("network", "file"): str(tmp_path / "ring.txt"),
                                        ("simulation", "n_samples"): "32768",
                                        ("reconstruction", "mode"): "undirected"})
        cfg, out = load_config(p), tmp_path / "und"
        stats, refused = [], 0
        for seed in range(1, 61):
            try:
                run_pipeline(pl.apply_seed_override(cfg, seed), out)
            except NumericalError as exc:
                stats.append(float(re.search(r"T = (\S+)", str(exc)).group(1)))
                refused += 1
                continue
            record = json.loads((out / "result.json").read_text())
            stats.append(record["undirected"]["symmetry_chi2"])
        info = json.loads((out / "spectra" / "estimate.json").read_text())
        assert info["segment_count"] == 15
        assert refused <= 3
        assert abs(np.mean(stats) - 15.0) <= 2.1


class TestEvaluateScoresTheWrittenRecovery:
    """``evaluate`` scores the recovery ``result.txt`` names, its edges as written."""

    # the grounding statistic reads about 25 / S_w = 2500 on the reference's edges, whose
    # weights are 5: evaluate once took tau = 100 as its edge tolerance too, and read
    # F1 1.0 with no true edge
    FIXED_TAU = {("reconstruction", "threshold"): "fixed", ("reconstruction", "tau"): "100"}

    @pytest.mark.parametrize("mode, overrides", [(mode, {}) for mode in pl.MODES]
                             + [("exact-directed", FIXED_TAU)],
                             ids=[*pl.MODES, "exact-directed-tau-100"])
    def test_metrics_count_the_edges_as_written(self, tmp_path, mode, overrides):
        if mode.endswith("undirected"):  # the directed reference network fails its test
            ring = np.roll(np.eye(6), 1, axis=0)
            save_matrix(tmp_path / "ring.txt", laplacian_connectivity(ring + ring.T))
            overrides = {("network", "source"): "file",
                         ("network", "file"): str(tmp_path / "ring.txt")}
        out = tmp_path / "run"
        assert commands(tmp_path, ["run"], {**REFERENCE_L16, **overrides,
                                            ("reconstruction", "mode"): mode},
                        text=REFERENCE) == [0]
        metrics = json.loads((out / "metrics.json").read_text())
        off = ~np.eye(6, dtype=bool)
        recovered, truth = (load_matrix(out / name).weights[off]
                            for name in ("recovered_boolean.txt", "network.txt"))
        assert metrics["n_recovered_edges"] == np.count_nonzero(recovered)
        assert metrics["n_true_edges"] == np.count_nonzero(truth)
        if overrides == self.FIXED_TAU:
            assert (metrics["n_true_edges"], metrics["n_recovered_edges"]) == (3, 16)
            assert metrics["f1"] == pytest.approx(6 / 19)


# Sequences of commands into one run directory that once read or scored another
# config's artifacts: (config text, its overrides, steps, what is left).  A step is
# (overrides, --seed-override or None, commands, exit codes).  What is left maps a
# folder of the run directory ("." for itself) to the names in it, "metrics.json"
# to values it holds or to the step whose metrics.json it still is, and "err" to
# what the last step printed.
_SEQUENCES = {
    # once all exited 0 and scored F1 0.429 from the seed-2 full record and the
    # seed-1 grounded records
    "simulate-leaves-no-grounded-run-of-another-seed": (REFERENCE, REFERENCE_L16, [
        ({}, 1, ["generate", "simulate"], [0, 0]),
        (_mode("nonreciprocal"), 2, ["simulate"], [0]),
        (_mode("boolean"), 2, ["estimate", "reconstruct", "evaluate"], [2, 2, 2]),
    ], {"timeseries": ["full.nsts"]}),
    # a run's grounded spectra were once paired with a later estimate's full one
    "estimate-leaves-no-grounded-spectra-of-another-seed": (REFERENCE, REFERENCE_L16, [
        ({}, 1, ["run"], [0]),
        (_mode("nonreciprocal"), 2, ["simulate", "estimate"], [0, 0]),
        (_mode("boolean"), 2, ["reconstruct"], [2]),
    ], {"spectra": ["cpsd_full.txt", "estimate.json"]}),
    "an-oracle-simulate-removes-the-saved-runs": (REFERENCE, REFERENCE_L16, [
        ({}, 1, ["generate", "simulate"], [0, 0]),
        (_mode("oracle-boolean"), 1, ["simulate"], [0]),
        (_mode("boolean"), 1, ["estimate"], [2]),
    ], {".": ["network.txt", "node.txt"]}),
    # evaluate once scored the seed-1 run's recovery here
    "a-failed-reconstruct-after-a-run-leaves-nothing-to-evaluate": (BASE_CONFIG, SHORT, [
        ({}, 1, ["run"], [0]),
        (_mode("nonreciprocal"), 2, ["simulate", "estimate"], [0, 0]),
        (_mode("boolean"), 2, ["reconstruct", "evaluate"], [2, 2]),
    ], {".": ["network.txt", "node.txt", "spectra", "timeseries"]}),
    # evaluate once scored the seed-1 recovery against the seed-2 network
    "generate-leaves-no-recovery-of-the-old-network": (BASE_CONFIG, SHORT, [
        ({}, 1, STAGES, [0] * 5),
        ({}, 2, ["generate"], [0]),
        ({}, 2, ["reconstruct", "evaluate"], [2, 2]),
    ], {".": ["network.txt", "node.txt"]}),
    # a later staged estimate once read the seed-1 records beside the seed-2 run
    "run-leaves-no-staged-records": (BASE_CONFIG, SHORT, [
        ({}, 1, ["generate", "simulate"], [0, 0]),
        ({}, 2, ["run"], [0]),
        ({}, 2, ["estimate", "reconstruct", "evaluate"], [2, 0, 0]),
    ], {".": ["metrics.json", "network.txt", "node.txt", "recovered_boolean.txt",
              "recovered_weights.txt", "result.json", "result.txt", "spectra"],
        "metrics.json": 1}),
    # the records are 8192 samples long; an estimate of 16384 fails on their header,
    # and reconstruct and evaluate once scored the spectra it left
    "a-failed-estimate-leaves-no-spectra": (BASE_CONFIG, SHORT, [
        ({}, 1, STAGES, [0] * 5),
        ({("simulation", "n_samples"): "16384"}, 1, ["estimate", "reconstruct", "evaluate"],
         [2, 2, 2]),
    ], {".": ["network.txt", "node.txt", "timeseries"]}),
    # a boolean recovery in an exact-directed run's directory was once scored on the
    # weights left there: max_abs_error 5.0, rms_error 4.10
    "a-route-switch-scores-no-stale-weights": (REFERENCE, REFERENCE_L16, [
        ({}, None, ["run"], [0]),
        (_mode("boolean"), None, ["reconstruct", "evaluate"], [0, 0]),
    ], {".": ["metrics.json", "network.txt", "node.txt", "recovered_boolean.txt", "result.json",
              "result.txt", "spectra"],
        "metrics.json": {"max_abs_error": None, "rms_error": None}}),
    # the directed reference network fails the undirected symmetry test (exit 3);
    # evaluate once scored the earlier run's recovery and exited 0
    "a-failed-reconstruction-leaves-nothing-to-evaluate": (REFERENCE, REFERENCE_L16, [
        ({}, None, ["run"], [0]),
        (_mode("undirected"), None, ["run"], [3]),
        (_mode("undirected"), None, ["evaluate"], [2]),
    ], {".": ["network.txt", "node.txt", "spectra"], "err": "run reconstruct first"}),
}


class TestArtifactTable:
    """Once its refusals pass, a stage replaces its own files and every later stage's
    (``pl._ARTIFACTS``), and no file the table does not list."""

    # config A: SHORT with one change, and the flags A's commands take
    CHANGES = {
        "seed": ({}, ["--seed-override", "2"]),
        "mode": (_mode("boolean"), []),
        "n_samples": ({("simulation", "n_samples"): "16384"}, []),
    }
    UNLISTED = ("exp.ini", "notes.txt", "bench.csv", "extra/keep.txt")

    @staticmethod
    def _files(out) -> dict:
        return {str(f.relative_to(out)): f.read_bytes() for f in out.rglob("*") if f.is_file()}

    @pytest.mark.parametrize("change", list(CHANGES))
    @pytest.mark.parametrize("stage", STAGES)
    def test_a_stage_leaves_what_it_would_after_the_earlier_stages_alone(
            self, tmp_path, stage, change):
        # A's stage over SHORT's complete staged run must leave the directory it leaves
        # after SHORT's earlier stages alone: none of SHORT's files from this stage on
        overrides, flags = self.CHANGES[change]
        a, earlier = {**SHORT, **overrides}, STAGES[:STAGES.index(stage)]
        assert commands(tmp_path, STAGES, SHORT, out="over") == [0] * 5
        assert commands(tmp_path, earlier, SHORT, out="fresh") == [0] * len(earlier)
        assert commands(tmp_path, [stage], a, *flags, out="over") == commands(
            tmp_path, [stage], a, *flags, out="fresh")
        assert self._files(tmp_path / "over") == self._files(tmp_path / "fresh")

    @pytest.mark.parametrize("stage", STAGES)
    def test_only_run_leaves_a_resolved_config(self, tmp_path, stage):
        out = tmp_path / "run"
        assert commands(tmp_path, ["run"], SHORT) == [0]
        ran = self._files(out)
        code, = commands(tmp_path, [stage], SHORT, "--seed-override", "2")
        if stage == "estimate":  # run writes no timeseries/: estimate refuses, removing nothing
            assert code == 2 and self._files(out) == ran
        else:
            assert code == 0
            assert not (out / "config.resolved.ini").exists()

    def test_unlisted_files_survive_every_command(self, tmp_path):
        out = tmp_path / "run"
        (out / "extra").mkdir(parents=True)
        p = str(write_config(out, SHORT))  # exp.ini, in the run directory
        for name in self.UNLISTED[1:]:
            (out / name).write_text(f"{name}\n")
        kept = {name: (out / name).read_bytes() for name in self.UNLISTED}
        for cmd in ("run", *STAGES, "run"):
            assert main([cmd, "--config", p, "--out", str(out)]) == 0
            assert {name: (out / name).read_bytes() for name in self.UNLISTED} == kept, cmd

    LISTED = ("network.txt", "node.txt", "timeseries", "spectra", "result.txt",
              "recovered_boolean.txt", "recovered_weights.txt", "result.json",
              "metrics.json", "config.resolved.ini")
    # how many of LISTED the stages before each one write
    KEPT = {"generate": 0, "simulate": 2, "estimate": 3, "reconstruct": 4, "evaluate": 8, "run": 9}

    @pytest.mark.parametrize("stage", list(KEPT))
    def test_replace_from_removes_the_stage_and_every_later_one_only(self, tmp_path, stage):
        out = tmp_path / "run"
        (out / "extra").mkdir(parents=True)
        for name in self.LISTED + self.UNLISTED:
            if name in ("timeseries", "spectra"):
                (out / name).mkdir()
                (out / name / "x.txt").write_text("x\n")
            else:
                (out / name).write_text(f"{name}\n")
        pl._replace_from(out, stage)
        left = {str(f.relative_to(out)) for f in out.rglob("*") if f.is_file()}
        kept = {f"{name}/x.txt" if name in ("timeseries", "spectra") else name
                for name in self.LISTED[:self.KEPT[stage]]}
        assert left == kept | set(self.UNLISTED)

    def test_a_linked_directory_goes_but_not_what_it_points_to(self, tmp_path):
        # rmtree refuses a link, which once made simulate exit with a traceback
        (tmp_path / "store").mkdir()
        (tmp_path / "store" / "full.nsts").write_text("kept\n")
        assert commands(tmp_path, ["generate"], SHORT) == [0]
        (tmp_path / "run" / "timeseries").symlink_to(tmp_path / "store", target_is_directory=True)
        assert commands(tmp_path, ["simulate"], SHORT) == [0]
        assert not (tmp_path / "run" / "timeseries").is_symlink()
        assert (tmp_path / "store" / "full.nsts").read_text() == "kept\n"

    @pytest.mark.parametrize("removed, cmd, stage", [
        ("node.txt", "simulate", "generate"),
        ("timeseries/full.nsts", "estimate", "simulate"),
        ("spectra/cpsd_grounded_2.txt", "reconstruct", "estimate"),
        ("spectra/estimate.json", "evaluate", "estimate"),
        ("recovered_weights.txt", "evaluate", "reconstruct"),
    ])
    def test_a_missing_input_names_the_stage_that_writes_it(self, tmp_path, capsys, removed,
                                                           cmd, stage):
        assert commands(tmp_path, STAGES, SHORT) == [0] * 5
        (tmp_path / "run" / removed).unlink()
        capsys.readouterr()
        assert commands(tmp_path, [cmd], SHORT) == [2]
        assert f"; run {stage} first" in capsys.readouterr().err

    @pytest.mark.parametrize("row", list(_SEQUENCES))
    def test_no_command_reads_another_configs_artifacts(self, tmp_path, capsys, row):
        text, base, steps, left = _SEQUENCES[row]
        out, metrics = tmp_path / "run", []
        for overrides, seed, cmds, codes in steps:
            flags = [] if seed is None else ["--seed-override", str(seed)]
            capsys.readouterr()
            assert commands(tmp_path, cmds, {**base, **overrides}, *flags, text=text) == codes
            metrics.append((out / "metrics.json").exists() and (out / "metrics.json").read_text())
        for name, want in left.items():
            if name == "err":
                assert want in capsys.readouterr().err
            elif name == "metrics.json" and isinstance(want, int):
                assert (out / name).read_text() == metrics[want]
            elif name == "metrics.json":
                got = json.loads((out / name).read_text())
                assert {key: got[key] for key in want} == want
            else:
                assert sorted(path.name for path in (out / name).iterdir()) == want


class TestBenchmarkTracing:
    def test_traced_names_resolve(self, monkeypatch):
        # the benchmark's traced runs wrap these names; a missing one crashes them
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
        spec.loader.exec_module(tracing)
        import netspectra.cli
        import netspectra.reconstruct

        modules = {"pipeline": pl, "cli": netspectra.cli, "reconstruct": netspectra.reconstruct}
        for module, attr, _, _ in tracing.TARGETS:
            assert callable(getattr(modules[module], attr, None)), f"{module}.{attr}"


def _record_with(record: dict, key: str, value=KeyError) -> str:
    """``record`` as JSON text with ``key`` set to ``value``, or without ``key``."""
    record = {k: v for k, v in record.items() if k != key}
    if value is not KeyError:
        record[key] = value
    return json.dumps(record)


class TestCliErrors:
    def test_config_error_exit_code(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[netwrk]\nn_nodes = 4\n")
        assert main(["run", "--config", str(p)]) == 2

    @pytest.mark.parametrize("text", [
        b"[network]\nseed = 1\n[network]\n",
        b"[network]\nseed = 1\nseed = 2\n",
        b"seed = 1\n[network]\n",
        b"[network]\nseed\n",
        b"[network]\nfamily = \xff\n",
    ], ids=["duplicate-section", "duplicate-key", "key-before-section", "no-equals", "non-utf8"])
    def test_malformed_ini_exit_code(self, tmp_path, capsys, text):
        p, out = tmp_path / "bad.ini", tmp_path / "m"
        p.write_bytes(text)
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("section, key, message", [
        ("spectral", "omega0", "[spectral] omega0 = 'x': "),
        # every run starts stationary, so no key sets a burn-in
        ("simulation", "burn_in", "unknown key 'burn_in' in section [simulation]"),
        ("noise", "shaping_pole", "[noise] shaping_pole = 'x': "),
    ], ids=["spectral-omega0", "simulation-burn_in", "noise-shaping_pole"])
    def test_malformed_value_exit_code(self, tmp_path, capsys, section, key, message):
        p = write_config(tmp_path, {(section, key): "x"})
        assert main(["generate", "--config", str(p), "--out", str(tmp_path / "g")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_a_nearly_marginal_network_runs(self, tmp_path):
        # at node pole -1e-6 a start from 0 needs about 1e9 samples to forget itself, and the
        # run was refused (exit 3); from a stationary start it runs as any other
        assert commands(tmp_path, ["run"], {**REFERENCE_L16, ("node", "pole"): "-1e-6"},
                        text=REFERENCE) == [0]

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section, key", [
        (section, key) for section, key, _, kind, _ in pl._KEYS if kind is pl._finite
    ] + [("spectral", "omega0")])
    def test_non_finite_float_exit_code(self, tmp_path, capsys, section, key, text):
        # a stage handed nan fails late or not at all (tau = nan reports no edges)
        p, out = reference_config(tmp_path, {(section, key): text}), tmp_path / "f"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: [{section}] {key} = '{text}': ")

    @pytest.mark.parametrize("command", [
        ["run"], ["bench", "--sweep", "6:16384", "--repeats", "1"],
        ["bench", "--sweep", "6:16384", "--repeats", "1", "--cost-model", "paper"],
    ], ids=["run", "bench", "bench-paper"])
    def test_negative_omega0_exit_code(self, tmp_path, capsys, command):
        # -0.5 once ran: estimates at +0.46, while paper and the oracles took -0.5
        p, out = reference_config(tmp_path, {("spectral", "omega0"): "-0.5"}), tmp_path / "o"
        assert main([*command, "--config", str(p), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: [spectral] omega0 = '-0.5': ")

    @pytest.mark.parametrize("section, override", [
        ("noise", None), ("network", None), (None, "-3"),
    ])
    def test_negative_seed_exit_code(self, tmp_path, capsys, section, override):
        p = write_config(tmp_path, {(section, "seed"): "-1"} if section else {})
        args = ["--config", str(p), "--out", str(tmp_path / "g")]
        if override:
            args += ["--seed-override", override]
        assert main(["run", *args]) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["exact-directed", "oracle-exact-directed"])
    @pytest.mark.parametrize("command", ["simulate", "estimate", "reconstruct", "evaluate"])
    def test_staged_command_needs_the_generated_truth(self, tmp_path, capsys, command, mode):
        (tmp_path / "run").mkdir()
        assert commands(tmp_path, [command], _mode(mode)) == [2]
        assert list((tmp_path / "run").iterdir()) == []
        assert "network.txt, node.txt" in capsys.readouterr().err

    # only bench reads the cost model: no other command's output may depend
    # on a flag that config.resolved.ini does not hold
    @pytest.mark.parametrize("command", ["generate", "simulate", "estimate", "reconstruct",
                                         "evaluate", "run"])
    def test_cost_model_is_read_only_where_spectra_are_estimated(self, tmp_path, command):
        p = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(p), "--out", str(tmp_path / "c"),
                  "--cost-model", "paper"])
        assert exc.value.code == 2
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--workers", "-3"],
        ["simulate", "--workers", "0"],
        ["bench", "--sweep", "4:1024", "--repeats", "0"],
    ])
    def test_counts_below_one_exit_code(self, tmp_path, capsys, argv):
        p, out = write_config(tmp_path), tmp_path / "w"
        assert main([*argv, "--config", str(p), "--out", str(out)]) == 2
        assert not out.exists()
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep", ["0:1024", "1:1024", "-2:1024", "4:1024,4:1"])
    def test_sweep_pairs_below_two_exit_code(self, tmp_path, capsys, sweep):
        p, out = write_config(tmp_path), tmp_path / "w"
        assert main(["bench", f"--sweep={sweep}", "--config", str(p), "--out", str(out)]) == 2
        assert not out.exists()
        assert "N and L must be at least 2" in capsys.readouterr().err

    # result.json read back is outside input: each row rewrites the record reconstruct
    # wrote (None removes it), and gives evaluate's exit code and what it prints
    READ_BACK = {
        "no-record": (lambda record: None, 2, "no saved result.json"),
        "not-json": (lambda record: "omega0 0.5\n", 2, "result.json: JSONDecodeError"),
        **{f"no-{key}": (functools.partial(_record_with, key=key), 2, f"KeyError: '{key}'")
           for key in ("omega0", "input_psd", "threshold")},
        **{f"{key}-{kind}": (functools.partial(_record_with, key=key, value=value), 2,
                             f"{key} {value!r} is not a finite number")
           for key, kind, value in [("omega0", "text", "0.5"), ("threshold", "bool", True),
                                    ("input_psd", "list", [0.01])]},
        # json.loads takes NaN and Infinity
        **{f"{key}-{text}": (functools.partial(_record_with, key=key, value=float(text)), 2,
                             f"{key} {float(text)!r} is not a finite number")
           for key in ("omega0", "input_psd", "threshold") for text in ("nan", "inf", "-inf")},
        # no S_w: scored on the Boolean structure
        "input_psd-null": (functools.partial(_record_with, key="input_psd", value=None), 0, ""),
    }

    @pytest.mark.parametrize("row", list(READ_BACK))
    def test_evaluate_needs_a_readable_report(self, tmp_path, capsys, row):
        edit, code, message = self.READ_BACK[row]
        assert commands(tmp_path, ["generate", "estimate", "reconstruct"]) == [0, 0, 0]
        path = tmp_path / "run" / "result.json"
        text = edit(json.loads(path.read_text()))
        path.unlink() if text is None else path.write_text(text)
        capsys.readouterr()
        assert commands(tmp_path, ["evaluate"]) == [code]
        assert message in capsys.readouterr().err
        assert (tmp_path / "run" / "metrics.json").exists() == (code == 0)

    @pytest.mark.parametrize("overrides, message", [
        # once a ValueError traceback from the weight draw of every family but directed-sparse
        *[({("network", "family"): family, ("network", "weight_min"): "2.0",
            ("network", "weight_max"): "1.0"}, "0 <= weight_min <= weight_max")
          for family in ("symmetric", "laplacian", "nonreciprocal-ring", "directed-sparse")],
        # once an empty graph, scored F1 1.0
        *[({("network", "family"): family, ("network", "graph"): "random",
            ("network", "edge_prob"): "-0.5"}, "edge_prob must lie in")
          for family in ("laplacian", "directed-sparse")],
    ], ids=["weight-range", "weight-range-laplacian", "weight-range-nonreciprocal-ring",
            "weight-range-directed-sparse", "edge-prob", "edge-prob-directed-sparse"])
    def test_out_of_range_network_exit_code(self, tmp_path, capsys, overrides, message):
        assert commands(tmp_path, ["run"], overrides) == [2]
        assert not (tmp_path / "run").exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, out, overrides", [
        ("generate", "taken.txt", {}),
        ("run", "taken.txt", {}),
        ("run", "o", {("node", "preset"): "file", ("node", "file"): str(Path(__file__).parent)}),
    ], ids=["generate-out-is-a-file", "run-out-is-a-file", "node-file-is-a-directory"])
    def test_a_path_the_os_refuses_exit_code(self, tmp_path, capsys, command, out, overrides):
        (tmp_path / "taken.txt").write_text("kept\n")
        assert commands(tmp_path, [command], overrides, out=out) == [2]
        assert capsys.readouterr().err.startswith("error: ")
        assert (tmp_path / "taken.txt").read_text() == "kept\n"
        assert not (tmp_path / "o").exists()


class TestSegmentsPerChannel:
    """A CPSD of K <= N segments has an inverse with no finite mean: every command refuses it
    (the ``k-below-n`` and ``k-at-n`` rows of ``_REFUSALS``).

    On ``configs/reference.ini`` (N = 6, 4096-sample hann segments at 50%
    overlap) 12288 samples give K = 5, 14336 give K = 6 and 16384 give K = 7.
    Once such runs exited 0 with S_w of 3.3e-11 or 6.0e-7 against 0.0100.
    """

    def test_bench_refuses_before_timing(self, tmp_path, capsys, no_simulation):
        # every point is built, and checked, before the first one is timed
        p, out = reference_config(tmp_path), tmp_path / "b"
        assert main(["bench", "--config", str(p), "--out", str(out),
                     "--sweep", "6:16384,6:14336", "--repeats", "1"]) == 2
        assert not out.exists()
        assert "K = 6 segments" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["b", "b/sub"])
    def test_bench_refuses_an_out_under_a_file_before_timing(self, tmp_path, capsys,
                                                              no_simulation, out):
        p = reference_config(tmp_path)
        (tmp_path / "b").write_text("kept\n")
        assert main(["bench", "--config", str(p), "--out", str(tmp_path / out),
                     "--sweep", "6:1048576", "--repeats", "1"]) == 2
        assert "not a directory" in capsys.readouterr().err
        assert (tmp_path / "b").read_text() == "kept\n"

    def test_one_segment_more_than_nodes_runs_and_records_its_margin(self, tmp_path):
        p = reference_config(tmp_path, {("simulation", "n_samples"): "16384"})
        out = tmp_path / "k"
        with pytest.warns(UserWarning, match="only 7 segments"):
            assert main(["run", "--config", str(p), "--out", str(out)]) == 0
        info = json.loads((out / "spectra" / "estimate.json").read_text())
        k_eff = 7 / (1 + 2 * (1 - 1 / 7) / 36)  # hann at 50% overlap (Welch 1967)
        assert info["segment_count"] == 7
        assert info["effective_segment_count"] == pytest.approx(k_eff, rel=1e-12)
        assert info["inverse_inflation"] == pytest.approx(k_eff / (k_eff - 6), rel=1e-12)
        assert json.loads((out / "result.json").read_text())["omega0"] == info["omega0"]

    def test_inflation_is_null_where_it_is_not_finite(self, tmp_path):
        # rectangular 1024-sample segments at 50% overlap: 8192 samples give K = 15,
        # and neighbours share half their samples, so K_eff = 15 / (1 + 2 (14/15) / 4)
        # = 225/22; the inflation is null once N reaches K_eff, and for analytic spectra
        k_eff = 225 / 22
        for n_nodes, mode, inflation in [(3, "undirected", k_eff / (k_eff - 3)),
                                         (12, "undirected", None),
                                         (3, "oracle-undirected", None)]:
            cfg = load_config(write_config(tmp_path, {("network", "n_nodes"): str(n_nodes),
                                                      ("simulation", "n_samples"): "8192",
                                                      ("spectral", "window"): "rectangular",
                                                      ("reconstruction", "mode"): mode}))
            out = tmp_path / f"{mode}-{n_nodes}"
            truth, node = pl.stage_generate(cfg, out)
            if mode.startswith("oracle-"):
                info = pl.stage_oracle_spectra(cfg, out, truth, node)
                assert info["effective_segment_count"] is None
            else:
                info = pl.stage_estimate(cfg, out, truth, node,
                                         pl.simulated_runs(cfg, truth, node))
                assert info["effective_segment_count"] == pytest.approx(k_eff, rel=1e-12)
            assert info["inverse_inflation"] == (
                None if inflation is None else pytest.approx(inflation, rel=1e-12))


# (network file, or None for configs/reference.ini's own N = 6 network; overrides of
# configs/reference.ini at L = 2^16; exit code; message; whether bench --cost-model paper,
# which averages no segments, asks the row)
_UNSTABLE = _mode("boolean")
_REFUSALS = {
    "dc": (None, {("spectral", "omega0"): "0.01"}, 3, "snaps to the DC bin", True),
    "nyquist": (None, {("spectral", "omega0"): "400"}, 2, "Nyquist", True),
    "short-record": (None, {("simulation", "n_samples"): "4096"}, 2,
                     "shorter than twice the segment length", False),
    "k-below-n": (None, {("simulation", "n_samples"): "12288"}, 2,
                  "K = 5 segments, no more than the N = 6 channels", False),
    "k-at-n": (None, {("simulation", "n_samples"): "14336"}, 2,
               "K = 6 segments, no more than the N = 6 channels", False),
    "no-s-w": (None, {("network", "family"): "directed-sparse"}, 2, "needs S_w", True),
    "unstable": ([[0.0, 3.0], [3.0, 0.0]], _UNSTABLE, 4,
                 "network state matrix is not Hurwitz", True),
    # stable as a whole (a double pole at -2.5); grounding node 2 leaves 2 - 1.5 = +0.5
    "unstable-grounded": ([[2.0, 3.0], [-3.0, -4.0]], {**_UNSTABLE, ("node", "pole"): "-1.5"}, 4,
                          "network state matrix with node 2 grounded is not Hurwitz", True),
    # the config-only rules come before the network's
    "unstable-dc": ([[0.0, 3.0], [3.0, 0.0]], {**_UNSTABLE, ("spectral", "omega0"): "0.01"}, 3,
                    "snaps to the DC bin", True),
    "unstable-short-record": ([[0.0, 3.0], [3.0, 0.0]],
                              {**_UNSTABLE, ("simulation", "n_samples"): "4096"}, 2,
                              "shorter than twice the segment length", False),
}


class TestOneRefusalOrder:
    """Every command asks the same refusal rules, once, in one order (``pipeline._admit``).

    Each row of ``_REFUSALS`` is one config; every command that simulates,
    estimates or reconstructs exits with the row's code and message, simulates
    nothing and writes nothing.  The staged commands run after ``generate``.
    A new rule is one more row.
    """

    @pytest.mark.parametrize("row, command", [
        (row, command) for row, (*_, paper) in _REFUSALS.items()
        for command in ("run", "bench", "paper", "simulate", "estimate", "reconstruct")
        if command != "paper" or paper])
    def test_every_command_refuses_alike(self, tmp_path, capsys, no_simulation, row, command):
        network, overrides, code, message, _ = _REFUSALS[row]
        if network is not None:
            save_matrix(tmp_path / "net.txt", ConnectivityMatrix(network))
            overrides = {("network", "source"): "file",
                         ("network", "file"): str(tmp_path / "net.txt"), **overrides}
        p = reference_config(tmp_path, {**REFERENCE_L16, **overrides})
        out = tmp_path / "o"
        args = ["--config", str(p), "--out", str(out)]
        n = 6 if network is None else len(network)
        sweep = ["--sweep", f"{n}:{load_config(p).sim.n_samples}", "--repeats", "1"]
        staged = command in ("simulate", "estimate", "reconstruct")
        if staged:
            assert main(["generate", *args]) == 0
        argv = {"bench": ["bench", *sweep],
                "paper": ["bench", *sweep, "--cost-model", "paper"]}.get(command, [command])
        assert main([*argv, *args]) == code
        assert message in capsys.readouterr().err
        left = sorted(path.name for path in out.iterdir()) if out.exists() else []
        assert left == (["network.txt", "node.txt"] if staged else [])

    @pytest.mark.parametrize("command, calls", [
        ("run", 1), ("generate", 0), ("simulate", 1), ("estimate", 1), ("reconstruct", 1),
        ("evaluate", 0), ("bench", 2),
    ], ids=["run", *STAGES, "bench"])
    def test_each_command_asks_the_gate_once(self, tmp_path, monkeypatch, command, calls):
        # and bench once per sweep point; no stage asks it again. A staged command
        # follows the stages before it, whose calls are not counted.
        before = STAGES[:STAGES.index(command)] if command in STAGES else ()
        assert commands(tmp_path, before, SHORT) == [0] * len(before)
        asked, gate = [], pl._admit
        for module in (pl, bn):
            monkeypatch.setattr(module, "_admit",
                                lambda *args, **kwargs: asked.append(1) or gate(*args, **kwargs))
        flags = ["--sweep", "4:8192,3:8192", "--repeats", "2"] if command == "bench" else []
        assert commands(tmp_path, [command], SHORT, *flags) == [0]
        assert len(asked) == calls


class TestBench:
    def test_parse_sweep(self):
        assert parse_sweep("4:1024,8:2048") == [(4, 1024), (8, 2048)]
        with pytest.raises(ConfigError):
            parse_sweep("4x1024")

    @pytest.mark.parametrize("mode, cost_model, label, stages", [
        ("boolean", "fft", "fft", ["correlation", "inversion", "reconstruction"]),
        ("boolean", "paper", "paper", ["correlation", "inversion", "reconstruction"]),
        ("oracle-boolean", "fft", "oracle", ["inversion", "reconstruction"]),
    ])
    def test_bench_rows_follow_the_sweep(self, tmp_path, mode, cost_model, label, stages):
        # one row per point and stage, in sweep order, whichever way the rounds ran
        cfg = load_config(write_config(tmp_path, {**SHORT, **_mode(mode)}))
        # 2048 samples hold K = 7 segments of 512, which the fft estimator warns of
        warns = (pytest.warns(UserWarning, match="only 7 segments averaged")
                 if (mode, cost_model) == ("boolean", "fft") else contextlib.nullcontext())
        with warns:
            rows = benchmark(cfg, [(3, 2048), (2, 4096)], cost_model=cost_model, repeats=2)
        assert [(r["n_nodes"], r["n_samples"], r["cost_model"], r["stage"]) for r in rows] == [
            *[(3, 2048, label, stage) for stage in stages],
            *[(2, 4096, label, stage) for stage in stages]]
        assert all(r["repeats"] == 2 and r["seconds"] >= 0 for r in rows)

    def test_bench_times_the_configured_route(self, tmp_path, monkeypatch):
        calls = []
        route = pl.boolean_directed
        monkeypatch.setattr(pl, "boolean_directed",
                            lambda *args, **kwargs: calls.append(1) or route(*args, **kwargs))
        cfg = load_config(write_config(tmp_path, _mode("oracle-boolean")))
        rows = benchmark(cfg, [(4, 1024), (5, 1024)], repeats=3)
        assert len(calls) == 2 * 3
        assert {r["stage"] for r in rows} == {"inversion", "reconstruction"}

    def test_bench_takes_the_configured_omega0(self, tmp_path, monkeypatch):
        # 1.5 snaps to the first bin of a 512-sample segment; the DC bin is
        # nearest 0.5, so a fixed bench frequency of 0.5 would be refused
        omegas = []
        route = pl.boolean_directed
        monkeypatch.setattr(pl, "boolean_directed",
                            lambda s, *args, **kwargs: omegas.append(s.omega)
                            or route(s, *args, **kwargs))
        p = write_config(tmp_path, {**SHORT, **_mode("boolean"),
                                    ("simulation", "n_samples"): "4096"})
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "r")]) == 0
        ran = json.loads((tmp_path / "r" / "spectra" / "estimate.json").read_text())["omega0"]
        assert ran == pytest.approx(1.2272, abs=1e-4)
        cfg = load_config(p)
        for mode, omega0, expected in [("boolean", "1.5", ran), ("oracle-boolean", "1.5", 1.5),
                                       ("oracle-boolean", "auto", 0.5)]:
            omegas.clear()
            benchmark(dataclasses.replace(cfg, omega0=omega0,
                                          recon=dataclasses.replace(cfg.recon, mode=mode)),
                      [(4, 4096)], repeats=1)
            assert omegas == [expected], mode
        assert main(["bench", "--config", str(p), "--out", str(tmp_path / "b"),
                     "--sweep", "4:4096", "--repeats", "1"]) == 0

    def test_bench_simulates_each_run_once_per_repeat(self, tmp_path, monkeypatch):
        # the spectra the other stages take come from the timed correlation
        calls = []
        blocks = sim.simulate_blocks
        monkeypatch.setattr(sim, "simulate_blocks",
                            lambda *args, **kwargs: calls.append(1) or blocks(*args, **kwargs))
        cfg = load_config(write_config(tmp_path, {**SHORT, **_mode("boolean")}))
        n = 4
        benchmark(cfg, [(n, 4096)], repeats=1)
        assert len(calls) == n + 1

    def test_bench_holds_no_whole_record(self, tmp_path):
        cfg = load_config(write_config(tmp_path, _mode("boolean")))
        n, l = 4, 2**20
        tracemalloc.start()
        try:
            benchmark(cfg, [(n, l)], repeats=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * l * 8 / 4

    def test_bench_paper_holds_one_sweep_point_at_a_time(self, tmp_path):
        # each point's records are simulated for its correlation and released after it
        cfg = load_config(write_config(tmp_path, {**SHORT, **_mode("boolean")}))
        n, l = 2, 2**14
        point_bytes = 8 * l * (n + n * (n - 1))  # the full run and N grounded runs
        peaks = []
        for points in (1, 6):
            tracemalloc.start()
            try:
                benchmark(cfg, [(n, l)] * points, cost_model="paper", repeats=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + point_bytes / 2, [p / point_bytes for p in peaks]

    def test_bench_builds_the_configured_network(self, tmp_path, capsys):
        p = write_config(tmp_path, {("network", "family"): "reference",
                                    ("network", "n_nodes"): "6"})
        args = ["bench", "--config", str(p), "--repeats", "1"]
        assert main([*args, "--out", str(tmp_path / "six"), "--sweep", "6:1024"]) == 0
        assert main([*args, "--out", str(tmp_path / "eight"), "--sweep", "8:1024"]) == 2
        assert not (tmp_path / "eight").exists()
        assert "reference networks exist" in capsys.readouterr().err
        net = tmp_path / "net.txt"
        save_matrix(net, laplacian_connectivity(np.ones((3, 3)) - np.eye(3)))
        p = write_config(tmp_path, {("network", "source"): "file", ("network", "file"): str(net)})
        args = ["bench", "--config", str(p), "--repeats", "1", "--out", str(tmp_path / "f")]
        assert main([*args, "--sweep", "3:1024"]) == 0
        assert main([*args, "--sweep", "4:1024"]) == 2
        assert "network file has 3 nodes" in capsys.readouterr().err

    def test_cli_bench(self, tmp_path):
        # one row per point and stage, in sweep order
        assert commands(tmp_path, ["bench"], _mode("oracle-boolean"), "--sweep", "4:1024,8:1024",
                        "--repeats", "2") == [0]
        lines = (tmp_path / "run" / "bench.csv").read_text().splitlines()
        assert lines[0] == "n_nodes,n_samples,cost_model,stage,seconds,repeats"
        rows = [line.split(",") for line in lines[1:]]
        assert [(n, l, model, stage) for n, l, model, stage, *_ in rows] == [
            (n, "1024", "oracle", stage) for n in ("4", "8")
            for stage in ("inversion", "reconstruction")]
        assert all(float(seconds) >= 0 and repeats == "2" for *_, seconds, repeats in rows)
