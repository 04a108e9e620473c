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
from netspectra.bench import benchmark, parse_sweep, write_bench_csv
from netspectra.cli import main
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
        p = write_config(tmp_path, {("reconstruction", "mode"): "psychic"})
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
burn_in = 100

[spectral]
segment_length = 512
overlap = 0.25
window = rectangular
detrend = none
omega0 = 1.5
"""

    # what config.resolved.ini and manifest.json hold for it, byte for byte
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
burn_in = 100

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
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["seeds"] == {"network": 3, "noise": 11}
        assert manifest["config"]["spectral"]["omega0"] == "0.5"

    def test_resolved_config_reproduces_run(self, tmp_path):
        # no input outside the config changes an artifact: every file of a rerun
        # of config.resolved.ini, manifest included, equals the first run's,
        # also when the first run had two workers and the rerun the default
        empirical = {("reconstruction", "mode"): "exact-directed",
                     ("simulation", "n_samples"): "16384",
                     ("spectral", "segment_length"): "512",
                     ("spectral", "omega0"): "1.5"}
        for name, overrides, workers in (("oracle", {}, 1), ("empirical", empirical, 1),
                                         ("workers", empirical, 2)):
            first, rerun = tmp_path / name, tmp_path / f"{name}-rerun"
            run_pipeline(load_config(write_config(tmp_path, overrides)), first, workers=workers)
            run_pipeline(load_config(first / "config.resolved.ini"), rerun)
            files = sorted(str(f.relative_to(first)) for f in first.rglob("*") if f.is_file())
            assert "manifest.json" in files
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
        branch = json.loads((out3 / "undirected_branch.json").read_text())
        assert branch["flipped"] is False

    def test_workers_do_not_change_results(self, tmp_path):
        p = write_config(
            tmp_path,
            {
                ("reconstruction", "mode"): "exact-directed",
                ("simulation", "n_samples"): "8192",
                ("spectral", "segment_length"): "512",
                ("spectral", "omega0"): "1.5",
            },
        )
        cfg = load_config(p)
        run_pipeline(cfg, tmp_path / "w1", workers=1)
        run_pipeline(cfg, tmp_path / "w4", workers=4)
        assert (tmp_path / "w1" / "recovered_weights.txt").read_bytes() == (
            tmp_path / "w4" / "recovered_weights.txt"
        ).read_bytes()


class TestReconstructOnce:
    # N = 4: the full matrix and 4 grounded ones, plus one for the eigenpair S_w
    @pytest.mark.parametrize("threshold", ["gap", "fixed"])
    @pytest.mark.parametrize("mode, family, route, inversions", [
        ("oracle-exact-directed", "laplacian", "exact_directed", 4 + 2),
        ("oracle-boolean", "directed-sparse", "boolean_directed", 4 + 1),
        ("oracle-boolean", "laplacian", "boolean_directed", 4 + 1),
        ("oracle-nonreciprocal", "nonreciprocal-ring", "nonreciprocal", 1),
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
        p = write_config(tmp_path, {("network", "family"): family,
                                    ("reconstruction", "mode"): mode,
                                    ("reconstruction", "threshold"): threshold})
        metrics = run_pipeline(load_config(p), tmp_path / "o")
        assert calls == {"invert": inversions, "route": 1}
        assert metrics["f1"] == 1.0

    def test_boolean_recovers_no_s_w(self, tmp_path):
        # the Boolean route weighs nothing, even where an eigenpair would give S_w
        p = write_config(tmp_path, {("reconstruction", "mode"): "oracle-boolean"})
        run_pipeline(load_config(p), tmp_path / "o")
        assert (tmp_path / "o" / "result.txt").read_text().splitlines()[3] == (
            "input_psd n/a (unused)")


class TestStagedArtifacts:
    def test_stagewise_equals_full_run(self, tmp_path):
        p = write_config(
            tmp_path,
            {
                ("reconstruction", "mode"): "exact-directed",
                ("simulation", "n_samples"): "16384",
                ("spectral", "segment_length"): "512",
                ("spectral", "omega0"): "1.5",
            },
        )
        out_full = tmp_path / "full"
        assert main(["run", "--config", str(p), "--out", str(out_full)]) == 0
        out_staged = tmp_path / "staged"
        for cmd in ("generate", "simulate", "estimate", "reconstruct", "evaluate"):
            assert main([cmd, "--config", str(p), "--out", str(out_staged)]) == 0
        assert (out_full / "recovered_weights.txt").read_bytes() == (
            out_staged / "recovered_weights.txt"
        ).read_bytes()
        m_full = json.loads((out_full / "metrics.json").read_text())
        m_staged = json.loads((out_staged / "metrics.json").read_text())
        assert m_full["f1"] == m_staged["f1"]

    @pytest.mark.parametrize("omega0", ["1.5", "auto"])
    def test_run_streams_the_staged_spectra(self, tmp_path, omega0):
        p = write_config(
            tmp_path,
            {
                ("reconstruction", "mode"): "exact-directed",
                ("simulation", "n_samples"): "16384",
                ("spectral", "segment_length"): "512",
                ("spectral", "omega0"): omega0,
            },
        )
        out_run, out_staged = tmp_path / "run", tmp_path / "staged"
        assert main(["run", "--config", str(p), "--out", str(out_run), "--workers", "2"]) == 0
        for cmd in ("generate", "simulate", "estimate", "reconstruct", "evaluate"):
            assert main([cmd, "--config", str(p), "--out", str(out_staged)]) == 0
        assert not (out_run / "timeseries").exists()
        assert (out_staged / "timeseries" / "full.nsts").exists()
        names = ["recovered_weights.txt"] + [
            f"spectra/{f.name}" for f in sorted((out_staged / "spectra").glob("cpsd_*.txt"))
        ]
        assert len(names) == 1 + 1 + 4
        for name in names:
            assert (out_run / name).read_bytes() == (out_staged / name).read_bytes(), name

    SHORT = {("simulation", "n_samples"): "8192", ("spectral", "segment_length"): "512",
             ("spectral", "omega0"): "1.5", ("reconstruction", "threshold"): "gap"}
    # overrides of BASE_CONFIG, or of configs/reference.ini for "reference"
    EVALUATED = {
        "reference": {("simulation", "n_samples"): "32768"},
        "oracle-boolean": {("reconstruction", "mode"): "oracle-boolean",
                           ("simulation", "n_samples"): "8192"},
        # the node's dynamics read from a file (saved by the test)
        "node-file": {**SHORT, ("node", "preset"): "file",
                      ("reconstruction", "mode"): "exact-directed"},
        # no eigenpair: the route has no S_w, so it writes no weights and is scored on
        # its Boolean structure
        "nonreciprocal-without-eigenpair": {**SHORT, ("network", "family"): "nonreciprocal-ring",
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
        text = BASE_CONFIG if config != "reference" else (
            Path(__file__).resolve().parents[1] / "configs" / "reference.ini").read_text()
        p = write_config(tmp_path, overrides, text=text)
        out_run, out_staged = tmp_path / "run", tmp_path / "staged"
        assert main(["run", "--config", str(p), "--out", str(out_run)]) == 0
        for cmd in ("generate", "simulate", "estimate", "reconstruct", "evaluate"):
            assert main([cmd, "--config", str(p), "--out", str(out_staged)]) == 0
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

    @pytest.mark.parametrize("mode", pl.MODES)
    def test_staged_files_equal_the_run_files(self, tmp_path, mode):
        overrides = {("reconstruction", "mode"): mode,
                     ("simulation", "n_samples"): "8192",
                     ("spectral", "segment_length"): "512",
                     ("spectral", "omega0"): "1.5"}
        network = self.ROUTE_NETWORKS.get(mode.replace("oracle-", ""))
        if network is not None:
            save_matrix(tmp_path / "net.txt", network)
            overrides.update({("network", "source"): "file",
                              ("network", "file"): str(tmp_path / "net.txt")})
        p = write_config(tmp_path, overrides)
        out_run, out_staged = tmp_path / "run", tmp_path / "staged"
        code = main(["run", "--config", str(p), "--out", str(out_run)])
        for cmd in ("generate", "simulate", "estimate", "reconstruct", "evaluate"):
            staged_code = main([cmd, "--config", str(p), "--out", str(out_staged)])
            if staged_code:
                break
        assert staged_code == code == 0
        ran, staged = ({str(f.relative_to(out)) for f in out.rglob("*") if f.is_file()}
                       for out in (out_run, out_staged))
        timeseries = {name for name in staged if name.startswith("timeseries/")}
        assert bool(timeseries) != mode.startswith("oracle-")
        assert ran - {"manifest.json", "config.resolved.ini"} == staged - timeseries
        for name in staged - timeseries:
            assert (out_run / name).read_bytes() == (out_staged / name).read_bytes(), name

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
        p = write_config(
            tmp_path,
            {
                ("reconstruction", "mode"): "exact-directed",
                ("simulation", "n_samples"): "16384",
                ("spectral", "segment_length"): "512",
                ("spectral", "omega0"): "1.5",
            },
        )
        outs = {w: tmp_path / f"w{w}" for w in (1, 2)}
        for w, out in outs.items():
            for cmd in ("generate", "simulate", "estimate", "reconstruct"):
                assert main([cmd, "--config", str(p), "--out", str(out),
                             "--workers", str(w)]) == 0
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
        p = write_config(
            tmp_path,
            {
                ("reconstruction", "mode"): "exact-directed",
                ("simulation", "n_samples"): "8192",
                ("spectral", "segment_length"): "512",
                ("spectral", "omega0"): "1.5",
            },
        )
        out = tmp_path / "count"
        for cmd in ("generate", "simulate", "estimate"):
            assert main([cmd, "--config", str(p), "--out", str(out), "--workers", "2"]) == 0
        n = load_config(p).network.n_nodes
        assert calls == {"save_timeseries": n + 1, "load_timeseries": n + 1}

    @pytest.mark.parametrize("omega0", ["1.5", "auto"])
    def test_saved_spectra_equal_streamed(self, tmp_path, omega0):
        p = write_config(
            tmp_path,
            {
                ("reconstruction", "mode"): "exact-directed",
                ("simulation", "n_samples"): "16384",
                ("spectral", "segment_length"): "512",
                ("spectral", "omega0"): omega0,
            },
        )
        cfg = load_config(p)
        staged, streamed = tmp_path / "staged", tmp_path / "run"
        for cmd in ("generate", "simulate", "estimate"):
            assert main([cmd, "--config", str(p), "--out", str(staged)]) == 0
        g, node = pl.stage_generate(cfg, streamed)
        pl.stage_estimate(cfg, streamed, g, node, pl.simulated_runs(cfg, g, node))
        s_full, grounded = pl.load_saved_spectra(cfg, staged, g.n_nodes)
        r_full, r_grounded = pl.load_saved_spectra(cfg, streamed, g.n_nodes)
        assert [j for j, _ in grounded] == [j for j, _ in r_grounded] == [1, 2, 3, 4]
        for a, b in [(s_full, r_full)] + [(x, y) for (_, x), (_, y) in zip(grounded, r_grounded)]:
            assert np.array_equal(a.values, b.values)
            assert (a.omega, a.source, a.segment_count, a.stderr) == (
                b.omega, b.source, b.segment_count, b.stderr)
            assert a.stderr is not None

    SAVED = {("reconstruction", "mode"): "exact-directed",
             ("simulation", "n_samples"): "8192",
             ("spectral", "segment_length"): "512",
             ("spectral", "omega0"): "1.5"}

    def _simulated(self, tmp_path):
        p, out = write_config(tmp_path, self.SAVED), tmp_path / "runs"
        for cmd in ("generate", "simulate"):
            assert main([cmd, "--config", str(p), "--out", str(out)]) == 0
        return p, out

    def test_estimate_ignores_a_stray_timeseries_file(self, tmp_path):
        p, out = self._simulated(tmp_path)
        (out / "timeseries" / "grounded_x.nsts").write_bytes(b"")
        assert main(["estimate", "--config", str(p), "--out", str(out)]) == 0

    def test_non_grounding_mode_estimates_only_the_full_run(self, tmp_path, monkeypatch):
        _, out = self._simulated(tmp_path)  # leaves the grounded runs behind
        loads = []

        def counted(path, *args, _fn=pl.load_timeseries):
            loads.append(Path(path).name)
            return _fn(path, *args)

        monkeypatch.setattr(pl, "load_timeseries", counted)
        p = write_config(tmp_path, {**self.SAVED, ("reconstruction", "mode"): "nonreciprocal"})
        assert main(["estimate", "--config", str(p), "--out", str(out)]) == 0
        assert loads == ["full.nsts"]
        assert sorted(f.name for f in (out / "spectra").iterdir()) == [
            "cpsd_full.txt", "estimate.json"]
        assert main(["reconstruct", "--config", str(p), "--out", str(out)]) == 0

    @pytest.mark.parametrize("key, value", [("dt", "0.005"), ("n_samples", "4096")])
    def test_estimate_refuses_a_run_of_another_config(self, tmp_path, capsys, key, value):
        # the header of each saved run must be the run the config describes
        _, out = self._simulated(tmp_path)
        p = write_config(tmp_path, {**self.SAVED, ("simulation", key): value})
        assert main(["estimate", "--config", str(p), "--out", str(out)]) == 2
        assert "not the run's" in capsys.readouterr().err
        assert not (out / "spectra").exists()

    def test_estimate_needs_every_grounded_run(self, tmp_path, capsys):
        p, out = self._simulated(tmp_path)
        (out / "timeseries" / "grounded_3.nsts").unlink()
        assert main(["estimate", "--config", str(p), "--out", str(out)]) == 2
        assert "grounded_3.nsts" in capsys.readouterr().err

    def test_estimate_requires_saved_runs(self, tmp_path):
        p = write_config(tmp_path)
        assert main(["estimate", "--config", str(p), "--out", str(tmp_path / "e")]) == 2

    @pytest.mark.parametrize("mode, omega0", [("exact-directed", "0.5"),
                                              ("oracle-exact-directed", "0.5"),
                                              ("exact-directed", "auto")],
                             ids=["exact-directed", "oracle-exact-directed", "auto"])
    def test_estimate_records_snap_distance(self, tmp_path, mode, omega0):
        # reference spectral settings: 0.5 snaps to bin 3 of 4096 samples at dt = 0.01,
        # 0.46019, a snap distance of 0.0398; the oracle takes 0.5 exactly; under
        # auto no frequency was requested, so there is no distance to report
        p = write_config(
            tmp_path,
            {
                ("reconstruction", "mode"): mode,
                ("simulation", "n_samples"): "20480",
                ("spectral", "segment_length"): "4096",
                ("spectral", "omega0"): omega0,
            },
        )
        out = tmp_path / "snap"
        for cmd in ("generate", "simulate", "estimate"):
            assert main([cmd, "--config", str(p), "--out", str(out)]) == 0
        info = json.loads((out / "spectra" / "estimate.json").read_text())
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
        p = write_config(tmp_path, {("reconstruction", "mode"): "exact-directed"})
        out = tmp_path / "cut"
        for cmd in ("generate", "simulate"):
            assert main([cmd, "--config", str(p), "--out", str(out)]) == 0
        full = out / "timeseries" / "full.nsts"
        full.write_bytes(full.read_bytes()[:-8])
        assert main(["estimate", "--config", str(p), "--out", str(out)]) == 2

    def test_estimate_refuses_a_channel_major_record(self, tmp_path, capsys):
        # NSTS0001, the format before, held each channel's samples in turn
        p, out = self._simulated(tmp_path)
        full = out / "timeseries" / "full.nsts"
        labels = sim.channel_labels(4)
        data = sim.load_timeseries(full, labels, 8192, 0.01).data
        full.write_bytes(b"NSTS0001" + struct.pack("<IQd4I", 4, 8192, 0.01, *labels)
                         + data.astype("<f8").tobytes())
        capsys.readouterr()
        assert main(["estimate", "--config", str(p), "--out", str(out)]) == 2
        assert "NSTS0001" in capsys.readouterr().err
        assert not (out / "spectra").exists()

    def test_run_reads_the_run_directory_after_estimating(self, tmp_path, monkeypatch):
        # reconstruct and evaluate load their inputs as the staged commands do
        calls = {"load_saved_truth": 0, "load_saved_spectra": 0}
        for name in calls:
            def counted(*args, _fn=getattr(pl, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(pl, name, counted)
        p = write_config(tmp_path, self.SAVED)
        run_pipeline(load_config(p), tmp_path / "run")
        assert calls == {"load_saved_truth": 2, "load_saved_spectra": 1}

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
        # (with it, this run's threshold was 91.8 and F1 0.667)
        ring = ConnectivityMatrix(0.8 * np.roll(np.eye(6), 1, axis=0),
                                  eigenpair=(0.8, np.ones(6)))
        net = tmp_path / "ring.txt"
        save_matrix(net, ring)
        text = (Path(__file__).resolve().parents[1] / "configs" / "reference.ini").read_text()
        p = write_config(tmp_path, {("network", "source"): "file",
                                    ("network", "file"): str(net),
                                    ("reconstruction", "mode"): "nonreciprocal"}, text=text)
        metrics = run_pipeline(load_config(p), tmp_path / "nr")
        assert metrics["threshold_used"] == pytest.approx(36.3, abs=0.05)
        assert metrics["f1"] == 1.0


def reference_config(tmp_path, overrides=None):
    """``configs/reference.ini`` with ``overrides``, written under ``tmp_path``."""
    text = (Path(__file__).resolve().parents[1] / "configs" / "reference.ini").read_text()
    return write_config(tmp_path, overrides, text=text)


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
        branch = json.loads((out / "undirected_branch.json").read_text())
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
        p = reference_config(tmp_path, {("reconstruction", "mode"): "oracle-undirected"})
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
        assert "inconsistent with a symmetric network" in capsys.readouterr().err


class TestUndirectedSymmetry:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_undirected_refuses_the_directed_reference_network(self, tmp_path, capsys, seed):
        # this run once exited 0 with F1 0.667: the route assumed the symmetry
        # it now tests, and the reference network's estimate reads T near 300
        # on 15 degrees of freedom
        p = reference_config(tmp_path, {("reconstruction", "mode"): "undirected"})
        out = tmp_path / "und"
        assert main(["run", "--config", str(p), "--out", str(out),
                     "--seed-override", str(seed)]) == 3
        assert re.search(r"symmetry test: T = .* p = \S+ < 0\.01", capsys.readouterr().err)
        assert not (out / "undirected_branch.json").exists()
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
        branch = json.loads((tmp_path / "und" / "undirected_branch.json").read_text())
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
            stats.append(json.loads((out / "undirected_branch.json").read_text())["symmetry_chi2"])
        info = json.loads((out / "spectra" / "estimate.json").read_text())
        assert info["segment_count"] == 15
        assert refused <= 3
        assert abs(np.mean(stats) - 15.0) <= 2.1


class TestEvaluateScoresTheWrittenRecovery:
    """``evaluate`` scores the recovery ``result.txt`` names, its edges as written."""

    SHORT = {("simulation", "n_samples"): str(2**16)}
    # the grounding statistic reads about 25 / S_w = 2500 on the reference's edges, whose
    # weights are 5: evaluate once took tau = 100 as its edge tolerance too, and read
    # F1 1.0 with no true edge
    FIXED_TAU = {("reconstruction", "threshold"): "fixed", ("reconstruction", "tau"): "100"}

    def _config(self, tmp_path, name, mode, overrides=None):
        """``configs/reference.ini`` at L = 2^16 in ``mode``, written under ``tmp_path / name``."""
        (tmp_path / name).mkdir()
        overrides = {**self.SHORT, **(overrides or {}), ("reconstruction", "mode"): mode}
        return str(reference_config(tmp_path / name, overrides))

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
        p = self._config(tmp_path, "cfg", mode, overrides)
        assert main(["run", "--config", p, "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        off = ~np.eye(6, dtype=bool)
        recovered, truth = (load_matrix(out / name).weights[off]
                            for name in ("recovered_boolean.txt", "network.txt"))
        assert metrics["n_recovered_edges"] == np.count_nonzero(recovered)
        assert metrics["n_true_edges"] == np.count_nonzero(truth)
        if overrides == self.FIXED_TAU:
            assert (metrics["n_true_edges"], metrics["n_recovered_edges"]) == (3, 14)
            assert metrics["f1"] == pytest.approx(6 / 17)

    def test_a_route_switch_scores_no_stale_weights(self, tmp_path):
        # a boolean recovery in an exact-directed run's directory was once scored
        # on the weights left there: max_abs_error 5.0, rms_error 4.10
        out = ["--out", str(tmp_path / "run")]
        assert main(["run", "--config", self._config(tmp_path, "a", "exact-directed"), *out]) == 0
        boolean = self._config(tmp_path, "b", "boolean")
        for cmd in ("reconstruct", "evaluate"):
            assert main([cmd, "--config", boolean, *out]) == 0
        metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert metrics["max_abs_error"] is None and metrics["rms_error"] is None
        assert not (tmp_path / "run" / "recovered_weights.txt").exists()

    def test_a_failed_reconstruction_leaves_nothing_to_evaluate(self, tmp_path, capsys):
        # the directed reference network fails the undirected symmetry test
        # (exit 3); evaluate once scored the earlier run's recovery and exited 0
        out = ["--out", str(tmp_path / "run")]
        assert main(["run", "--config", self._config(tmp_path, "a", "exact-directed"), *out]) == 0
        undirected = self._config(tmp_path, "b", "undirected")
        assert main(["run", "--config", undirected, *out]) == 3
        capsys.readouterr()
        assert main(["evaluate", "--config", undirected, *out]) == 2
        assert "run reconstruct first" in capsys.readouterr().err
        left = {path.name for path in (tmp_path / "run").iterdir()}
        assert left == {"network.txt", "node.txt", "spectra"}


class TestNoRunsOfAnotherConfig:
    """``simulate`` replaces ``timeseries/`` and ``estimate`` replaces ``spectra/``, so no later
    stage pairs the runs of one config or seed with another's."""

    SHORT = {("simulation", "n_samples"): str(2**16)}

    def _staged(self, tmp_path, mode, seed, cmds):
        """Run the staged ``cmds`` of the L = 2^16 reference in ``mode``, seed ``seed``."""
        cfg = tmp_path / f"{mode}-{seed}"
        cfg.mkdir(exist_ok=True)
        p = str(reference_config(cfg, {**self.SHORT, ("reconstruction", "mode"): mode}))
        return [main([cmd, "--config", p, "--out", str(tmp_path / "run"),
                      "--seed-override", str(seed)]) for cmd in cmds]

    def test_simulate_leaves_no_grounded_run_of_another_seed(self, tmp_path):
        # these steps once all exited 0 and scored F1 0.429 from the seed-2 full
        # record and the seed-1 grounded records
        assert self._staged(tmp_path, "exact-directed", 1, ["generate", "simulate"]) == [0, 0]
        assert self._staged(tmp_path, "nonreciprocal", 2, ["simulate"]) == [0]
        assert sorted(f.name for f in (tmp_path / "run" / "timeseries").iterdir()) == ["full.nsts"]
        assert self._staged(tmp_path, "boolean", 2, ["estimate", "reconstruct", "evaluate"]) == [
            2, 2, 2]

    def test_estimate_leaves_no_grounded_spectra_of_another_seed(self, tmp_path):
        # a run's grounded spectra were once paired with a later estimate's full one
        p = reference_config(tmp_path, {**self.SHORT, ("reconstruction", "mode"): "exact-directed"})
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "run"),
                     "--seed-override", "1"]) == 0
        assert self._staged(tmp_path, "nonreciprocal", 2, ["simulate", "estimate"]) == [0, 0]
        assert sorted(f.name for f in (tmp_path / "run" / "spectra").iterdir()) == [
            "cpsd_full.txt", "estimate.json"]
        assert self._staged(tmp_path, "boolean", 2, ["reconstruct"]) == [2]

    def test_an_oracle_simulate_removes_the_saved_runs(self, tmp_path):
        assert self._staged(tmp_path, "exact-directed", 1, ["generate", "simulate"]) == [0, 0]
        assert self._staged(tmp_path, "oracle-boolean", 1, ["simulate"]) == [0]
        assert not (tmp_path / "run" / "timeseries").exists()
        assert self._staged(tmp_path, "boolean", 1, ["estimate"]) == [2]


class TestArtifactTable:
    """Once its refusals pass, a stage replaces its own files and every later stage's
    (``pl._ARTIFACTS``), and no file the table does not list."""

    STAGES = ("generate", "simulate", "estimate", "reconstruct", "evaluate")
    B = {("reconstruction", "mode"): "exact-directed", ("simulation", "n_samples"): "8192",
         ("spectral", "segment_length"): "512", ("spectral", "omega0"): "1.5"}
    # config A: config B with one change, and the flags A's commands take
    CHANGES = {
        "seed": ({}, ["--seed-override", "2"]),
        "mode": ({("reconstruction", "mode"): "boolean"}, []),
        "n_samples": ({("simulation", "n_samples"): "16384"}, []),
    }
    UNLISTED = ("exp.ini", "notes.txt", "bench.csv", "extra/keep.txt")

    @staticmethod
    def _files(out) -> dict:
        return {str(f.relative_to(out)): f.read_bytes() for f in out.rglob("*") if f.is_file()}

    def _configs(self, tmp_path, change):
        """The config files of B and A, and A's flags."""
        overrides, flags = self.CHANGES[change]
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
        return (str(write_config(tmp_path / "b", self.B)),
                str(write_config(tmp_path / "a", {**self.B, **overrides})), flags)

    @pytest.mark.parametrize("change", list(CHANGES))
    @pytest.mark.parametrize("stage", STAGES)
    def test_a_stage_leaves_what_it_would_after_the_earlier_stages_alone(
            self, tmp_path, stage, change):
        # A's stage over B's complete staged run must leave the directory it leaves
        # after B's earlier stages alone: none of B's files from this stage on
        b, a, flags = self._configs(tmp_path, change)
        over, fresh = ["--out", str(tmp_path / "over")], ["--out", str(tmp_path / "fresh")]
        assert [main([cmd, "--config", b, *over]) for cmd in self.STAGES] == [0] * 5
        earlier = self.STAGES[:self.STAGES.index(stage)]
        assert [main([cmd, "--config", b, *fresh]) for cmd in earlier] == [0] * len(earlier)
        code = main([stage, "--config", a, *over, *flags])
        assert code == main([stage, "--config", a, *fresh, *flags])
        assert self._files(tmp_path / "over") == self._files(tmp_path / "fresh")

    @pytest.mark.parametrize("stage", STAGES)
    def test_only_run_leaves_a_manifest(self, tmp_path, stage):
        b, a, flags = self._configs(tmp_path, "seed")
        out = tmp_path / "run"
        assert main(["run", "--config", b, "--out", str(out)]) == 0
        ran = self._files(out)
        code = main([stage, "--config", a, "--out", str(out), *flags])
        if stage == "estimate":  # run writes no timeseries/: estimate refuses, removing nothing
            assert code == 2 and self._files(out) == ran
        else:
            assert code == 0
            assert not (out / "manifest.json").exists()
            assert not (out / "config.resolved.ini").exists()

    def test_unlisted_files_survive_every_command(self, tmp_path):
        out = tmp_path / "run"
        (out / "extra").mkdir(parents=True)
        p = str(write_config(out, self.B))  # exp.ini, in the run directory
        for name in self.UNLISTED[1:]:
            (out / name).write_text(f"{name}\n")
        kept = {name: (out / name).read_bytes() for name in self.UNLISTED}
        for cmd in ("run", *self.STAGES, "run"):
            assert main([cmd, "--config", p, "--out", str(out)]) == 0
            assert {name: (out / name).read_bytes() for name in self.UNLISTED} == kept, cmd

    LISTED = ("network.txt", "node.txt", "timeseries", "spectra", "result.txt",
              "recovered_boolean.txt", "recovered_weights.txt", "undirected_branch.json",
              "metrics.json", "manifest.json", "config.resolved.ini")
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
        p, out = str(write_config(tmp_path, self.B)), tmp_path / "run"
        (tmp_path / "store").mkdir()
        (tmp_path / "store" / "full.nsts").write_text("kept\n")
        assert main(["generate", "--config", p, "--out", str(out)]) == 0
        (out / "timeseries").symlink_to(tmp_path / "store", target_is_directory=True)
        assert main(["simulate", "--config", p, "--out", str(out)]) == 0
        assert not (out / "timeseries").is_symlink()
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
        p, out = str(write_config(tmp_path, self.B)), tmp_path / "run"
        assert [main([c, "--config", p, "--out", str(out)]) for c in self.STAGES] == [0] * 5
        (out / removed).unlink()
        capsys.readouterr()
        assert main([cmd, "--config", p, "--out", str(out)]) == 2
        assert f"; run {stage} first" in capsys.readouterr().err


class TestNoStaleArtifacts:
    """Sequences that once scored or read another config's artifacts."""

    SHORT = {("reconstruction", "mode"): "exact-directed", ("simulation", "n_samples"): "8192",
             ("spectral", "segment_length"): "512", ("spectral", "omega0"): "1.5"}

    def _main(self, tmp_path, cmds, overrides=None, seed=1):
        """Exit codes of ``cmds`` on the short config with ``overrides``, at ``seed``."""
        cfg = tmp_path / f"cfg-{len(list(tmp_path.glob('cfg-*')))}"
        cfg.mkdir()
        p = str(write_config(cfg, {**self.SHORT, **(overrides or {})}))
        return [main([cmd, "--config", p, "--out", str(tmp_path / "run"),
                      "--seed-override", str(seed)]) for cmd in cmds]

    def test_a_failed_reconstruct_after_a_run_leaves_nothing_to_evaluate(self, tmp_path):
        # evaluate once scored the seed-1 run's recovery here
        assert self._main(tmp_path, ["run"]) == [0]
        nonreciprocal = {("reconstruction", "mode"): "nonreciprocal"}
        assert self._main(tmp_path, ["simulate", "estimate"], nonreciprocal, seed=2) == [0, 0]
        boolean = {("reconstruction", "mode"): "boolean"}
        assert self._main(tmp_path, ["reconstruct", "evaluate"], boolean, seed=2) == [2, 2]
        assert not (tmp_path / "run" / "manifest.json").exists()

    def test_generate_leaves_no_recovery_of_the_old_network(self, tmp_path):
        # evaluate once scored the seed-1 recovery against the seed-2 network
        assert self._main(tmp_path, TestArtifactTable.STAGES) == [0] * 5
        assert self._main(tmp_path, ["generate"], seed=2) == [0]
        assert self._main(tmp_path, ["reconstruct", "evaluate"], seed=2) == [2, 2]

    def test_run_leaves_no_staged_records(self, tmp_path):
        # a later staged estimate once read the seed-1 records beside the seed-2 run
        assert self._main(tmp_path, ["generate", "simulate"]) == [0, 0]
        assert self._main(tmp_path, ["run"], seed=2) == [0]
        assert not (tmp_path / "run" / "timeseries").exists()
        metrics = (tmp_path / "run" / "metrics.json").read_text()
        assert self._main(tmp_path, ["estimate", "reconstruct", "evaluate"], seed=2) == [2, 0, 0]
        assert (tmp_path / "run" / "metrics.json").read_text() == metrics

    def test_a_failed_estimate_leaves_no_spectra(self, tmp_path):
        # the records are 8192 samples long; an estimate of 16384 fails on their header,
        # and reconstruct and evaluate once scored the spectra it left
        assert self._main(tmp_path, TestArtifactTable.STAGES) == [0] * 5
        longer = {("simulation", "n_samples"): "16384"}
        assert self._main(tmp_path, ["estimate", "reconstruct", "evaluate"], longer) == [2, 2, 2]
        assert sorted(f.name for f in (tmp_path / "run").iterdir()) == [
            "network.txt", "node.txt", "timeseries"]


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

    def test_stability_exit_code(self, tmp_path):
        # a strongly reciprocal pair destabilises the unit-pole closed loop
        net = tmp_path / "net.txt"
        save_matrix(net, ConnectivityMatrix([[0.0, 2.0], [2.0, 0.0]]))
        p = write_config(
            tmp_path,
            {
                ("network", "source"): "file",
                ("network", "file"): str(net),
                ("reconstruction", "mode"): "boolean",
            },
        )
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "u")]) == 4

    @pytest.mark.parametrize("network, pole, grounded", [
        ([[0.0, 3.0], [3.0, 0.0]], "-1.0", None),
        # stable as a whole (a double pole at -2.5); grounding node 2 leaves 2 - 1.5 = +0.5
        ([[2.0, 3.0], [-3.0, -4.0]], "-1.5", 2),
    ], ids=["full", "grounded"])
    def test_an_unstable_run_is_refused_before_any_write(self, tmp_path, capsys, network, pole,
                                                         grounded):
        save_matrix(tmp_path / "net.txt", ConnectivityMatrix(network))
        p = write_config(tmp_path, {("network", "source"): "file",
                                    ("network", "file"): str(tmp_path / "net.txt"),
                                    ("node", "pole"): pole,
                                    ("reconstruction", "mode"): "boolean"})
        out = tmp_path / "u"
        args = ["--config", str(p), "--out", str(out)]
        named = "" if grounded is None else f" with node {grounded} grounded"
        assert main(["run", *args]) == 4
        assert not out.exists() or list(out.iterdir()) == []
        assert f"network state matrix{named} is not Hurwitz" in capsys.readouterr().err
        assert main(["bench", *args, "--sweep", "2:8192", "--repeats", "1"]) == 4
        assert not out.exists() or list(out.iterdir()) == []
        assert main(["generate", *args]) == 0
        assert main(["simulate", *args]) == 4
        assert not (out / "timeseries").exists()
        assert f"network state matrix{named} is not Hurwitz" in capsys.readouterr().err

    def test_numerical_exit_code(self, tmp_path):
        # omega0 snapping to the DC bin is a numerical rejection (exit 3)
        p = write_config(
            tmp_path,
            {
                ("reconstruction", "mode"): "exact-directed",
                ("simulation", "n_samples"): "8192",
                ("spectral", "segment_length"): "512",
                ("spectral", "omega0"): "0.01",
            },
        )
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "n")]) == 3

    @pytest.mark.parametrize("section, key", [
        ("spectral", "omega0"), ("simulation", "burn_in"), ("noise", "shaping_pole"),
    ])
    def test_malformed_value_exit_code(self, tmp_path, capsys, section, key):
        p = write_config(tmp_path, {(section, key): "x"})
        assert main(["generate", "--config", str(p), "--out", str(tmp_path / "g")]) == 2
        assert capsys.readouterr().err.startswith(f"error: [{section}] {key} = 'x': ")

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
        p, out = write_config(tmp_path, {("reconstruction", "mode"): mode}), tmp_path / "e"
        out.mkdir()
        assert main([command, "--config", str(p), "--out", str(out)]) == 2
        assert list(out.iterdir()) == []
        assert "network.txt, node.txt" in capsys.readouterr().err

    def test_a_mode_without_s_w_fails_before_simulating(self, tmp_path, capsys):
        # a directed-sparse network has no eigenpair, so exact-directed cannot weigh it
        p = write_config(tmp_path, {("network", "family"): "directed-sparse",
                                    ("reconstruction", "mode"): "exact-directed"})
        out = tmp_path / "s"
        args = ["--config", str(p), "--out", str(out)]
        assert main(["run", *args]) == 2
        assert not (out / "spectra").exists()
        assert main(["simulate", *args]) == 2
        assert not (out / "timeseries").exists()
        assert "needs S_w" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, code, message", [
        ({("spectral", "segment_length"): str(2**20)}, 2, "shorter than twice"),
        ({("spectral", "omega0"): "0.01"}, 3, "snaps to the DC bin"),
        ({("spectral", "omega0"): "400"}, 2, "Nyquist"),
    ], ids=["record-length", "dc-bin", "nyquist"])
    def test_an_unestimable_record_fails_before_simulating(
        self, tmp_path, capsys, monkeypatch, overrides, code, message
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated a record the estimate stage cannot take")

        for name in ("simulate", "simulate_grounded"):
            monkeypatch.setattr(pl, name, refuse)
        p, out = reference_config(tmp_path, overrides), tmp_path / "s"
        args = ["--config", str(p), "--out", str(out)]
        assert main(["run", *args]) == code
        assert not (out / "spectra").exists()
        assert main(["simulate", *args]) == code
        assert not (out / "timeseries").exists()
        assert message in capsys.readouterr().err

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

    def test_evaluate_needs_a_readable_report(self, tmp_path):
        p, out = write_config(tmp_path), tmp_path / "e"
        args = ["--config", str(p), "--out", str(out)]
        assert main(["generate", *args]) == 0
        assert main(["evaluate", *args]) == 2  # no result.txt yet
        assert main(["estimate", *args]) == 0
        assert main(["reconstruct", *args]) == 0
        (out / "result.txt").write_text("netspectra reconstruction report\nmode x\n")
        assert main(["evaluate", *args]) == 2


class TestSegmentsPerChannel:
    """A CPSD of K <= N segments has an inverse with no finite mean: every command refuses it.

    On ``configs/reference.ini`` (N = 6, 4096-sample hann segments at 50%
    overlap) 12288 samples give K = 5, 14336 give K = 6 and 16384 give K = 7.
    Once such runs exited 0 with S_w of 3.3e-11 or 6.0e-7 against 0.0100.
    """

    @pytest.fixture
    def no_simulation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated a record whose CPSD has K <= N")

        for name in ("simulate", "simulate_grounded"):
            monkeypatch.setattr(pl, name, refuse)

    @pytest.mark.parametrize("n_samples, k", [(12288, 5), (14336, 6)])
    def test_run_and_simulate_refuse_before_simulating(self, tmp_path, capsys, no_simulation,
                                                       n_samples, k):
        p = reference_config(tmp_path, {("simulation", "n_samples"): str(n_samples)})
        out = tmp_path / "k"
        args = ["--config", str(p), "--out", str(out)]
        assert main(["run", *args]) == 2
        assert main(["simulate", *args]) == 2
        assert not (out / "spectra").exists() and not (out / "timeseries").exists()
        assert f"K = {k} segments, no more than the N = 6 channels" in capsys.readouterr().err

    def test_run_that_refuses_writes_nothing(self, tmp_path, capsys, no_simulation):
        # run builds the truth and asks the estimability rule before it saves network.txt
        p = reference_config(tmp_path, {("simulation", "n_samples"): "14336"})
        out = tmp_path / "k"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert not out.exists() or list(out.iterdir()) == []
        assert "K = 6 segments" in capsys.readouterr().err
        # a mode without S_w refuses before any write too
        p = write_config(tmp_path, {("network", "family"): "directed-sparse",
                                    ("reconstruction", "mode"): "exact-directed"})
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert not out.exists() or list(out.iterdir()) == []
        assert "needs S_w" in capsys.readouterr().err

    def test_estimate_refuses_before_it_looks_for_the_records(self, tmp_path, capsys):
        p = reference_config(tmp_path, {("simulation", "n_samples"): "14336"})
        args = ["--config", str(p), "--out", str(tmp_path / "k")]
        assert main(["generate", *args]) == 0
        capsys.readouterr()
        assert main(["estimate", *args]) == 2
        err = capsys.readouterr().err
        assert "K = 6 segments, no more than the N = 6 channels" in err
        assert "run simulate first" not in err
        assert not (tmp_path / "k" / "spectra").exists()

    def test_bench_refuses_before_timing(self, tmp_path, capsys, no_simulation):
        # every point is built, and checked, before the first one is timed
        p, out = reference_config(tmp_path), tmp_path / "b"
        assert main(["bench", "--config", str(p), "--out", str(out),
                     "--sweep", "6:16384,6:14336", "--repeats", "1"]) == 2
        assert not out.exists()
        assert "K = 6 segments" in capsys.readouterr().err

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
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["estimate"] == info

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
_UNSTABLE = {("reconstruction", "mode"): "boolean"}
_REFUSALS = {
    "dc": (None, {("spectral", "omega0"): "0.01"}, 3, "snaps to the DC bin", True),
    "nyquist": (None, {("spectral", "omega0"): "400"}, 2, "Nyquist", True),
    "short-record": (None, {("simulation", "n_samples"): "4096"}, 2,
                     "shorter than twice the segment length", False),
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
    estimates or reconstructs exits with the row's code and message, and
    writes nothing.  The staged commands run after ``generate``.
    """

    @pytest.fixture
    def no_simulation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated a run of a refused config")

        for name in ("simulate", "simulate_grounded"):
            monkeypatch.setattr(pl, name, refuse)

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
        p = reference_config(tmp_path, {("simulation", "n_samples"): "65536", **overrides})
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


class TestBench:
    def test_parse_sweep(self):
        assert parse_sweep("4:1024,8:2048") == [(4, 1024), (8, 2048)]
        with pytest.raises(ConfigError):
            parse_sweep("4x1024")

    def test_bench_rows_and_csv(self, tmp_path):
        p = write_config(tmp_path, {("reconstruction", "mode"): "oracle-boolean"})
        cfg = load_config(p)
        rows = benchmark(cfg, [(4, 1024), (8, 1024)], repeats=2)
        stages = {(r["n_nodes"], r["stage"]) for r in rows}
        assert (4, "inversion") in stages and (8, "reconstruction") in stages
        assert all(r["seconds"] >= 0 for r in rows)
        write_bench_csv(tmp_path / "bench.csv", rows)
        lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
        assert lines[0] == "n_nodes,n_samples,cost_model,stage,seconds,repeats"
        assert len(lines) == len(rows) + 1

    @pytest.mark.parametrize("mode, cost_model, label, stages", [
        ("boolean", "fft", "fft", ["correlation", "inversion", "reconstruction"]),
        ("boolean", "paper", "paper", ["correlation", "inversion", "reconstruction"]),
        ("oracle-boolean", "fft", "oracle", ["inversion", "reconstruction"]),
    ])
    def test_bench_rows_follow_the_sweep(self, tmp_path, mode, cost_model, label, stages):
        # one row per point and stage, in sweep order, whichever way the rounds ran
        cfg = load_config(write_config(tmp_path, {("reconstruction", "mode"): mode,
                                                  ("spectral", "segment_length"): "512",
                                                  ("spectral", "omega0"): "1.5"}))
        # 2048 samples hold K = 7 segments of 512, which the fft estimator warns of
        warns = (pytest.warns(UserWarning, match="only 7 segments averaged")
                 if (mode, cost_model) == ("boolean", "fft") else contextlib.nullcontext())
        with warns:
            rows = benchmark(cfg, [(3, 2048), (2, 4096)], cost_model=cost_model, repeats=2)
        assert [(r["n_nodes"], r["n_samples"], r["cost_model"], r["stage"]) for r in rows] == [
            *[(3, 2048, label, stage) for stage in stages],
            *[(2, 4096, label, stage) for stage in stages]]
        assert all(r["repeats"] == 2 and r["seconds"] >= 0 for r in rows)

    def test_bench_empirical_includes_correlation(self, tmp_path):
        p = write_config(
            tmp_path,
            {
                ("reconstruction", "mode"): "boolean",
                ("simulation", "n_samples"): "4096",
                ("spectral", "segment_length"): "512",
                # 0.5 would snap to the DC bin of a 512-sample segment, which paper refuses
                ("spectral", "omega0"): "1.5",
            },
        )
        cfg = load_config(p)
        rows = benchmark(cfg, [(2, 4096)], cost_model="paper", repeats=1)
        assert any(r["stage"] == "correlation" for r in rows)

    def test_bench_times_the_configured_route(self, tmp_path, monkeypatch):
        calls = []
        route = pl.boolean_directed
        monkeypatch.setattr(pl, "boolean_directed",
                            lambda *args, **kwargs: calls.append(1) or route(*args, **kwargs))
        cfg = load_config(write_config(tmp_path, {("reconstruction", "mode"): "oracle-boolean"}))
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
        p = write_config(tmp_path, {("reconstruction", "mode"): "boolean",
                                    ("simulation", "n_samples"): "4096",
                                    ("spectral", "segment_length"): "512",
                                    ("spectral", "omega0"): "1.5"})
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
        cfg = load_config(write_config(tmp_path, {("reconstruction", "mode"): "boolean",
                                                  ("spectral", "segment_length"): "512",
                                                  ("spectral", "omega0"): "1.5"}))
        n = 4
        benchmark(cfg, [(n, 4096)], repeats=1)
        assert len(calls) == n + 1

    def test_bench_paper_refuses_what_run_cannot_snap(self, tmp_path, capsys):
        # 0.01 snaps to the DC bin of a 4096-sample segment at dt = 0.01
        p = write_config(tmp_path, {("reconstruction", "mode"): "boolean",
                                    ("spectral", "segment_length"): "4096",
                                    ("spectral", "omega0"): "0.01"})
        out = tmp_path / "b"
        assert main(["bench", "--config", str(p), "--out", str(out), "--cost-model", "paper",
                     "--sweep", "2:4096", "--repeats", "1"]) == 3
        assert not out.exists()
        assert "snaps to the DC bin" in capsys.readouterr().err

    def test_bench_holds_no_whole_record(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {("reconstruction", "mode"): "boolean"}))
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
        cfg = load_config(write_config(tmp_path, {("reconstruction", "mode"): "boolean",
                                                  ("spectral", "segment_length"): "512",
                                                  ("spectral", "omega0"): "1.5"}))
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

    def test_bench_refuses_a_mode_without_s_w(self, tmp_path, capsys):
        p = write_config(tmp_path, {("network", "family"): "directed-sparse",
                                    ("reconstruction", "mode"): "exact-directed"})
        out = tmp_path / "b"
        assert main(["bench", "--config", str(p), "--out", str(out), "--sweep", "4:4096",
                     "--repeats", "1"]) == 2
        assert not out.exists()
        assert "needs S_w" in capsys.readouterr().err

    def test_cli_bench(self, tmp_path):
        p = write_config(tmp_path, {("reconstruction", "mode"): "oracle-boolean"})
        out = tmp_path / "bo"
        assert main(["bench", "--config", str(p), "--out", str(out), "--sweep", "4:1024", "--repeats", "1"]) == 0
        assert (out / "bench.csv").exists()
