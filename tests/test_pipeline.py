import dataclasses
import functools
import importlib.util
import json
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from netspectra import (
    ConfigError,
    ConnectivityMatrix,
    ValidationError,
    laplacian_connectivity,
    load_config,
    load_matrix,
    run_pipeline,
    save_matrix,
)
from netspectra.bench import benchmark, parse_sweep, write_bench_csv
from netspectra.cli import main
from netspectra import pipeline as pl


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
        # of config.resolved.ini, manifest included, equals the first run's
        empirical = {("reconstruction", "mode"): "exact-directed",
                     ("simulation", "n_samples"): "16384",
                     ("spectral", "segment_length"): "512",
                     ("spectral", "omega0"): "1.5"}
        for name, overrides in (("oracle", {}), ("empirical", empirical)):
            first, rerun = tmp_path / name, tmp_path / f"{name}-rerun"
            run_pipeline(load_config(write_config(tmp_path, overrides)), first)
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

    @pytest.mark.parametrize("config", ["reference", "oracle-boolean"])
    def test_staged_evaluate_writes_the_run_metrics(self, tmp_path, config):
        if config == "reference":
            text = (Path(__file__).resolve().parents[1] / "configs" / "reference.ini").read_text()
            p = write_config(tmp_path, {("simulation", "n_samples"): "32768"}, text=text)
        else:
            p = write_config(tmp_path, {("reconstruction", "mode"): config,
                                        ("simulation", "n_samples"): "8192"})
        out_run, out_staged = tmp_path / "run", tmp_path / "staged"
        assert main(["run", "--config", str(p), "--out", str(out_run)]) == 0
        for cmd in ("generate", "simulate", "estimate", "reconstruct", "evaluate"):
            assert main([cmd, "--config", str(p), "--out", str(out_staged)]) == 0
        metrics = (out_run / "metrics.json").read_text()
        assert (out_staged / "metrics.json").read_text() == metrics
        assert {"omega0", "threshold_used", "input_psd_estimate"} <= json.loads(metrics).keys()

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
        p = write_config(
            tmp_path,
            {
                ("reconstruction", "mode"): "exact-directed",
                ("simulation", "n_samples"): str(2**20),
            },
        )
        cfg = load_config(p)
        tracemalloc.start()
        try:
            run_pipeline(cfg, tmp_path / "mem")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        record_bytes = cfg.network.n_nodes * cfg.sim.n_samples * 8
        assert peak < record_bytes / 4

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
            assert peak < 1.5 * record_bytes, (cmd, peak / record_bytes)

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
        pl.stage_estimate(cfg, streamed, pl.simulated_runs(cfg, g, node), node, g.n_nodes)
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

        def counted(path, _fn=pl.load_timeseries):
            loads.append(Path(path).name)
            return _fn(path)

        monkeypatch.setattr(pl, "load_timeseries", counted)
        p = write_config(tmp_path, {**self.SAVED, ("reconstruction", "mode"): "nonreciprocal"})
        assert main(["estimate", "--config", str(p), "--out", str(out)]) == 0
        assert loads == ["full.nsts"]
        assert sorted(f.name for f in (out / "spectra").iterdir()) == [
            "cpsd_full.txt", "estimate.json"]
        assert main(["reconstruct", "--config", str(p), "--out", str(out)]) == 0

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

        for name in ("simulate", "simulate_grounded", "simulate_blocks"):
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

    def test_bench_empirical_includes_correlation(self, tmp_path):
        p = write_config(
            tmp_path,
            {
                ("reconstruction", "mode"): "boolean",
                ("simulation", "n_samples"): "4096",
                ("spectral", "segment_length"): "512",
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
