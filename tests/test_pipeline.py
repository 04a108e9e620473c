import json

import numpy as np
import pytest

from netspectra import (
    ConfigError,
    ConnectivityMatrix,
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
        cfg = load_config(write_config(tmp_path))
        out1 = tmp_path / "a"
        run_pipeline(cfg, out1)
        cfg2 = load_config(out1 / "config.resolved.ini")
        out2 = tmp_path / "c"
        run_pipeline(cfg2, out2)
        assert (out1 / "recovered_weights.txt").read_bytes() == (
            out2 / "recovered_weights.txt"
        ).read_bytes()

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

    def test_estimate_requires_saved_runs(self, tmp_path):
        p = write_config(tmp_path)
        assert main(["estimate", "--config", str(p), "--out", str(tmp_path / "e")]) == 2

    def test_paper_cost_model_through_pipeline(self, tmp_path):
        p = write_config(
            tmp_path,
            {
                ("reconstruction", "mode"): "boolean",
                ("simulation", "n_samples"): "8192",
                ("spectral", "segment_length"): "512",
                ("spectral", "omega0"): "1.5",
            },
        )
        out = tmp_path / "paper"
        assert main(["run", "--config", str(p), "--out", str(out), "--cost-model", "paper"]) == 0
        info = json.loads((out / "spectra" / "estimate.json").read_text())
        assert info["cost_model"] == "paper"
        assert info["segment_count"] == 1

    def test_estimate_records_snap_distance(self, tmp_path):
        # reference spectral settings: 0.5 snaps to bin 3 of 4096 samples at dt = 0.01,
        # 0.46019, a snap distance of 0.0398
        p = write_config(
            tmp_path,
            {
                ("reconstruction", "mode"): "exact-directed",
                ("simulation", "n_samples"): "20480",
                ("spectral", "segment_length"): "4096",
            },
        )
        out = tmp_path / "snap"
        for cmd in ("generate", "simulate", "estimate"):
            assert main([cmd, "--config", str(p), "--out", str(out)]) == 0
        info = json.loads((out / "spectra" / "estimate.json").read_text())
        snapped = 3 * 2 * np.pi / (4096 * 0.01)
        assert info["omega0"] == pytest.approx(snapped)
        assert info["snap_distance"] == pytest.approx(0.5 - snapped)

    def test_truncated_timeseries_exit_code(self, tmp_path):
        p = write_config(tmp_path, {("reconstruction", "mode"): "exact-directed"})
        out = tmp_path / "cut"
        for cmd in ("generate", "simulate"):
            assert main([cmd, "--config", str(p), "--out", str(out)]) == 0
        full = out / "timeseries" / "full.nsts"
        full.write_bytes(full.read_bytes()[:-8])
        assert main(["estimate", "--config", str(p), "--out", str(out)]) == 2

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

    def test_cli_bench(self, tmp_path):
        p = write_config(tmp_path, {("reconstruction", "mode"): "oracle-boolean"})
        out = tmp_path / "bo"
        assert main(["bench", "--config", str(p), "--out", str(out), "--sweep", "4:1024", "--repeats", "1"]) == 0
        assert (out / "bench.csv").exists()
