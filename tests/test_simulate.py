import struct
import time

import numpy as np
import pytest

from netspectra import (
    ConnectivityMatrix,
    NetworkSystem,
    NodeDynamics,
    NoiseConfig,
    SimConfig,
    StabilityError,
    TimeSeriesMatrix,
    ValidationError,
    discretize,
    laplacian_connectivity,
    load_timeseries,
    save_timeseries,
    simulate,
    simulate_grounded,
)
from netspectra.families import random_hurwitz_system, reference_laplacian_5
from netspectra.simulate import PROPAGATE_BLOCK, _propagate, timeseries_to_csv

from conftest import make_system


def chain_system(weights=(1.0, 1.0)):
    """v1 -> v2 -> ... diffusive chain; the joint matrix is defective."""
    a = np.diag(weights, -1)
    return NetworkSystem(NodeDynamics.scalar_pole(-1.0), laplacian_connectivity(a))


def cycle_system():
    """v1 -> v2 -> v3 -> v1 directed cycle; the joint matrix has complex eigenvalues."""
    a = np.roll(np.eye(3), 1, axis=0)
    return NetworkSystem(NodeDynamics.scalar_pole(-1.0), laplacian_connectivity(a))


class TestDiscretize:
    def test_zero_dynamics(self):
        node = NodeDynamics([[0.0]], [2.0], [1.0])
        sys = NetworkSystem(node, ConnectivityMatrix(np.zeros((2, 2))))
        phi, gam = discretize(sys, 0.1)
        assert np.allclose(phi, np.eye(2))
        assert np.allclose(gam, 0.1 * np.kron(np.eye(2), [[2.0]]))

    def test_scalar_exponential(self):
        sys = make_system(np.zeros((2, 2)))
        phi, gam = discretize(sys, 0.5)
        assert np.allclose(phi, np.exp(-0.5) * np.eye(2))
        assert np.allclose(gam, (1 - np.exp(-0.5)) * np.eye(2))

    def test_eigenvalues_map_into_unit_disc(self, rng):
        for _ in range(15):
            sys = random_hurwitz_system(rng)
            dt = float(rng.uniform(0.005, 0.1))
            phi, _ = discretize(sys, dt)
            lam_m = np.linalg.eigvals(sys.joint_state_matrix())
            lam_phi = np.sort_complex(np.linalg.eigvals(phi))
            assert np.abs(lam_phi).max() < 1.0
            assert np.allclose(
                np.sort(np.abs(lam_phi)), np.sort(np.exp(lam_m.real * dt)), rtol=1e-9
            )


class TestPropagate:
    def reference_loop(self, phi, gam, w, cmat):
        x = np.zeros(phi.shape[0])
        y = np.empty((w.shape[0], cmat.shape[0]))
        for k in range(w.shape[0]):
            y[k] = cmat @ x
            x = phi @ x + gam @ w[k]
        return y

    def test_modal_path_matches_stepwise(self, rng):
        sys = random_hurwitz_system(rng)
        phi, gam = discretize(sys, 0.02)
        w = rng.standard_normal((400, sys.n_nodes))
        y = _propagate(phi, gam, w, sys.output_matrix())
        ref = self.reference_loop(phi, gam, w, sys.output_matrix())
        assert np.abs(y - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())

    def test_defective_system_falls_back_and_matches(self, rng):
        sys = chain_system()
        phi, gam = discretize(sys, 0.01)
        assert np.linalg.cond(np.linalg.eig(phi)[1]) > 1e8  # exercises the fallback
        w = rng.standard_normal((300, 3))
        y = _propagate(phi, gam, w, sys.output_matrix())
        ref = self.reference_loop(phi, gam, w, sys.output_matrix())
        assert np.abs(y - ref).max() <= 1e-12

    @pytest.mark.parametrize("make", [random_hurwitz_system, chain_system, cycle_system])
    def test_blocks_match_stepwise(self, rng, make):
        sys = make(rng) if make is random_hurwitz_system else make()
        phi, gam = discretize(sys, 0.02)
        if make is cycle_system:
            assert np.iscomplex(np.linalg.eigvals(phi)).any()
        w = rng.standard_normal((3 * PROPAGATE_BLOCK + 17, sys.n_nodes))
        ref = self.reference_loop(phi, gam, w, sys.output_matrix())
        for burn in (0, PROPAGATE_BLOCK + 5):
            y = _propagate(phi, gam, w, sys.output_matrix(), burn=burn)
            assert y.shape == ref[burn:].shape
            assert np.abs(y - ref[burn:]).max() <= 1e-9 * max(1.0, np.abs(ref).max())

    def test_defective_chain_runs_at_filter_speed(self):
        # a per-sample loop needs about 1 s of CPU here (3.8 us per sample)
        sys = chain_system((1.0,) * 5)
        start = time.process_time()
        ts = simulate(sys, NoiseConfig(seed=0), SimConfig(dt=0.01, n_samples=2**18))
        assert time.process_time() - start < 0.5
        assert ts.data.shape == (6, 2**18)


class TestSimulate:
    def test_vanishing_noise_gives_vanishing_output(self):
        sys = make_system(np.zeros((2, 2)))
        ts = simulate(sys, NoiseConfig(variance=1e-30, seed=0), SimConfig(n_samples=256))
        assert np.abs(ts.data).max() < 1e-10

    def test_deterministic(self):
        sys = make_system(np.zeros((3, 3)))
        cfg = SimConfig(n_samples=1024)
        a = simulate(sys, NoiseConfig(seed=42), cfg)
        b = simulate(sys, NoiseConfig(seed=42), cfg)
        assert np.array_equal(a.data, b.data)

    def test_seed_changes_output(self):
        sys = make_system(np.zeros((3, 3)))
        cfg = SimConfig(n_samples=1024)
        a = simulate(sys, NoiseConfig(seed=1), cfg)
        b = simulate(sys, NoiseConfig(seed=2), cfg)
        assert not np.array_equal(a.data, b.data)

    def test_stationary_variance_matches_lyapunov(self):
        sys = make_system(np.zeros((1, 1)))
        phi, gam = discretize(sys, 0.01)
        target = gam[0, 0] ** 2 / (1 - phi[0, 0] ** 2)
        ts = simulate(sys, NoiseConfig(variance=1.0, seed=9), SimConfig(dt=0.01, n_samples=2**20))
        assert ts.data.var() == pytest.approx(target, rel=0.05)

    def test_non_hurwitz_rejected(self):
        with pytest.raises(StabilityError):
            simulate(make_system([[2.0]]), NoiseConfig(), SimConfig(n_samples=64))

    def test_large_step_warns(self):
        sys = make_system(np.zeros((1, 1)))
        with pytest.warns(UserWarning, match="dt"):
            simulate(sys, NoiseConfig(seed=0), SimConfig(dt=1.0, n_samples=64, burn_in=0))

    def test_labels(self):
        ts = simulate(make_system(np.zeros((3, 3))), NoiseConfig(), SimConfig(n_samples=64))
        assert ts.channel_labels == (1, 2, 3)


class TestSimulateGrounded:
    def test_two_node_grounding_isolates_survivor(self):
        w = np.zeros((2, 2))
        w[1, 0] = 0.5
        sys = make_system(w)
        ts = simulate_grounded(sys, 2, NoiseConfig(seed=3), SimConfig(n_samples=512))
        assert ts.n_channels == 1
        assert ts.channel_labels == (1,)
        # node 1 receives nothing, so its grounded run equals an isolated node run
        iso = simulate(make_system(np.zeros((1, 1))), NoiseConfig(seed=3 ^ 2), SimConfig(n_samples=512))
        assert np.allclose(ts.data, iso.data)

    def test_decoupled_statistics_match_full_run_in_law(self):
        sys = make_system(np.zeros((4, 4)))
        cfg = SimConfig(dt=0.01, n_samples=2**16)
        full = simulate(sys, NoiseConfig(seed=5), cfg)
        grounded = simulate_grounded(sys, 2, NoiseConfig(seed=5), cfg)
        v_full = full.data.var(axis=1).mean()
        v_g = grounded.data.var(axis=1).mean()
        assert v_g == pytest.approx(v_full, rel=0.1)

    def test_grounding_blocks_the_only_path(self):
        # chain v1 -> v2 -> v3 grounded at v2: y3 decorrelates from y1
        sys = chain_system()
        n_samples = 2**18
        ts = simulate_grounded(sys, 2, NoiseConfig(seed=4), SimConfig(dt=0.01, n_samples=n_samples))
        assert ts.channel_labels == (1, 3)
        y1, y3 = ts.data
        y1 = (y1 - y1.mean()) / y1.std()
        y3 = (y3 - y3.mean()) / y3.std()
        # ~100-sample correlation time for a unit pole at dt=0.01
        se = np.sqrt(2 * 100 / n_samples)
        for lag in (0, 50, 200):
            c = float(y1[: n_samples - lag] @ y3[lag:]) / (n_samples - lag)
            assert abs(c) <= 3 * se
        # contrast: without grounding the channels correlate strongly
        full = simulate(sys, NoiseConfig(seed=4), SimConfig(dt=0.01, n_samples=n_samples))
        z1, z3 = full.data[0], full.data[2]
        z1 = (z1 - z1.mean()) / z1.std()
        z3 = (z3 - z3.mean()) / z3.std()
        assert abs(float(z1 @ z3) / n_samples) > 3 * se

    def test_stream_seeds_independent_of_execution_order(self):
        sys = make_system(np.zeros((3, 3)))
        cfg = SimConfig(n_samples=256)
        noise = NoiseConfig(seed=11)
        first = [simulate_grounded(sys, j, noise, cfg).data for j in (1, 2, 3)]
        second = [simulate_grounded(sys, j, noise, cfg).data for j in (3, 2, 1)][::-1]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestStationarity:
    def test_halved_run_variances_agree(self):
        sys = NetworkSystem(NodeDynamics.scalar_pole(-1.0), reference_laplacian_5())
        ts = simulate(sys, NoiseConfig(seed=1), SimConfig(dt=0.01, n_samples=2**20))
        half = ts.n_samples // 2
        v1 = ts.data[:, :half].var(axis=1)
        v2 = ts.data[:, half:].var(axis=1)
        assert np.abs(v1 / v2 - 1).max() <= 0.10


class TestShapedNoise:
    def test_lowpass_reduces_high_frequency_power(self):
        sys = make_system(np.zeros((1, 1)))
        cfg = SimConfig(dt=0.01, n_samples=2**16)
        white = simulate(sys, NoiseConfig(seed=2), cfg)
        shaped = simulate(
            sys, NoiseConfig(seed=2, shaping="lowpass", shaping_pole=-2.0), cfg
        )
        assert shaped.data.var() < white.data.var()

    def test_psd_model_matches_filter_dc_gain(self):
        noise = NoiseConfig(variance=1.0, shaping="lowpass", shaping_pole=-2.0)
        model = noise.input_psd_model(0.01)
        white = NoiseConfig(variance=1.0).input_psd_model(0.01)
        # at DC the AR(1) shaping multiplies the held PSD by 1/p^2
        assert model(0.0) == pytest.approx(white(0.0) / 4.0, rel=1e-6)

    def test_lowpass_needs_negative_pole(self):
        with pytest.raises(ValidationError):
            NoiseConfig(shaping="lowpass", shaping_pole=1.0)


class TestTimeSeriesIO:
    def test_roundtrip(self, tmp_path, rng):
        ts = TimeSeriesMatrix(rng.standard_normal((3, 100)), 0.02, (1, 3, 4))
        save_timeseries(tmp_path / "x.nsts", ts)
        t2 = load_timeseries(tmp_path / "x.nsts")
        assert np.array_equal(ts.data, t2.data)
        assert t2.dt == 0.02
        assert t2.channel_labels == (1, 3, 4)

    def test_file_layout(self, tmp_path, rng):
        ts = TimeSeriesMatrix(rng.standard_normal((2, 50)), 0.25, (2, 5))
        save_timeseries(tmp_path / "x.nsts", ts)
        header = b"NSTS0001" + struct.pack("<IQd2I", 2, 50, 0.25, 2, 5)
        assert (tmp_path / "x.nsts").read_bytes() == header + ts.data.astype("<f8").tobytes()

    @pytest.mark.parametrize("keep", [20, -8])
    def test_truncated_rejected(self, tmp_path, rng, keep):
        p = tmp_path / "x.nsts"
        save_timeseries(p, TimeSeriesMatrix(rng.standard_normal((2, 50)), 0.25, (1, 2)))
        p.write_bytes(p.read_bytes()[:keep])
        with pytest.raises(ValidationError, match="truncated"):
            load_timeseries(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.nsts"
        p.write_bytes(b"NOTMAGIC" + b"\0" * 64)
        with pytest.raises(ValidationError):
            load_timeseries(p)

    def test_csv_export(self, tmp_path):
        ts = TimeSeriesMatrix(np.arange(6.0).reshape(2, 3), 0.5, (1, 2))
        timeseries_to_csv(tmp_path / "x.csv", ts)
        lines = (tmp_path / "x.csv").read_text().strip().splitlines()
        assert lines[0] == "time,y1,y2"
        assert len(lines) == 4

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            TimeSeriesMatrix(np.array([[np.nan, 0.0]]), 0.1, (1,))
