import importlib
import struct
import threading
import time
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.linalg import expm, solve_discrete_lyapunov

from netspectra import (
    ConnectivityMatrix,
    NetworkSystem,
    NodeDynamics,
    NoiseConfig,
    NumericalError,
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
from netspectra.simulate import (
    CASCADE_CHUNK,
    PROPAGATE_BLOCK,
    StreamedRecord,
    _NstsWriter,
    _ahead,
    _cascade,
    _draws,
    _propagate,
    _stationary_start,
    channel_labels,
    simulate_blocks,
)

from conftest import make_system

sim = importlib.import_module("netspectra.simulate")


class Kept:
    """A sink that keeps every block it is fed."""

    def __init__(self):
        self.blocks = []

    def feed(self, block):
        self.blocks.append(np.array(block))


def streamed(labels, n_samples, dt, blocks):
    """A streamed record whose source feeds the blocks of ``blocks()`` to its sink."""
    def source(sink):
        for block in blocks():
            sink.feed(block)
        return sink

    return StreamedRecord(tuple(labels), n_samples, dt, source)


def run_start(phi, gam, seed):
    """The start of a full run of ``seed``, drawn from the seed stream's first child."""
    start = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    return _stationary_start(phi, gam, start)


class Identity:
    """A generator whose unit white draw is the identity: a start drawn from it is ``P^(1/2)``."""

    def standard_normal(self, n):
        return np.eye(n)


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

    @pytest.mark.parametrize("case", ["hurwitz", "chain", "cycle", "large-step"])
    def test_matches_scipy_expm(self, rng, case):
        # SciPy's expm of the whole Van Loan matrix, the exponential discretize used before
        systems = {"hurwitz": [random_hurwitz_system(rng) for _ in range(5)],
                   "chain": [chain_system()], "cycle": [cycle_system()],
                   "large-step": [NetworkSystem(NodeDynamics.scalar_pole(-2.0),
                                                reference_laplacian_5())]}[case]
        dt = 1.0 if case == "large-step" else 0.02
        for sys in systems:
            m, b = sys.joint_state_matrix(), sys.input_matrix()
            nx, nu = b.shape
            if case == "large-step":
                assert np.linalg.norm(m, 2) * dt > 0.5
            aug = np.zeros((nx + nu, nx + nu))
            aug[:nx, :nx], aug[:nx, nx:] = m * dt, b * dt
            ref = expm(aug)
            for got, want in zip(discretize(sys, dt), (ref[:nx, :nx], ref[:nx, nx:])):
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestPropagate:
    def reference_loop(self, phi, gam, w, cmat, x0=None):
        x = np.zeros(phi.shape[0]) if x0 is None else x0
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
        # the chain is a defective input (an ill-conditioned eigenbasis) to
        # the one propagator, which must still match the stepwise loop
        assert np.linalg.cond(np.linalg.eig(phi)[1]) > 1e8
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
        for x0 in (None, rng.standard_normal(phi.shape[0])):
            ref = self.reference_loop(phi, gam, w, sys.output_matrix(), x0)
            y = _propagate(phi, gam, w, sys.output_matrix(), x0)
            assert y.shape == ref.shape
            assert np.abs(y - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("block", [
        0.05, 0.6, 0.999999, -0.9,
        pytest.param([[0.7, 0.6], [-0.6, 0.7]], id="pair-0.92"),
        pytest.param([[0.99, 0.3], [-0.02, 0.99]], id="pair-0.993"),  # non-normal, lightly damped
    ])
    def test_block_solve_is_its_recursion(self, rng, block):
        # the scan over each block's chunk starts, over two propagation blocks, the second
        # started from the state the first left; with Gamma = C = I the outputs are the states,
        # checked against the recursion carried to 40 digits
        t = np.atleast_2d(block)
        b = t.shape[0]
        v = rng.standard_normal((PROPAGATE_BLOCK + 100, b))
        blocks = [v[:PROPAGATE_BLOCK], v[PROPAGATE_BLOCK:]]
        out = np.concatenate(list(_cascade(t, np.eye(b), np.eye(b), blocks)), axis=1).T
        ref = np.empty_like(v)
        with localcontext() as ctx:
            ctx.prec = 40
            tt = [[Decimal(x) for x in row] for row in t.tolist()]
            z = [Decimal(0)] * b
            for k, vk in enumerate(v.tolist()):
                ref[k] = [float(x) for x in z]
                z = [sum(tt[i][j] * z[j] for j in range(b)) + Decimal(vk[i]) for i in range(b)]
        tol = 1e-14 if b == 1 else 1e-13
        assert np.abs(out - ref).max() <= tol * np.abs(ref).max()

    @pytest.mark.parametrize("make", [random_hurwitz_system, chain_system, cycle_system])
    @pytest.mark.parametrize("start", ["zero", "nonzero"])
    def test_ragged_blocks_match_stepwise(self, rng, make, start):
        # blocks of 1, m - 1, m + 1 and PROPAGATE_BLOCK - 3 samples in a row: every one but
        # the first ends inside a chunk and hands its state on, the first the state it starts from
        sys = make(rng) if make is random_hurwitz_system else make()
        phi, gam = discretize(sys, 0.02)
        x0 = None if start == "zero" else rng.standard_normal(phi.shape[0])
        m = CASCADE_CHUNK
        sizes = [1, m - 1, m + 1, PROPAGATE_BLOCK - 3, m + 1, 2]
        w = rng.standard_normal((sum(sizes), sys.n_nodes))
        blocks = np.split(w, np.cumsum(sizes)[:-1])
        ys = list(_cascade(phi, gam, sys.output_matrix(), blocks, x0))
        ref = self.reference_loop(phi, gam, w, sys.output_matrix(), x0)
        y = np.concatenate(ys, axis=1).T
        assert y.shape == ref.shape
        assert np.abs(y - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())

    def test_near_marginal_pole_matches_stepwise(self, rng):
        # a real pole at 0.999999 coupled to a lightly damped complex pair
        phi = np.array([[0.999999, 0.2, -0.1],
                        [0.0, 0.99, 0.3],
                        [0.0, -0.02, 0.99]])
        gam = rng.standard_normal((3, 2))
        cmat = rng.standard_normal((2, 3))
        w = rng.standard_normal((2 * PROPAGATE_BLOCK + 11, 2))
        x0 = rng.standard_normal(3)
        y = _propagate(phi, gam, w, cmat, x0)
        ref = self.reference_loop(phi, gam, w, cmat, x0)
        assert np.abs(y - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())

    def test_overflow_raises_before_a_non_finite_block(self, rng):
        # the second block's inputs overflow the outputs: the first block is yielded, finite
        gam = 1e10 * np.eye(2)
        blocks = [rng.standard_normal((PROPAGATE_BLOCK - 3, 2)), np.full((50, 2), 1e300)]
        yielded = []
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="overflow"):
                for y in _cascade(0.5 * np.eye(2), gam, np.eye(2), blocks):
                    yielded.append(np.array(y))
        assert len(yielded) == 1 and np.isfinite(yielded[0]).all()
        # a 1e154 gain in and out overflows the first block, which is never yielded
        node = NodeDynamics([[-1.0]], [1e154], [1e154])
        sys = NetworkSystem(node, ConnectivityMatrix(np.zeros((2, 2))))
        blocks = simulate_blocks(sys, NoiseConfig(variance=1e8),
                                 SimConfig(n_samples=3 * PROPAGATE_BLOCK))
        yielded = []
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="overflow"):
                for y in blocks:
                    yielded.append(np.array(y))
        assert all(np.isfinite(y).all() for y in yielded)

    def test_oversized_block_rejected(self):
        # the scan holds PROPAGATE_BLOCK / CASCADE_CHUNK + 1 chunk starts; a longer block has no room
        blocks = _cascade(np.eye(1) * 0.5, np.eye(1), np.eye(1), [np.ones((PROPAGATE_BLOCK + 1, 1))])
        with pytest.raises(ValueError):
            next(blocks)

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
            simulate(sys, NoiseConfig(seed=0), SimConfig(dt=1.0, n_samples=64))

    def test_labels(self):
        ts = simulate(make_system(np.zeros((3, 3))), NoiseConfig(), SimConfig(n_samples=64))
        assert ts.channel_labels == (1, 2, 3)


class TestSimulateBlocks:
    @pytest.mark.parametrize("shaping", ["none", "lowpass"])
    def test_noise_blocks_equal_one_draw(self, monkeypatch, shaping):
        # the propagator gets one unit white draw, shaped or not, in C-contiguous (samples x
        # channels) blocks that it reshapes into chunks uncopied
        got, cascade = [], sim._cascade

        def recording(phi, gamma, cmat, w_blocks, x0=None):
            yield from cascade(phi, gamma, cmat, (got.append(w) or w for w in w_blocks), x0)
        monkeypatch.setattr(sim, "_cascade", recording)
        noise = NoiseConfig(variance=2.0, seed=6, shaping=shaping,
                            shaping_pole=-2.0 if shaping == "lowpass" else None)
        n = 2 * PROPAGATE_BLOCK + 33
        simulate(make_system(np.zeros((3, 3))), noise, SimConfig(dt=0.01, n_samples=n))
        assert max(len(w) for w in got) == PROPAGATE_BLOCK
        for w in got:
            assert w.dtype == np.float64 and w.shape[1] == 3 and w.flags.c_contiguous
            full = len(w) // CASCADE_CHUNK * CASCADE_CHUNK
            assert np.shares_memory(w[:full].reshape(-1, CASCADE_CHUNK * 3), w)
        # the run's n samples and no more
        whole = np.random.default_rng(6).standard_normal((n, 3))
        assert np.array_equal(np.concatenate(got), whole)

    @pytest.mark.parametrize("ground", [None, 2])
    def test_blocks_are_the_collected_record(self, ground):
        sys = NetworkSystem(NodeDynamics.scalar_pole(-1.0), reference_laplacian_5())
        noise, cfg = NoiseConfig(seed=3), SimConfig(dt=0.01, n_samples=2 * PROPAGATE_BLOCK + 9)
        blocks = list(simulate_blocks(sys, noise, cfg, ground=ground))
        ts = simulate(sys, noise, cfg) if ground is None else simulate_grounded(sys, ground, noise, cfg)
        assert all(b.shape[0] == ts.n_channels and b.shape[1] <= PROPAGATE_BLOCK for b in blocks)
        assert np.array_equal(np.concatenate(blocks, axis=1), ts.data)

    def test_checks_run_before_the_first_block(self):
        with pytest.raises(StabilityError):
            simulate_blocks(make_system([[2.0]]), NoiseConfig(), SimConfig(n_samples=64))


class TestDrawAhead:
    @staticmethod
    def source(n, taken, error=None):
        """``n`` blocks, each one's thread appended to ``taken``; then ``error``, if any."""
        for k in range(n):
            taken.append(threading.get_ident())
            yield np.full(3, float(k))
        if error is not None:
            raise error

    def test_blocks_in_order_from_a_helper_thread(self):
        taken = []
        assert [b[0] for b in _ahead(self.source(5, taken))] == [0, 1, 2, 3, 4]
        assert len(taken) == 5 and threading.get_ident() not in taken

    def test_error_reaches_the_caller_after_the_blocks_before_it(self):
        error, got = NumericalError("the draw failed"), []
        with pytest.raises(NumericalError) as info:
            for block in _ahead(self.source(2, [], error)):
                got.append(block[0])
        assert info.value is error
        assert got == [0, 1]

    def test_close_reads_one_block_ahead_at_most_and_leaves_no_thread(self):
        before, taken = threading.active_count(), []
        blocks = _ahead(self.source(10, taken))
        assert next(blocks)[0] == 0
        blocks.close()
        assert 1 <= len(taken) <= 2
        assert threading.active_count() == before

    def test_overflow_leaves_no_thread(self):
        # the cascade raises on the first block, while the draw of the next is in flight: the
        # state and its stationary covariance are finite, the 1e307 output gain overflows
        node = NodeDynamics([[-1.0]], [1.0], [1e307])
        sys = NetworkSystem(node, ConnectivityMatrix(np.zeros((2, 2))))
        before = threading.active_count()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="simulation produced non-finite") as info:
                simulate(sys, NoiseConfig(variance=1e8),
                         SimConfig(n_samples=3 * PROPAGATE_BLOCK))
        assert info.value.__traceback__ is not None
        assert threading.active_count() == before

    def test_the_helper_only_draws(self):
        # the helper runs standard_normal and nothing else: the caller gets the very arrays
        # drawn, unscaled, and every one was drawn off the caller's thread
        rng, drawn = np.random.default_rng(4), []

        class Recording:
            def standard_normal(self, shape):
                drawn.append((threading.get_ident(), rng.standard_normal(shape)))
                return drawn[-1][1]

        n = 2 * PROPAGATE_BLOCK + 9
        blocks = list(_draws(Recording(), n, 3))
        assert [w.shape for w in blocks] == [(PROPAGATE_BLOCK, 3)] * 2 + [(9, 3)]
        assert len(drawn) == 3 and all(w is d for w, (_, d) in zip(blocks, drawn))
        assert threading.get_ident() not in {thread for thread, _ in drawn}
        whole = np.random.default_rng(4).standard_normal((n, 3))
        assert np.array_equal(np.concatenate(blocks), whole)


class TestSimulateGrounded:
    def test_two_node_grounding_isolates_survivor(self):
        w = np.zeros((2, 2))
        w[1, 0] = 0.5
        sys = make_system(w)
        ts = simulate_grounded(sys, 2, NoiseConfig(seed=3), SimConfig(n_samples=512))
        assert ts.n_channels == 1
        assert ts.channel_labels == (1,)
        # node 1 receives nothing, so its grounded run equals an isolated node
        # run on the same stream: SeedSequence((3, 2)) has the entropy words of
        # the integer seed 3 + 2 * 2**32
        iso = simulate(make_system(np.zeros((1, 1))), NoiseConfig(seed=3 + (2 << 32)),
                       SimConfig(n_samples=512))
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


    def test_streams_differ_across_seeds_and_runs(self):
        # seed 1's grounded-2 run and seed 2's grounded-1 run once shared a stream
        sys = make_system(np.zeros((3, 3)))
        cfg = SimConfig(n_samples=256)
        a = simulate_grounded(sys, 2, NoiseConfig(seed=1), cfg)
        b = simulate_grounded(sys, 1, NoiseConfig(seed=2), cfg)
        assert not np.allclose(a.data, b.data)

    def test_full_run_draws_the_seed_stream(self):
        # the full run is (seed, 0), whose streams are the ones of the plain seed
        sys = make_system(np.zeros((2, 2)))
        cfg = SimConfig(dt=0.01, n_samples=300)
        ts = simulate(sys, NoiseConfig(seed=5), cfg)
        phi, gam = discretize(sys, cfg.dt)
        w = np.random.default_rng(5).standard_normal((cfg.n_samples, 2))
        x0 = run_start(phi, gam, 5)
        assert np.array_equal(ts.data, _propagate(phi, gam, w, sys.output_matrix(), x0).T)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError):
            NoiseConfig(seed=-1)


class TestStationarity:
    def test_halved_run_variances_agree(self):
        sys = NetworkSystem(NodeDynamics.scalar_pole(-1.0), reference_laplacian_5())
        ts = simulate(sys, NoiseConfig(seed=1), SimConfig(dt=0.01, n_samples=2**20))
        half = ts.n_samples // 2
        v1 = ts.data[:, :half].var(axis=1)
        v2 = ts.data[:, half:].var(axis=1)
        assert np.abs(v1 / v2 - 1).max() <= 0.10

    @pytest.mark.parametrize("make", [random_hurwitz_system, chain_system, cycle_system])
    @pytest.mark.parametrize("shaping", ["none", "lowpass"])
    def test_start_root_squares_to_the_lyapunov_solution(self, rng, make, shaping):
        # Smith doubling against SciPy's solver, on the propagator's own (Phi, Gamma)
        sys = make(rng) if make is random_hurwitz_system else make()
        noise = NoiseConfig(variance=2.0, shaping=shaping,
                            shaping_pole=-2.0 if shaping == "lowpass" else None)
        phi, gam, _ = noise._shaped(*discretize(sys, 0.02), sys.output_matrix(), 0.02)
        root = _stationary_start(phi, gam, Identity())
        want = solve_discrete_lyapunov(phi, gam @ gam.T)
        assert np.abs(root - root.T).max() <= 1e-14 * np.abs(root).max()
        assert np.abs(root @ root - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("shaping", ["none", "lowpass"])
    def test_sample_zero_has_the_stationary_covariance(self, shaping):
        # sample 0 of 1000 two-sample runs: every entry of its covariance lies within 3
        # standard errors of C P C^T, P SciPy's, over the shaped state (a zero start reads 0)
        sys = NetworkSystem(NodeDynamics.scalar_pole(-1.0), reference_laplacian_5())
        cfg = SimConfig(dt=0.01, n_samples=2)
        pole = -2.0 if shaping == "lowpass" else None
        y0 = np.array([simulate(sys, NoiseConfig(2.0, seed, shaping, pole), cfg).data[:, 0]
                       for seed in range(1000)])
        phi, gam, cmat = NoiseConfig(2.0, 0, shaping, pole)._shaped(
            *discretize(sys, cfg.dt), sys.output_matrix(), cfg.dt)
        want = cmat @ solve_discrete_lyapunov(phi, gam @ gam.T) @ cmat.T
        se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want**2) / len(y0))
        assert np.all(np.abs(y0.T @ y0 / len(y0) - want) <= 3 * se)

    def test_a_marginal_step_is_refused(self):
        # a spectral radius of 1: P grows without end, and is refused, not looped on
        with pytest.raises(NumericalError, match="does not converge in 64 doublings"):
            _stationary_start(np.eye(2), np.eye(2), Identity())
        # the largest one below 1 converges within the bound
        rho = np.nextafter(1.0, 0.0)
        root = _stationary_start(rho * np.eye(1), np.eye(1), Identity())
        assert root[0, 0] ** 2 == pytest.approx(1.0 / (1.0 - rho**2), rel=1e-6)

    def test_a_nearly_marginal_run_starts_stationary(self):
        # pole -1e-6: a start from 0 would need about 1e9 samples to forget itself; sample 0's
        # variance over 400 runs sits within 3 standard errors of the stationary one
        sys = NetworkSystem(NodeDynamics.scalar_pole(-1e-6), reference_laplacian_5())
        cfg = SimConfig(dt=0.01, n_samples=2)
        y0 = np.array([simulate(sys, NoiseConfig(seed=seed), cfg).data[:, 0]
                       for seed in range(400)])
        phi, gam = discretize(sys, cfg.dt)
        want = np.diag(sys.output_matrix() @ solve_discrete_lyapunov(phi, gam @ gam.T)
                       @ sys.output_matrix().T)
        assert np.all(np.abs((y0**2).mean(axis=0) / want - 1.0) <= 3 * np.sqrt(2 / len(y0)))


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

    def test_lowpass_record_is_ar1_then_network(self):
        # u[k] = a u[k-1] + c sigma w[k] drives x[k+1] = Phi x[k] + Gamma u[k], from the
        # run's start [x[0], u[-1] / sigma], the shaped propagator's state
        sys = NetworkSystem(NodeDynamics.scalar_pole(-1.0), reference_laplacian_5())
        noise = NoiseConfig(variance=2.0, seed=6, shaping="lowpass", shaping_pole=-2.0)
        cfg = SimConfig(dt=0.01, n_samples=PROPAGATE_BLOCK + 33)
        ts = simulate(sys, noise, cfg)
        phi, gam = discretize(sys, cfg.dt)
        cmat = sys.output_matrix()
        a = np.exp(-2.0 * cfg.dt)
        c = (a - 1.0) / -2.0
        w = np.sqrt(2.0) * np.random.default_rng(6).standard_normal((cfg.n_samples, 5))
        x0 = run_start(*noise._shaped(phi, gam, cmat, cfg.dt)[:2], 6)
        x, u, ref = x0[:5], np.sqrt(2.0) * x0[5:], np.empty_like(w)
        for k, wk in enumerate(w):
            ref[k] = cmat @ x
            u = a * u + c * wk
            x = phi @ x + gam @ u
        assert np.abs(ts.data.T - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_lowpass_needs_negative_pole(self):
        with pytest.raises(ValidationError):
            NoiseConfig(shaping="lowpass", shaping_pole=1.0)


class TestTimeSeriesIO:
    def test_roundtrip(self, tmp_path, rng):
        ts = TimeSeriesMatrix(rng.standard_normal((3, 100)), 0.02, (1, 3, 4))
        save_timeseries(tmp_path / "x.nsts", ts)
        t2 = load_timeseries(tmp_path / "x.nsts", (1, 3, 4), 100, 0.02)
        assert np.array_equal(ts.data, t2.data)
        assert t2.dt == 0.02
        assert t2.channel_labels == (1, 3, 4)

    def test_file_layout(self, tmp_path, rng):
        # sample-major: the two channels of sample 0, then of sample 1, ...
        ts = TimeSeriesMatrix(rng.standard_normal((2, 50)), 0.25, (2, 5))
        save_timeseries(tmp_path / "x.nsts", ts)
        header = b"NSTS0002" + struct.pack("<IQd2I", 2, 50, 0.25, 2, 5)
        assert (tmp_path / "x.nsts").read_bytes() == header + ts.data.T.astype("<f8").tobytes()

    def test_writer_makes_one_write_per_block_and_gathers_nothing(self, rng):
        class Writes(list):
            def write(self, data):
                self.append(data)

        # a held record goes PROPAGATE_BLOCK samples at a time, so it is never copied whole
        fh, data = Writes(), rng.standard_normal((3, 2 * PROPAGATE_BLOCK + 9))
        _NstsWriter(fh, 3, data.shape[1]).feed(data)
        assert [w.shape for w in fh] == [(PROPAGATE_BLOCK, 3)] * 2 + [(9, 3)]
        assert np.array_equal(np.concatenate(fh).T, data)
        # a simulated block is a view of sample-major memory: written as it is
        sys = NetworkSystem(NodeDynamics.scalar_pole(-1.0), reference_laplacian_5())
        fh, cfg = Writes(), SimConfig(dt=0.01, n_samples=PROPAGATE_BLOCK + 9)
        writer = _NstsWriter(fh, 5, cfg.n_samples)
        blocks = list(simulate_blocks(sys, NoiseConfig(seed=3), cfg))
        for block in blocks:
            writer.feed(block)
        assert len(fh) == len(blocks) and all(np.shares_memory(w, b) for w, b in zip(fh, blocks))

    @pytest.mark.parametrize("keep", [20, -8])
    def test_truncated_rejected(self, tmp_path, rng, keep):
        p = tmp_path / "x.nsts"
        save_timeseries(p, TimeSeriesMatrix(rng.standard_normal((2, 50)), 0.25, (1, 2)))
        p.write_bytes(p.read_bytes()[:keep])
        with pytest.raises(ValidationError, match="truncated"):
            load_timeseries(p, (1, 2), 50, 0.25)

    def test_reader_refuses_the_channel_major_format(self, tmp_path, rng):
        # NSTS0001, the format before: header, then each channel's samples in turn
        p = tmp_path / "x.nsts"
        data = rng.standard_normal((2, 50))
        p.write_bytes(b"NSTS0001" + struct.pack("<IQd2I", 2, 50, 0.25, 1, 2)
                      + data.astype("<f8").tobytes())
        with pytest.raises(ValidationError, match="NSTS0001.*re-run simulate"):
            load_timeseries(p, (1, 2), 50, 0.25)

    def test_reader_refuses_a_file_that_shrinks_while_read(self, tmp_path, rng):
        p = tmp_path / "x.nsts"
        save_timeseries(p, TimeSeriesMatrix(rng.standard_normal((2, PROPAGATE_BLOCK + 5)),
                                            0.25, (1, 2)))

        class Truncating(Kept):
            def feed(self, block):
                super().feed(block)
                with open(p, "r+b") as fh:
                    fh.truncate(p.stat().st_size - 8)

        kept = Truncating()
        with pytest.raises(ValidationError, match="shrank"):
            load_timeseries(p, (1, 2), PROPAGATE_BLOCK + 5, 0.25, kept)
        assert len(kept.blocks) == 1

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.nsts"
        p.write_bytes(b"NOTMAGIC" + b"\0" * 64)
        with pytest.raises(ValidationError):
            load_timeseries(p, (1,), 4, 0.25)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            TimeSeriesMatrix(np.array([[np.nan, 0.0]]), 0.1, (1,))

    def test_owned_read_only_record_is_kept(self, rng):
        arr = rng.standard_normal((2, 50))
        arr.flags.writeable = False
        ts = TimeSeriesMatrix(arr, 0.1, (1, 2))
        assert ts.data is arr

    def test_writable_record_is_copied(self, rng):
        arr = rng.standard_normal((2, 50))
        ts = TimeSeriesMatrix(arr, 0.1, (1, 2))
        arr[0, 0] = 99.0
        assert ts.data[0, 0] != 99.0
        assert not ts.data.flags.writeable

    def test_read_only_view_is_copied(self, rng):
        arr = rng.standard_normal((2, 50))
        view = arr[:, :40]
        view.flags.writeable = False
        ts = TimeSeriesMatrix(view, 0.1, (1, 2))
        arr[0, 0] = 99.0
        assert ts.data is not view and ts.data[0, 0] != 99.0

    def test_simulated_and_loaded_records_are_not_copied(self, tmp_path):
        ts = simulate(make_system(np.zeros((2, 2))), NoiseConfig(), SimConfig(n_samples=64))
        assert ts.data.base is None and not ts.data.flags.writeable
        save_timeseries(tmp_path / "x.nsts", ts)
        loaded = load_timeseries(tmp_path / "x.nsts", (1, 2), 64, ts.dt)
        assert loaded.data.base is None and not loaded.data.flags.writeable

    @pytest.mark.parametrize("ground", [None, 2])
    def test_streamed_file_is_the_collected_record(self, tmp_path, ground):
        sys = NetworkSystem(NodeDynamics.scalar_pole(-1.0), reference_laplacian_5())
        noise, cfg = NoiseConfig(seed=3), SimConfig(dt=0.01, n_samples=2 * PROPAGATE_BLOCK + 9)
        labels = channel_labels(5, ground)
        p = tmp_path / "x.nsts"
        if ground is None:
            source = lambda sink=None: simulate(sys, noise, cfg, sink)
        else:
            source = lambda sink=None: simulate_grounded(sys, ground, noise, cfg, sink)
        save_timeseries(p, StreamedRecord(labels, cfg.n_samples, cfg.dt, source))
        ts = source()
        header = b"NSTS0002" + struct.pack(f"<IQd{len(labels)}I", len(labels), cfg.n_samples,
                                           cfg.dt, *labels)
        assert p.read_bytes() == header + ts.data.T.astype("<f8").tobytes()
        blocks = load_timeseries(p, labels, cfg.n_samples, cfg.dt, Kept()).blocks
        assert [b.shape[1] for b in blocks] == [PROPAGATE_BLOCK, PROPAGATE_BLOCK, 9]
        assert np.array_equal(np.concatenate(blocks, axis=1), ts.data)

    @pytest.mark.parametrize("labels, n_samples, dt", [
        ((1, 2, 3), 50, 0.25), ((1, 3), 50, 0.25), ((1, 2), 49, 0.25), ((1, 2), 50, 0.5),
    ], ids=["channels", "labels", "length", "dt"])
    def test_reader_refuses_another_run(self, tmp_path, rng, labels, n_samples, dt):
        p = tmp_path / "x.nsts"
        save_timeseries(p, TimeSeriesMatrix(rng.standard_normal((2, 50)), 0.25, (1, 2)))
        with pytest.raises(ValidationError, match="not the run"):
            load_timeseries(p, labels, n_samples, dt)

    def test_reader_refuses_a_non_finite_sample(self, tmp_path):
        p = tmp_path / "x.nsts"
        data = np.zeros((2, PROPAGATE_BLOCK + 5))
        data[1, PROPAGATE_BLOCK + 2] = np.nan
        save_timeseries(p, streamed((1, 2), data.shape[1], 0.1, lambda: [data]))
        kept = Kept()
        with pytest.raises(ValidationError, match="non-finite"):
            load_timeseries(p, (1, 2), data.shape[1], 0.1, kept)
        assert len(kept.blocks) == 1 and not np.isnan(kept.blocks[0]).any()

    def test_writer_leaves_no_file_of_a_broken_stream(self, tmp_path):
        p = tmp_path / "x.nsts"
        with pytest.raises(ValidationError, match="ended after 30 of 50"):
            save_timeseries(p, streamed((1, 2), 50, 0.1, lambda: [np.zeros((2, 30))]))
        assert not p.exists()

        def overflowing():
            yield np.zeros((2, 30))
            raise NumericalError("simulation produced non-finite samples (overflow)")

        with pytest.raises(NumericalError):
            save_timeseries(p, streamed((1, 2), 50, 0.1, overflowing))
        assert not p.exists()

        # a simulated stream longer than its header: the writer refuses the
        # second block mid-run, and the run's noise draw stops with it, even
        # while the exception, and so the stream's frames, are still held
        sys = NetworkSystem(NodeDynamics.scalar_pole(-1.0), reference_laplacian_5())
        noise, cfg = NoiseConfig(seed=3), SimConfig(dt=0.01, n_samples=2 * PROPAGATE_BLOCK)
        before = threading.active_count()
        record = StreamedRecord(channel_labels(5), PROPAGATE_BLOCK + 5, cfg.dt,
                                lambda sink=None: simulate(sys, noise, cfg, sink))
        with pytest.raises(ValidationError, match="does not fit") as info:
            save_timeseries(p, record)
        assert not p.exists()
        assert info.value.__traceback__ is not None
        assert threading.active_count() == before
