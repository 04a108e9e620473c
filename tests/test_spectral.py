import numpy as np
import pytest
from scipy import signal

from netspectra import (
    CpsdMatrix,
    NodeDynamics,
    NoiseConfig,
    NumericalError,
    SimConfig,
    SpectralConfig,
    TimeSeriesMatrix,
    ValidationError,
    analytic_cpsd,
    estimate_cpsd_lag_domain,
    estimate_cpsd_matrix,
    estimate_inverse_cpsd,
    estimate_psd_grid,
    nodal_transfer,
    select_omega0,
    simulate,
    snap_frequency,
)
from netspectra.simulate import StreamedRecord
from netspectra.spectral import (
    ACCUMULATOR_BATCH,
    CpsdAccumulator,
    _full_correlate,
)

from conftest import make_system


def white_ts(rng, n_channels=2, n_samples=2**14, dt=0.01):
    return TimeSeriesMatrix(rng.standard_normal((n_channels, n_samples)), dt, tuple(range(1, n_channels + 1)))


def streamed(ts, n_chunks):
    """``ts`` as a streamed record that feeds it in ``n_chunks`` column chunks."""
    def source(sink):
        for block in np.array_split(ts.data, n_chunks, axis=1):
            sink.feed(block)
        return sink

    return StreamedRecord(ts.channel_labels, ts.n_samples, ts.dt, source)


class TestSpectralConfig:
    def test_segment_length_must_be_power_of_two(self):
        with pytest.raises(ValidationError):
            SpectralConfig(segment_length=1000)

    def test_overlap_range(self):
        with pytest.raises(ValidationError):
            SpectralConfig(overlap_fraction=1.0)

    def test_bartlett_special_case(self):
        cfg = SpectralConfig(segment_length=256, overlap_fraction=0.0, window="rectangular")
        assert cfg.step == 256
        assert np.array_equal(cfg.window_values(), np.ones(256))

    @pytest.mark.parametrize("m", [2, 16, 4096, 8192])
    @pytest.mark.parametrize("window, scipy_name", [("hann", "hann"), ("rectangular", "boxcar")])
    def test_window_is_scipy_window_bit_for_bit(self, m, window, scipy_name):
        w = SpectralConfig(segment_length=m, window=window).window_values()
        assert w.dtype == np.float64
        assert np.array_equal(w, signal.get_window(scipy_name, m))

    def test_n_segments_refuses_no_more_segments_than_channels(self):
        cfg = SpectralConfig()  # 4096-sample hann segments, a 2048-sample step
        assert cfg.n_segments(16384, 6) == 7
        for n_samples, k in [(12288, 5), (14336, 6)]:
            assert cfg.n_segments(n_samples) == k  # given no channels, K alone
            with pytest.raises(ValidationError, match=f"K = {k} segments.*N = 6 channels"):
                cfg.n_segments(n_samples, 6)
        with pytest.raises(ValidationError, match="shorter than twice"):
            cfg.n_segments(8191)

    @pytest.mark.parametrize("k", [2, 7, 511, 10**6])
    def test_effective_segment_count(self, k):
        # hann segments at 50% overlap share a normalised overlap of 1/6 with
        # their neighbour and none with any other (Welch 1967), so K / K_eff
        # tends to 1 + 2/36 = 1.0556; disjoint segments are independent
        hann = SpectralConfig()
        assert k / hann.effective_segment_count(k) == pytest.approx(1 + 2 * (1 - 1 / k) / 36,
                                                                     rel=1e-12)
        if k == 10**6:
            assert k / hann.effective_segment_count(k) == pytest.approx(1.0556, abs=1e-4)
        rect = SpectralConfig(overlap_fraction=0.0, window="rectangular")
        assert rect.effective_segment_count(k) == k


class TestSnapFrequency:
    @pytest.mark.filterwarnings("ignore:only 7 segments")
    def test_snap_reports_distance(self, rng):
        cfg = SpectralConfig(segment_length=4096)
        snapped, k = snap_frequency(0.5, 0.01, cfg)
        spacing = 2 * np.pi / (4096 * 0.01)
        assert k == 3
        assert snapped == pytest.approx(3 * spacing)
        ts = white_ts(rng)
        s = estimate_cpsd_matrix(ts, 0.5, cfg)
        assert s.omega == pytest.approx(snapped)

    def test_dc_snap_rejected(self):
        with pytest.raises(NumericalError):
            snap_frequency(0.01, 0.01, SpectralConfig(segment_length=4096))

    def test_above_nyquist_rejected(self):
        with pytest.raises(ValidationError):
            snap_frequency(400.0, 0.01, SpectralConfig(segment_length=4096))


class TestEstimateCpsdMatrix:
    def test_identical_channels_coincide(self, rng):
        x = rng.standard_normal(2**14)
        ts = TimeSeriesMatrix(np.vstack([x, x]), 0.01, (1, 2))
        s = estimate_cpsd_matrix(ts, 1.0, SpectralConfig(segment_length=1024))
        assert s.values[0, 1] == pytest.approx(s.values[0, 0])
        assert abs(s.values[0, 1].imag) < 1e-15 * abs(s.values[0, 0])

    def test_independent_channels_incoherent(self, rng):
        ts = white_ts(rng, n_samples=2**16)
        s = estimate_cpsd_matrix(ts, 1.0, SpectralConfig(segment_length=512))
        coherence = abs(s.values[0, 1]) / np.sqrt(s.values[0, 0].real * s.values[1, 1].real)
        assert coherence <= 4.0 / np.sqrt(s.segment_count)

    def test_exactly_hermitian_nonnegative_diagonal(self, rng):
        ts = white_ts(rng, n_channels=4)
        s = estimate_cpsd_matrix(ts, 2.0, SpectralConfig(segment_length=1024))
        assert np.array_equal(s.values, s.values.conj().T)
        assert np.diag(s.values).real.min() >= 0.0
        assert np.all(np.diag(s.values).imag == 0.0)

    def test_scaling_is_quadratic(self, rng):
        ts = white_ts(rng)
        cfg = SpectralConfig(segment_length=1024)
        s1 = estimate_cpsd_matrix(ts, 1.0, cfg)
        ts3 = TimeSeriesMatrix(3.0 * ts.data, ts.dt, ts.channel_labels)
        s3 = estimate_cpsd_matrix(ts3, 1.0, cfg)
        assert np.allclose(s3.values, 9.0 * s1.values, rtol=1e-12)

    def test_matches_scipy_csd(self, rng):
        # same segmentation, window, detrend and two-sided density scaling;
        # scipy's Pxy is E[conj(X_i) X_j], the transpose of our convention
        ts = white_ts(rng, n_channels=3, n_samples=2**14)
        cfg = SpectralConfig(segment_length=512, overlap_fraction=0.5, window="hann")
        snapped, k = snap_frequency(1.5, ts.dt, cfg)
        s = estimate_cpsd_matrix(ts, 1.5, cfg)
        fs = 1.0 / ts.dt
        for i in range(3):
            for j in range(3):
                freqs, pxy = signal.csd(
                    ts.data[i], ts.data[j], fs=fs, window="hann", nperseg=512,
                    noverlap=256, detrend="constant", return_onesided=False,
                    scaling="density",
                )
                assert s.values[i, j] == pytest.approx(np.conj(pxy[k]), rel=1e-8)

    def test_record_too_short(self, rng):
        ts = white_ts(rng, n_samples=1500)
        with pytest.raises(ValidationError):
            estimate_cpsd_matrix(ts, 1.0, SpectralConfig(segment_length=1024))

    def test_few_segments_warn(self, rng):
        ts = white_ts(rng, n_samples=2**11)
        with pytest.warns(UserWarning, match="segments"):
            estimate_cpsd_matrix(ts, 1.0, SpectralConfig(segment_length=1024, overlap_fraction=0.0))

    @pytest.mark.parametrize("omega0", [0.5, 3.0, 10.0])
    @pytest.mark.parametrize("shaping", ["none", "lowpass"])
    def test_agreement_with_analytic_oracle(self, shaping, omega0):
        # strongly coupled 2-node system; estimates concentrate on the oracle,
        # whose input density is the shaped one where the noise is shaped
        w = np.zeros((2, 2))
        w[1, 0] = 1.0
        sys = make_system(w)
        noise = NoiseConfig(variance=1.0, seed=12, shaping=shaping,
                            shaping_pole=-2.0 if shaping == "lowpass" else None)
        ts = simulate(sys, noise, SimConfig(dt=0.01, n_samples=2**18))
        cfg = SpectralConfig(segment_length=2048)
        s = estimate_cpsd_matrix(ts, omega0, cfg)
        oracle = analytic_cpsd(sys, noise.input_psd_model(0.01), s.omega)
        k = s.segment_count
        se = np.sqrt(np.outer(np.diag(oracle.values).real, np.diag(oracle.values).real) / k)
        assert (np.abs(s.values - oracle.values) / se).max() <= 5.0


class TestCpsdAccumulator:
    @pytest.mark.parametrize("overlap, window, detrend", [
        (0.5, "hann", "mean"), (0.3, "rectangular", "none"),
    ])
    def test_any_chunking_gives_the_same_bytes(self, rng, overlap, window, detrend):
        cfg = SpectralConfig(segment_length=256, overlap_fraction=overlap,
                             window=window, detrend=detrend)
        # a segment count that is not a multiple of the batch leaves a tail batch
        n = 2 * ACCUMULATOR_BATCH * cfg.step + 3 * cfg.step + cfg.segment_length + 41
        ts = white_ts(rng, n_channels=3, n_samples=n)
        whole = estimate_cpsd_matrix(ts, 3.0, cfg)
        assert whole.segment_count % ACCUMULATOR_BATCH != 0
        for _ in range(5):
            acc = CpsdAccumulator(3, ts.dt, 3.0, cfg)
            cuts = np.sort(rng.choice(np.arange(1, n), size=rng.integers(1, 30), replace=False))
            for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, n]):
                acc.feed(ts.data[:, lo:hi])
            s = acc.result()
            assert s.values.tobytes() == whole.values.tobytes()
            assert (s.omega, s.segment_count) == (whole.omega, whole.segment_count)

    @pytest.mark.parametrize("n_seg", [2 * ACCUMULATOR_BATCH + 7, 2 * ACCUMULATOR_BATCH])
    def test_matches_per_segment_views_bit_for_bit(self, rng, n_seg):
        # the step (179) does not divide the segment length; the record ends
        # mid-batch, or with no partial batch at all
        cfg = SpectralConfig(segment_length=256, overlap_fraction=0.3)
        s, step = cfg.segment_length, cfg.step
        assert s % step
        n = (n_seg - 1) * step + s + step - 1  # the last step - 1 samples start no segment
        assert cfg.n_segments(n) == n_seg
        ts = white_ts(rng, n_channels=3, n_samples=n)
        omega, k = snap_frequency(3.0, ts.dt, cfg)
        win = cfg.window_values()
        phase = win * np.exp(-2j * np.pi * k * np.arange(s) / s)
        basis = np.stack([phase.real, phase.imag, np.ones(s)])
        # (segment_length x channels) views of the sample-major record, one product each
        rows = np.ascontiguousarray(ts.data.T)
        segs = np.lib.stride_tricks.sliding_window_view(rows, s, axis=0)[::step]
        assert len(segs) == n_seg
        x = np.empty((n_seg, 3), dtype=complex)
        for i, seg in enumerate(segs.transpose(0, 2, 1)):
            t = basis @ seg
            x[i] = t[0] + 1j * t[1]
            x[i] -= t[2] * (phase.sum() / s)
        ref = CpsdMatrix(values=ts.dt / (n_seg * (win * win).sum()) * (x.T @ x.conj()),
                         omega=omega, source="estimated", segment_count=n_seg)
        est = estimate_cpsd_matrix(streamed(ts, 5), 3.0, cfg)
        assert est.segment_count == n_seg
        assert est.values.tobytes() == ref.values.tobytes()

    def test_undetrended_rectangular_matches_explicit_segment_sum(self, rng):
        # the scipy comparison covers hann + mean detrend; this covers the rest
        ts = white_ts(rng, n_channels=2, n_samples=5000)
        cfg = SpectralConfig(segment_length=512, overlap_fraction=0.3,
                             window="rectangular", detrend="none")
        s = estimate_cpsd_matrix(ts, 1.5, cfg)
        _, k = snap_frequency(1.5, ts.dt, cfg)
        win = cfg.window_values()
        starts = range(0, ts.n_samples - 512 + 1, cfg.step)
        x = np.array([[np.fft.fft(ts.data[ch, a:a + 512])[k] for ch in range(2)]
                      for a in starts])
        ref = ts.dt / (len(x) * (win * win).sum()) * (x.T @ x.conj())
        assert np.allclose(s.values, ref, rtol=1e-12, atol=0)

    def test_wrong_channel_count_rejected(self):
        acc = CpsdAccumulator(3, 0.01, 3.0, SpectralConfig(segment_length=256))
        with pytest.raises(ValidationError):
            acc.feed(np.zeros((2, 100)))

    def test_short_stream_rejected(self, rng):
        acc = CpsdAccumulator(2, 0.01, 3.0, SpectralConfig(segment_length=256))
        acc.feed(rng.standard_normal((2, 300)))
        with pytest.raises(ValidationError):
            acc.result()


class TestLagDomainEstimator:
    def test_blocked_correlation_matches_numpy(self, rng):
        for n in (100, 2048, 5000):
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            ref = np.correlate(x, y, mode="full")
            out = _full_correlate(x, y)
            assert np.abs(out - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())

    def test_equals_cross_periodogram(self, rng):
        ts = white_ts(rng, n_samples=4000)
        omega = 0.7
        s = estimate_cpsd_lag_domain(ts, omega)
        n = np.arange(ts.n_samples)
        data = ts.data - ts.data.mean(axis=1, keepdims=True)
        phase = np.exp(-1j * omega * ts.dt * n)
        x0 = (data[0] * phase).sum()
        x1 = (data[1] * phase).sum()
        expected = ts.dt / ts.n_samples * x0 * np.conj(x1)
        assert s.values[0, 1] == pytest.approx(expected, rel=1e-10)
        assert s.values[0, 0].imag == 0.0

    def test_hermitian(self, rng):
        ts = white_ts(rng, n_channels=3, n_samples=2000)
        s = estimate_cpsd_lag_domain(ts, 0.4)
        assert np.array_equal(s.values, s.values.conj().T)

    def test_negative_frequency_is_its_magnitude(self, rng):
        # the matrix is labelled |omega0|, so it must be the one taken there
        ts = white_ts(rng, n_channels=3, n_samples=2000)
        pos, neg = estimate_cpsd_lag_domain(ts, 0.5), estimate_cpsd_lag_domain(ts, -0.5)
        assert neg.omega == pos.omega == 0.5
        assert np.array_equal(neg.values, pos.values)


class TestEstimateInverse:
    def test_scaled_identity(self):
        s = CpsdMatrix(values=4.0 * np.eye(3), omega=0.2, source="analytic")
        inv = estimate_inverse_cpsd(s)
        assert np.allclose(inv.values, 0.25 * np.eye(3))
        assert inv.condition_number == pytest.approx(1.0)
        assert not inv.loaded

    def test_decoupled_analytic_inverse(self, scalar_node):
        sys = make_system(np.zeros((3, 3)))
        s = analytic_cpsd(sys, 2.0, 0.5)
        inv = estimate_inverse_cpsd(s)
        h = nodal_transfer(scalar_node, 0.5)
        assert np.allclose(inv.values, np.eye(3) / (2.0 * abs(h) ** 2))

    def test_random_hermitian_inversion_residual(self, rng):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        v = a @ a.conj().T + 0.5 * np.eye(6)
        s = CpsdMatrix(values=v, omega=1.0, source="analytic")
        inv = estimate_inverse_cpsd(s)
        assert np.abs(v @ inv.values - np.eye(6)).max() <= 1e-10 * np.abs(v).max()
        assert np.array_equal(inv.values, inv.values.conj().T)

    def test_singular_estimated_gets_loaded(self):
        v = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
        s = CpsdMatrix(values=v, omega=0.3, source="estimated")
        inv = estimate_inverse_cpsd(s)
        assert inv.loaded
        assert np.isfinite(inv.values).all()

    def test_rank_deficient_estimate_with_positive_rounding_gets_loaded(self):
        # a rank-one estimate whose zero eigenvalue rounded to +1e-19, not to <= 0
        v = np.diag([4.2e-3, 1e-19])
        assert np.linalg.eigvalsh(v)[0] == 1e-19
        inv = estimate_inverse_cpsd(CpsdMatrix(values=v, omega=0.3, source="estimated"))
        assert inv.loaded
        assert np.isfinite(inv.values).all()
        assert inv.condition_number <= 1e11

    def test_singular_analytic_raises_numerical_error(self):
        # rank one; where eigvalsh rounds its zero eigenvalue above 0 (+1.1e-16 with
        # OpenBLAS), the eigenvalue check passes it and the inversion must refuse it
        v = np.array([[9.0, 3.0], [3.0, 1.0]])
        with pytest.raises(NumericalError, match="singular"):
            estimate_inverse_cpsd(CpsdMatrix(values=v, omega=0.3, source="analytic"))

    def test_indefinite_estimated_fails_after_loading(self):
        v = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        s = CpsdMatrix(values=v, omega=0.3, source="estimated")
        with pytest.raises(NumericalError):
            estimate_inverse_cpsd(s)

    def test_indefinite_analytic_fails(self):
        v = np.array([[1.0, 2.0], [2.0, 1.0]])
        s = CpsdMatrix(values=v, omega=0.3, source="analytic")
        with pytest.raises(NumericalError):
            estimate_inverse_cpsd(s)


class TestGrids:
    def test_psd_grid_matches_scipy_welch(self, rng):
        ts = white_ts(rng, n_channels=2, n_samples=2**13)
        cfg = SpectralConfig(segment_length=512)
        omegas, psd = estimate_psd_grid(ts, cfg)
        freqs, ref = signal.welch(
            ts.data[0], fs=1.0 / ts.dt, window="hann", nperseg=512, noverlap=256,
            detrend="constant", return_onesided=False, scaling="density",
        )
        half = 512 // 2 + 1
        assert np.allclose(psd[0], ref[:half], rtol=1e-8)
        # scipy's two-sided grid wraps the Nyquist bin to -pi/dt; values agree
        assert np.allclose(omegas[:-1], 2 * np.pi * freqs[: half - 1])
        assert omegas[-1] == pytest.approx(abs(2 * np.pi * freqs[half - 1]))

    @pytest.mark.parametrize("cfg", [
        SpectralConfig(segment_length=256),
        SpectralConfig(segment_length=256, overlap_fraction=0.0, window="rectangular",
                       detrend="none"),
    ])
    def test_psd_grid_batches_match_whole_array(self, rng, cfg):
        # more segments than one batch, with a partial last batch or none
        for n_seg in (2 * ACCUMULATOR_BATCH + 8, 2 * ACCUMULATOR_BATCH):
            n = (n_seg - 1) * cfg.step + cfg.segment_length
            ts = white_ts(rng, n_channels=3, n_samples=n)
            assert cfg.n_segments(n) == n_seg
            win = cfg.window_values()
            ref = np.empty((3, cfg.segment_length // 2 + 1))
            for ch in range(3):
                segs = np.lib.stride_tricks.sliding_window_view(ts.data[ch], cfg.segment_length)
                segs = segs[:: cfg.step]
                if cfg.detrend == "mean":
                    segs = segs - segs.mean(axis=1, keepdims=True)
                spec = np.fft.rfft(segs * win, axis=1)
                ref[ch] = ts.dt / (n_seg * (win * win).sum()) * (
                    spec.real**2 + spec.imag**2).sum(axis=0)
            chunked = streamed(ts, 7)  # cut across segments and batches
            omegas, psd = estimate_psd_grid(chunked, cfg)
            assert np.array_equal(psd, ref)
            band = 0.5 * np.pi / ts.dt
            floor = np.where((omegas > 0) & (omegas < band), ref.min(axis=0), -np.inf)
            assert select_omega0(chunked, band, cfg) == omegas[int(np.argmax(floor))]


class TestSelectOmega0:
    def test_argmax_matches_dense_scan(self):
        sys = make_system(np.zeros((2, 2)))
        noise = NoiseConfig(seed=8)
        ts = simulate(sys, noise, SimConfig(dt=0.01, n_samples=2**15))
        cfg = SpectralConfig(segment_length=1024)
        band = noise.input_psd_model(0.01)
        chosen = select_omega0(ts, band.omega_max, cfg, node=sys.node)
        omegas, psd = estimate_psd_grid(ts, cfg)
        mask = (omegas > 0) & (omegas < band.omega_max) & (omegas < np.pi / 0.01)
        floor = psd.min(axis=0)
        brute = omegas[mask][np.argmax(floor[mask])]
        assert chosen == pytest.approx(brute)
        # first-order node with flat-band noise: output PSD decays with omega,
        # so the pick lands near the bottom of the admissible grid
        assert chosen <= 5 * (2 * np.pi / (1024 * 0.01))

    def test_deterministic(self, rng):
        ts = white_ts(rng)
        cfg = SpectralConfig(segment_length=512)
        a = select_omega0(ts, 10.0, cfg)
        b = select_omega0(ts, 10.0, cfg)
        assert a == b

    def test_empty_band_rejected(self, rng):
        ts = white_ts(rng)
        with pytest.raises(NumericalError):
            select_omega0(ts, 0.1, SpectralConfig(segment_length=512))


class TestReferenceAgreement:
    def test_reference_5_node_against_oracle(self):
        # entrywise agreement of the Welch estimate with the closed form on
        # the 5-node reference ring at L=2^20; every entry must sit within
        # its own standard-error budget, and the worst relative error at
        # K=511 segments concentrates near 7-8% (bounded at 12% here)
        from netspectra import NetworkSystem, NodeDynamics, NoiseConfig, SimConfig
        from netspectra.families import reference_laplacian_5

        sys = NetworkSystem(NodeDynamics.scalar_pole(-1.0), reference_laplacian_5())
        noise = NoiseConfig(variance=1.0, seed=1)
        ts = simulate(sys, noise, SimConfig(dt=0.01, n_samples=2**20))
        cfg = SpectralConfig(segment_length=4096)
        s = estimate_cpsd_matrix(ts, 0.5, cfg)
        oracle = analytic_cpsd(sys, noise.input_psd_model(0.01), s.omega)
        err = np.abs(s.values - oracle.values)
        diag = np.diag(oracle.values).real
        se = np.sqrt(np.outer(diag, diag) / s.segment_count)
        assert (err / se).max() <= 4.0
        sig = np.abs(oracle.values) >= 0.05 * np.abs(oracle.values).max()
        assert (err[sig] / np.abs(oracle.values)[sig]).max() <= 0.12
