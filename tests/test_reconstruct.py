import numpy as np
import pytest

from netspectra import (
    ConnectivityMatrix,
    CpsdMatrix,
    FrequencyRejectedError,
    NetworkSystem,
    NumericalError,
    NodeDynamics,
    ValidationError,
    analytic_cpsd,
    boolean_directed,
    compare,
    estimate_inverse_cpsd,
    exact_directed,
    exact_undirected,
    ground,
    input_psd_from_eigenpair,
    input_psd_laplacian,
    laplacian_connectivity,
    nodal_transfer,
    nonreciprocal,
    regular_connectivity,
    threshold_heuristic,
)
from netspectra.families import (
    nonreciprocal_ring,
    random_orientation,
    reference_laplacian_5,
    reference_laplacian_6,
    symmetric_network,
)

from conftest import make_system


def oracle_spectra(sys, s_w, omega, with_grounded=True):
    s = analytic_cpsd(sys, s_w, omega)
    grounded = []
    if with_grounded:
        for j in range(1, sys.n_nodes + 1):
            grounded.append((j, analytic_cpsd(sys.grounded(j), s_w, omega)))
    return s, grounded


@pytest.mark.parametrize("route", [
    lambda s, h: input_psd_from_eigenpair(s, h, 0.0, np.ones(2)),
    lambda s, h: exact_undirected(s, h, 1.0),
    lambda s, h: nonreciprocal(s, h, 1.0),
], ids=["eigenpair", "exact-undirected", "nonreciprocal"])
def test_transmission_zero_rejected_by_every_route(route):
    s = analytic_cpsd(make_system(np.zeros((2, 2))), 1.0, 0.5)
    with pytest.raises(FrequencyRejectedError, match="omega=0.5"):
        route(s, 1e-13 + 0j)


class TestInputPsd:
    def test_laplacian_wrapper_matches_closed_form(self, scalar_node):
        sys = NetworkSystem(scalar_node, reference_laplacian_5())
        s = analytic_cpsd(sys, 1.0, 0.5)
        h = nodal_transfer(scalar_node, 0.5)
        inv = estimate_inverse_cpsd(s)
        one = np.ones(5)
        closed_form = 5.0 / (float(np.real(one @ inv.values @ one)) * abs(h) ** 2)
        assert input_psd_laplacian(s, h) == pytest.approx(closed_form, rel=1e-12)
        assert input_psd_from_eigenpair(s, h, 0.0, one) == pytest.approx(closed_form, rel=1e-12)

    def test_decoupled_basis_vector_roundtrip(self, scalar_node):
        sys = make_system(np.zeros((3, 3)))
        s = analytic_cpsd(sys, 1.5, 0.8)
        h = nodal_transfer(scalar_node, 0.8)
        e2 = np.zeros(3)
        e2[1] = 1.0
        assert input_psd_from_eigenpair(s, h, 0.0, e2) == pytest.approx(1.5, rel=1e-12)

    def test_laplacian_oracle_roundtrip(self, scalar_node):
        sys = NetworkSystem(scalar_node, reference_laplacian_5())
        s = analytic_cpsd(sys, 1.0, 0.5)
        h = nodal_transfer(scalar_node, 0.5)
        assert input_psd_laplacian(s, h) == pytest.approx(1.0, rel=1e-10)

    def test_regular_eigenpair_roundtrip(self, rng):
        a = np.zeros((6, 6))
        for k in range(6):
            a[(k + 1) % 6, k] = 0.8
        g = regular_connectivity(a)
        sys = NetworkSystem(NodeDynamics.scalar_pole(-1.0), g)
        s = analytic_cpsd(sys, 2.0, 0.5)
        h = nodal_transfer(sys.node, 0.5)
        lam, u = g.eigenpair
        assert input_psd_from_eigenpair(s, h, lam, u) == pytest.approx(2.0, rel=1e-10)

    def test_scale_invariant_in_eigenvector(self, scalar_node):
        sys = NetworkSystem(scalar_node, reference_laplacian_5())
        s = analytic_cpsd(sys, 1.0, 0.5)
        h = nodal_transfer(scalar_node, 0.5)
        one = np.ones(5)
        assert input_psd_from_eigenpair(s, h, 0.0, one) == pytest.approx(
            input_psd_from_eigenpair(s, h, 0.0, 7.3 * one), rel=1e-12
        )

    def test_zero_eigenvector_rejected(self, scalar_node):
        sys = make_system(np.zeros((2, 2)))
        s = analytic_cpsd(sys, 1.0, 0.5)
        with pytest.raises(ValidationError):
            input_psd_from_eigenpair(s, 1.0 + 0.0j, 0.0, np.zeros(2))


class TestRecoverRow:
    # tau = -inf declares every off-diagonal entry present, so the weights are
    # the unthresholded square roots of the grounding differences

    def test_decoupled_rows_are_zero(self):
        sys = make_system(np.zeros((4, 4)))
        s, grounded = oracle_spectra(sys, 1.0, 0.5)
        res = exact_directed(s, grounded, 1.0, tau=-np.inf)
        assert np.abs(res.weights.weights).max() <= 1e-7
        assert res.diagnostics.clamp_count <= 4 * 3  # roundoff-level negatives allowed

    def test_two_node_difference_statistic(self):
        # grounding node 2 of g21=0.5 leaves [S^-1]_11 - [S~^-1]_11 = g21^2/S_w
        w = np.zeros((2, 2))
        w[1, 0] = 0.5
        s, grounded = oracle_spectra(make_system(w), 1.0, 0.0)
        res = exact_directed(s, grounded, 1.0)
        assert res.diagnostics.raw_differences[1, 0] == pytest.approx(0.25, abs=1e-12)
        assert res.weights.weights[1, 0] == pytest.approx(0.5, abs=1e-9)

    def test_reference_network_recovered_rowwise(self, scalar_node):
        g = reference_laplacian_5()
        sys = NetworkSystem(scalar_node, g)
        s, grounded = oracle_spectra(sys, 1.0, 0.5)
        rec = exact_directed(s, grounded, 1.0, tau=-np.inf).weights.weights
        # raw rows: edges exact; non-edges may carry sqrt-amplified roundoff
        edges = g.weights > 0
        off = ~np.eye(5, dtype=bool)
        for j in range(5):
            assert np.abs(rec[j, edges[j]] - g.weights[j, edges[j]]).max(initial=0.0) <= 1e-8
            assert np.abs(rec[j, off[j] & ~edges[j]]).max(initial=0.0) <= 1e-6
        # thresholded assembly removes the roundoff fuzz entirely
        res = exact_directed(s, grounded, 1.0)
        assert np.abs(res.weights.weights[off] - np.abs(g.weights[off])).max() <= 1e-8

    def test_dimension_mismatch(self):
        s, grounded = oracle_spectra(make_system(np.zeros((3, 3))), 1.0, 0.5)
        grounded[0] = (1, s)  # a full-size matrix where the grounded one belongs
        with pytest.raises(ValidationError, match="has size 3, expected 2"):
            exact_directed(s, grounded, 1.0)

    @staticmethod
    def _loop_row(s_inv, sj_inv, j, s_w):
        # the entry-by-entry form of the grounded-index shift, as a reference
        n = s_inv.shape[0]
        raw, weights, clamped = np.full(n, np.nan), np.zeros(n), 0
        for i in range(1, n + 1):
            if i == j:
                continue
            si = i - 1 if i < j else i - 2
            d = float(s_inv[i - 1, i - 1].real - sj_inv[si, si].real)
            raw[i - 1] = d
            if d < 0.0:
                clamped += 1
                d = 0.0
            weights[i - 1] = np.sqrt(s_w * d)
        return weights, raw, clamped

    def test_rows_equal_the_loop_and_the_routes_statistic(self, rng, scalar_node):
        g = random_orientation(6, 0.5, (0.3, 1.0), rng, spectral_radius=0.8)
        oracle = oracle_spectra(NetworkSystem(scalar_node, g), 1.0, 0.6)

        def estimated(n):
            x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            return CpsdMatrix(x @ x.conj().T + n * np.eye(n), 0.6, "estimated", 8)

        # unrelated random matrices in place of the grounded ones give
        # negative differences, which clamp
        noisy = (estimated(5), [(j, estimated(4)) for j in range(1, 6)])
        clamped = []
        for s, grounded in (oracle, noisy):
            res = exact_directed(s, grounded, 0.5, tau=-np.inf)
            s_inv = estimate_inverse_cpsd(s).values
            total = 0
            for j, sj in grounded:
                weights, raw, count = self._loop_row(
                    s_inv, estimate_inverse_cpsd(sj).values, j, 0.5)
                assert np.array_equal(res.weights.weights[j - 1], weights)
                assert np.array_equal(res.diagnostics.raw_differences[j - 1], raw,
                                      equal_nan=True)
                total += count
            assert res.diagnostics.clamp_count == total
            clamped.append(total)
        assert clamped[1] > 0


class TestBooleanDirected:
    def test_empty_graph(self):
        sys = make_system(np.zeros((3, 3)))
        s, grounded = oracle_spectra(sys, 1.0, 0.5)
        res = boolean_directed(s, grounded, tau=1e-6)
        assert res.boolean_structure.entries.sum() == 0

    def test_random_directed_exact(self, rng):
        from netspectra.families import directed_sparse, ensure_hurwitz

        node = NodeDynamics.scalar_pole(-1.0)
        for _ in range(10):
            g = ensure_hurwitz(
                lambda r: directed_sparse(6, 0.3, (0.3, 1.0), r), node, rng
            )
            sys = NetworkSystem(node, g)
            s, grounded = oracle_spectra(sys, 1.0, 0.5)
            res = boolean_directed(s, grounded, tau=1e-6)
            truth = (np.abs(g.weights) > 1e-6) & ~np.eye(6, dtype=bool)
            assert np.array_equal(res.boolean_structure.entries.astype(bool), truth)

    def test_omega_mismatch_rejected(self):
        sys = make_system(np.zeros((3, 3)))
        s, grounded = oracle_spectra(sys, 1.0, 0.5)
        bad = [(j, analytic_cpsd(sys.grounded(j), 1.0, 0.7)) for j, _ in grounded]
        with pytest.raises(ValidationError):
            boolean_directed(s, bad, tau=1e-6)

    def test_missing_grounded_rejected(self):
        sys = make_system(np.zeros((3, 3)))
        s, grounded = oracle_spectra(sys, 1.0, 0.5)
        with pytest.raises(ValidationError):
            boolean_directed(s, grounded[:-1], tau=1e-6)

    def test_duplicate_grounded_rejected(self):
        sys = make_system(np.zeros((3, 3)))
        s, grounded = oracle_spectra(sys, 1.0, 0.5)
        with pytest.raises(ValidationError):
            boolean_directed(s, grounded[:2] + [grounded[1]], tau=1e-6)


class TestExactDirected:
    def test_zero_graph(self):
        sys = make_system(np.zeros((4, 4)))
        s, grounded = oracle_spectra(sys, 1.0, 0.5)
        res = exact_directed(s, grounded, 1.0)
        assert np.abs(res.weights.weights).max() == 0.0

    def test_laplacian_weights_via_recovered_input_psd(self, scalar_node):
        g = reference_laplacian_6()
        sys = NetworkSystem(scalar_node, g)
        s, grounded = oracle_spectra(sys, 2.0, 0.5)
        h = nodal_transfer(scalar_node, 0.5)
        s_w = input_psd_laplacian(s, h)
        res = exact_directed(s, grounded, s_w)
        off = ~np.eye(6, dtype=bool)
        assert np.abs(res.weights.weights[off] - np.abs(g.weights[off])).max() <= 1e-8
        assert res.diagnostics.clamp_count == 0

    def test_boolean_consistent_with_weights(self, rng):
        from netspectra.families import directed_sparse, ensure_hurwitz

        node = NodeDynamics.scalar_pole(-1.0)
        g = ensure_hurwitz(lambda r: directed_sparse(5, 0.4, (0.3, 1.0), r), node, rng)
        sys = NetworkSystem(node, g)
        s, grounded = oracle_spectra(sys, 1.0, 0.5)
        res = exact_directed(s, grounded, 1.0)
        nonzero = res.weights.weights > 0
        assert np.array_equal(nonzero, res.boolean_structure.entries.astype(bool))


class TestExactUndirected:
    def test_zero_graph_minus_branch(self, scalar_node):
        sys = make_system(np.zeros((3, 3)))
        s = analytic_cpsd(sys, 1.0, 0.5)
        h = nodal_transfer(scalar_node, 0.5)  # Re(1/h) = 1 > 0: minus branch
        rec = exact_undirected(s, h, 1.0)
        assert np.abs(rec.connectivity.weights).max() <= 1e-10
        assert not rec.flipped

    def test_laplacian_ring(self, scalar_node):
        a = np.zeros((4, 4))
        for i, j, w in ((0, 1, 0.8), (1, 2, 1.0), (2, 3, 0.5), (3, 0, 0.9)):
            a[i, j] = a[j, i] = w
        g = laplacian_connectivity(a)
        sys = NetworkSystem(scalar_node, g)
        s = analytic_cpsd(sys, 1.0, 0.5)
        h = nodal_transfer(scalar_node, 0.5)
        rec = exact_undirected(s, h, 1.0)
        assert np.abs(rec.connectivity.weights - g.weights).max() <= 1e-8
        assert not rec.flipped

    def test_positive_weight_symmetric(self, rng, scalar_node):
        g = symmetric_network(5, 0.5, (0.3, 1.0), rng, max_eigenvalue=0.8)
        sys = NetworkSystem(scalar_node, g)
        s = analytic_cpsd(sys, 0.7, 0.4)
        h = nodal_transfer(scalar_node, 0.4)
        rec = exact_undirected(s, h, 0.7)
        assert np.abs(rec.connectivity.weights - g.weights).max() <= 1e-8

    def test_resonant_node_uses_plus_branch(self):
        # 1/h = (1 - w^2) + j*2*zeta*w is negative-real above resonance, so the
        # default branch switches to plus; G = 0 must still come back exactly
        node = NodeDynamics([[0.0, 1.0], [-1.0, -1.0]], [0.0, 1.0], [1.0, 0.0])
        sys = NetworkSystem(node, ConnectivityMatrix(np.zeros((3, 3))))
        omega = 1.2
        h = nodal_transfer(node, omega)
        assert (1.0 / h).real < 0
        s = analytic_cpsd(sys, 1.0, omega)
        rec = exact_undirected(s, h, 1.0)
        assert np.abs(rec.connectivity.weights).max() <= 1e-10
        assert not rec.flipped

    def test_verification_flips_wrong_default(self):
        # all eigenvalues of G below Re(1/h) < 0: the minus branch is correct,
        # but the default for negative Re(1/h) is plus -> one verified flip
        node = NodeDynamics([[0.0, 1.0], [-1.0, -1.0]], [0.0, 1.0], [1.0, 0.0])
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = a[1, 2] = a[2, 1] = 0.3
        g_shifted = laplacian_connectivity(a).weights - 1.0 * np.eye(3)
        g = ConnectivityMatrix(g_shifted)
        sys = NetworkSystem(node, g)
        omega = 1.2
        h = nodal_transfer(node, omega)
        assert max(np.linalg.eigvalsh(g.weights)) < (1.0 / h).real < 0
        s = analytic_cpsd(sys, 1.0, omega)
        rec = exact_undirected(s, h, 1.0)
        assert rec.flipped
        assert np.abs(rec.connectivity.weights - g.weights).max() <= 1e-8


class TestUndirectedSymmetryTest:
    """The undirected route's chi-square test of the symmetry it assumes."""

    def wishart(self, rng, s: CpsdMatrix, k: int) -> CpsdMatrix:
        """An estimate of ``s`` from ``k`` independent segments: ``Z Z^H / k``."""
        n = s.n_nodes
        z = np.linalg.cholesky(s.values) @ (
            rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / np.sqrt(2)
        return CpsdMatrix(z @ z.conj().T / k, s.omega, "estimated", k)

    def test_calibrated_on_a_symmetric_network(self, rng, scalar_node):
        # a symmetric network's CPSD is real: T is chi-square with N(N-1)/2 = 6
        # degrees of freedom, so about 1% of its estimates are refused
        a = np.roll(np.eye(4), 1, axis=0)
        s = analytic_cpsd(make_system(laplacian_connectivity(a + a.T).weights), 1.0, 0.5)
        h = nodal_transfer(scalar_node, 0.5)
        p_values, refused = [], 0
        for _ in range(500):
            try:
                rec = exact_undirected(self.wishart(rng, s, 200), h, 1.0, k_eff=200)
            except NumericalError as exc:
                assert "symmetry test" in str(exc)
                refused += 1
                continue
            assert rec.symmetry_p >= 0.01
            p_values.append(rec.symmetry_p)
        # 5 refusals expected (binomial 99.9% range 0-13); accepted p uniform on [0.01, 1]
        assert refused <= 13
        assert abs(np.mean(p_values) - 0.505) <= 0.05

    def test_refuses_a_directed_network(self, rng, scalar_node):
        g = ConnectivityMatrix(0.8 * np.roll(np.eye(4), 1, axis=0))
        s = analytic_cpsd(make_system(g.weights), 1.0, 0.5)
        h = nodal_transfer(scalar_node, 0.5)
        for _ in range(20):
            with pytest.raises(NumericalError, match=r"symmetry test: T = .* p = .* < 0.01"):
                exact_undirected(self.wishart(rng, s, 200), h, 1.0, k_eff=200)

    def test_statistic_is_the_whitened_imaginary_part(self, rng, scalar_node):
        from scipy.special import chdtrc

        a = np.roll(np.eye(3), 1, axis=0)
        s = analytic_cpsd(make_system(laplacian_connectivity(a + a.T).weights), 1.0, 0.5)
        h = nodal_transfer(scalar_node, 0.5)
        est = self.wishart(rng, s, 500)
        rec = exact_undirected(est, h, 1.0, k_eff=400.0)
        lam, v = np.linalg.eigh(est.values.real)
        z = v @ np.diag(lam ** -0.5) @ v.T @ est.values.imag @ v @ np.diag(lam ** -0.5) @ v.T
        t = 2 * 400.0 * sum(z[i, j] ** 2 for i in range(3) for j in range(i + 1, 3))
        assert rec.symmetry_chi2 == pytest.approx(t, rel=1e-10)
        assert rec.symmetry_p == pytest.approx(chdtrc(3, t), rel=1e-10)
        # analytic spectra are not tested; an estimate given no k_eff is refused
        assert exact_undirected(s, h, 1.0).symmetry_chi2 is None
        with pytest.raises(ValidationError, match="needs k_eff"):
            exact_undirected(est, h, 1.0)

    def test_refuses_an_estimate_it_cannot_whiten(self, rng, scalar_node):
        # a singular Re S would whiten to a nan statistic, and nan < alpha is false:
        # an exactly singular one, and a one-segment estimate's (Re S of rank two)
        a = np.roll(np.eye(4), 1, axis=0)
        s = analytic_cpsd(make_system(laplacian_connectivity(a + a.T).weights), 1.0, 0.5)
        h = nodal_transfer(scalar_node, 0.5)
        singular = CpsdMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), 0.5, "estimated", 1)
        for est in [singular] + [self.wishart(rng, s, 1) for _ in range(20)]:
            with pytest.raises(NumericalError, match="symmetry test: Re S has eigenvalue"):
                exact_undirected(est, h, 1.0, k_eff=1.0)


class TestNonreciprocal:
    def test_zero_graph(self, scalar_node):
        sys = make_system(np.zeros((3, 3)))
        s = analytic_cpsd(sys, 1.0, 1.0)
        h = nodal_transfer(scalar_node, 1.0)
        res = nonreciprocal(s, h, 1.0)
        assert res.boolean_structure.entries.sum() == 0
        assert np.abs(res.weights.weights).max() <= 1e-10

    def test_two_node_single_edge(self, scalar_node):
        w = np.zeros((2, 2))
        w[1, 0] = 0.5
        sys = make_system(w)
        omega = 1.0  # Im(1/h) = 1 there
        h = nodal_transfer(scalar_node, omega)
        assert (1.0 / h).imag == pytest.approx(1.0)
        s = analytic_cpsd(sys, 1.0, omega)
        res = nonreciprocal(s, h, 1.0)
        assert res.weights.weights[1, 0] == pytest.approx(0.5, abs=1e-10)
        assert res.weights.weights[0, 1] == 0.0

    def test_ring_exact_and_boolean_without_input_psd(self, rng, scalar_node):
        g = nonreciprocal_ring(5, (0.3, 0.9), rng)
        sys = NetworkSystem(scalar_node, g)
        s = analytic_cpsd(sys, 1.0, 0.7)
        h = nodal_transfer(scalar_node, 0.7)
        res = nonreciprocal(s, h, 1.0)
        assert np.abs(res.weights.weights - g.weights).max() <= 1e-8
        res_bool = nonreciprocal(s, h)  # no S_w
        assert res_bool.weights is None
        truth = (g.weights > 1e-6).astype(int)
        assert np.array_equal(res_bool.boolean_structure.entries, truth)

    def test_agrees_with_grounding_route(self, rng, scalar_node):
        g = random_orientation(6, 0.5, (0.3, 1.0), rng, spectral_radius=0.8)
        sys = NetworkSystem(scalar_node, g)
        s, grounded = oracle_spectra(sys, 1.0, 0.6)
        h = nodal_transfer(scalar_node, 0.6)
        skew = nonreciprocal(s, h, 1.0)
        grounded_route = exact_directed(s, grounded, 1.0)
        assert np.abs(
            skew.weights.weights - grounded_route.weights.weights
        ).max() <= 1e-8

    def test_dc_rejected(self, scalar_node):
        sys = make_system(np.zeros((2, 2)))
        s = analytic_cpsd(sys, 1.0, 0.0)
        h = nodal_transfer(scalar_node, 0.0)
        with pytest.raises(FrequencyRejectedError):
            nonreciprocal(s, h, 1.0)


class TestThresholdHeuristic:
    def test_obvious_gap(self):
        tau = threshold_heuristic([1.0, 0.9, 1e-9, 1e-10])
        assert 1e-9 < tau < 0.9

    def test_all_zero_falls_back(self):
        assert threshold_heuristic([0.0, 0.0]) == 1e-6
        assert threshold_heuristic([0.0, 0.0], fallback_tau=0.25) == 0.25

    def test_narrow_span_falls_back(self):
        assert threshold_heuristic([1.0, 0.9, 0.8, 0.5]) == 1e-6

    def test_noise_floor_guard(self, rng):
        # edge cluster at ~9 with symmetric noise around zero: the largest
        # multiplicative gap between tiny positives must not win
        noise = rng.normal(0.0, 0.6, 40)
        values = np.concatenate([[9.2, 9.0, 8.8], noise])
        tau = threshold_heuristic(values)
        assert np.abs(noise).max() < tau < 8.8

    def test_separates_simulated_statistics(self, scalar_node):
        # end-to-end raw differences from a short simulated run
        from netspectra import NoiseConfig, SimConfig, SpectralConfig
        from netspectra import estimate_cpsd_matrix, simulate, simulate_grounded

        g = reference_laplacian_6()
        sys = NetworkSystem(scalar_node, g)
        noise = NoiseConfig(seed=2)
        sim = SimConfig(dt=0.01, n_samples=2**18)
        cfg = SpectralConfig(segment_length=2048)
        s = estimate_cpsd_matrix(simulate(sys, noise, sim), 0.5, cfg)
        grounded = [
            (j, estimate_cpsd_matrix(simulate_grounded(sys, j, noise, sim), 0.5, cfg))
            for j in range(1, 7)
        ]
        res = boolean_directed(s, grounded, tau=1e-6)
        raw = res.diagnostics.raw_differences
        tau = threshold_heuristic(raw[np.isfinite(raw)])
        truth = (g.weights > 1e-6) & ~np.eye(6, dtype=bool)
        decided = (np.nan_to_num(raw, nan=0.0) > tau)
        assert np.array_equal(decided, truth)


class TestStatisticalCalibration:
    def test_connected_ring_weights_within_predicted_error(self, scalar_node):
        # end-to-end run on a connected directed Laplacian ring, checking the
        # recovered weights against the method's own error model: the
        # inverse-CPSD diagonals fluctuate with relative std ~1/sqrt(K), so
        # each weight's predicted sigma follows from the analytic inverses
        from netspectra import NoiseConfig, SimConfig, SpectralConfig
        from netspectra import estimate_cpsd_matrix, simulate, simulate_grounded
        from netspectra.families import reference_laplacian_5

        g = reference_laplacian_5()
        sys = NetworkSystem(scalar_node, g)
        noise = NoiseConfig(seed=6)
        sim = SimConfig(dt=0.01, n_samples=2**18)
        cfg = SpectralConfig(segment_length=2048)
        s = estimate_cpsd_matrix(simulate(sys, noise, sim), 0.5, cfg)
        k = s.segment_count
        grounded = [
            (j, estimate_cpsd_matrix(simulate_grounded(sys, j, noise, sim), 0.5, cfg))
            for j in range(1, 6)
        ]
        h = nodal_transfer(scalar_node, s.omega)
        s_w = input_psd_laplacian(s, h)
        res = exact_directed(s, grounded, s_w, tau=1e-6)

        model = NoiseConfig(seed=6).input_psd_model(0.01)
        oracle = analytic_cpsd(sys, model, s.omega)
        inv_full = estimate_inverse_cpsd(oracle).values
        edges = np.argwhere(g.weights > 0)
        for j0, i0 in edges:
            inv_g = estimate_inverse_cpsd(
                analytic_cpsd(sys.grounded(j0 + 1), model, s.omega)
            ).values
            si = i0 if i0 < j0 else i0 - 1
            var_diff = (inv_full[i0, i0].real ** 2 + inv_g[si, si].real ** 2) / k
            true_w = g.weights[j0, i0]
            sigma_w = model(s.omega) * np.sqrt(var_diff) / (2 * true_w)
            err = abs(res.weights.weights[j0, i0] - true_w)
            # 5-sigma band, plus a term for the shared S_w estimate noise
            assert err <= 5.0 * (sigma_w + true_w / (2 * np.sqrt(k)))


class TestDecision:
    # S_w = 0.01 puts the unscaled statistics (g/S_w, g^2/S_w, 9 to 90) above
    # tau = 5 and the S_w-scaled ones (g, g^2, below 1) under it
    S_W, TAU = 0.01, 5.0
    ROUTES = ["boolean", "exact-directed", "nonreciprocal"]

    @pytest.fixture
    def ring(self, rng, scalar_node):
        g = nonreciprocal_ring(5, (0.3, 0.9), rng)
        s, grounded = oracle_spectra(NetworkSystem(scalar_node, g), self.S_W, 0.7)
        return g, s, grounded, nodal_transfer(scalar_node, s.omega)

    def _route(self, route, ring, tau):
        _, s, grounded, h = ring
        if route == "boolean":
            return boolean_directed(s, grounded, tau=tau)
        if route == "exact-directed":
            return exact_directed(s, grounded, self.S_W, tau=tau)
        return nonreciprocal(s, h, self.S_W, tau=tau)

    @pytest.mark.parametrize("route", ROUTES)
    def test_decides_on_the_reported_statistic(self, route, ring):
        res = self._route(route, ring, self.TAU)
        off = ~np.eye(5, dtype=bool)
        raw = res.diagnostics.raw_differences
        boolean = res.boolean_structure.entries.astype(bool)
        assert res.threshold_used == self.TAU
        assert np.array_equal(boolean[off], raw[off] > res.threshold_used)
        assert np.array_equal(boolean, ring[0].weights > 0)
        if res.weights is not None:
            assert np.array_equal(res.weights.weights != 0, boolean)
            assert np.abs(res.weights.weights - ring[0].weights).max() <= 1e-8

    @pytest.mark.parametrize("route", ROUTES)
    def test_policy_tau_reads_the_raw_statistics(self, route, ring):
        seen = []

        def policy(values):
            seen.append(np.array(values))
            return threshold_heuristic(values)

        res = self._route(route, ring, policy)
        finite = res.diagnostics.raw_differences
        finite = finite[np.isfinite(finite)]
        if route == "nonreciprocal":  # the antisymmetric skew's negative half mirrors its edges
            finite = finite[finite > 0]
        assert len(seen) == 1 and np.array_equal(seen[0], finite)
        assert res.threshold_used == threshold_heuristic(finite)
        fixed = self._route(route, ring, res.threshold_used)
        assert np.array_equal(fixed.boolean_structure.entries, res.boolean_structure.entries)
