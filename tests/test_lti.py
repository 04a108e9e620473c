import numpy as np
import pytest

from netspectra import (
    ConnectivityMatrix,
    CpsdMatrix,
    FrequencyRejectedError,
    InputPsdModel,
    NetworkSystem,
    NodeDynamics,
    ValidationError,
    analytic_cpsd,
    is_hurwitz,
    load_cpsd,
    load_node,
    network_transfer_closed,
    network_transfer_direct,
    nodal_transfer,
    save_cpsd,
    save_node,
)
from netspectra.families import random_hurwitz_system

from conftest import make_system


class TestNodalTransfer:
    def test_dc_gain_of_first_order_node(self, scalar_node):
        assert nodal_transfer(scalar_node, 0.0) == pytest.approx(1.0)

    def test_first_order_at_unit_frequency(self, scalar_node):
        assert nodal_transfer(scalar_node, 1.0) == pytest.approx(0.5 - 0.5j)

    def test_two_state_chain_dc(self):
        # c^T (-A)^{-1} b with A=[[-1,0],[1,-2]]: (-A)^{-1} = [[1,0],[0.5,0.5]]
        node = NodeDynamics([[-1.0, 0.0], [1.0, -2.0]], [1.0, 0.0], [0.0, 1.0])
        assert nodal_transfer(node, 0.0) == pytest.approx(0.5)

    def test_conjugate_symmetry(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            node = NodeDynamics(
                rng.standard_normal((n, n)) - 2 * np.eye(n),
                rng.standard_normal(n),
                rng.standard_normal(n),
            )
            w = float(rng.uniform(0.1, 5.0))
            assert nodal_transfer(node, -w) == pytest.approx(
                np.conj(nodal_transfer(node, w))
            )

    def test_scalar_pole_rejects_unstable(self):
        with pytest.raises(ValidationError):
            NodeDynamics.scalar_pole(0.5)


#: node whose transfer function 1/(s+1)^2 * (1 - (s+1)) = -s/(s+1)^2 has a zero at s=0
ZERO_AT_DC_NODE = NodeDynamics([[-1.0, 1.0], [0.0, -1.0]], [0.0, 1.0], [1.0, -1.0])


class TestNetworkTransfer:
    def test_decoupled_is_diagonal(self, scalar_node):
        sys = make_system(np.zeros((3, 3)))
        h = nodal_transfer(scalar_node, 0.7)
        assert np.allclose(network_transfer_direct(sys, 0.7), h * np.eye(3))
        assert np.allclose(network_transfer_closed(sys, 0.7), h * np.eye(3))

    def test_scalar_feedback_loop(self, scalar_node):
        gamma = 0.4
        sys = make_system([[gamma]])
        h = nodal_transfer(scalar_node, 0.3)
        expected = h / (1 - gamma * h)
        assert network_transfer_direct(sys, 0.3)[0, 0] == pytest.approx(expected)
        assert network_transfer_closed(sys, 0.3)[0, 0] == pytest.approx(expected)

    def test_single_edge_lower_triangular_at_dc(self):
        w = np.zeros((2, 2))
        w[1, 0] = 0.5
        sys = make_system(w)
        assert np.allclose(
            network_transfer_closed(sys, 0.0), [[1.0, 0.0], [0.5, 1.0]]
        )

    def test_routes_agree_on_random_stable_systems(self, rng):
        for _ in range(30):
            sys = random_hurwitz_system(rng)
            w = float(rng.uniform(0.05, 3.0))
            try:
                hc = network_transfer_closed(sys, w)
            except FrequencyRejectedError:
                continue
            hd = network_transfer_direct(sys, w)
            scale = max(1.0, np.abs(hd).max())
            assert np.abs(hd - hc).max() <= 1e-9 * scale

    def test_transmission_zero_rejected(self):
        sys = NetworkSystem(ZERO_AT_DC_NODE, ConnectivityMatrix(np.zeros((2, 2))))
        with pytest.raises(FrequencyRejectedError):
            network_transfer_closed(sys, 0.0)


class TestIsHurwitz:
    def test_decoupled_stable(self, scalar_node):
        rep = is_hurwitz(make_system(np.zeros((2, 2))))
        assert rep.stable
        assert rep.spectral_abscissa == pytest.approx(-1.0)

    def test_strong_self_loop_unstable(self):
        rep = is_hurwitz(make_system([[2.0]]))
        assert not rep.stable
        assert rep.spectral_abscissa == pytest.approx(1.0)

    def test_diffusive_coupling_stable(self, rng):
        from netspectra import laplacian_connectivity

        for _ in range(10):
            n = int(rng.integers(2, 8))
            a = rng.uniform(0, 3, (n, n)) * (rng.random((n, n)) < 0.5)
            np.fill_diagonal(a, 0.0)
            sys = NetworkSystem(
                NodeDynamics.scalar_pole(-1.0), laplacian_connectivity(a)
            )
            assert is_hurwitz(sys).stable


class TestAnalyticCpsd:
    def test_decoupled(self, scalar_node):
        sys = make_system(np.zeros((3, 3)))
        s = analytic_cpsd(sys, 2.0, 0.4)
        h = nodal_transfer(scalar_node, 0.4)
        assert np.allclose(s.values, 2.0 * abs(h) ** 2 * np.eye(3))
        assert s.source == "analytic"

    def test_single_edge_frozen_values(self):
        # H at omega=0 is [[1,0],[0.5,1]], so S = H H* = [[1,.5],[.5,1.25]]
        w = np.zeros((2, 2))
        w[1, 0] = 0.5
        s = analytic_cpsd(make_system(w), 1.0, 0.0)
        assert np.allclose(s.values, [[1.0, 0.5], [0.5, 1.25]], atol=1e-12)

    def test_matches_transfer_product_form(self, rng):
        for _ in range(30):
            sys = random_hurwitz_system(rng)
            w = float(rng.uniform(0.05, 3.0))
            s_w = float(rng.uniform(0.5, 2.0))
            try:
                s = analytic_cpsd(sys, s_w, w)
            except FrequencyRejectedError:
                continue
            h = network_transfer_direct(sys, w)
            product = s_w * h @ h.conj().T
            assert np.abs(s.values - product).max() <= 1e-9 * np.abs(product).max()

    def test_hermitian_positive_definite(self, rng):
        for _ in range(20):
            sys = random_hurwitz_system(rng)
            s = analytic_cpsd(sys, 1.0, float(rng.uniform(0.1, 2.0)))
            lam = np.linalg.eigvalsh(s.values)
            assert lam.min() >= -1e-12 * max(1.0, lam.max())

    def test_negative_frequency_transpose_relation(self, rng):
        for _ in range(10):
            sys = random_hurwitz_system(rng)
            w = float(rng.uniform(0.1, 2.0))
            s_pos = analytic_cpsd(sys, 1.0, w)
            s_neg = analytic_cpsd(sys, 1.0, -w)
            assert np.allclose(s_neg.values, s_pos.values.T, atol=1e-12)

    def test_outside_excitation_band_rejected(self, scalar_node):
        sys = make_system(np.zeros((2, 2)))
        model = InputPsdModel.flat(1.0, omega_max=0.5)
        with pytest.raises(FrequencyRejectedError):
            analytic_cpsd(sys, model, 1.0)


class TestInputPsdModel:
    def test_flat(self):
        m = InputPsdModel.flat(2.0)
        assert m(0.3) == 2.0
        assert m(-0.3) == 2.0

    def test_level_must_be_positive(self):
        with pytest.raises(ValidationError):
            InputPsdModel.flat(0.0)

    def test_even_by_construction(self):
        m = InputPsdModel(evaluator=lambda w: 1.0 + w, omega_max=5.0)
        assert m(-2.0) == m(2.0)


class TestCpsdMatrixType:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            CpsdMatrix(values=np.array([[1.0, 1j], [1j, 1.0]]), omega=0.1, source="analytic")

    def test_rejects_negative_diagonal(self):
        with pytest.raises(ValidationError):
            CpsdMatrix(values=-np.eye(2), omega=0.1, source="analytic")

    def test_rejects_unknown_source(self):
        with pytest.raises(ValidationError):
            CpsdMatrix(values=np.eye(2), omega=0.1, source="guessed")


class TestSerialization:
    def test_node_roundtrip(self, tmp_path):
        node = NodeDynamics([[-1.0, 0.5], [0.0, -2.0]], [1.0, 0.25], [0.0, 1.0])
        save_node(tmp_path / "n.txt", node)
        n2 = load_node(tmp_path / "n.txt")
        assert np.array_equal(node.a, n2.a)
        assert np.array_equal(node.b, n2.b)
        assert np.array_equal(node.c, n2.c)

    def test_cpsd_roundtrip(self, tmp_path, rng):
        sys = random_hurwitz_system(rng)
        s = analytic_cpsd(sys, 1.0, 0.6)
        save_cpsd(tmp_path / "s.txt", s)
        s2 = load_cpsd(tmp_path / "s.txt")
        assert np.array_equal(s.values, s2.values)
        assert s2.omega == s.omega
        assert s2.source == "analytic"
        assert s2.segment_count is None

    def test_estimated_cpsd_roundtrip_keeps_stderr(self, tmp_path, rng):
        x = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
        v = x.T @ x.conj() / 40
        v = 0.5 * (v + v.conj().T)
        s = CpsdMatrix(values=v, omega=0.6, source="estimated", segment_count=40)
        save_cpsd(tmp_path / "s.txt", s)
        s2 = load_cpsd(tmp_path / "s.txt")
        assert np.array_equal(s.values, s2.values)
        assert (s2.segment_count, s2.stderr) == (40, s.stderr)
