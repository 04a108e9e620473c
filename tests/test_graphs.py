import numpy as np
import pytest

from netspectra import (
    BooleanStructure,
    ConnectivityMatrix,
    ValidationError,
    compare,
    ground,
    is_nonreciprocal,
    laplacian_connectivity,
    load_matrix,
    regular_connectivity,
    save_matrix,
)


class TestConnectivityMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            ConnectivityMatrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            ConnectivityMatrix([[0.0, np.inf], [0.0, 0.0]])

    def test_eigenpair_residual_checked(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        ConnectivityMatrix(w, eigenpair=(1.0, np.array([1.0, 1.0])))
        with pytest.raises(ValidationError):
            ConnectivityMatrix(w, eigenpair=(1.0, np.array([1.0, -1.0])))

    def test_weights_read_only(self):
        g = ConnectivityMatrix(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            g.weights[0, 0] = 1.0


class TestGround:
    def test_zero_matrix(self):
        g = ground(ConnectivityMatrix(np.zeros((3, 3))), 2)
        assert g.n_nodes == 2
        assert np.array_equal(g.weights, np.zeros((2, 2)))

    def test_identity_minor(self):
        g = ground(ConnectivityMatrix(np.eye(3)), 1)
        assert np.array_equal(g.weights, np.eye(2))

    def test_deletion_preserves_untouched_entries(self):
        w = np.zeros((4, 4))
        w[2, 1] = 0.7  # edge v2 -> v3 in 1-based terms
        g = ground(ConnectivityMatrix(w), 4)
        assert g.weights[2, 1] == 0.7

    def test_double_grounding_matches_direct_deletion(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 9))
            w = rng.standard_normal((n, n))
            j = int(rng.integers(1, n + 1))
            k = int(rng.integers(1, n))
            twice = ground(ground(ConnectivityMatrix(w), j), k)
            # map the second (1-based) deletion index back to the original
            survivors = [i for i in range(n) if i != j - 1]
            keep = [i for t, i in enumerate(survivors) if t != k - 1]
            assert np.array_equal(twice.weights, w[np.ix_(keep, keep)])

    def test_eigenpair_dropped(self):
        g = laplacian_connectivity([[0, 1], [1, 0]])
        assert ground(g, 1).eigenpair is None

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            ground(ConnectivityMatrix(np.zeros((3, 3))), 4)
        with pytest.raises(IndexError):
            ground(ConnectivityMatrix(np.zeros((3, 3))), 0)

    def test_single_node_rejected(self):
        with pytest.raises(ValidationError):
            ground(ConnectivityMatrix(np.zeros((1, 1))), 1)


class TestLaplacianConnectivity:
    def test_two_node_pair(self):
        g = laplacian_connectivity([[0, 1], [1, 0]])
        assert np.array_equal(g.weights, [[-1, 1], [1, -1]])
        lam, u = g.eigenpair
        assert lam == 0.0
        assert np.array_equal(u, [1.0, 1.0])

    def test_empty_graph(self):
        g = laplacian_connectivity(np.zeros((4, 4)))
        assert np.array_equal(g.weights, np.zeros((4, 4)))
        assert g.eigenpair[0] == 0.0

    def test_three_cycle_diagonal_and_row_sums(self):
        a = np.zeros((3, 3))
        a[1, 0] = a[2, 1] = a[0, 2] = 1.0
        g = laplacian_connectivity(a)
        assert np.array_equal(np.diag(g.weights), [-1, -1, -1])
        assert np.allclose(g.weights.sum(axis=1), 0.0)

    def test_row_sums_vanish_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 10))
            a = rng.uniform(0, 2, (n, n)) * (rng.random((n, n)) < 0.5)
            np.fill_diagonal(a, 0.0)
            g = laplacian_connectivity(a)
            assert np.abs(g.weights @ np.ones(n)).max() <= 1e-12

    def test_validation(self):
        with pytest.raises(ValidationError):
            laplacian_connectivity([[0, -1], [1, 0]])
        with pytest.raises(ValidationError):
            laplacian_connectivity([[1, 0], [0, 0]])


class TestRegularConnectivity:
    def test_uniform_ring(self):
        a = np.zeros((4, 4))
        for k in range(4):
            a[(k + 1) % 4, k] = 0.8
        g = regular_connectivity(a)
        lam, u = g.eigenpair
        assert lam == pytest.approx(0.8)
        assert np.array_equal(u, np.ones(4))

    def test_irregular_rejected(self):
        a = np.zeros((3, 3))
        a[1, 0] = 1.0
        with pytest.raises(ValidationError):
            regular_connectivity(a)


class TestIsNonreciprocal:
    def test_single_edge(self):
        w = np.zeros((3, 3))
        w[1, 0] = 0.5
        assert is_nonreciprocal(ConnectivityMatrix(w))

    def test_reciprocal_pair(self):
        w = np.zeros((2, 2))
        w[0, 1] = w[1, 0] = 1.0
        assert not is_nonreciprocal(ConnectivityMatrix(w))

    def test_zero(self):
        assert is_nonreciprocal(ConnectivityMatrix(np.zeros((4, 4))))

    def test_invalid_inputs_warn_and_return_false(self):
        with pytest.warns(UserWarning):
            assert not is_nonreciprocal(ConnectivityMatrix(np.eye(2)))
        w = np.zeros((2, 2))
        w[0, 1] = -0.5
        with pytest.warns(UserWarning):
            assert not is_nonreciprocal(ConnectivityMatrix(w))

    def test_implies_no_bidirectional_pair(self, rng):
        from netspectra.families import random_orientation

        for _ in range(20):
            g = random_orientation(6, 0.5, (0.3, 1.0), rng)
            assert is_nonreciprocal(g)
            w = g.weights
            assert np.minimum(w, w.T).max() <= 1e-12


class TestCompare:
    def test_self_comparison(self, rng):
        w = rng.uniform(0, 1, (5, 5)) * (rng.random((5, 5)) < 0.4)
        np.fill_diagonal(w, 0.0)
        g = ConnectivityMatrix(w)
        m = compare(g, g, edge_tol=1e-6)
        assert m.precision == m.recall == m.f1 == 1.0
        assert m.rms_error == 0.0

    def test_missed_edge(self):
        w = np.zeros((3, 3))
        w[1, 0] = 1.0
        m = compare(ConnectivityMatrix(w), ConnectivityMatrix(np.zeros((3, 3))), 1e-6)
        assert m.recall == 0.0

    def test_rmse_single_edge(self):
        t = np.zeros((2, 2))
        t[1, 0] = 0.5
        r = np.zeros((2, 2))
        r[1, 0] = 0.55
        m = compare(ConnectivityMatrix(t), ConnectivityMatrix(r), 1e-6)
        assert m.rms_error == pytest.approx(0.05)
        assert m.max_abs_error == pytest.approx(0.05)

    def test_boolean_recovery(self):
        t = np.zeros((3, 3))
        t[1, 0] = 0.7
        b = np.zeros((3, 3), dtype=int)
        b[1, 0] = 1
        m = compare(ConnectivityMatrix(t), BooleanStructure(b), 1e-6)
        assert m.f1 == 1.0
        assert m.max_abs_error is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            compare(
                ConnectivityMatrix(np.zeros((3, 3))),
                ConnectivityMatrix(np.zeros((4, 4))),
                1e-6,
            )


class TestBooleanStructure:
    def test_diagonal_must_be_zero(self):
        with pytest.raises(ValidationError):
            BooleanStructure(np.eye(2, dtype=int))


class TestMatrixIO:
    def test_roundtrip_with_eigenpair(self, tmp_path, rng):
        a = rng.uniform(0, 1, (4, 4)) * (rng.random((4, 4)) < 0.6)
        np.fill_diagonal(a, 0.0)
        g = laplacian_connectivity(a)
        path = tmp_path / "net.txt"
        save_matrix(path, g)
        g2 = load_matrix(path)
        assert np.array_equal(g.weights, g2.weights)
        assert g2.eigenpair[0] == 0.0
        assert np.array_equal(g2.eigenpair[1], np.ones(4))

    def test_roundtrip_plain(self, tmp_path):
        g = ConnectivityMatrix([[0.0, 0.25], [0.5, 0.0]])
        save_matrix(tmp_path / "m.txt", g)
        g2 = load_matrix(tmp_path / "m.txt")
        assert np.array_equal(g.weights, g2.weights)
        assert g2.eigenpair is None

    def test_malformed(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2\n1 2\n")
        with pytest.raises(ValidationError):
            load_matrix(p)
