import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlds import (
    GraphKind,
    build_laplacian,
    closed_form_spectrum,
    complete_graph,
    custom_graph,
    delocalization_theta,
    load_edge_list,
    path_graph,
    quadratic_variation,
    spectrum,
    star_graph,
)
from oracles import brute_force_theta, random_connected_graph


class TestTopology:
    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            custom_graph(1, [])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            custom_graph(3, [(1, 1), (1, 2), (2, 3)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            custom_graph(3, [(1, 2), (2, 1), (2, 3)])

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="not connected"):
            custom_graph(4, [(1, 2), (3, 4)])

    def test_rejects_out_of_range_node(self):
        with pytest.raises(ValueError, match="outside"):
            custom_graph(3, [(1, 2), (2, 4)])

    def test_star_hub_is_node_one(self):
        g = star_graph(5)
        deg = g.degrees()
        assert deg[0] == 4
        assert all(deg[i] == 1 for i in range(1, 5))

    def test_edge_list_roundtrip(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# a comment\n1 2\n2 3  # trailing\n\n3 4\n")
        g = load_edge_list(path)
        assert g.m == 4
        assert g.edges == ((1, 2), (2, 3), (3, 4))

    def test_edge_list_rejects_garbage(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(ValueError, match="expected"):
            load_edge_list(path)


class TestLaplacian:
    def test_path_m2(self):
        lap = build_laplacian(path_graph(2))
        assert np.array_equal(lap, [[1, -1], [-1, 1]])

    def test_complete_m3(self):
        lap = build_laplacian(complete_graph(3))
        assert np.array_equal(lap, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])

    def test_star_m3(self):
        lap = build_laplacian(star_graph(3))
        assert np.array_equal(lap, [[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])

    @given(st.integers(min_value=2, max_value=64), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_row_sums_zero_and_connected_spectrum(self, m, seed):
        g = random_connected_graph(np.random.default_rng(seed), m)
        lap = build_laplacian(g)
        assert np.array_equal(lap.sum(axis=1), np.zeros(m))
        spec = spectrum(lap)
        assert abs(spec.eigenvalues[-1]) <= 1e-9
        assert spec.eigenvalues[-2] > 1e-9  # algebraic connectivity

    @pytest.mark.parametrize("g", [complete_graph(40), star_graph(7),
                                   random_connected_graph(np.random.default_rng(4), 30)])
    def test_matches_edge_loop(self, g):
        expected = np.zeros((g.m, g.m))
        for a, b in g.edges:
            expected[a - 1, b - 1] = expected[b - 1, a - 1] = -1.0
            expected[a - 1, a - 1] += 1.0
            expected[b - 1, b - 1] += 1.0
        assert np.array_equal(build_laplacian(g), expected)
        assert np.array_equal(g.degrees(), np.diag(expected))


class TestSpectrum:
    def test_path_m2_eigenvalues(self):
        spec = spectrum(build_laplacian(path_graph(2)))
        assert np.allclose(spec.eigenvalues, [2.0, 0.0], atol=1e-12)

    def test_complete_m4_eigenvalues(self):
        spec = spectrum(build_laplacian(complete_graph(4)))
        assert np.allclose(spec.eigenvalues, [4, 4, 4, 0], atol=1e-10)

    def test_descending_order_and_orthonormality(self):
        spec = spectrum(build_laplacian(star_graph(7)))
        assert np.all(np.diff(spec.eigenvalues) <= 1e-12)
        assert np.allclose(spec.eigenvectors.T @ spec.eigenvectors, np.eye(7), atol=1e-10)

    def test_constant_eigenvector_last(self):
        spec = spectrum(build_laplacian(complete_graph(6)))
        assert np.allclose(spec.eigenvectors[:, -1], np.full(6, 1 / np.sqrt(6)), atol=1e-9)

    def test_eigenpairs_satisfy_definition(self):
        lap = build_laplacian(random_connected_graph(np.random.default_rng(3), 12))
        spec = spectrum(lap)
        assert np.allclose(lap @ spec.eigenvectors,
                           spec.eigenvectors * spec.eigenvalues, atol=1e-9)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            spectrum(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_deterministic_on_degenerate_spectrum(self):
        lap = build_laplacian(complete_graph(5))
        s1 = spectrum(lap)
        s2 = spectrum(lap.copy())
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


class TestClosedFormSpectrum:
    def test_path_m2(self):
        spec = closed_form_spectrum(GraphKind.PATH, 2)
        assert np.allclose(spec.eigenvalues, [2.0, 0.0], atol=1e-12)

    def test_star_m5(self):
        spec = closed_form_spectrum(GraphKind.STAR, 5)
        assert np.allclose(spec.eigenvalues, [5, 1, 1, 1, 0], atol=1e-12)

    def test_rejects_m1(self):
        with pytest.raises(ValueError):
            closed_form_spectrum(GraphKind.PATH, 1)

    def test_path_m8_matches_eigensolver(self):
        analytic = closed_form_spectrum(GraphKind.PATH, 8)
        numeric = spectrum(build_laplacian(path_graph(8)))
        assert np.allclose(analytic.eigenvalues, numeric.eigenvalues, atol=1e-10)

    @pytest.mark.parametrize("kind,builder", [
        (GraphKind.PATH, path_graph),
        (GraphKind.COMPLETE, complete_graph),
        (GraphKind.STAR, star_graph),
    ])
    def test_all_families_match_eigensolver(self, kind, builder):
        for m in range(2, 65):
            analytic = closed_form_spectrum(kind, m)
            numeric = spectrum(build_laplacian(builder(m)))
            assert np.allclose(analytic.eigenvalues, numeric.eigenvalues, atol=1e-9), m

    def test_path_eigenvectors_orthonormal_and_consistent(self):
        for m in (2, 3, 5, 17, 40):
            spec = closed_form_spectrum(GraphKind.PATH, m)
            v = spec.eigenvectors
            assert np.allclose(v.T @ v, np.eye(m), atol=1e-9)
            lap = build_laplacian(path_graph(m))
            assert np.allclose(lap @ v, v * spec.eigenvalues, atol=1e-8)


class TestQuadraticVariation:
    def test_single_edge_identity_difference(self):
        mats = np.stack([np.zeros((2, 2)), np.eye(2)])
        assert quadratic_variation(mats, path_graph(2)) == pytest.approx(2.0)

    def test_identical_matrices_zero(self):
        mats = np.broadcast_to(np.arange(9.0).reshape(3, 3), (5, 3, 3)).copy()
        for g in (path_graph(5), complete_graph(5), star_graph(5)):
            assert quadratic_variation(mats, g) == 0.0

    def test_chunked_sum_matches_edge_loop(self):
        # 780 edges span several gather chunks
        g = complete_graph(40)
        mats = np.random.default_rng(3).standard_normal((40, 3, 3))
        expected = sum(float(np.sum((mats[a - 1] - mats[b - 1]) ** 2)) for a, b in g.edges)
        assert quadratic_variation(mats, g) == pytest.approx(expected, rel=1e-13)

    def test_dimension_mismatch(self):
        mats = np.zeros((3, 2, 2))
        with pytest.raises(ValueError, match="graph has m"):
            quadratic_variation(mats, path_graph(4))

    @given(st.integers(min_value=2, max_value=8),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_kronecker_form(self, m, d, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, m)
        mats = rng.standard_normal((m, d, d))
        edge_sum = quadratic_variation(mats, g)
        a = np.concatenate([mat.flatten(order="F") for mat in mats])
        kron = np.kron(build_laplacian(g), np.eye(d * d))
        dense = float(a @ kron @ a)
        assert edge_sum == pytest.approx(dense, rel=1e-10, abs=1e-12)


class TestDelocalization:
    def test_at_least_one(self):
        spec = spectrum(build_laplacian(complete_graph(6)))
        assert delocalization_theta(spec) >= 1.0 - 1e-12

    def test_path_bounded_by_two(self):
        for m in range(2, 201):
            spec = closed_form_spectrum(GraphKind.PATH, m)
            assert delocalization_theta(spec) <= 2.0 + 1e-9, m

    def test_star_matches_brute_force(self):
        spec = spectrum(build_laplacian(star_graph(10)))
        assert delocalization_theta(spec) == pytest.approx(brute_force_theta(spec), abs=1e-12)

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_random_graphs(self, m, seed):
        g = random_connected_graph(np.random.default_rng(seed), m)
        spec = spectrum(build_laplacian(g))
        assert delocalization_theta(spec) == pytest.approx(brute_force_theta(spec), abs=1e-10)
