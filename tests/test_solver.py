import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlds import (
    ConvergenceError,
    PenalizedOperator,
    SingularSystemError,
    TrajectoryBundle,
    build_laplacian,
    complete_graph,
    gram_blocks,
    path_graph,
    pinv_solve,
    solve_spd,
    star_graph,
)
from graphlds.solver import _solve_banded, _solve_cg
from oracles import (
    dense_penalized_matrix,
    dense_q,
    dense_targets,
    random_bundle,
    random_connected_graph,
    stack,
)


def vec(mats):
    """The dense oracles' coefficient vector for a row-split stack: the
    column-major vec of each A_l = M_l^T."""
    return stack(np.asarray(mats).transpose(0, 2, 1))


# both solve paths at their defaults, called directly
SOLVERS = {
    "banded": _solve_banded,
    "cg": lambda op, rhs: _solve_cg(op, rhs, tol=1e-10, max_iter=1000),
}


class TestGramBlocks:
    def test_rank_one_single_step(self):
        states = np.zeros((1, 3, 2))
        states[0, :, 0] = [1.0, 0.0, 0.0]  # x_1 = e1
        states[0, :, 1] = [0.5, 2.0, -1.0]
        blocks = gram_blocks(TrajectoryBundle(states=states))
        e1 = np.array([1.0, 0.0, 0.0])
        assert np.array_equal(blocks.ys[0], np.outer(e1, e1))
        assert np.array_equal(blocks.cs[0], np.outer(states[0, :, 1], e1))

    def test_blocks_match_dense_q(self):
        rng = np.random.default_rng(5)
        bundle = random_bundle(rng, 3, 2, 4)
        blocks = gram_blocks(bundle)
        q = dense_q(bundle)
        qtq = q.T @ q
        d = 2
        for l in range(3):
            s = l * d * d
            assert np.allclose(qtq[s:s + 4, s:s + 4],
                               np.kron(blocks.ys[l], np.eye(d)), atol=1e-12)
        # off-diagonal blocks are exactly zero
        dense_blkdiag = np.zeros_like(qtq)
        for l in range(3):
            s = l * d * d
            dense_blkdiag[s:s + 4, s:s + 4] = np.kron(blocks.ys[l], np.eye(d))
        assert np.allclose(qtq, dense_blkdiag, atol=1e-12)

    def test_rhs_matches_dense_q(self):
        rng = np.random.default_rng(6)
        bundle = random_bundle(rng, 3, 2, 4)
        blocks = gram_blocks(bundle)
        expected = dense_q(bundle).T @ dense_targets(bundle)
        assert np.allclose(stack(blocks.cs), expected, atol=1e-12)

    def test_ys_symmetric_psd(self):
        bundle = random_bundle(np.random.default_rng(7), 4, 3, 5)
        blocks = gram_blocks(bundle)
        for y in blocks.ys:
            assert np.allclose(y, y.T, atol=1e-10)
            assert np.linalg.eigvalsh(y).min() >= -1e-10


class TestApplyPenalized:
    def _operator(self, rng, m, d, horizon, lam):
        bundle = random_bundle(rng, m, d, horizon)
        g = random_connected_graph(rng, m)
        blocks = gram_blocks(bundle)
        return PenalizedOperator(blocks=blocks, laplacian=build_laplacian(g), lam=lam), bundle, g

    def test_lambda_zero_block_diagonal_action(self):
        rng = np.random.default_rng(8)
        op, bundle, _ = self._operator(rng, 3, 2, 4, 0.0)
        mats = rng.standard_normal(op.shape)
        out = op.apply(mats)
        for l in range(3):
            expected = mats[l].T @ op.blocks.ys[l]  # A_l Y_l
            assert np.allclose(out[l], expected.T, atol=1e-12)

    def test_constant_blocks_kill_laplacian_term(self):
        rng = np.random.default_rng(9)
        op, _, _ = self._operator(rng, 4, 2, 5, 3.7)
        block = rng.standard_normal((2, 2))
        mats = np.tile(block, (4, 1, 1))
        zero_op = PenalizedOperator(blocks=op.blocks, laplacian=op.laplacian, lam=0.0)
        assert np.allclose(op.apply(mats), zero_op.apply(mats), atol=1e-11)

    @given(st.integers(min_value=2, max_value=5),
           st.integers(min_value=1, max_value=3),
           st.floats(min_value=0.0, max_value=10.0),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_operator(self, m, d, lam, seed):
        rng = np.random.default_rng(seed)
        bundle = random_bundle(rng, m, d, d + 2)
        g = random_connected_graph(rng, m)
        blocks = gram_blocks(bundle)
        op = PenalizedOperator(blocks=blocks, laplacian=build_laplacian(g), lam=lam)
        dense = dense_penalized_matrix(bundle, g, lam)
        mats = rng.standard_normal(op.shape)
        scale = max(np.linalg.norm(dense @ vec(mats)), 1.0)
        assert np.linalg.norm(vec(op.apply(mats)) - dense @ vec(mats)) <= 1e-11 * scale

    def test_matches_dense_at_512(self):
        # largest size the dense-agreement contract covers: m*d^2 = 512
        rng = np.random.default_rng(99)
        bundle = random_bundle(rng, 8, 8, 10)
        g = random_connected_graph(rng, 8)
        blocks = gram_blocks(bundle)
        op = PenalizedOperator(blocks=blocks, laplacian=build_laplacian(g), lam=2.5)
        dense = dense_penalized_matrix(bundle, g, 2.5)
        mats = rng.standard_normal(op.shape)
        expected = dense @ vec(mats)
        assert np.linalg.norm(vec(op.apply(mats)) - expected) \
            <= 1e-10 * np.linalg.norm(expected)

    def test_operator_symmetry(self):
        rng = np.random.default_rng(10)
        op, _, _ = self._operator(rng, 4, 2, 6, 1.3)
        for _ in range(5):
            u = rng.standard_normal(op.shape)
            v = rng.standard_normal(op.shape)
            lhs = float(np.vdot(op.apply(u), v))
            rhs = float(np.vdot(u, op.apply(v)))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_rejects_wrong_shape(self):
        rng = np.random.default_rng(11)
        op, _, _ = self._operator(rng, 3, 2, 4, 1.0)
        for bad in (np.zeros((3, 2, 3)), np.zeros(3 * 2 * 2)):
            with pytest.raises(ValueError, match="shape"):
                op.apply(bad)
            with pytest.raises(ValueError, match="shape"):
                solve_spd(op, bad)


class TestSolveSpd:
    def test_identity_like_returns_rhs(self):
        # Y_l = I via T = d orthonormal trajectories
        d = 3
        states = np.zeros((2, d, d + 1))
        states[:, :, :d] = np.eye(d)
        bundle = TrajectoryBundle(states=states)
        blocks = gram_blocks(bundle)
        op = PenalizedOperator(blocks=blocks,
                               laplacian=build_laplacian(path_graph(2)), lam=0.0)
        rhs = np.arange(float(2 * d * d)).reshape(op.shape)
        sol, info = solve_spd(op, rhs)
        assert np.allclose(sol, rhs, atol=1e-10)
        assert info["residual"] <= 1e-10

    @given(st.integers(min_value=2, max_value=4),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_solve(self, m, d, seed):
        rng = np.random.default_rng(seed)
        bundle = random_bundle(rng, m, d, d + 3)
        g = random_connected_graph(rng, m)
        lam = 0.7
        blocks = gram_blocks(bundle)
        op = PenalizedOperator(blocks=blocks, laplacian=build_laplacian(g), lam=lam)
        rhs = rng.standard_normal(op.shape)
        sol, _ = solve_spd(op, rhs)
        expected = np.linalg.solve(dense_penalized_matrix(bundle, g, lam), vec(rhs))
        assert np.allclose(vec(sol), expected,
                           atol=1e-8 * max(1.0, np.linalg.norm(expected)))

    def test_dense_and_cg_paths_agree(self):
        rng = np.random.default_rng(12)
        bundle = random_bundle(rng, 4, 2, 6)
        g = path_graph(4)
        blocks = gram_blocks(bundle)
        op = PenalizedOperator(blocks=blocks, laplacian=build_laplacian(g), lam=2.0)
        rhs = rng.standard_normal(op.shape)
        direct_sol, direct_info = SOLVERS["banded"](op, rhs)
        cg_sol, cg_info = SOLVERS["cg"](op, rhs)
        assert direct_info["solver"] == "banded_cholesky"
        assert cg_info["solver"] == "cg"
        assert np.allclose(direct_sol, cg_sol,
                           atol=1e-8 * max(1.0, np.linalg.norm(direct_sol)))

    def test_residual_contract(self):
        rng = np.random.default_rng(14)
        bundle = random_bundle(rng, 3, 3, 8)
        g = path_graph(3)
        blocks = gram_blocks(bundle)
        op = PenalizedOperator(blocks=blocks, laplacian=build_laplacian(g), lam=0.5)
        rhs = rng.standard_normal(op.shape)
        for solve in SOLVERS.values():
            sol, info = solve(op, rhs)
            res = np.linalg.norm(rhs - op.apply(sol)) / np.linalg.norm(rhs)
            assert res <= 1e-9
            assert info["residual"] <= 1e-9

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_singular_lambda_zero_short_horizon(self, solver):
        # T < d makes every Y_l rank deficient, so lam = 0 is singular
        rng = np.random.default_rng(15)
        bundle = random_bundle(rng, 3, 4, 2)
        blocks = gram_blocks(bundle)
        op = PenalizedOperator(blocks=blocks,
                               laplacian=build_laplacian(path_graph(3)), lam=0.0)
        with pytest.raises(SingularSystemError):
            SOLVERS[solver](op, blocks.cs.transpose(0, 2, 1))

    def test_banded_rejects_condition_past_working_precision(self):
        # Y_1 = Y_2 = 1 on two nodes: K = [[1 + lam, -lam], [-lam, 1 + lam]]
        # is positive definite with 1-norm condition number 1 + 2 lam,
        # beyond 1 / RCOND_SINGULAR at lam = 1e15
        states = np.ones((2, 1, 2))
        blocks = gram_blocks(TrajectoryBundle(states=states))
        op = PenalizedOperator(blocks=blocks,
                               laplacian=build_laplacian(path_graph(2)), lam=1e15)
        with pytest.raises(SingularSystemError, match="rcond"):
            _solve_banded(op, blocks.cs.transpose(0, 2, 1))

    def test_cg_nonconvergence_carries_residual(self):
        rng = np.random.default_rng(16)
        bundle = random_bundle(rng, 4, 3, 8)
        blocks = gram_blocks(bundle)
        op = PenalizedOperator(blocks=blocks,
                               laplacian=build_laplacian(path_graph(4)), lam=1.0)
        rhs = rng.standard_normal(op.shape)
        with pytest.raises(ConvergenceError) as err:
            _solve_cg(op, rhs, tol=1e-10, max_iter=2)
        assert err.value.residual > 0
        assert err.value.iterations == 2

    @given(st.sampled_from(["path", "star", "complete", "random"]),
           st.integers(min_value=2, max_value=6),
           st.integers(min_value=1, max_value=3),
           st.sampled_from([0.0, 1e-2, 1e6]),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_banded_matches_dense_solve(self, kind, m, d, lam, seed):
        rng = np.random.default_rng(seed)
        g = {"path": path_graph, "star": star_graph, "complete": complete_graph,
             "random": lambda m: random_connected_graph(rng, m)}[kind](m)
        # T = d + 2 random trajectories give full-rank Y_l, so lam = 0 is regular
        bundle = random_bundle(rng, m, d, d + 2)
        blocks = gram_blocks(bundle)
        op = PenalizedOperator(blocks=blocks, laplacian=build_laplacian(g), lam=lam)
        rhs = rng.standard_normal(op.shape)
        sol, info = _solve_banded(op, rhs)
        expected = np.linalg.solve(dense_penalized_matrix(bundle, g, lam), vec(rhs))
        assert info["solver"] == "banded_cholesky"
        assert np.linalg.norm(vec(sol) - expected) <= 1e-8 * np.linalg.norm(expected)

    @pytest.mark.parametrize("graph, m, expected", [
        (path_graph, 1000, "banded_cholesky"),
        (complete_graph, 100, "cg"),
    ])
    def test_dispatch(self, graph, m, expected):
        rng = np.random.default_rng(18)
        d = 10
        bundle = random_bundle(rng, m, d, 12)
        blocks = gram_blocks(bundle)
        op = PenalizedOperator(blocks=blocks, laplacian=build_laplacian(graph(m)), lam=1.0)
        sol, info = solve_spd(op, blocks.cs.transpose(0, 2, 1))
        # the keys the benchmark's tracer reads
        assert info["solver"] == expected
        assert (info["iterations"] == 0) == (expected == "banded_cholesky")
        assert info["residual"] <= 1e-9
        assert sol.shape == (m, d, d)


class TestPinvSolve:
    def test_min_norm_on_rank_one(self):
        sol, rank = pinv_solve(np.diag([2.0, 0.0]), np.array([4.0, 5.0]))
        assert np.allclose(sol, [2.0, 0.0], atol=1e-14)
        assert rank == 1

    def test_identity(self):
        rhs = np.array([1.0, -2.0, 3.0])
        sol, rank = pinv_solve(np.eye(3), rhs)
        assert np.allclose(sol, rhs, atol=1e-14)
        assert rank == 3

    def test_zero_matrix(self):
        sol, rank = pinv_solve(np.zeros((3, 3)), np.ones(3))
        assert np.array_equal(sol, np.zeros(3))
        assert rank == 0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            pinv_solve(np.array([[1.0, 5.0], [0.0, 1.0]]), np.ones(2))
        # a stack is checked matrix by matrix
        with pytest.raises(ValueError, match="symmetric"):
            pinv_solve(np.stack([np.eye(2), [[1.0, 5.0], [0.0, 1.0]]]), np.ones((2, 2)))

    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_projection_and_min_norm_properties(self, rank_target, seed):
        rng = np.random.default_rng(seed)
        k = 6
        r = min(rank_target, k)
        basis = np.linalg.qr(rng.standard_normal((k, k)))[0][:, :r]
        mat = basis @ np.diag(rng.uniform(0.5, 2.0, size=r)) @ basis.T
        rhs = rng.standard_normal(k)
        sol, rank = pinv_solve(mat, rhs)
        assert rank == r
        # M x equals the projection of rhs onto range(M)
        assert np.allclose(mat @ sol, basis @ (basis.T @ rhs), atol=1e-9)
        # solution is orthogonal to the null space (min-norm property)
        null = np.linalg.qr(rng.standard_normal((k, k)))[0] - basis @ basis.T @ np.eye(k)
        assert np.allclose(sol, basis @ (basis.T @ sol), atol=1e-9)

    def test_matrix_rhs_matches_columnwise(self):
        rng = np.random.default_rng(17)
        mat = rng.standard_normal((4, 4))
        mat = mat @ mat.T
        rhs = rng.standard_normal((4, 3))
        sol, _ = pinv_solve(mat, rhs)
        for j in range(3):
            col, _ = pinv_solve(mat, rhs[:, j])
            assert np.allclose(sol[:, j], col, atol=1e-12)

    def test_stack_matches_per_matrix_loop(self):
        rng = np.random.default_rng(19)
        k = 4
        mats = np.zeros((5, k, k))  # the last one stays the zero matrix
        # ranks are relative to each matrix's own largest eigenvalue
        for i, (r, scale) in enumerate(((4, 1.0), (3, 1e3), (1, 1.0), (2, 1e-20))):
            f = rng.standard_normal((k, r))
            mats[i] = scale * (f @ f.T)
        rhs = rng.standard_normal((5, k, 3))
        sol, ranks = pinv_solve(mats, rhs)
        vec_sol, vec_ranks = pinv_solve(mats, rhs[..., 0])
        assert ranks.tolist() == vec_ranks.tolist() == [4, 3, 1, 2, 0]
        for i in range(5):
            one, rank = pinv_solve(mats[i], rhs[i])
            assert type(rank) is int and rank == ranks[i]
            assert np.allclose(sol[i], one, rtol=1e-12, atol=1e-12)
            assert np.allclose(vec_sol[i], one[:, 0], rtol=1e-12, atol=1e-12)
