import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlds import (
    EstimatorConfig,
    Method,
    SingularSystemError,
    SystemEnsemble,
    TrajectoryBundle,
    build_laplacian,
    complete_graph,
    estimate,
    hub_mode_energy,
    lambda_rule,
    laplacian_smoothing,
    nodewise_ols,
    path_graph,
    pooled_ols,
    quadratic_variation,
    smoothing_objective,
    spectrum,
    star_graph,
    subspace_ls,
    tau_rule,
)
from graphlds import estimators as estimators_module
from graphlds.graphs import LaplacianSpectrum
from graphlds.solver import gram_blocks, pinv_solve
from oracles import (
    oracle_laplacian,
    oracle_minnorm_ls,
    oracle_pooled,
    oracle_subspace,
    random_bundle,
    random_connected_graph,
)


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30)


class TestLaplacianSmoothing:
    def test_hand_built_two_node_instance(self):
        # m=2 path, d=2, T=2, explicit states; dense build-and-factor check
        states = np.array([
            [[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]],
            [[0.5, 1.0, 0.0], [1.0, -0.5, 1.0]],
        ])
        bundle = TrajectoryBundle(states=states)
        g = path_graph(2)
        result = laplacian_smoothing(bundle, g, lam=1.0)
        expected = oracle_laplacian(bundle, g, lam=1.0)
        assert rel_err(result.mats, expected) <= 1e-10

    @given(st.integers(min_value=2, max_value=6),
           st.integers(min_value=1, max_value=3),
           st.sampled_from([0.1, 1.0, 10.0]),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_dense_oracle(self, m, d, lam, seed):
        rng = np.random.default_rng(seed)
        bundle = random_bundle(rng, m, d, d + int(rng.integers(0, 6)))
        g = random_connected_graph(rng, m)
        result = laplacian_smoothing(bundle, g, lam=lam)
        assert rel_err(result.mats, oracle_laplacian(bundle, g, lam)) <= 1e-8

    def test_lambda_zero_reduces_to_nodewise(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            bundle = random_bundle(rng, 4, 3, 8)
            g = path_graph(4)
            smoothed = laplacian_smoothing(bundle, g, lam=0.0)
            ols = nodewise_ols(bundle)
            assert np.abs(smoothed.mats - ols.mats).max() <= 1e-8

    def test_huge_lambda_reaches_pooled(self):
        rng = np.random.default_rng(22)
        bundle = random_bundle(rng, 4, 2, 6)
        g = path_graph(4)
        result = laplacian_smoothing(bundle, g, lam=1e12)
        pooled = pooled_ols(bundle)
        for l in range(4):
            for k in range(4):
                assert np.linalg.norm(result.mats[l] - result.mats[k]) <= 1e-4
        assert np.abs(result.mats - pooled.mats).max() <= 1e-4

    def test_singular_when_underdetermined(self):
        rng = np.random.default_rng(23)
        bundle = random_bundle(rng, 3, 4, 2)  # T < d
        with pytest.raises(SingularSystemError):
            laplacian_smoothing(bundle, path_graph(3), lam=0.0)

    def test_objective_no_worse_than_truth(self):
        rng = np.random.default_rng(24)
        truth = SystemEnsemble(mats=0.5 * rng.standard_normal((5, 2, 2)))
        from graphlds import simulate
        bundle = simulate(truth, 6, seed=1)
        g = path_graph(5)
        result = laplacian_smoothing(bundle, g, lam=2.0, truth=truth)
        assert result.diagnostics["objective"] == pytest.approx(
            smoothing_objective(bundle, g, 2.0, result.mats))
        assert (result.diagnostics["objective"]
                <= result.diagnostics["objective_at_truth"] + 1e-9)

    def test_objective_matches_per_node_loop(self):
        rng = np.random.default_rng(45)
        bundle = random_bundle(rng, 6, 3, 4)
        g = random_connected_graph(rng, 6)
        mats = rng.standard_normal((6, 3, 3))
        fit = 0.0
        for l in range(6):
            resid = bundle.targets(l) - mats[l] @ bundle.inputs(l)
            fit += float(np.sum(resid * resid))
        expected = fit + 0.7 * quadratic_variation(mats, g)
        assert smoothing_objective(bundle, g, 0.7, mats) == pytest.approx(expected, rel=1e-14)

    def test_first_order_optimality(self):
        rng = np.random.default_rng(25)
        bundle = random_bundle(rng, 3, 2, 5)
        g = path_graph(3)
        lam = 1.5
        result = laplacian_smoothing(bundle, g, lam=lam)
        base = smoothing_objective(bundle, g, lam, result.mats)
        for _ in range(100):
            delta = rng.standard_normal(result.mats.shape)
            perturbed = result.mats + 1e-4 * delta
            assert smoothing_objective(bundle, g, lam, perturbed) >= base - 1e-12

    def test_penalty_path_monotonicity(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            m = int(rng.integers(3, 6))
            bundle = random_bundle(rng, m, 2, 6)
            g = random_connected_graph(rng, m)
            lams = sorted(rng.uniform(0.01, 50.0, size=3))
            qvs = [quadratic_variation(laplacian_smoothing(bundle, g, lam=l).mats, g)
                   for l in lams]
            for small, big in zip(qvs, qvs[1:]):
                assert big <= small + 1e-9 * max(1.0, small)

    def test_dimension_mismatch(self):
        bundle = random_bundle(np.random.default_rng(0), 3, 2, 4)
        with pytest.raises(ValueError, match="graph has m"):
            laplacian_smoothing(bundle, path_graph(4), lam=1.0)

    def test_rejects_negative_lambda(self):
        bundle = random_bundle(np.random.default_rng(0), 3, 2, 4)
        with pytest.raises(ValueError, match="lam"):
            laplacian_smoothing(bundle, path_graph(3), lam=-1.0)


class TestSubspaceLS:
    @given(st.integers(min_value=2, max_value=5),
           st.integers(min_value=1, max_value=2),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_oracle_all_tau(self, m, d, seed):
        rng = np.random.default_rng(seed)
        bundle = random_bundle(rng, m, d, max(2, d))
        g = random_connected_graph(rng, m)
        spec = spectrum(build_laplacian(g))
        for tau in range(1, m + 1):
            result = subspace_ls(bundle, spec, tau)
            expected = oracle_subspace(bundle, spec, tau)
            assert rel_err(result.mats, expected) <= 1e-8, (m, d, tau)

    def test_specific_instance_m5(self):
        rng = np.random.default_rng(30)
        bundle = random_bundle(rng, 5, 2, 3)
        spec = spectrum(build_laplacian(path_graph(5)))
        result = subspace_ls(bundle, spec, 2)
        assert rel_err(result.mats, oracle_subspace(bundle, spec, 2)) <= 1e-8

    def test_full_tau_is_minnorm_ls(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            bundle = random_bundle(rng, 4, 2, 3)  # underdetermined on purpose
            spec = spectrum(build_laplacian(path_graph(4)))
            result = subspace_ls(bundle, spec, 4)
            assert rel_err(result.mats, oracle_minnorm_ls(bundle)) <= 1e-8

    def test_tau_one_is_pooled(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            m = int(rng.integers(2, 7))
            bundle = random_bundle(rng, m, 2, 5)
            spec = spectrum(build_laplacian(random_connected_graph(rng, m)))
            result = subspace_ls(bundle, spec, 1)
            assert rel_err(result.mats, oracle_pooled(bundle)) <= 1e-8

    def test_solution_stays_in_subspace(self):
        rng = np.random.default_rng(33)
        bundle = random_bundle(rng, 6, 2, 4)
        spec = spectrum(build_laplacian(path_graph(6)))
        for tau in (1, 2, 4, 6):
            result = subspace_ls(bundle, spec, tau)
            w = spec.low_frequency_basis(tau)
            flat = result.mats.transpose(0, 2, 1).reshape(6, 4)
            projected = w @ (w.T @ flat)
            assert np.abs(projected - flat).max() <= 1e-9

    def test_sign_flip_invariance_on_path(self):
        rng = np.random.default_rng(34)
        bundle = random_bundle(rng, 5, 2, 4)
        spec = spectrum(build_laplacian(path_graph(5)))
        flipped = LaplacianSpectrum(
            eigenvalues=spec.eigenvalues,
            eigenvectors=spec.eigenvectors * np.array([1, -1, 1, -1, 1.0]),
        )
        a = subspace_ls(bundle, spec, 3).mats
        b = subspace_ls(bundle, flipped, 3).mats
        assert np.abs(a - b).max() <= 1e-9

    def test_flags_basis_dependence_on_split_eigenspace(self):
        rng = np.random.default_rng(35)
        bundle = random_bundle(rng, 5, 2, 4)
        spec = spectrum(build_laplacian(complete_graph(5)))
        mid = subspace_ls(bundle, spec, 3)  # cuts inside the repeated eigenvalue
        assert mid.diagnostics["basis_dependent"]
        assert not subspace_ls(bundle, spec, 1).diagnostics["basis_dependent"]
        assert not subspace_ls(bundle, spec, 5).diagnostics["basis_dependent"]

    @pytest.mark.parametrize("m, d, tau", [(2, 1, 1), (7, 3, 4), (60, 10, 6)])
    def test_subspace_matrix_matches_einsum(self, monkeypatch, m, d, tau):
        bundle = random_bundle(np.random.default_rng(36), m, d, 5)
        spec = spectrum(build_laplacian(path_graph(m)))
        seen = []

        def capture(mat, rhs):
            seen.append(mat)
            return pinv_solve(mat, rhs)

        monkeypatch.setattr(estimators_module, "pinv_solve", capture)
        subspace_ls(bundle, spec, tau)
        w = spec.low_frequency_basis(tau)
        expected = np.einsum("lj,lk,lcd->jckd", w, w,
                             gram_blocks(bundle).ys).reshape(tau * d, tau * d)
        assert rel_err(seen[0], expected) <= 1e-13

    def test_rejects_tau_out_of_range(self):
        bundle = random_bundle(np.random.default_rng(0), 3, 2, 4)
        spec = spectrum(build_laplacian(path_graph(3)))
        for tau in (0, 4):
            with pytest.raises(ValueError, match="tau"):
                subspace_ls(bundle, spec, tau)


class TestBaselines:
    def test_nodewise_exact_recovery(self):
        # noiseless orbits: targets are exactly A @ inputs, and a Krylov
        # basis from a random start is full rank for a generic A
        rng = np.random.default_rng(40)
        d, horizon = 3, 6
        mats = rng.standard_normal((2, d, d))
        states = np.empty((2, d, horizon + 1))
        for l in range(2):
            x = rng.standard_normal(d)
            for t in range(horizon + 1):
                states[l, :, t] = x
                x = mats[l] @ x
        bundle = TrajectoryBundle(states=states)
        for l in range(2):
            assert np.linalg.matrix_rank(bundle.inputs(l)) == d
        result = nodewise_ols(bundle)
        for l in range(2):
            assert np.allclose(result.mats[l], mats[l], atol=1e-10)

    def test_nodewise_underdetermined_projection_consistency(self):
        rng = np.random.default_rng(41)
        bundle = random_bundle(rng, 2, 5, 2)  # T < d
        result = nodewise_ols(bundle)
        for l in range(2):
            x = bundle.inputs(l)
            # min-norm OLS satisfies A X = X~ projected onto row(X)
            row_proj = np.linalg.pinv(x) @ x
            assert np.allclose(result.mats[l] @ x,
                               bundle.targets(l) @ row_proj, atol=1e-8)
            # and matches the pinv route exactly
            assert np.allclose(result.mats[l],
                               bundle.targets(l) @ np.linalg.pinv(x), atol=1e-8)

    def test_nodewise_reports_smallest_rank(self):
        states = np.random.default_rng(43).standard_normal((3, 3, 6))
        states[1, :, :-1] = 0.0  # node 1's inputs are all zero: rank 0
        bundle = TrajectoryBundle(states=states)
        result = nodewise_ols(bundle)
        assert result.diagnostics["effective_rank"] == 0
        assert type(result.diagnostics["effective_rank"]) is int
        assert np.array_equal(result.mats[1], np.zeros((3, 3)))
        for l in (0, 2):
            assert np.allclose(result.mats[l],
                               bundle.targets(l) @ np.linalg.pinv(bundle.inputs(l)),
                               atol=1e-10)
        assert nodewise_ols(random_bundle(np.random.default_rng(44), 3, 3, 5)) \
            .diagnostics["effective_rank"] == 3

    def test_pooled_m1_equals_nodewise(self):
        bundle = random_bundle(np.random.default_rng(42), 1, 3, 5)
        assert np.allclose(pooled_ols(bundle).mats, nodewise_ols(bundle).mats, atol=1e-12)

    def test_pooled_identical_trajectories(self):
        rng = np.random.default_rng(43)
        one = rng.standard_normal((1, 2, 6))
        states = np.broadcast_to(one, (4, 2, 6)).copy()
        bundle = TrajectoryBundle(states=states)
        pooled = pooled_ols(bundle)
        single = nodewise_ols(TrajectoryBundle(states=one))
        assert np.allclose(pooled.mats[0], single.mats[0], atol=1e-10)

    def test_pooled_matches_stacked_lstsq(self):
        rng = np.random.default_rng(44)
        for _ in range(5):
            bundle = random_bundle(rng, 3, 3, 7)
            assert rel_err(pooled_ols(bundle).mats, oracle_pooled(bundle)) <= 1e-8


class TestDispatch:
    def test_estimate_covers_all_methods(self):
        rng = np.random.default_rng(50)
        bundle = random_bundle(rng, 4, 2, 6)
        g = path_graph(4)
        configs = [
            EstimatorConfig(method=Method.LAPLACIAN_SMOOTHING, lam=1.0),
            EstimatorConfig(method=Method.SUBSPACE_LS, tau=2),
            EstimatorConfig(method=Method.NODEWISE_OLS),
            EstimatorConfig(method=Method.POOLED_OLS),
        ]
        for config in configs:
            result = estimate(bundle, g, config)
            assert result.mats.shape == (4, 2, 2)
            assert result.diagnostics["method"] == config.method.value

    def test_estimate_reports_mse_with_truth(self):
        rng = np.random.default_rng(51)
        truth = SystemEnsemble(mats=0.3 * rng.standard_normal((3, 2, 2)))
        from graphlds import simulate
        bundle = simulate(truth, 8, seed=5)
        result = estimate(bundle, path_graph(3),
                          EstimatorConfig(method=Method.NODEWISE_OLS), truth=truth)
        err = result.mats - truth.mats
        assert result.diagnostics["mse"] == pytest.approx(float((err**2).sum() / 3))
        assert result.diagnostics["rmse"] == pytest.approx(math.sqrt(result.diagnostics["mse"]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(method=Method.LAPLACIAN_SMOOTHING)
        with pytest.raises(ValueError):
            EstimatorConfig(method=Method.LAPLACIAN_SMOOTHING, lam=-2.0)
        with pytest.raises(ValueError):
            EstimatorConfig(method=Method.SUBSPACE_LS)


class TestHyperparameterRules:
    def test_path_rule_plugin(self):
        assert lambda_rule("path", m=32, r=1.0, d=1, horizon=1, s_m=1.0) \
            == pytest.approx(4.0)

    def test_benchmark_rule_plugin(self):
        assert lambda_rule("benchmark", m=32, beta=1.0) == pytest.approx(320.0)

    def test_complete_rule_plugin(self):
        assert lambda_rule("complete", m=1, r=1.0, d=1, horizon=8, s_m=1.0) \
            == pytest.approx(2.0)

    def test_star_rule_uses_hub_energy(self):
        val = lambda_rule("star", m=4, r=1.0, d=2, horizon=2, s_m=1.0, p1=0.5)
        assert val == pytest.approx((2 * 4 * 4 / (1.0 + 16 * 0.5)) ** (1 / 3))

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError, match="s_m > 0"):
            lambda_rule("path", m=8, d=2, horizon=4, s_m=0.0)

    def test_tau_benchmark_values(self):
        assert tau_rule("benchmark", m=8) == 3
        assert tau_rule("benchmark", m=1000) == 15
        assert tau_rule("benchmark", m=2) == 2  # clamped to m

    def test_tau_path_rule_hand_value(self):
        # first term (8*1/1)^{1/3} = 2; second max((2*64*8)^{1/3}, 1) > 2
        tau = tau_rule("path", m=8, r=1.0, d=1, horizon=1,
                       s_m=8.0, delta=math.exp(-1.0), gamma2=0.0, c_prime=1.0)
        assert tau == 2

    def test_tau_clamped_to_m(self):
        tau = tau_rule("path", m=2, r=1.0, d=1, horizon=100,
                       s_m=100.0, delta=0.1, gamma2=0.0)
        assert 1 <= tau <= 2

    def test_hub_mode_energy_exact(self):
        rng = np.random.default_rng(60)
        truth = SystemEnsemble(mats=rng.standard_normal((5, 2, 2)))
        spec = spectrum(build_laplacian(star_graph(5)))
        # independent evaluation straight from the definition
        a = np.concatenate([mat.flatten(order="F") for mat in truth.mats])
        total = 0.0
        for i in range(4):
            e_i = np.zeros(4)
            e_i[i] = 1.0
            total += float(a @ np.kron(spec.eigenvectors[:, 0], e_i)) ** 2
        assert hub_mode_energy(truth, spec) == pytest.approx(total, rel=1e-12)
