import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlds import (
    EnsembleMeta,
    NoiseKind,
    NoiseModel,
    SimulationOverflowError,
    SystemEnsemble,
    gamma_diagnostics,
    grammian,
    max_spectral_radius,
    normalize_spectral_radius,
    path_graph,
    quadratic_variation,
    sample_holder_ensemble,
    simulate,
    spectral_radius,
)


class TestSampling:
    def test_rejects_m1(self):
        with pytest.raises(ValueError, match="m >= 2"):
            sample_holder_ensemble(1, 2, 1.0)

    def test_rejects_bad_beta(self):
        for beta in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="beta"):
                sample_holder_ensemble(4, 2, beta)

    def test_entries_match_family(self):
        m, d, beta = 6, 3, 0.5
        e = sample_holder_ensemble(m, d, beta)
        l, i, j = 4, 2, 3
        x = l / m
        expected = 4.0 * x**beta - math.sin(2.0 * math.pi * i * j * x / d)
        assert e.mats[l - 1, i - 1, j - 1] == pytest.approx(expected, abs=1e-15)

    def test_meta_records_path_quadratic_variation(self):
        e = sample_holder_ensemble(8, 2, 1.0)
        assert e.meta.beta == 1.0
        assert e.meta.s_m == pytest.approx(
            quadratic_variation(e.mats, path_graph(8)), rel=1e-12)

    @pytest.mark.parametrize("m", [2, 5, 37, 400])
    @pytest.mark.parametrize("d", [1, 3, 10])
    @pytest.mark.parametrize("beta", [0.25, 0.5, 1.0])
    def test_closed_form_matches_scalar_formula(self, m, d, beta):
        e = sample_holder_ensemble(m, d, beta)
        expected = np.empty((m, d, d))
        for l in range(1, m + 1):
            x = l / m
            for i in range(1, d + 1):
                for j in range(1, d + 1):
                    expected[l - 1, i - 1, j - 1] = (
                        4.0 * x**beta - math.sin(2.0 * math.pi * i * j * x / d))
        # numpy's vectorized sin may differ from libm's by 1 ulp
        assert np.max(np.abs(e.mats - expected)) <= 4e-15
        assert e.meta.s_m == pytest.approx(
            quadratic_variation(e.mats, path_graph(m)), rel=1e-12)

    def test_user_family_budget_matches_quadratic_variation(self):
        e = sample_holder_ensemble(9, 2, 1.0, family="user",
                                   functions=lambda i, j, x: i * x**2 - j * x)
        assert e.mats[3, 1, 0] == pytest.approx(2 * (4 / 9) ** 2 - 4 / 9, rel=1e-15)
        assert e.meta.s_m == pytest.approx(
            quadratic_variation(e.mats, path_graph(9)), rel=1e-12)

    def test_lipschitz_budget_shrinks_with_m(self):
        budgets = [sample_holder_ensemble(m, 4, 1.0).meta.s_m for m in (10, 20, 40)]
        assert budgets[1] < budgets[0]
        assert budgets[2] < budgets[1]

    def test_constant_functions_zero_variation(self):
        e = sample_holder_ensemble(5, 2, 1.0, family="user",
                                   functions=lambda i, j, x: 3.0)
        assert e.meta.s_m == 0.0

    def test_user_family_requires_functions(self):
        with pytest.raises(ValueError, match="functions"):
            sample_holder_ensemble(4, 2, 1.0, family="user")


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(4)) == pytest.approx(1.0)

    def test_nilpotent(self):
        assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(0.0)

    def test_rotation(self):
        t = 0.3
        rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        assert spectral_radius(rot) == pytest.approx(1.0, abs=1e-12)

    def test_normalize_scalar_matrix(self):
        e = SystemEnsemble(mats=2.0 * np.eye(3)[None, :, :])
        out = normalize_spectral_radius(e)
        assert np.allclose(out.mats[0], np.eye(3))
        assert out.meta.normalized

    def test_normalize_pair(self):
        e = SystemEnsemble(mats=np.stack([np.eye(2), 3.0 * np.eye(2)]))
        out = normalize_spectral_radius(e)
        assert np.allclose(out.mats, np.stack([np.eye(2) / 3.0, np.eye(2)]))

    def test_normalize_rejects_zero_ensemble(self):
        with pytest.raises(ValueError, match="all-zero"):
            normalize_spectral_radius(SystemEnsemble(mats=np.zeros((3, 2, 2))))

    def test_normalized_benchmark_has_unit_max_radius(self):
        e = normalize_spectral_radius(sample_holder_ensemble(20, 10, 1.0))
        assert max_spectral_radius(e) == pytest.approx(1.0, abs=1e-9)

    def test_max_radius_matches_per_matrix_loop(self):
        e = sample_holder_ensemble(30, 4, 0.7)
        assert max_spectral_radius(e) == max(spectral_radius(a) for a in e.mats)

    def test_quadratic_variation_scales_inverse_square(self):
        e = sample_holder_ensemble(12, 3, 0.7)
        rho = max_spectral_radius(e)
        out = normalize_spectral_radius(e)
        g = path_graph(12)
        assert quadratic_variation(out.mats, g) == pytest.approx(
            quadratic_variation(e.mats, g) / rho**2, rel=1e-12)
        assert out.meta.s_m == pytest.approx(e.meta.s_m / rho**2, rel=1e-12)


class TestSimulate:
    def test_zero_dynamics_is_white_noise(self):
        e = SystemEnsemble(mats=np.zeros((3, 2, 2)))
        b = simulate(e, 5, seed=7)
        # with A = 0 each state is exactly the new noise draw, so
        # re-simulating with the identity recursion removed must match
        noise = NoiseModel()
        for l in range(3):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(l,)))
            eta = noise.draw(rng, 2, 6)
            assert np.array_equal(b.states[l], eta)

    def test_recursion_exact(self):
        rng = np.random.default_rng(11)
        mats = 0.5 * rng.standard_normal((2, 3, 3))
        e = SystemEnsemble(mats=mats)
        b = simulate(e, 4, seed=3)
        for l in range(2):
            g = np.random.default_rng(np.random.SeedSequence(entropy=3, spawn_key=(l,)))
            eta = g.standard_normal((3, 5))
            x = eta[:, 0]
            assert np.array_equal(b.states[l, :, 0], x)
            for t in range(1, 5):
                x = mats[l] @ x + eta[:, t]
                assert np.allclose(b.states[l, :, t], x, atol=0)

    def test_deterministic_given_seed(self):
        e = sample_holder_ensemble(4, 3, 1.0)
        b1 = simulate(e, 6, seed=42)
        b2 = simulate(e, 6, seed=42)
        assert np.array_equal(b1.states, b2.states)

    def test_seed_changes_output(self):
        e = sample_holder_ensemble(4, 3, 1.0)
        assert not np.array_equal(simulate(e, 6, seed=1).states,
                                  simulate(e, 6, seed=2).states)

    def test_rejects_horizon_zero(self):
        e = SystemEnsemble(mats=np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="horizon"):
            simulate(e, 0)

    def test_overflow_guard(self):
        e = SystemEnsemble(mats=10.0 * np.eye(2)[None, :, :].repeat(2, axis=0))
        with pytest.raises(SimulationOverflowError):
            simulate(e, 200, seed=0)

    def test_overflow_names_explosive_node(self):
        mats = 0.5 * np.eye(2)[None, :, :].repeat(3, axis=0)
        mats[1] = 10.0 * np.eye(2)
        with pytest.raises(SimulationOverflowError, match="node 2,"):
            simulate(SystemEnsemble(mats=mats), 400, seed=0)

    def test_overflow_reports_earliest_step(self):
        # |x_{t+1}| is a^t to within 0.1%: a = 1e4 first passes 1e150 at
        # step 38, a = 1e7 at step 22. Node 3 crosses first; at equal rates
        # the lower-numbered node is named
        mats = np.zeros((3, 1, 1))
        mats[1, 0, 0], mats[2, 0, 0] = 1e4, 1e7
        rademacher = NoiseModel(NoiseKind.RADEMACHER)
        with pytest.raises(SimulationOverflowError, match="node 3, step 22;"):
            simulate(SystemEnsemble(mats=mats), 400, rademacher)
        mats[2, 0, 0] = 1e4
        with pytest.raises(SimulationOverflowError, match="node 2, step 38;"):
            simulate(SystemEnsemble(mats=mats), 400, rademacher)

    @pytest.mark.parametrize("kind", [NoiseKind.GAUSSIAN_UNIT, NoiseKind.RADEMACHER])
    def test_batched_matches_per_node_loop(self, kind):
        e = normalize_spectral_radius(sample_holder_ensemble(400, 10, 0.5))
        noise = NoiseModel(kind=kind)
        b = simulate(e, 7, noise, seed=99)
        expected = np.empty_like(b.states)
        for l in range(e.m):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=99, spawn_key=(l,)))
            eta = noise.draw(rng, e.d, 8)
            x = eta[:, 0].copy()
            expected[l, :, 0] = x
            for t in range(1, 8):
                x = e.mats[l] @ x + eta[:, t]
                expected[l, :, t] = x
        assert np.array_equal(b.states, expected)

    @pytest.mark.parametrize("kind", [NoiseKind.GAUSSIAN_UNIT, NoiseKind.RADEMACHER])
    def test_first_state_unit_variance(self, kind):
        # x_1 = eta_1 and nodes are independent: 1000 nodes x 100 coords
        # gives 1e5 iid first-state draws in one simulation
        e = SystemEnsemble(mats=np.zeros((1000, 100, 100)))
        draws = simulate(e, 1, NoiseModel(kind=kind), seed=2024).states[:, :, 0].ravel()
        assert draws.size == 100_000
        assert 0.98 <= draws.var() <= 1.02
        assert abs(draws.mean()) < 0.02


class TestGrammian:
    def test_zero_matrix_identity(self):
        for t in (0, 1, 5):
            assert np.array_equal(grammian(np.zeros((3, 3)), t), np.eye(3))

    def test_identity_t1(self):
        g = grammian(np.eye(4), 1)
        assert np.array_equal(g, 2.0 * np.eye(4))
        assert np.trace(g) == pytest.approx(8.0)

    def test_geometric_halving(self):
        a = 0.5 * np.eye(2)
        expected = (1 + 0.25 + 0.0625 + 0.015625) * np.eye(2)
        assert np.allclose(grammian(a, 3), expected, atol=1e-15)

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            grammian(np.eye(2), -1)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError, match="explosive"):
            grammian(100.0 * np.eye(2), 200)

    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=6),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_psd_and_trace_monotone(self, d, t, seed):
        a = np.random.default_rng(seed).standard_normal((d, d)) * 0.8
        g = grammian(a, t)
        assert np.allclose(g, g.T, atol=1e-12)
        assert np.linalg.eigvalsh(g).min() >= -1e-10
        if t > 0:
            assert np.trace(g) >= np.trace(grammian(a, t - 1)) - 1e-12


class TestGammaDiagnostics:
    def test_zero_ensemble(self):
        m, d, horizon = 4, 2, 3
        e = SystemEnsemble(mats=np.zeros((m, d, d)))
        gam = gamma_diagnostics(e, horizon, delta=0.25, r=1.0)
        assert gam.gamma2 == 0.0
        assert gam.gamma3 == m * horizon * d
        assert gam.gamma1 == pytest.approx((1.0 + math.log(16.0)) * 6.0, rel=1e-14)

    def test_matches_direct_trace_sums(self):
        e = normalize_spectral_radius(sample_holder_ensemble(5, 3, 1.0))
        horizon, delta, r = 5, 0.1, 1.0
        gam = gamma_diagnostics(e, horizon, delta=delta, r=r)
        # independent route: explicit Grammians, explicit trace sums
        lo = [sum(np.trace(grammian(a, t)) for t in range(horizon)) for a in e.mats]
        g2 = sum(np.trace(grammian(a, t)) - e.d
                 for a in e.mats for t in range(1, horizon + 1))
        g1 = (1.0 + r**2 * math.log(e.m / delta)) * max(lo)
        assert gam.gamma1 == pytest.approx(g1, rel=1e-10)
        assert gam.gamma2 == pytest.approx(g2, rel=1e-10, abs=1e-12)
        assert gam.gamma3 == pytest.approx(sum(lo), rel=1e-10)

    def test_batched_matches_per_node_loop(self):
        e = normalize_spectral_radius(sample_holder_ensemble(37, 4, 0.5))
        horizon, delta, r = 6, 0.05, 1.5
        gam = gamma_diagnostics(e, horizon, delta=delta, r=r)
        per_node_lo = np.empty(e.m)
        gamma2 = 0.0
        for l in range(e.m):
            power = np.eye(e.d)
            tr_running = lo_sum = float(e.d)
            for t in range(1, horizon + 1):
                power = e.mats[l] @ power
                tr_running += float(np.sum(power * power))
                gamma2 += tr_running - e.d
                if t <= horizon - 1:
                    lo_sum += tr_running
            per_node_lo[l] = lo_sum
        g1 = (1.0 + r**2 * math.log(e.m / delta)) * float(np.max(per_node_lo))
        assert gam.gamma1 == pytest.approx(g1, rel=1e-13)
        assert gam.gamma2 == pytest.approx(gamma2, rel=1e-13)
        assert gam.gamma3 == pytest.approx(float(np.sum(per_node_lo)), rel=1e-13)

    def test_rejects_bad_delta(self):
        e = SystemEnsemble(mats=np.zeros((2, 2, 2)))
        for delta in (0.0, 1.0, -1.0):
            with pytest.raises(ValueError, match="delta"):
                gamma_diagnostics(e, 2, delta=delta)


class TestMetaTypes:
    def test_ensemble_rejects_nonfinite(self):
        mats = np.zeros((2, 2, 2))
        mats[0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            SystemEnsemble(mats=mats)

    def test_ensemble_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="shape"):
            SystemEnsemble(mats=np.zeros((2, 2, 3)))

    def test_meta_defaults(self):
        meta = EnsembleMeta()
        assert meta.beta is None and not meta.normalized and meta.s_m is None
