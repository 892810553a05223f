import json
import math

import numpy as np
import pytest

from graphlds import (
    EstimateSet,
    GraphKind,
    MethodSpec,
    Method,
    MetricRow,
    NoiseKind,
    SystemEnsemble,
    mse,
    parse_csv,
    plan_from_dict,
    plan_to_dict,
    rmse,
    rows_to_csv,
    run_plan,
    run_trial,
    summarize,
    trial_seed,
    write_plot_data,
)
from graphlds import estimators, experiments, graphs
from graphlds.experiments import ExperimentPlan


def small_plan(**overrides):
    base = dict(
        graph=GraphKind.PATH,
        d=2,
        m_values=(4,),
        horizon=3,
        beta=1.0,
        noise=NoiseKind.GAUSSIAN_UNIT,
        trials=2,
        methods=(
            MethodSpec(method=Method.LAPLACIAN_SMOOTHING, rule="benchmark"),
            MethodSpec(method=Method.SUBSPACE_LS, rule="benchmark"),
            MethodSpec(method=Method.NODEWISE_OLS),
        ),
        seed=123,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


class TestMse:
    def test_exact_match_is_zero(self):
        truth = SystemEnsemble(mats=np.arange(8.0).reshape(2, 2, 2))
        est = EstimateSet(mats=truth.mats.copy())
        assert mse(est, truth) == 0.0
        assert rmse(est, truth) == 0.0

    def test_identity_offset(self):
        truth = SystemEnsemble(mats=np.zeros((1, 2, 2)))
        est = EstimateSet(mats=np.eye(2)[None])
        assert mse(est, truth) == pytest.approx(2.0)
        assert rmse(est, truth) == pytest.approx(math.sqrt(2.0))

    def test_matches_double_loop(self):
        rng = np.random.default_rng(1)
        truth = SystemEnsemble(mats=rng.standard_normal((4, 3, 3)))
        est = EstimateSet(mats=rng.standard_normal((4, 3, 3)))
        total = 0.0
        for l in range(4):
            for i in range(3):
                for j in range(3):
                    total += (est.mats[l, i, j] - truth.mats[l, i, j]) ** 2
        assert mse(est, truth) == pytest.approx(total / 4.0, rel=1e-12)

    def test_shape_mismatch(self):
        truth = SystemEnsemble(mats=np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="mismatch"):
            mse(EstimateSet(mats=np.zeros((3, 2, 2))), truth)


class TestPlanIO:
    def test_roundtrip(self):
        plan = small_plan()
        again = plan_from_dict(plan_to_dict(plan))
        assert again == plan

    def test_rejects_unknown_keys(self):
        raw = plan_to_dict(small_plan())
        raw["frobnicate"] = 1
        with pytest.raises(ValueError, match="unknown plan keys"):
            plan_from_dict(raw)

    def test_rejects_unknown_method_keys(self):
        raw = plan_to_dict(small_plan())
        raw["methods"][0]["mystery"] = 2
        with pytest.raises(ValueError, match="unknown method keys"):
            plan_from_dict(raw)

    def test_rejects_unknown_rule_at_parse_time(self):
        raw = plan_to_dict(small_plan())
        raw["methods"][0]["rule"] = "folklore"
        with pytest.raises(ValueError):
            plan_from_dict(raw)

    def test_rejects_rule_plus_explicit_value(self):
        with pytest.raises(ValueError, match="not both"):
            MethodSpec(method=Method.LAPLACIAN_SMOOTHING, lam=1.0, rule="benchmark")

    def test_rejects_hyper_on_baselines(self):
        with pytest.raises(ValueError, match="no hyperparameter"):
            MethodSpec(method=Method.NODEWISE_OLS, lam=1.0)
        with pytest.raises(ValueError, match="takes tau"):
            MethodSpec(method=Method.SUBSPACE_LS, lam=1.0)

    def test_rejects_wrong_schema_version(self):
        raw = plan_to_dict(small_plan())
        raw["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            plan_from_dict(raw)

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="m value"):
            small_plan(m_values=())
        with pytest.raises(ValueError, match="trials"):
            small_plan(trials=0)
        with pytest.raises(ValueError, match="method"):
            small_plan(methods=())

    def test_json_is_loadable(self, tmp_path):
        from graphlds import load_plan
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_to_dict(small_plan())))
        assert load_plan(path) == small_plan()


class TestRunPlan:
    def test_row_cardinality(self):
        plan = small_plan(trials=1, methods=(MethodSpec(method=Method.NODEWISE_OLS),))
        rows = list(run_plan(plan))
        assert len(rows) == 1
        assert rows[0].method == "nodewise"
        assert rows[0].status == "ok"

    def test_deterministic_csv_bytes(self):
        plan = small_plan()
        first = rows_to_csv(list(run_plan(plan)))
        second = rows_to_csv(list(run_plan(plan)))
        assert first == second

    def test_seed_reproduces_trial(self):
        plan = small_plan()
        rows = list(run_plan(plan))
        target = [r for r in rows if r.m == 4 and r.trial == 1]
        assert target[0].seed == trial_seed(plan.seed, 4, 1)
        replayed = run_trial(plan, 4, 1, seed=target[0].seed)
        assert rows_to_csv(target) == rows_to_csv(replayed)

    def test_hyperparameters_follow_rules(self):
        plan = small_plan(trials=1, m_values=(8,))
        rows = {r.method: r for r in run_plan(plan)}
        assert rows["laplacian"].hyper == pytest.approx(20.0 * 8 ** 0.8)
        assert rows["subspace"].hyper == 3.0
        assert rows["nodewise"].hyper is None

    def test_theory_rules_usable_in_plans(self):
        from graphlds import normalize_spectral_radius, sample_holder_ensemble
        plan = small_plan(
            trials=1, m_values=(6,), horizon=4,
            methods=(MethodSpec(method=Method.LAPLACIAN_SMOOTHING, rule="path"),
                     MethodSpec(method=Method.SUBSPACE_LS, rule="path")),
        )
        rows = {r.method: r for r in run_plan(plan)}
        assert all(r.status == "ok" for r in rows.values())
        truth = normalize_spectral_radius(sample_holder_ensemble(6, 2, 1.0))
        s_m = truth.meta.s_m
        expected_lam = (1.0 * 2) ** 0.8 * (6 / s_m) ** 0.4 * 4 ** 0.2
        assert rows["laplacian"].hyper == pytest.approx(expected_lam, rel=1e-12)
        assert 1 <= rows["subspace"].hyper <= 6

    def test_star_rule_in_plan(self):
        plan = small_plan(
            graph=GraphKind.STAR, trials=1, m_values=(5,),
            methods=(MethodSpec(method=Method.LAPLACIAN_SMOOTHING, rule="star"),),
        )
        (row,) = run_plan(plan)
        assert row.status == "ok"
        assert row.hyper is not None and row.hyper > 0

    def test_laplacian_only_plan_skips_spectrum(self, monkeypatch):
        lap = MethodSpec(method=Method.LAPLACIAN_SMOOTHING, rule="benchmark")
        both = small_plan(m_values=(4, 6), methods=(
            lap, MethodSpec(method=Method.SUBSPACE_LS, rule="benchmark")))
        expected = [r for r in run_plan(both) if r.method == "laplacian"]
        calls = []

        def counted(lap_matrix):
            calls.append(lap_matrix.shape)
            return graphs.spectrum(lap_matrix)

        for module in (experiments, estimators):
            monkeypatch.setattr(module, "spectrum", counted)
        experiments._spectrum.cache_clear()
        rows = list(run_plan(small_plan(m_values=(4, 6), methods=(lap,))))
        assert calls == []
        assert rows_to_csv(rows) == rows_to_csv(expected)
        star = small_plan(graph=GraphKind.STAR, m_values=(5,), methods=(
            MethodSpec(method=Method.LAPLACIAN_SMOOTHING, rule="star"),))
        assert all(r.status == "ok" for r in run_plan(star))
        assert calls == [(5, 5)]  # once per m, shared by both trials

    def test_trial_repeatable_with_shared_read_only_spectrum(self):
        plan = small_plan(m_values=(7,))
        first = run_trial(plan, 7, 1)
        assert run_trial(plan, 7, 1) == first
        spec = experiments._spectrum(plan.graph, 7)
        for arr in (spec.eigenvalues, spec.eigenvectors):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        assert run_trial(plan, 7, 1) == first

    def test_estimator_error_recorded_not_raised(self):
        # lam = 0 with T < d is singular: the row must carry the error
        plan = small_plan(
            d=4, horizon=2, trials=1,
            methods=(MethodSpec(method=Method.LAPLACIAN_SMOOTHING, lam=0.0),),
        )
        rows = list(run_plan(plan))
        assert len(rows) == 1
        assert rows[0].status.startswith("error:")
        assert math.isnan(rows[0].rmse)

    def test_rmse_is_sqrt_mse(self):
        for row in run_plan(small_plan(trials=1)):
            if row.status == "ok":
                assert row.rmse == pytest.approx(math.sqrt(row.mse), rel=1e-12)

    def test_timing_zeroed_unless_requested(self):
        plan = small_plan(trials=1)
        assert all(r.wall_time_ms == 0.0 for r in run_plan(plan))
        timed = small_plan(trials=1, record_timing=True)
        assert any(r.wall_time_ms > 0.0 for r in run_plan(timed))

    def test_subspace_scaling_reported(self):
        # wall-clock growth of the subspace estimator with m is measured
        # and reported; it is noisy at desk scale, so nothing is asserted
        plan = small_plan(m_values=(10, 20, 40), d=4, horizon=4, trials=2,
                          record_timing=True,
                          methods=(MethodSpec(method=Method.SUBSPACE_LS, rule="benchmark"),))
        rows = list(run_plan(plan))
        by_m = {}
        for r in rows:
            by_m.setdefault(r.m, []).append(r.wall_time_ms)
        times = {m: float(np.median(v)) for m, v in sorted(by_m.items())}
        exponent = math.log(times[40] / times[10]) / math.log(4.0)
        print(f"subspace wall-time per m: {times} -> growth exponent ~{exponent:.2f}")


class TestCsv:
    def test_roundtrip(self):
        rows = list(run_plan(small_plan()))
        text = rows_to_csv(rows)
        parsed = parse_csv(text)
        assert parsed == sorted(rows, key=MetricRow.sort_key)

    def test_rows_sorted_canonically(self):
        rows = list(run_plan(small_plan()))
        text = rows_to_csv(reversed(rows))
        assert text == rows_to_csv(rows)

    def test_header_checked(self):
        with pytest.raises(ValueError, match="header"):
            parse_csv("a,b,c\n1,2,3\n")

    def test_seventeen_digit_roundtrip(self):
        row = MetricRow(m=3, trial=0, method="pooled", hyper=1.0 / 3.0,
                        rmse=math.pi, mse=math.pi**2, wall_time_ms=0.125,
                        seed=2**100, status="ok")
        parsed = parse_csv(rows_to_csv([row]))
        assert parsed == [row]


class TestSummaries:
    def test_single_row_flagged(self):
        row = MetricRow(m=2, trial=0, method="pooled", hyper=None, rmse=1.5,
                        mse=2.25, wall_time_ms=0.0, seed=1, status="ok")
        (summary,) = summarize([row])
        assert summary.n == 1
        assert summary.std_rmse == 0.0

    def test_two_point_formula(self):
        rows = [
            MetricRow(m=2, trial=t, method="pooled", hyper=None, rmse=v,
                      mse=v * v, wall_time_ms=0.0, seed=t, status="ok")
            for t, v in enumerate([1.0, 3.0])
        ]
        (summary,) = summarize(rows)
        assert summary.mean_rmse == pytest.approx(2.0)
        assert summary.std_rmse == pytest.approx(math.sqrt(2.0))

    def test_matches_two_pass_computation(self):
        rng = np.random.default_rng(2)
        vals = rng.uniform(0.1, 5.0, size=17)
        rows = [
            MetricRow(m=5, trial=t, method="subspace", hyper=2.0, rmse=float(v),
                      mse=float(v * v), wall_time_ms=0.0, seed=t, status="ok")
            for t, v in enumerate(vals)
        ]
        (summary,) = summarize(rows)
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
        assert summary.mean_rmse == pytest.approx(mean, rel=1e-12)
        assert summary.std_rmse == pytest.approx(math.sqrt(var), rel=1e-12)

    def test_failed_rows_excluded(self):
        ok = MetricRow(m=2, trial=0, method="pooled", hyper=None, rmse=1.0,
                       mse=1.0, wall_time_ms=0.0, seed=1, status="ok")
        bad = MetricRow(m=2, trial=1, method="pooled", hyper=None, rmse=float("nan"),
                        mse=float("nan"), wall_time_ms=0.0, seed=2,
                        status="error:SingularSystemError")
        (summary,) = summarize([ok, bad])
        assert summary.n == 1

    def test_plot_data_files(self, tmp_path):
        rows = list(run_plan(small_plan()))
        written = write_plot_data(tmp_path, rows)
        names = sorted(p.name for p in written)
        assert names == ["laplacian.csv", "nodewise.csv", "subspace.csv"]
        body = (tmp_path / "laplacian.csv").read_text().splitlines()
        assert body[0] == "m,mean_rmse,std_rmse,n"
        assert body[1].startswith("4,")
