"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or -v to see them)."""

import math
import time

import numpy as np
import pytest

from graphlds import (
    GraphKind,
    MethodSpec,
    Method,
    NoiseKind,
    SystemEnsemble,
    build_laplacian,
    closed_form_spectrum,
    complete_graph,
    delocalization_theta,
    gamma_diagnostics,
    grammian,
    laplacian_smoothing,
    nodewise_ols,
    normalize_spectral_radius,
    path_graph,
    pooled_ols,
    quadratic_variation,
    sample_holder_ensemble,
    spectrum,
    star_graph,
    subspace_ls,
    summarize,
)
from graphlds.cli import main as cli_main
from graphlds.experiments import ExperimentPlan, plan_to_dict, run_plan
from oracles import (
    oracle_laplacian,
    oracle_minnorm_ls,
    oracle_pooled,
    oracle_subspace,
    random_bundle,
    random_connected_graph,
)


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status} — {name}{suffix}")
    assert ok, f"criterion {number} failed: {name} {suffix}"


def rel_frob(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30)


def spec_instance(rng):
    """The instance family fixed by the criteria: m in 2..6, d in 1..3,
    T in d..d+5, random states, random connected graph."""
    m = int(rng.integers(2, 7))
    d = int(rng.integers(1, 4))
    horizon = int(rng.integers(d, d + 6))
    bundle = random_bundle(rng, m, d, horizon)
    g = random_connected_graph(rng, m)
    return bundle, g


def test_criterion_1_laplacian_oracle_equivalence():
    rng = np.random.default_rng(101)
    lams = [0.1, 1.0, 10.0]
    worst = 0.0
    start = time.perf_counter()
    for i in range(50):
        bundle, g = spec_instance(rng)
        lam = lams[i % 3]
        got = laplacian_smoothing(bundle, g, lam=lam).mats
        worst = max(worst, rel_frob(got, oracle_laplacian(bundle, g, lam)))
    elapsed = time.perf_counter() - start
    report(1, "structured smoothing solve matches dense oracle",
           worst <= 1e-8 and elapsed < 10.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_and_9_subspace_oracle_and_feasibility():
    rng = np.random.default_rng(202)
    worst = 0.0
    worst_feas = 0.0
    start = time.perf_counter()
    for _ in range(50):
        bundle, g = spec_instance(rng)
        spec = spectrum(build_laplacian(g))
        for tau in range(1, bundle.m + 1):
            got = subspace_ls(bundle, spec, tau).mats
            worst = max(worst, rel_frob(got, oracle_subspace(bundle, spec, tau)))
            w = spec.low_frequency_basis(tau)
            flat = got.transpose(0, 2, 1).reshape(bundle.m, bundle.d ** 2)
            worst_feas = max(worst_feas, float(np.abs(w @ (w.T @ flat) - flat).max()))
    elapsed = time.perf_counter() - start
    report(2, "factored subspace solve matches brute-force lstsq oracle",
           worst <= 1e-8 and elapsed < 10.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")
    report(9, "subspace solutions lie exactly in their low-frequency span",
           worst_feas <= 1e-9, f"max projection defect {worst_feas:.2e}")


def test_criterion_3_reduction_identities():
    rng = np.random.default_rng(303)

    worst_ols = 0.0
    count = 0
    while count < 20:  # lam = 0 vs per-node OLS on well-posed instances
        bundle, g = spec_instance(rng)
        if bundle.horizon <= bundle.d:
            continue
        from graphlds import gram_blocks
        blocks = gram_blocks(bundle)
        if min(np.linalg.eigvalsh(y).min() for y in blocks.ys) <= 1e-6:
            continue
        count += 1
        worst_ols = max(worst_ols, rel_frob(
            laplacian_smoothing(bundle, g, lam=0.0).mats, nodewise_ols(bundle).mats))

    worst_pooled = 0.0
    worst_full = 0.0
    for _ in range(20):
        bundle, g = spec_instance(rng)
        spec = spectrum(build_laplacian(g))
        worst_pooled = max(worst_pooled, rel_frob(
            subspace_ls(bundle, spec, 1).mats, oracle_pooled(bundle)))
        worst_full = max(worst_full, rel_frob(
            subspace_ls(bundle, spec, bundle.m).mats, oracle_minnorm_ls(bundle)))

    worst_pair = 0.0
    worst_vs_pooled = 0.0
    for _ in range(20):
        bundle, g = spec_instance(rng)
        mats = laplacian_smoothing(bundle, g, lam=1e12).mats
        pooled = pooled_ols(bundle).mats
        for l in range(bundle.m):
            for k in range(bundle.m):
                worst_pair = max(worst_pair, float(
                    np.linalg.norm(mats[l] - mats[k])))
        worst_vs_pooled = max(worst_vs_pooled, float(np.abs(mats - pooled).max()))

    ok = (worst_ols <= 1e-8 and worst_pooled <= 1e-8 and worst_full <= 1e-8
          and worst_pair <= 1e-4 and worst_vs_pooled <= 1e-4)
    report(3, "reduction identities (lam=0, tau=1, tau=m, lam->inf)", ok,
           f"ols {worst_ols:.1e}, pooled {worst_pooled:.1e}, minnorm {worst_full:.1e}, "
           f"pairwise {worst_pair:.1e}, vs-pooled {worst_vs_pooled:.1e}")


def test_criterion_4_graph_spectra():
    families = [(GraphKind.PATH, path_graph), (GraphKind.COMPLETE, complete_graph),
                (GraphKind.STAR, star_graph)]
    worst_vals = 0.0
    for kind, builder in families:
        for m in range(2, 65):
            analytic = closed_form_spectrum(kind, m).eigenvalues
            numeric = spectrum(build_laplacian(builder(m))).eigenvalues
            worst_vals = max(worst_vals, float(np.abs(analytic - numeric).max()))

    worst_vec = 0.0
    for m in range(2, 65):
        spec = closed_form_spectrum(GraphKind.PATH, m)
        lap = build_laplacian(path_graph(m))
        defect = lap @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
        worst_vec = max(worst_vec, float(np.abs(defect).max()))

    worst_theta = 0.0
    for m in range(2, 201):
        worst_theta = max(worst_theta, delocalization_theta(
            closed_form_spectrum(GraphKind.PATH, m)))

    ok = worst_vals <= 1e-9 and worst_vec <= 1e-8 and worst_theta <= 2.0 + 1e-9
    report(4, "closed-form spectra, path eigenvectors, path delocalization", ok,
           f"eig err {worst_vals:.1e}, vec defect {worst_vec:.1e}, "
           f"max theta {worst_theta:.6f}")


def test_criterion_5_quadratic_variation_identity():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 8))
        d = int(rng.integers(1, 4))
        g = random_connected_graph(rng, m)
        mats = rng.standard_normal((m, d, d))
        edge_sum = quadratic_variation(mats, g)
        a = np.concatenate([mat.flatten(order="F") for mat in mats])
        dense = float(a @ np.kron(build_laplacian(g), np.eye(d * d)) @ a)
        worst = max(worst, abs(edge_sum - dense) / max(abs(dense), 1e-30))
    report(5, "edge-sum quadratic variation equals Kronecker quadratic form",
           worst <= 1e-10, f"max rel err {worst:.2e}")


def test_criterion_6_grammian_and_gamma_diagnostics():
    ok_zero = np.array_equal(grammian(np.zeros((3, 3)), 4), np.eye(3))
    ok_identity = np.array_equal(grammian(np.eye(2), 1), 2.0 * np.eye(2))

    m, d, horizon = 4, 2, 3
    zero = SystemEnsemble(mats=np.zeros((m, d, d)))
    gam_zero = gamma_diagnostics(zero, horizon, delta=0.25, r=1.0)
    ok_gamma_zero = gam_zero.gamma2 == 0.0 and gam_zero.gamma3 == m * horizon * d

    e = normalize_spectral_radius(sample_holder_ensemble(6, 3, 1.0))
    horizon, delta, r = 5, 0.1, 1.0
    gam = gamma_diagnostics(e, horizon, delta=delta, r=r)
    lo = [sum(float(np.trace(grammian(a, t))) for t in range(horizon)) for a in e.mats]
    g2 = sum(float(np.trace(grammian(a, t))) - e.d
             for a in e.mats for t in range(1, horizon + 1))
    g1 = (1.0 + r**2 * math.log(e.m / delta)) * max(lo)
    err = max(abs(gam.gamma1 - g1) / abs(g1),
              abs(gam.gamma2 - g2) / max(abs(g2), 1e-30),
              abs(gam.gamma3 - sum(lo)) / abs(sum(lo)))
    ok = ok_zero and ok_identity and ok_gamma_zero and err <= 1e-10
    report(6, "reachability-energy matrices and gamma diagnostics", ok,
           f"oracle rel err {err:.2e}")


def test_criterion_7_simulation_study_trends():
    plan = ExperimentPlan(
        graph=GraphKind.PATH, d=10, m_values=(5, 20, 100), horizon=5, beta=1.0,
        noise=NoiseKind.GAUSSIAN_UNIT, trials=30,
        methods=(
            MethodSpec(method=Method.LAPLACIAN_SMOOTHING, rule="benchmark"),
            MethodSpec(method=Method.SUBSPACE_LS, rule="benchmark"),
            MethodSpec(method=Method.NODEWISE_OLS),
        ),
        seed=2026,
    )
    start = time.perf_counter()
    rows = list(run_plan(plan))
    elapsed = time.perf_counter() - start
    assert all(r.status == "ok" for r in rows)
    # derived hyperparameters follow the protocol
    by = {(r.m, r.method): r for r in rows}
    assert by[(100, "laplacian")].hyper == pytest.approx(20.0 * 100 ** 0.8)
    assert by[(100, "subspace")].hyper == 7.0

    means = {(s.m, s.method): s.mean_rmse for s in summarize(rows)}
    lap = [means[(m, "laplacian")] for m in (5, 20, 100)]
    sub = [means[(m, "subspace")] for m in (5, 20, 100)]
    ols100 = means[(100, "nodewise")]
    ok = (lap[0] > lap[1] > lap[2] and sub[0] > sub[1] > sub[2]
          and lap[2] < ols100 and sub[2] < ols100 and elapsed < 300.0)
    report(7, "simulation study: joint-estimator RMSE falls with m and beats per-node OLS",
           ok,
           f"laplacian {lap[0]:.3f}>{lap[1]:.3f}>{lap[2]:.3f}, "
           f"subspace {sub[0]:.3f}>{sub[1]:.3f}>{sub[2]:.3f}, "
           f"nodewise@100 {ols100:.3f}, {elapsed:.0f}s")


def test_criterion_8_byte_identical_csv(tmp_path, capsys):
    import json
    plan = ExperimentPlan(
        graph=GraphKind.PATH, d=3, m_values=(4, 8), horizon=4, beta=0.5,
        noise=NoiseKind.GAUSSIAN_UNIT, trials=3,
        methods=(
            MethodSpec(method=Method.LAPLACIAN_SMOOTHING, rule="benchmark"),
            MethodSpec(method=Method.SUBSPACE_LS, rule="benchmark"),
            MethodSpec(method=Method.NODEWISE_OLS),
            MethodSpec(method=Method.POOLED_OLS),
        ),
        seed=99,
    )
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan_to_dict(plan)))
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert cli_main(["experiment", "--plan", str(plan_path), "--out", str(out1)]) == 0
    assert cli_main(["experiment", "--plan", str(plan_path), "--out", str(out2)]) == 0
    capsys.readouterr()
    identical = out1.read_bytes() == out2.read_bytes()
    report(8, "repeated runs of one plan produce byte-identical CSV", identical,
           f"{out1.stat().st_size} bytes")
