"""The benchmark's workloads. Each holds one problem size, so every op
costs about the same and per-op percentiles mean something.

A workload is built from a seed (its set-up: input generation), runs
op ``k`` for k = 0, 1, ..., and checks an op's output against the
references in ``reference.py``. All use the ``benchmark`` lambda and
tau rules, d = 10, T = 5, beta = 1 and Gaussian noise.
"""

from __future__ import annotations

import json
from pathlib import Path

from graphlds import ensembles, estimators, experiments, graphs
from graphlds.ensembles import NoiseKind
from graphlds.estimators import Method
from graphlds.experiments import ExperimentPlan, MethodSpec
from graphlds.graphs import GraphKind

import reference
import spans

D, HORIZON, BETA = 10, 5, 1.0
DEFAULT_SEED = 0
DIGEST_PATH = Path(__file__).with_name("digest.json")
DIGEST_TRIALS = 3

ESTIMATOR_FOR = {
    Method.LAPLACIAN_SMOOTHING: "estimators.laplacian_smoothing",
    Method.SUBSPACE_LS: "estimators.subspace_ls",
    Method.NODEWISE_OLS: "estimators.nodewise_ols",
    Method.POOLED_OLS: "estimators.pooled_ols",
}
_INPUTS = ("ensembles.normalize_spectral_radius", "ensembles.simulate")


class Study:
    """The harness's ``run_trial`` plus CSV emission of its rows on a path
    graph at one m; op k is trial k of a plan whose master seed is the
    workload seed."""

    def __init__(self, m: int, methods: tuple[Method, ...], seed: int):
        self.m = m
        self.methods = methods
        self.plan = self._plan(seed)
        self.lap = reference.path_laplacian(m)
        self._basis = None
        self.capture = spans.Capture(_INPUTS + tuple(ESTIMATOR_FOR[x] for x in methods))

    def _plan(self, seed: int) -> ExperimentPlan:
        specs = tuple(MethodSpec(method=x, rule="benchmark")
                      if x in (Method.LAPLACIAN_SMOOTHING, Method.SUBSPACE_LS)
                      else MethodSpec(method=x) for x in self.methods)
        return ExperimentPlan(graph=GraphKind.PATH, d=D, m_values=(self.m,),
                              horizon=HORIZON, beta=BETA, noise=NoiseKind.GAUSSIAN_UNIT,
                              trials=2**31 - 1, methods=specs, seed=seed)

    def op(self, k: int, plan: ExperimentPlan | None = None):
        self.capture.sink = sink = {}
        rows = experiments.run_trial(plan or self.plan, self.m, k)
        return rows, experiments.rows_to_csv(rows), sink

    def _reference(self, method: Method, states):
        if method == Method.LAPLACIAN_SMOOTHING:
            return reference.smoothing(states, self.lap, reference.lambda_benchmark(self.m, BETA))
        if method == Method.SUBSPACE_LS:
            if self._basis is None:
                self._basis = reference.low_frequency_basis(
                    self.lap, reference.tau_benchmark(self.m))
            return reference.subspace(states, self._basis)
        if method == Method.NODEWISE_OLS:
            return reference.nodewise(states)
        return reference.pooled(states)

    def _expected_hyper(self, method: Method):
        if method == Method.LAPLACIAN_SMOOTHING:
            return reference.lambda_benchmark(self.m, BETA)
        if method == Method.SUBSPACE_LS:
            return float(reference.tau_benchmark(self.m))
        return None

    def check(self, k: int, output) -> list[str]:
        rows, csv, sink = output
        if sorted(r.method for r in rows) != sorted(x.value for x in self.methods):
            return [f"trial {k}: rows for {[r.method for r in rows]}"]
        if csv.count("\n") != len(rows) + 1:
            return [f"trial {k}: CSV has {csv.count(chr(10))} lines for {len(rows)} rows"]
        truth = sink[_INPUTS[0]].mats
        states = sink[_INPUTS[1]].states
        problems = []
        for row in rows:
            method = Method(row.method)
            where = f"trial {k} {row.method}"
            if row.status != "ok":
                problems.append(f"{where}: status {row.status}")
                continue
            expected = self._expected_hyper(method)
            if (row.hyper is None) != (expected is None) or (
                    expected is not None and abs(row.hyper - expected) > 1e-12 * expected):
                problems.append(f"{where}: hyperparameter {row.hyper}, expected {expected}")
                continue
            ref = self._reference(method, states)
            err = reference.rel_error(sink[ESTIMATOR_FOR[method]].mats, ref)
            ref_rmse = reference.rmse(ref, truth)
            if not err <= reference.RTOL:
                problems.append(f"{where}: estimate off its reference by {err:.3e}")
            elif not abs(row.rmse - ref_rmse) <= reference.RTOL * ref_rmse:
                problems.append(f"{where}: rmse {row.rmse!r}, reference {ref_rmse!r}")
        return problems

    def digest_rows(self) -> list[list]:
        """(trial, method, rmse) for the first trials at the default seed."""
        plan = self._plan(DEFAULT_SEED)
        return [[row.trial, row.method, row.rmse]
                for k in range(DIGEST_TRIALS) for row in self.op(k, plan)[0]]

    def close(self):
        self.capture.close()


class Sweep:
    """A library user's lambda sweep: ``laplacian_smoothing`` on one fixed
    complete-graph dataset at five lambda values, 1e-2..1e2 times the rule
    value; op k is one fit at the (k mod 5)-th value. The workload seed is
    the ``simulate`` seed."""

    M = 200
    FACTORS = (1e-2, 1e-1, 1.0, 1e1, 1e2)

    def __init__(self, seed: int):
        self.g = graphs.complete_graph(self.M)
        self.truth = ensembles.normalize_spectral_radius(
            ensembles.sample_holder_ensemble(self.M, D, BETA))
        self.bundle = ensembles.simulate(self.truth, HORIZON, seed=seed)
        rule = reference.lambda_benchmark(self.M, BETA)
        self.lams = tuple(rule * f for f in self.FACTORS)
        self._refs: dict[int, object] = {}

    def op(self, k: int):
        return estimators.laplacian_smoothing(self.bundle, self.g, self.lams[k % len(self.lams)])

    def check(self, k: int, output) -> list[str]:
        i = k % len(self.lams)
        if i not in self._refs:
            self._refs[i] = reference.smoothing(
                self.bundle.states, reference.complete_laplacian(self.M), self.lams[i])
        err = reference.rel_error(output.mats, self._refs[i])
        if not err <= reference.RTOL:
            return [f"fit {k} (lambda {self.lams[i]:g}): estimate off its reference by {err:.3e}"]
        return []

    def close(self):
        pass


WORKLOADS = {
    "study_path20": (
        lambda seed: Study(20, tuple(ESTIMATOR_FOR), seed),
        "The paper's desk study (path, m=20, all four methods) below the dense/CG "
        "switch: solver.solve_spd's dense Cholesky on 2000 unknowns is ~89% of a trial."),
    "study_baselines400": (
        lambda seed: Study(400, (Method.SUBSPACE_LS, Method.NODEWISE_OLS, Method.POOLED_OLS),
                           seed),
        "Path, m=400, subspace/nodewise/pooled: never calls solve_spd; ensembles ~half of a "
        "trial, then pinv_solve, graphs.spectrum and gram_blocks."),
    "sweep_complete200": (
        Sweep,
        "Lambda sweep on one complete-graph dataset (m=200, 19900 edges): graph edge loops "
        "~70% of a fit, CG solve_spd ~25% at ~20 iterations."),
}


def check_digest(name: str, workload) -> list[str]:
    """Compare the default seed's per-row RMSE with the stored digest."""
    stored = json.loads(DIGEST_PATH.read_text()).get(name)
    if stored is None:
        return []
    rows = workload.digest_rows()
    if len(rows) != len(stored):
        return [f"digest: {len(rows)} rows, stored {len(stored)}"]
    problems = []
    for (trial, method, want), (_, _, got) in zip(stored, rows):
        if not abs(got - want) <= reference.RTOL * want:
            problems.append(f"digest trial {trial} {method}: rmse {got!r}, stored {want!r}")
    return problems


if __name__ == "__main__":
    # PYTHONPATH=src python3 perfbench/workloads.py rewrites digest.json
    # from the current code: run it only on a commit whose estimates are
    # known to be right.
    digest = {}
    for name, (make, _) in WORKLOADS.items():
        workload = make(DEFAULT_SEED)
        if isinstance(workload, Study):
            digest[name] = workload.digest_rows()
        workload.close()
    DIGEST_PATH.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"
        for name, rows in digest.items()) + "\n}\n")
