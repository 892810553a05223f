"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import ESTIMATOR_FOR, WORKLOADS  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture
def make():
    made = []

    def build(name, seed):
        workload = WORKLOADS[name][0](seed)
        made.append(workload)
        return workload

    yield build
    for workload in reversed(made):
        workload.close()


def _estimates(name, output):
    """The estimate arrays of one op, keyed by estimator."""
    if name == "sweep_complete200":
        return {"estimators.laplacian_smoothing": output.mats}
    return {key: result.mats for key, result in output[2].items()
            if key in ESTIMATOR_FOR.values()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checker_fails_a_perturbed_estimate(make, name):
    workload = make(name, 3)
    output = workload.op(1)
    assert workload.check(1, output) == []
    estimates = _estimates(name, output)
    assert estimates
    for key, mats in estimates.items():
        saved = mats.copy()
        mats *= 1.0 + 1e-5  # ten times the check's tolerance
        problems = workload.check(1, output)
        assert problems, key
        mats[...] = saved
    assert workload.check(1, output) == []


def _states(name, workload, output):
    if name == "sweep_complete200":
        return workload.bundle.states
    return output[2]["ensembles.simulate"].states


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_another_seed_gives_other_inputs_and_no_failures(make, name):
    states = []
    for seed in (1, 2):
        workload = make(name, seed)
        output = workload.op(1)
        assert workload.check(1, output) == []
        states.append(_states(name, workload, output))
    assert states[0].shape == states[1].shape
    assert not np.array_equal(states[0], states[1])


def test_digest_matches_the_stored_rows(make):
    for name in ("study_path20", "study_baselines400"):
        assert workloads.check_digest(name, make(name, 5)) == []


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = _run("--workload", "study_path20", "--seed", "4", "--seconds", "1.5",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == {entry["name"]: entry["unit"] for entry in declared}


def test_traced_self_times_sum_to_the_op_duration(make):
    workload = make("study_path20", 6)
    workload.op(0)
    with spans.Tracer() as tracer:
        tracer.op = 1
        start = time.perf_counter()
        workload.op(1)
        duration = time.perf_counter() - start
        tracer.op = None
    selfs = [seconds for _, op, seconds in tracer.self_times() if op == 1]
    assert min(selfs) >= 0.0
    assert {name for name, *_ in tracer.spans if name.startswith("solver.")} >= {
        "solver.solve_spd", "solver.gram_blocks", "solver.pinv_solve"}
    # what the spans leave out is the op's own glue plus tracing overhead
    assert 0.0 <= duration - sum(selfs) <= 0.05 * duration


def test_wrappers_are_removed_on_close():
    from graphlds import estimators, experiments
    before = (experiments.simulate, estimators.solve_spd, estimators.quadratic_variation)
    with spans.Tracer():
        assert experiments.simulate is not before[0]
    assert (experiments.simulate, estimators.solve_spd, estimators.quadratic_variation) == before


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "study_path20", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_workloads_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert [(w["name"], w["why"]) for w in declared] == [
        (name, why) for name, (_, why) in WORKLOADS.items()]
