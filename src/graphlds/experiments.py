"""Monte Carlo harness: error metrics, plan files, trial execution,
CSV emission, and summary tables.

A plan fixes the graph family, dimensions, horizon, smoothness exponent,
trial count, estimator grid, and master seed. For each (m, trial) the
harness regenerates and renormalizes the ground-truth ensemble (the
construction samples functions at l/m, so it depends on m), simulates
fresh noise, runs every estimator, and emits one row per method. Rows
are canonicalized (sorted by m, trial, method) before writing so the
artifact never depends on scheduling.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import estimators as est
from .ensembles import (
    NoiseKind,
    NoiseModel,
    SystemEnsemble,
    gamma_diagnostics,
    normalize_spectral_radius,
    sample_holder_ensemble,
    simulate,
)
from .estimators import LambdaRule, Method, TauRule, lambda_rule, mse, tau_rule
from .graphs import GraphKind, build_laplacian, named_graph, spectrum

PLAN_SCHEMA_VERSION = 1
CSV_HEADER = ["m", "trial", "method", "hyper", "rmse", "mse",
              "wall_time_ms", "seed", "status"]


def rmse(estimate, truth: SystemEnsemble) -> float:
    return math.sqrt(mse(estimate, truth))


@dataclass(frozen=True)
class MethodSpec:
    """One estimator in the grid: a method plus either an explicit
    hyperparameter or a named rule for deriving it from (m, beta, T)."""

    method: Method
    lam: float | None = None
    tau: int | None = None
    rule: str | None = None

    def __post_init__(self):
        explicit = self.lam is not None or self.tau is not None
        if explicit and self.rule is not None:
            raise ValueError(f"{self.method.value}: give a rule or an explicit "
                             "value, not both")
        if self.method == Method.LAPLACIAN_SMOOTHING:
            if self.tau is not None:
                raise ValueError("laplacian takes lam, not tau")
            if self.rule is not None:
                LambdaRule(self.rule)  # fail fast on unknown rules
        elif self.method == Method.SUBSPACE_LS:
            if self.lam is not None:
                raise ValueError("subspace takes tau, not lam")
            if self.rule is not None:
                TauRule(self.rule)
        elif explicit or self.rule is not None:
            raise ValueError(f"{self.method.value} takes no hyperparameter")

    def label(self) -> str:
        return self.method.value


@dataclass(frozen=True)
class ExperimentPlan:
    graph: GraphKind
    d: int
    m_values: tuple[int, ...]
    horizon: int
    beta: float
    noise: NoiseKind
    trials: int
    methods: tuple[MethodSpec, ...]
    seed: int
    output: str | None = None
    record_timing: bool = False

    def __post_init__(self):
        if not self.m_values:
            raise ValueError("plan needs at least one m value")
        if not self.methods:
            raise ValueError("plan needs at least one method")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.horizon < 1:
            raise ValueError(f"horizon T must be >= 1, got {self.horizon}")


_PLAN_KEYS = {"schema_version", "graph", "d", "m_values", "T", "beta", "noise",
              "trials", "methods", "seed", "output", "record_timing"}
_METHOD_KEYS = {"name", "lam", "tau", "rule"}


def plan_from_dict(raw: dict) -> ExperimentPlan:
    unknown = set(raw) - _PLAN_KEYS
    if unknown:
        raise ValueError(f"unknown plan keys: {sorted(unknown)}")
    version = raw.get("schema_version")
    if version != PLAN_SCHEMA_VERSION:
        raise ValueError(f"unsupported plan schema_version {version!r} "
                         f"(expected {PLAN_SCHEMA_VERSION})")
    methods = []
    for entry in raw["methods"]:
        extra = set(entry) - _METHOD_KEYS
        if extra:
            raise ValueError(f"unknown method keys: {sorted(extra)}")
        methods.append(MethodSpec(
            method=Method(entry["name"]),
            lam=entry.get("lam"),
            tau=entry.get("tau"),
            rule=entry.get("rule"),
        ))
    return ExperimentPlan(
        graph=GraphKind(raw["graph"]),
        d=int(raw["d"]),
        m_values=tuple(int(m) for m in raw["m_values"]),
        horizon=int(raw["T"]),
        beta=float(raw["beta"]),
        noise=NoiseKind(raw.get("noise", "gaussian")),
        trials=int(raw["trials"]),
        methods=tuple(methods),
        seed=int(raw["seed"]),
        output=raw.get("output"),
        record_timing=bool(raw.get("record_timing", False)),
    )


def load_plan(path) -> ExperimentPlan:
    return plan_from_dict(json.loads(Path(path).read_text()))


def plan_to_dict(plan: ExperimentPlan) -> dict:
    methods = []
    for ms in plan.methods:
        entry: dict = {"name": ms.method.value}
        if ms.lam is not None:
            entry["lam"] = ms.lam
        if ms.tau is not None:
            entry["tau"] = ms.tau
        if ms.rule is not None:
            entry["rule"] = ms.rule
        methods.append(entry)
    out = {
        "schema_version": PLAN_SCHEMA_VERSION,
        "graph": plan.graph.value,
        "d": plan.d,
        "m_values": list(plan.m_values),
        "T": plan.horizon,
        "beta": plan.beta,
        "noise": plan.noise.value,
        "trials": plan.trials,
        "methods": methods,
        "seed": plan.seed,
        "record_timing": plan.record_timing,
    }
    if plan.output is not None:
        out["output"] = plan.output
    return out


@dataclass(frozen=True)
class MetricRow:
    m: int
    trial: int
    method: str
    hyper: float | None
    rmse: float
    mse: float
    wall_time_ms: float
    seed: int
    status: str = "ok"

    def sort_key(self):
        return (self.m, self.trial, self.method)


def trial_seed(master_seed: int, m: int, trial: int) -> int:
    """128-bit per-trial seed derived from the master seed; stable across
    plan layouts so any row can be replayed in isolation."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(m, trial))
    return int.from_bytes(ss.generate_state(4).tobytes(), "little")


# confidence knob for rule-derived hyperparameters inside plans; the
# library rules take it explicitly
RULE_DELTA = 0.1


def _resolve_hyper(ms: MethodSpec, plan: ExperimentPlan, m: int,
                   truth, spec) -> float | None:
    """Evaluate the method's rule with everything a trial knows: the
    smoothness budget of the sampled truth, its hub-mode energy for the
    star rule, and its trajectory-energy sum for the subspace rule."""
    if ms.method == Method.LAPLACIAN_SMOOTHING:
        if ms.lam is not None:
            return float(ms.lam)
        rule = LambdaRule(ms.rule or "benchmark")
        if rule == LambdaRule.BENCHMARK:
            return lambda_rule(rule, m=m, beta=plan.beta)
        p1 = est.hub_mode_energy(truth, spec) if rule == LambdaRule.STAR_THEORY else None
        return lambda_rule(rule, m=m, d=plan.d, horizon=plan.horizon,
                           s_m=truth.meta.s_m, p1=p1)
    if ms.method == Method.SUBSPACE_LS:
        if ms.tau is not None:
            return float(ms.tau)
        rule = TauRule(ms.rule or "benchmark")
        if rule == TauRule.BENCHMARK:
            return float(tau_rule(rule, m=m))
        gamma2 = gamma_diagnostics(truth, plan.horizon, delta=RULE_DELTA).gamma2
        return float(tau_rule(rule, m=m, d=plan.d, horizon=plan.horizon,
                              s_m=truth.meta.s_m, delta=RULE_DELTA, gamma2=gamma2))
    return None


def run_trial(plan: ExperimentPlan, m: int, trial: int,
              seed: int | None = None) -> list[MetricRow]:
    """Run every method of the plan on one freshly simulated trial."""
    truth = normalize_spectral_radius(
        sample_holder_ensemble(m, plan.d, plan.beta, family="benchmark"))
    g = named_graph(plan.graph, m)
    spec = spectrum(build_laplacian(g))
    noise = NoiseModel(kind=plan.noise)
    seed = trial_seed(plan.seed, m, trial) if seed is None else seed
    bundle = simulate(truth, plan.horizon, noise, seed=seed)
    rows = []
    for ms in plan.methods:
        hyper = None
        start = time.perf_counter()
        try:  # record failures without aborting the plan
            hyper = _resolve_hyper(ms, plan, m, truth, spec)
            lam = hyper if ms.method == Method.LAPLACIAN_SMOOTHING else None
            tau = int(hyper) if ms.method == Method.SUBSPACE_LS else None
            result = est.estimate(bundle, g, est.EstimatorConfig(ms.method, lam=lam, tau=tau),
                                  spec=spec)
            trial_mse = mse(result, truth)
            status = "ok"
        except Exception as exc:
            trial_mse = float("nan")
            status = f"error:{type(exc).__name__}"
        elapsed = (time.perf_counter() - start) * 1000.0
        rows.append(MetricRow(
            m=m,
            trial=trial,
            method=ms.label(),
            hyper=hyper,
            rmse=math.sqrt(trial_mse) if status == "ok" else float("nan"),
            mse=trial_mse,
            wall_time_ms=elapsed if plan.record_timing else 0.0,
            seed=seed,
            status=status,
        ))
    return rows


def run_plan(plan: ExperimentPlan):
    """Yield MetricRows incrementally, one trial at a time."""
    for m in plan.m_values:
        for trial in range(plan.trials):
            yield from run_trial(plan, m, trial)


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return format(float(x), ".17g")


def rows_to_csv(rows) -> str:
    """Canonical CSV: sorted rows, 17-significant-digit floats, so equal
    row sets always produce identical bytes."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in sorted(rows, key=MetricRow.sort_key):
        writer.writerow([
            row.m,
            row.trial,
            row.method,
            "" if row.hyper is None else _fmt(row.hyper),
            _fmt(row.rmse),
            _fmt(row.mse),
            _fmt(row.wall_time_ms),
            row.seed,
            row.status,
        ])
    return buf.getvalue()


def write_csv(path, rows) -> None:
    Path(path).write_text(rows_to_csv(rows))


def parse_csv(text: str) -> list[MetricRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header: {header}")
    rows = []
    for rec in reader:
        rows.append(MetricRow(
            m=int(rec[0]),
            trial=int(rec[1]),
            method=rec[2],
            hyper=None if rec[3] == "" else float(rec[3]),
            rmse=float(rec[4]),
            mse=float(rec[5]),
            wall_time_ms=float(rec[6]),
            seed=int(rec[7]),
            status=rec[8],
        ))
    return rows


def read_csv(path) -> list[MetricRow]:
    return parse_csv(Path(path).read_text())


@dataclass(frozen=True)
class GroupSummary:
    m: int
    method: str
    mean_rmse: float
    std_rmse: float
    n: int


def summarize(rows) -> list[GroupSummary]:
    """Per-(m, method) mean and sample standard deviation (n-1
    denominator; a single row reports std 0 with n = 1)."""
    groups: dict[tuple[int, str], list[float]] = {}
    for row in rows:
        if row.status != "ok":
            continue
        groups.setdefault((row.m, row.method), []).append(row.rmse)
    if not groups:
        raise ValueError("no successful rows to summarize")
    out = []
    for (m, method), vals in sorted(groups.items()):
        arr = np.asarray(vals)
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        out.append(GroupSummary(m=m, method=method, mean_rmse=float(arr.mean()),
                                std_rmse=std, n=arr.size))
    return out


def write_plot_data(outdir, rows) -> list[Path]:
    """One mean/std table per method, ready for any external plotter."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    summaries = summarize(rows)
    by_method: dict[str, list[GroupSummary]] = {}
    for s in summaries:
        by_method.setdefault(s.method, []).append(s)
    written = []
    for method, items in sorted(by_method.items()):
        path = outdir / f"{method}.csv"
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["m", "mean_rmse", "std_rmse", "n"])
        for s in sorted(items, key=lambda s: s.m):
            writer.writerow([s.m, _fmt(s.mean_rmse), _fmt(s.std_rmse), s.n])
        path.write_text(buf.getvalue())
        written.append(path)
    return written
