"""Command-line interface.

Verbs: simulate (ensemble + trajectories to files), estimate (bundle +
graph + method -> estimates + diagnostics), experiment (plan file ->
CSV), plot-data (CSV -> per-method summary tables), replay (re-run one
trial of a plan from its seed). Exit code is nonzero on any hard error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import estimators as est
from . import experiments as exp
from . import serialize
from .ensembles import (
    NoiseKind,
    NoiseModel,
    normalize_spectral_radius,
    sample_holder_ensemble,
    simulate,
)
from .graphs import load_edge_list, named_graph


def _graph_from_args(args, m: int):
    if not args.graph_file:
        return named_graph(args.graph, m)
    g = load_edge_list(args.graph_file)
    if g.m != m:
        raise SystemExit(f"graph file has m={g.m}, data has m={m}")
    return g


def _cmd_simulate(args) -> int:
    ensemble = sample_holder_ensemble(args.m, args.d, args.beta, family="benchmark")
    if args.normalize:
        ensemble = normalize_spectral_radius(ensemble)
    bundle = simulate(ensemble, args.T, NoiseModel(kind=NoiseKind(args.noise)),
                      seed=args.seed)
    serialize.save_ensemble(args.ensemble_out, ensemble)
    serialize.save_bundle(args.bundle_out, bundle)
    meta = ensemble.meta
    print(json.dumps({
        "m": ensemble.m, "d": ensemble.d, "T": bundle.horizon,
        "beta": meta.beta, "s_m": meta.s_m, "normalized": meta.normalized,
        "seed": args.seed,
        "ensemble": str(args.ensemble_out), "bundle": str(args.bundle_out),
    }))
    return 0


def _cmd_estimate(args) -> int:
    bundle = serialize.load_bundle(args.bundle)
    g = _graph_from_args(args, bundle.m)
    truth = serialize.load_ensemble(args.truth) if args.truth else None
    config = est.EstimatorConfig(est.Method(args.method), lam=args.lam, tau=args.tau)
    result = est.estimate(bundle, g, config, truth=truth,
                          gamma_delta=args.delta, gamma_r=args.r)
    serialize.save_estimates(args.out, result)
    print(json.dumps(result.diagnostics, sort_keys=True))
    return 0


def _cmd_experiment(args) -> int:
    plan = exp.load_plan(args.plan)
    out = args.out or plan.output
    if not out:
        raise SystemExit("no output path: pass --out or set 'output' in the plan")
    rows = list(exp.run_plan(plan))
    exp.write_csv(out, rows)
    failed = sum(1 for r in rows if r.status != "ok")
    print(f"wrote {len(rows)} rows to {out}" +
          (f" ({failed} failed)" if failed else ""))
    return 0


def _cmd_plot_data(args) -> int:
    rows = exp.read_csv(args.csv)
    written = exp.write_plot_data(args.outdir, rows)
    for path in written:
        print(path)
    return 0


def _cmd_replay(args) -> int:
    plan = exp.load_plan(args.plan)
    if args.m not in plan.m_values:
        raise SystemExit(f"m={args.m} is not in the plan's m_values {plan.m_values}")
    if not 0 <= args.trial < plan.trials:
        raise SystemExit(f"trial must lie in [0, {plan.trials - 1}]")
    rows = exp.run_trial(plan, args.m, args.trial, seed=args.seed)
    sys.stdout.write(exp.rows_to_csv(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphlds",
        description="Joint estimation of linear dynamical systems on graph nodes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate an ensemble and simulate trajectories")
    p.add_argument("--m", type=int, required=True, help="number of nodes")
    p.add_argument("--d", type=int, required=True, help="state dimension")
    p.add_argument("--T", type=int, required=True, help="trajectory horizon")
    p.add_argument("--beta", type=float, default=1.0, help="smoothness exponent in (0, 1]")
    p.add_argument("--noise", choices=[k.value for k in NoiseKind], default="gaussian")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=True,
                   help="rescale so the largest spectral radius is 1")
    p.add_argument("--ensemble-out", required=True)
    p.add_argument("--bundle-out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="run one estimator on a saved bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--graph", choices=["path", "complete", "star"], default="path")
    p.add_argument("--graph-file", help="edge-list file for a custom graph")
    p.add_argument("--method", choices=[m.value for m in est.Method], required=True)
    p.add_argument("--lam", type=float, help="penalty weight (laplacian method)")
    p.add_argument("--tau", type=int, help="subspace size (subspace method)")
    p.add_argument("--truth", help="ensemble file; adds MSE and gamma diagnostics")
    p.add_argument("--delta", type=float, default=0.1, help="confidence level for gamma1")
    p.add_argument("--r", type=float, default=1.0, help="subgaussian proxy constant")
    p.add_argument("--out", required=True, help="estimates output file (.npz)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("experiment", help="run a plan file and write the metrics CSV")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", help="CSV path (overrides the plan's 'output')")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("plot-data", help="summarize a metrics CSV into per-method tables")
    p.add_argument("--csv", required=True)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_plot_data)

    p = sub.add_parser("replay", help="re-run a single (m, trial) of a plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trial", type=int, required=True)
    p.add_argument("--seed", type=int,
                   help="override the derived seed (as recorded in the CSV row)")
    p.set_defaults(func=_cmd_replay)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
