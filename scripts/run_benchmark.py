#!/usr/bin/env python3
"""Monte Carlo study of the joint estimators on the smooth path-graph
family: generate, normalize, simulate, estimate, and tabulate mean RMSE
versus the number of nodes.

Desk-scale by default (a subset of m values, a few seconds); pass
--full for the complete grid m in {5,10,20,40,60,80,100,150}. Writes the
per-trial CSV, per-method mean/std tables, and prints a summary.
"""

import argparse
import sys
import time
from pathlib import Path

from graphlds import (
    GraphKind,
    Method,
    MethodSpec,
    NoiseKind,
    run_plan,
    summarize,
    write_csv,
    write_plot_data,
)
from graphlds.experiments import ExperimentPlan

FULL_M = (5, 10, 20, 40, 60, 80, 100, 150)
DESK_M = (5, 10, 20, 40, 100)


def build_plan(args) -> ExperimentPlan:
    return ExperimentPlan(
        graph=GraphKind.PATH,
        d=args.d,
        m_values=tuple(FULL_M if args.full else DESK_M),
        horizon=args.T,
        beta=args.beta,
        noise=NoiseKind.GAUSSIAN_UNIT,
        trials=args.trials,
        methods=(
            MethodSpec(method=Method.LAPLACIAN_SMOOTHING, rule="benchmark"),
            MethodSpec(method=Method.SUBSPACE_LS, rule="benchmark"),
            MethodSpec(method=Method.NODEWISE_OLS),
            MethodSpec(method=Method.POOLED_OLS),
        ),
        seed=args.seed,
        record_timing=args.timing,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=10)
    parser.add_argument("--T", type=int, default=5)
    parser.add_argument("--beta", type=float, default=1.0,
                        help="smoothness exponent; 1 gives the fastest-shrinking budget")
    parser.add_argument("--trials", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--full", action="store_true", help="run all eight m values")
    parser.add_argument("--timing", action="store_true",
                        help="record wall time per row (makes the CSV run-dependent)")
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    args = parser.parse_args(argv)

    plan = build_plan(args)
    args.outdir.mkdir(parents=True, exist_ok=True)
    tag = f"d{args.d}_T{args.T}_beta{args.beta:g}_trials{args.trials}"

    rows = []
    start = time.time()
    for row in run_plan(plan):
        rows.append(row)
        if row.trial == plan.trials - 1:
            print(f"  m={row.m:4d} {row.method:10s} done ({time.time() - start:6.1f}s)")

    csv_path = args.outdir / f"benchmark_{tag}.csv"
    write_csv(csv_path, rows)
    tables = write_plot_data(args.outdir / f"benchmark_{tag}_summary", rows)

    print(f"\nwrote {csv_path} and {len(tables)} summary tables")
    print(f"\nmean RMSE over {plan.trials} trials (std in parens):")
    header = "  m    " + "".join(f"{m.value:>18s}" for m in
                                 (Method.LAPLACIAN_SMOOTHING, Method.SUBSPACE_LS,
                                  Method.NODEWISE_OLS, Method.POOLED_OLS))
    print(header)
    summaries = {(s.m, s.method): s for s in summarize(rows)}
    for m in plan.m_values:
        cells = []
        for method in ("laplacian", "subspace", "nodewise", "pooled"):
            s = summaries.get((m, method))
            cells.append(f"{s.mean_rmse:8.3f} ({s.std_rmse:5.3f})" if s else " " * 16)
        print(f"{m:5d}  " + "  ".join(cells))
    failed = [r for r in rows if r.status != "ok"]
    if failed:
        print(f"\n{len(failed)} rows failed: " +
              ", ".join(sorted({r.status for r in failed})))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
