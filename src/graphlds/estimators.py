"""Joint estimators for system matrices living on graph nodes.

Four methods: smoothness-penalized least squares (graph-Laplacian
penalty, unique solution of SPD normal equations), least squares
constrained to the span of the tau lowest-frequency Laplacian
eigenvectors (minimum-norm via pseudo-inverse), plus per-node OLS and
pooled OLS baselines. Theory-guided choices of the penalty weight and
subspace size live here too.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .ensembles import SystemEnsemble, TrajectoryBundle, gamma_diagnostics
from .graphs import (GraphTopology, LaplacianSpectrum, build_laplacian,
                     quadratic_variation, spectrum)
from .solver import GramBlocks, PenalizedOperator, gram_blocks, pinv_solve, solve_spd


class Method(enum.Enum):
    LAPLACIAN_SMOOTHING = "laplacian"
    SUBSPACE_LS = "subspace"
    NODEWISE_OLS = "nodewise"
    POOLED_OLS = "pooled"


@dataclass(frozen=True)
class EstimatorConfig:
    method: Method
    lam: float | None = None
    tau: int | None = None

    def __post_init__(self):
        if self.method == Method.LAPLACIAN_SMOOTHING:
            if self.lam is None or self.lam < 0:
                raise ValueError("laplacian smoothing needs lam >= 0")
        if self.method == Method.SUBSPACE_LS:
            if self.tau is None or self.tau < 1:
                raise ValueError("subspace LS needs tau >= 1")


@dataclass(frozen=True)
class EstimateSet:
    """Estimated matrices plus per-run diagnostics (residuals, iteration
    counts, effective rank, the hyperparameter used, MSE when truth was
    supplied)."""

    mats: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return self.mats.shape[0]

    @property
    def d(self) -> int:
        return self.mats.shape[1]


def smoothing_objective(bundle: TrajectoryBundle, g: GraphTopology,
                        lam: float, mats: np.ndarray) -> float:
    """Fit residual plus lam times the edgewise quadratic variation;
    the quantity the smoothing estimator minimizes."""
    resid = bundle.states[:, :, 1:] - np.asarray(mats) @ bundle.states[:, :, :-1]
    return float(np.sum(resid * resid)) + lam * quadratic_variation(mats, g)


def mse(estimate: EstimateSet | np.ndarray, truth: SystemEnsemble) -> float:
    """Average squared Frobenius estimation error over nodes."""
    mats = np.asarray(getattr(estimate, "mats", estimate), dtype=float)
    if mats.shape != truth.mats.shape:
        raise ValueError(f"shape mismatch: {mats.shape} vs {truth.mats.shape}")
    err = mats - truth.mats
    return float(np.sum(err * err) / mats.shape[0])


def _with_truth(diag: dict, mats: np.ndarray, truth: SystemEnsemble | None) -> dict:
    if truth is not None:
        diag["mse"] = mse(mats, truth)
        diag["rmse"] = math.sqrt(diag["mse"])
    return diag


def laplacian_smoothing(bundle: TrajectoryBundle, g: GraphTopology, lam: float,
                        truth: SystemEnsemble | None = None) -> EstimateSet:
    """Penalized least squares: data fit plus lam times the quadratic
    variation across edges. Solves the SPD normal equations in row-split
    form, Y_l M_l + lam sum_k L_lk M_k = cs_l^T for M_l = A_l^T, through
    solve_spd: a banded Cholesky (path graphs, any graph at lam = 0), else
    conjugate gradients; diagnostics["solver"] says which.

    Raises SingularSystemError when the operator is singular (e.g.
    lam = 0 with rank-deficient per-node Gram matrices).
    """
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if bundle.m != g.m:
        raise ValueError(f"bundle has m={bundle.m}, graph has m={g.m}")
    blocks = gram_blocks(bundle)
    op = PenalizedOperator(blocks=blocks, laplacian=build_laplacian(g), lam=lam)
    sol, info = solve_spd(op, blocks.cs.transpose(0, 2, 1))
    mats = sol.transpose(0, 2, 1).copy()
    diag = {
        "method": Method.LAPLACIAN_SMOOTHING.value,
        "lambda": float(lam),
        "solver": info["solver"],
        "solver_iters": info["iterations"],
        "residual_norm": info["residual"],
        "objective": smoothing_objective(bundle, g, lam, mats),
    }
    if truth is not None:
        # sanity diagnostic: the minimizer can never score worse than truth
        diag["objective_at_truth"] = smoothing_objective(bundle, g, lam, truth.mats)
    return EstimateSet(mats=mats, diagnostics=_with_truth(diag, mats, truth))


def _subspace_core(blocks: GramBlocks, basis: np.ndarray):
    """Minimum-norm LS restricted to A_l = sum_k W[l, k] C_k, W = basis.

    In row-split form (Z_k = C_k^T) the projected normal equations are
    B Z = R with B = sum_l (f_l f_l^T) (x) Y_l of size tau*d (f_l the
    l-th row of W), Z the (tau*d, d) stack of the Z_k and R that of
    sum_l W[l, k] cs_l^T, so one tau*d pseudo-inverse serves all d
    columns.
    """
    m, d = blocks.m, blocks.d
    tau = basis.shape[1]
    pairs = (basis[:, :, None] * basis[:, None, :]).reshape(m, tau * tau)
    bmat = (pairs.T @ blocks.ys.reshape(m, d * d)).reshape(tau, tau, d, d)
    bmat = bmat.transpose(0, 2, 1, 3).reshape(tau * d, tau * d)
    proj = (basis.T @ blocks.cs.reshape(m, d * d)).reshape(tau, d, d)
    z, rank = pinv_solve(bmat, proj.transpose(0, 2, 1).reshape(tau * d, d))
    mats = (basis @ z.reshape(tau, d * d)).reshape(m, d, d)
    return mats.transpose(0, 2, 1).copy(), rank


def subspace_ls(bundle: TrajectoryBundle, spec: LaplacianSpectrum, tau: int,
                truth: SystemEnsemble | None = None) -> EstimateSet:
    """Least squares constrained to the tau lowest-frequency Laplacian
    eigenvectors tensored with identity; minimum-norm solution."""
    if bundle.m != spec.m:
        raise ValueError(f"bundle has m={bundle.m}, spectrum has m={spec.m}")
    if not 1 <= tau <= spec.m:
        raise ValueError(f"tau must lie in [1, {spec.m}], got {tau}")
    blocks = gram_blocks(bundle)
    basis = spec.low_frequency_basis(tau)
    mats, rank = _subspace_core(blocks, basis)
    vals = spec.eigenvalues
    m = spec.m
    # tau splits a repeated eigenvalue when the cut falls inside an
    # eigenspace; the result then depends on the (deterministic) basis
    scale = max(abs(vals[0]), 1.0)
    splits = tau < m and abs(vals[m - tau] - vals[m - tau - 1]) <= 1e-9 * scale
    diag = {
        "method": Method.SUBSPACE_LS.value,
        "tau": int(tau),
        "effective_rank": rank,
        "basis_dependent": bool(splits),
    }
    return EstimateSet(mats=mats, diagnostics=_with_truth(diag, mats, truth))


def nodewise_ols(bundle: TrajectoryBundle,
                 truth: SystemEnsemble | None = None) -> EstimateSet:
    """Independent per-node minimum-norm OLS (pseudo-inverse handles
    horizons shorter than the state dimension); effective_rank is the
    smallest per-node rank."""
    blocks = gram_blocks(bundle)
    sol, ranks = pinv_solve(blocks.ys, blocks.cs.transpose(0, 2, 1))
    mats = sol.transpose(0, 2, 1).copy()
    diag = {"method": Method.NODEWISE_OLS.value, "effective_rank": int(ranks.min())}
    return EstimateSet(mats=mats, diagnostics=_with_truth(diag, mats, truth))


def pooled_ols(bundle: TrajectoryBundle,
               truth: SystemEnsemble | None = None) -> EstimateSet:
    """Single matrix fit to all trajectories jointly, replicated to
    every node."""
    blocks = gram_blocks(bundle)
    y_sum = blocks.ys.sum(axis=0)
    c_sum = blocks.cs.sum(axis=0)
    sol, rank = pinv_solve(y_sum, c_sum.T)
    mats = np.broadcast_to(sol.T, blocks.cs.shape).copy()
    diag = {"method": Method.POOLED_OLS.value, "effective_rank": rank}
    return EstimateSet(mats=mats, diagnostics=_with_truth(diag, mats, truth))


def estimate(bundle: TrajectoryBundle, g: GraphTopology, config: EstimatorConfig,
             spec: LaplacianSpectrum | None = None,
             truth: SystemEnsemble | None = None,
             gamma_delta: float = 0.1, gamma_r: float = 1.0) -> EstimateSet:
    """Dispatch on config.method; computes the spectrum if the subspace
    method needs one and none is supplied. When truth is given, the
    diagnostics also carry the gamma trajectory-energy values (at
    confidence gamma_delta and noise proxy gamma_r)."""
    if config.method == Method.LAPLACIAN_SMOOTHING:
        result = laplacian_smoothing(bundle, g, config.lam, truth=truth)
    elif config.method == Method.SUBSPACE_LS:
        if spec is None:
            spec = spectrum(build_laplacian(g))
        result = subspace_ls(bundle, spec, config.tau, truth=truth)
    elif config.method == Method.NODEWISE_OLS:
        result = nodewise_ols(bundle, truth=truth)
    elif config.method == Method.POOLED_OLS:
        result = pooled_ols(bundle, truth=truth)
    else:
        raise ValueError(f"unknown method {config.method}")
    if truth is not None:
        gam = gamma_diagnostics(truth, bundle.horizon, delta=gamma_delta, r=gamma_r)
        result.diagnostics.update(
            gamma1=gam.gamma1, gamma2=gam.gamma2, gamma3=gam.gamma3)
    return result


class LambdaRule(enum.Enum):
    PATH_THEORY = "path"
    COMPLETE_THEORY = "complete"
    STAR_THEORY = "star"
    BENCHMARK = "benchmark"


def lambda_rule(kind: LambdaRule | str, *, m: int, r: float = 1.0,
                d: int | None = None, horizon: int | None = None,
                s_m: float | None = None, beta: float | None = None,
                p1: float | None = None) -> float:
    """Penalty weights that balance the bias and variance terms for each
    graph family, plus the fixed-constant tuning used by the benchmark.

    path:      (r d)^{4/5} (m / s_m)^{2/5} T^{1/5}
    complete:  (T r^2 d^2 / (m s_m))^{1/3}
    star:      (T r^2 d^2 m / (s_m + m^2 p1))^{1/3}
    benchmark: 20 m^{4 beta / 5}
    """
    kind = LambdaRule(kind)
    if kind == LambdaRule.BENCHMARK:
        if beta is None:
            raise ValueError("benchmark rule needs beta")
        return 20.0 * m ** (4.0 * beta / 5.0)
    if d is None or horizon is None:
        raise ValueError(f"{kind.value} rule needs d and horizon")
    if s_m is None or s_m <= 0:
        raise ValueError(
            f"{kind.value} rule needs s_m > 0; for s_m = 0 (identical systems) "
            "use subspace LS with tau = 1 or a large fixed lambda"
        )
    if kind == LambdaRule.PATH_THEORY:
        return (r * d) ** 0.8 * (m / s_m) ** 0.4 * horizon ** 0.2
    if kind == LambdaRule.COMPLETE_THEORY:
        return (horizon * r**2 * d**2 / (m * s_m)) ** (1.0 / 3.0)
    if kind == LambdaRule.STAR_THEORY:
        if p1 is None:
            raise ValueError("star rule needs p1 (hub-mode energy bound)")
        return (horizon * r**2 * d**2 * m / (s_m + m**2 * p1)) ** (1.0 / 3.0)
    raise ValueError(f"unknown lambda rule {kind}")


def hub_mode_energy(truth: SystemEnsemble, spec: LaplacianSpectrum) -> float:
    """Exact value of the star-graph p1 term: squared coefficients of the
    stacked truth along the top-eigenvalue eigenvector directions."""
    coeffs = np.tensordot(spec.eigenvectors[:, 0], truth.mats, axes=1)
    return float(np.sum(coeffs * coeffs))


class TauRule(enum.Enum):
    PATH_THEORY = "path"
    BENCHMARK = "benchmark"


def tau_rule(kind: TauRule | str, *, m: int, r: float = 1.0,
             d: int | None = None, horizon: int | None = None,
             s_m: float | None = None, delta: float | None = None,
             gamma2: float | None = None, c_prime: float = 1.0) -> int:
    """Subspace sizes, clamped to [1, m].

    benchmark: min(round(1.5 m^{1/3}), m)
    path:      floor of min{(m T / (c' d r^4 xi))^{1/3},
               max{(2 m^2 s_m T / (r^2 d^2))^{1/3}, 1}} with
               xi = log(1/delta) + log(1 + gamma2 / T). The constant c'
               is not pinned down by the theory; callers supply it
               (default 1).
    """
    kind = TauRule(kind)
    if kind == TauRule.BENCHMARK:
        raw = round(1.5 * m ** (1.0 / 3.0))
        return int(min(max(raw, 1), m))
    if kind == TauRule.PATH_THEORY:
        if None in (d, horizon, s_m, delta, gamma2):
            raise ValueError("path rule needs d, horizon, s_m, delta, gamma2")
        if not 0 < delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        if c_prime <= 0:
            raise ValueError(f"c_prime must be > 0, got {c_prime}")
        xi = math.log(1.0 / delta) + math.log(1.0 + gamma2 / horizon)
        first = (m * horizon / (c_prime * d * r**4 * xi)) ** (1.0 / 3.0)
        second = max((2.0 * m**2 * s_m * horizon / (r**2 * d**2)) ** (1.0 / 3.0), 1.0)
        tau = math.floor(min(first, second))
        return int(min(max(tau, 1), m))
    raise ValueError(f"unknown tau rule {kind}")
