"""Structured linear algebra for the joint estimators.

The smoothing normal equations blkdiag(Y_l (x) I_d) + lambda (L (x) I_{d^2})
act on a vector a of length m*d^2 whose l-th block is the column-major
vec of the l-th d x d matrix. The C-order reshape of that block is
M_l = A_l^T, mapped to Y_l @ M_l + lambda * sum_k L_lk M_k: the d columns
of the M_l never interact, so a.reshape(m*d, d) solves one m d x m d SPD
system K X = rhs.reshape(m*d, d), K = blkdiag(Y_l) + lambda (L (x) I_d),
with d right-hand sides (the row split of graph-regularized multitask
learning; Evgeniou, Micchelli & Pontil, JMLR 2005). In node order K has
half-bandwidth (b+1) d - 1 for b = max |i - j| over the Laplacian's
nonzeros; solve_spd factors that band when it is cheap and otherwise
runs conjugate gradients on the matrix-free operator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .ensembles import TrajectoryBundle

DEFAULT_SOLVE_TOL = 1e-10
# Largest banded-Cholesky cost, m d ((b+1) d)^2 flops, that solve_spd
# factors directly. At d = 10 CG wins past about 3e7 on complete and
# star graphs (~20-40 iterations) and the band wins to 2e9 on band graphs.
BANDED_FLOP_LIMIT = 1e8
# reciprocal condition estimate below this means "numerically singular"
RCOND_SINGULAR = 1e-15


class SingularSystemError(RuntimeError):
    """The penalized operator is (numerically) singular."""


class ConvergenceError(RuntimeError):
    """Iterative solve did not reach the requested residual."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def stack_mats(mats: np.ndarray) -> np.ndarray:
    """Column-major vec of each d x d matrix, concatenated over nodes."""
    mats = np.asarray(mats, dtype=float)
    m, d, _ = mats.shape
    # transpose(0, 2, 1) then C-flatten == per-block Fortran flatten
    return mats.transpose(0, 2, 1).reshape(m * d * d)


def unstack_mats(a: np.ndarray, m: int, d: int) -> np.ndarray:
    """Inverse of stack_mats: (m*d^2,) -> (m, d, d)."""
    return a.reshape(m, d, d).transpose(0, 2, 1).copy()


@dataclass(frozen=True)
class GramBlocks:
    """Per-node second-moment blocks of a trajectory bundle.

    ys[l] = X_l X_l^T and cs[l] = X~_l X_l^T, where X_l stacks
    x_{l,1}..x_{l,T} and X~_l the shifted targets. The stacked right-hand
    side Q^T x~ has l-th block vec(cs[l]).
    """

    ys: np.ndarray
    cs: np.ndarray
    horizon: int

    @property
    def m(self) -> int:
        return self.ys.shape[0]

    @property
    def d(self) -> int:
        return self.ys.shape[1]

    def rhs(self) -> np.ndarray:
        """Stacked Q^T x~ in the column-major block convention."""
        return stack_mats(self.cs)


def gram_blocks(bundle: TrajectoryBundle) -> GramBlocks:
    inputs_t = bundle.states[:, :, :-1].transpose(0, 2, 1)  # X_l^T per node
    return GramBlocks(ys=bundle.states[:, :, :-1] @ inputs_t,
                      cs=bundle.states[:, :, 1:] @ inputs_t, horizon=bundle.horizon)


@dataclass
class PenalizedOperator:
    """Matrix-free action of blkdiag(Y_l (x) I_d) + lambda (L (x) I_{d^2})."""

    blocks: GramBlocks
    laplacian: np.ndarray
    lam: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        if self.laplacian.shape != (self.blocks.m, self.blocks.m):
            raise ValueError("Laplacian size does not match the number of nodes")
        self._lap = scipy.sparse.csr_array(self.laplacian)

    @property
    def size(self) -> int:
        return self.blocks.m * self.blocks.d ** 2

    def apply(self, a: np.ndarray) -> np.ndarray:
        m, d = self.blocks.m, self.blocks.d
        blocks = a.reshape(m, d, d)  # C-order views; see module docstring
        out = np.einsum("lij,ljk->lik", self.blocks.ys, blocks)
        if self.lam != 0.0:
            flat = a.reshape(m, d * d)
            out += self.lam * (self._lap @ flat).reshape(m, d, d)
        return out.reshape(m * d * d)

    def norm_upper_bound(self) -> float:
        """Cheap upper bound on the operator 2-norm, for breakdown tests."""
        y_bound = float(max(np.trace(y) for y in self.blocks.ys))
        deg = float(np.max(np.diag(self.laplacian))) if self.lam else 0.0
        return y_bound + self.lam * 2.0 * deg


def apply_penalized(op: PenalizedOperator, a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (op.size,):
        raise ValueError(f"expected vector of length {op.size}, got shape {a.shape}")
    return op.apply(a)


def _check_structural_rank(op: PenalizedOperator) -> None:
    """Numerical singularity test that does not rely on CG breakdown.

    With lam = 0 the operator is singular iff some Y_l is rank
    deficient. With lam > 0 on a connected graph the kernel of the
    Laplacian term is the constant-across-nodes blocks, so singularity
    is exactly rank deficiency of sum_l Y_l.
    """
    d = op.blocks.d
    if op.lam == 0.0:
        candidates = op.blocks.ys
        hint = "per-node Gram matrix Y_l is rank deficient (T < d?)"
    else:
        candidates = op.blocks.ys.sum(axis=0)[None]
        hint = "aggregated Gram matrix sum_l Y_l is rank deficient"
    vals = np.linalg.eigvalsh(candidates)
    if np.any((vals[:, -1] <= 0) | (vals[:, 0] <= d * np.finfo(float).eps * vals[:, -1])):
        raise SingularSystemError(
            f"penalized operator is singular: {hint}; use lambda > 0 "
            "or a longer horizon T"
        )


def _node_bandwidth(op: PenalizedOperator, flop_limit: float = np.inf) -> int | None:
    """b = max |i - j| over the Laplacian's nonzeros (0 when lam = 0), or
    None when the banded factorization, m d ((b+1) d)^2 flops, would cost
    more than flop_limit. A row with k nonzeros reaches at least k // 2
    nodes away; the nonzeros are scanned only if that bound is cheap."""
    m, d = op.blocks.m, op.blocks.d
    b = 0
    if op.lam != 0.0:
        counts = np.diff(op._lap.indptr)
        b = int(counts.max()) // 2
        if m * d * ((b + 1) * d) ** 2 <= flop_limit:
            b = int(np.abs(np.repeat(np.arange(m), counts) - op._lap.indices).max(initial=0))
    return b if m * d * ((b + 1) * d) ** 2 <= flop_limit else None


def _inverse_norm1(solve, n: int) -> float:
    """Estimate of ||K^{-1}||_1 for symmetric K from a few solves: Hager's
    method with Higham's extra test vector (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., Algorithm 15.4)."""
    x, est = np.full(n, 1.0 / n), 0.0
    for _ in range(5):
        y = solve(x)
        est = max(est, float(np.abs(y).sum()))
        z = solve(np.where(y >= 0, 1.0, -1.0))
        j = int(np.argmax(np.abs(z)))
        if abs(z[j]) <= z @ x:
            break
        x = np.eye(1, n, j)[0]
    alt = (-1.0) ** np.arange(n) * (1.0 + np.arange(n) / max(n - 1, 1))
    return max(est, 2.0 * float(np.abs(solve(alt)).sum()) / (3.0 * n))


def _banded_residual(op: PenalizedOperator, diags, rhs: np.ndarray,
                     x: np.ndarray) -> np.ndarray:
    """rhs - op.apply(x), its Laplacian term summed as
    sum_k L_lk (M_k - M_l) + (sum_k L_lk) M_l (diags[k]: lam times node
    diagonal k of L). At large lambda the solution is nearly constant
    across nodes, where lam * (L @ x) would lose lam * eps * |x| to
    cancellation and stall iterative refinement."""
    m, d = op.blocks.m, op.blocks.d
    mats = x.reshape(m, d, d)
    out = op.blocks.ys @ mats
    out += (op.lam * op.laplacian.sum(axis=1))[:, None, None] * mats
    for k in range(1, len(diags)):
        step = diags[k][:, None, None] * (mats[k:] - mats[:-k])
        out[:-k] += step
        out[k:] -= step
    return rhs - out.reshape(op.size)


def _solve_banded(op: PenalizedOperator, rhs: np.ndarray):
    """Banded Cholesky of the row-split system K (module docstring): one
    factorization for all d right-hand-side columns, then two steps of
    iterative refinement on _banded_residual."""
    _check_structural_rank(op)
    m, d = op.blocks.m, op.blocks.d
    b = _node_bandwidth(op)
    diags = [op.lam * np.diagonal(op.laplacian, -k) for k in range(b + 1)]
    # lower band storage: K[r, c] sits at ab[r - c, c] for r >= c, and
    # node diagonal k of L lands on band row k d
    ab = np.zeros(((b + 1) * d, m * d))
    i, j = np.tril_indices(d)
    ab[i - j, np.arange(m)[:, None] * d + j] = op.blocks.ys[:, i, j]
    for k, w in enumerate(diags):
        ab[k * d, :(m - k) * d] += np.repeat(w, d)
    # ||K||_1 exactly: Y_l and L have nonnegative diagonals
    anorm = (np.abs(op.blocks.ys).sum(axis=1)
             + op.lam * np.abs(op.laplacian).sum(axis=0)[:, None]).max()
    try:
        factor = (scipy.linalg.cholesky_banded(ab, lower=True, check_finite=False), True)
        solve = functools.partial(scipy.linalg.cho_solve_banded, factor, check_finite=False)
        rcond = 1.0 / (anorm * _inverse_norm1(solve, m * d))
    except np.linalg.LinAlgError:  # not positive definite
        rcond = 0.0
    if rcond < RCOND_SINGULAR:
        raise SingularSystemError(
            f"penalized operator is numerically singular (rcond={rcond:.2e}); "
            "use lambda > 0 or a longer horizon T"
        )
    x = np.zeros_like(rhs)
    for _ in range(3):  # the solve, then two refinement steps
        r = _banded_residual(op, diags, rhs, x).reshape(m * d, d)
        x += solve(r).reshape(op.size)
    residual = (np.linalg.norm(_banded_residual(op, diags, rhs, x))
                / max(np.linalg.norm(rhs), 1e-300))
    return x, {"solver": "banded_cholesky", "iterations": 0, "residual": float(residual)}


def _solve_cg(op: PenalizedOperator, rhs: np.ndarray, tol: float, max_iter: int):
    _check_structural_rank(op)
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), {"solver": "cg", "iterations": 0, "residual": 0.0}
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rr = float(r @ r)
    breakdown_scale = 1e-14 * max(op.norm_upper_bound(), np.finfo(float).tiny)
    for it in range(1, max_iter + 1):
        ap = op.apply(p)
        pap = float(p @ ap)
        if pap <= breakdown_scale * float(p @ p):
            raise SingularSystemError(
                "conjugate-gradient breakdown: operator is singular or indefinite; "
                "use lambda > 0 or a longer horizon T"
            )
        alpha = rr / pap
        x += alpha * p
        r -= alpha * ap
        res = np.linalg.norm(r) / rhs_norm
        if res <= tol:
            return x, {"solver": "cg", "iterations": it, "residual": float(res)}
        rr_new = float(r @ r)
        p = r + (rr_new / rr) * p
        rr = rr_new
    final = float(np.linalg.norm(rhs - op.apply(x)) / rhs_norm)
    raise ConvergenceError(
        f"conjugate gradient did not reach tol={tol:g} in {max_iter} iterations "
        f"(residual {final:.3e})",
        residual=final,
        iterations=max_iter,
    )


def solve_spd(op: PenalizedOperator, rhs: np.ndarray,
              tol: float = DEFAULT_SOLVE_TOL, max_iter: int | None = None):
    """Solve op(a) = rhs for a symmetric positive definite operator.

    Row split (module docstring): when the banded Cholesky of K costs at
    most BANDED_FLOP_LIMIT = 1e8 flops, m d ((b+1) d)^2 for node
    bandwidth b, it is factored once and refined twice ("banded_cholesky",
    0 iterations); that covers path graphs of any size and every graph at
    lambda = 0. Wider graphs (at d = 10, complete or star graphs past
    about 46 nodes) use conjugate gradients on the matrix-free operator
    ("cg") until the relative residual is below tol, within max_iter
    iterations. Returns (a, info) with info["solver"],
    info["iterations"] and the final relative info["residual"].
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (op.size,):
        raise ValueError(f"rhs must have length {op.size}, got shape {rhs.shape}")
    if _node_bandwidth(op, BANDED_FLOP_LIMIT) is not None:
        return _solve_banded(op, rhs)
    if max_iter is None:
        max_iter = max(10 * op.size, 1000)
    return _solve_cg(op, rhs, tol, max_iter)


def pinv_solve(mat: np.ndarray, rhs: np.ndarray, rank_tol: float | None = None):
    """Minimum-norm least-squares solution of a symmetric PSD system via
    eigendecomposition; eigenvalues <= rank_tol * max(eig) are treated as
    zero (default rank_tol: k * machine epsilon for a k x k matrix).

    rhs may be a vector or a matrix of stacked right-hand-side columns.
    Returns (solution, effective_rank).
    """
    mat = np.asarray(mat, dtype=float)
    k = mat.shape[0]
    if mat.shape != (k, k):
        raise ValueError(f"matrix must be square, got {mat.shape}")
    if not np.allclose(mat, mat.T, atol=1e-8 * max(1.0, float(np.abs(mat).max()))):
        raise ValueError("matrix must be symmetric")
    if rank_tol is None:
        rank_tol = k * np.finfo(float).eps
    vals, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
    cutoff = rank_tol * max(float(vals[-1]), 0.0)
    keep = vals > cutoff
    rank = int(np.count_nonzero(keep))
    if rank == 0:
        return np.zeros_like(np.asarray(rhs, dtype=float)), 0
    vk = vecs[:, keep]
    proj = vk.T @ rhs
    sol = vk @ (proj / vals[keep].reshape(-1, *([1] * (proj.ndim - 1))))
    return sol, rank
