"""Reference estimates the benchmark computes itself, with numpy and
scipy only, to check every op's output.

Each estimator splits by matrix row: row i of every A_l solves the same
small system, so all d rows are one solve with d right-hand sides.
``states`` has shape (m, d, T+1) and the model is X~_l = A_l X_l with
X_l = states[l, :, :-1] and X~_l = states[l, :, 1:].
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

# Largest relative Frobenius error, over all m matrices, accepted between
# an estimate and its reference. The conjugate-gradient path stops at a
# relative residual of 1e-10; on the sweep seeds measured its estimates
# sat within 4e-9 of the direct solve, and the direct paths within 1e-14.
# A solve of the wrong system, or one stopped early, misses by far more.
RTOL = 1e-6


def path_laplacian(m: int) -> np.ndarray:
    lap = np.diag(np.r_[1.0, np.full(m - 2, 2.0), 1.0])
    idx = np.arange(m - 1)
    lap[idx, idx + 1] = lap[idx + 1, idx] = -1.0
    return lap


def complete_laplacian(m: int) -> np.ndarray:
    return m * np.eye(m) - np.ones((m, m))


def lambda_benchmark(m: int, beta: float) -> float:
    return 20.0 * m ** (4.0 * beta / 5.0)


def tau_benchmark(m: int) -> int:
    return min(max(round(1.5 * m ** (1.0 / 3.0)), 1), m)


def _split(states):
    return states[:, :, :-1], states[:, :, 1:]


def smoothing(states: np.ndarray, lap: np.ndarray, lam: float) -> np.ndarray:
    """Direct solve of the m d x m d system blkdiag(Y_l) + lam (L (x) I_d)
    with d right-hand sides; block l of the solution is A_l^T."""
    x, xt = _split(states)
    m, d, _ = x.shape
    system = lam * np.kron(lap, np.eye(d))
    rhs = np.empty((m * d, d))
    for l in range(m):
        rows = slice(l * d, (l + 1) * d)
        system[rows, rows] += x[l] @ x[l].T
        rhs[rows] = x[l] @ xt[l].T
    sol = scipy.linalg.solve(system, rhs, assume_a="pos")
    return sol.reshape(m, d, d).transpose(0, 2, 1)


def low_frequency_basis(lap: np.ndarray, tau: int) -> np.ndarray:
    """The tau lowest-frequency Laplacian eigenvectors. Their span is
    unique when eigenvalue tau + 1 differs from eigenvalue tau, as on
    the path graph."""
    return np.linalg.eigh(lap)[1][:, :tau]


def subspace(states: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Minimum-norm least squares with A_l = sum_k W[l, k] C_k, W = basis:
    ``lstsq`` on the reduced (m T) x (tau d) regression. W has
    orthonormal columns, so the minimum-norm C gives the minimum-norm A."""
    x, xt = _split(states)
    m, d, horizon = x.shape
    tau = basis.shape[1]
    design = np.einsum("lk,ljt->ltkj", basis, x).reshape(m * horizon, tau * d)
    targets = xt.transpose(0, 2, 1).reshape(m * horizon, d)
    coeffs = np.linalg.lstsq(design, targets, rcond=None)[0]
    c = coeffs.reshape(tau, d, d).transpose(0, 2, 1)
    return np.einsum("lk,kij->lij", basis, c)


def nodewise(states: np.ndarray) -> np.ndarray:
    x, xt = _split(states)
    return np.stack([np.linalg.lstsq(x[l].T, xt[l].T, rcond=None)[0].T
                     for l in range(x.shape[0])])


def pooled(states: np.ndarray) -> np.ndarray:
    x, xt = _split(states)
    m, d, _ = x.shape
    a = np.linalg.lstsq(x.transpose(0, 2, 1).reshape(-1, d),
                        xt.transpose(0, 2, 1).reshape(-1, d), rcond=None)[0].T
    return np.broadcast_to(a, (m, d, d))


def rel_error(estimate: np.ndarray, reference: np.ndarray) -> float:
    return float(np.linalg.norm(estimate - reference) / np.linalg.norm(reference))


def rmse(mats: np.ndarray, truth: np.ndarray) -> float:
    err = mats - truth
    return math.sqrt(float(np.sum(err * err)) / mats.shape[0])
