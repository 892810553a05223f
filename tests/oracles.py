"""Independent brute-force references for the structured implementations.

Everything here materializes a full regression operator: the block
diagonal of X_l^T (x) I_d, the stacked targets, and the md^2-sized
normal/pseudo-inverse solves, or (for the subspace estimator) the
reduced regression on the subspace coefficients solved by lstsq.
Deliberately slow and simple; the library must agree with these on
small instances.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from graphlds import (
    GraphTopology,
    LaplacianSpectrum,
    TrajectoryBundle,
    build_laplacian,
    custom_graph,
)


def vec_f(x: np.ndarray) -> np.ndarray:
    return np.asarray(x).flatten(order="F")


def dense_q(bundle: TrajectoryBundle) -> np.ndarray:
    d = bundle.d
    blocks = [np.kron(bundle.inputs(l).T, np.eye(d)) for l in range(bundle.m)]
    return scipy.linalg.block_diag(*blocks)


def dense_targets(bundle: TrajectoryBundle) -> np.ndarray:
    return np.concatenate([vec_f(bundle.targets(l)) for l in range(bundle.m)])


def dense_penalized_matrix(bundle: TrajectoryBundle, g: GraphTopology,
                           lam: float) -> np.ndarray:
    q = dense_q(bundle)
    d2 = bundle.d ** 2
    return q.T @ q + lam * np.kron(build_laplacian(g), np.eye(d2))


def oracle_laplacian(bundle: TrajectoryBundle, g: GraphTopology,
                     lam: float) -> np.ndarray:
    """Solve the penalized normal equations by dense build-and-factor."""
    mat = dense_penalized_matrix(bundle, g, lam)
    rhs = dense_q(bundle).T @ dense_targets(bundle)
    a = np.linalg.solve(mat, rhs)
    return unstack(a, bundle.m, bundle.d)


def oracle_subspace(bundle: TrajectoryBundle, spec: LaplacianSpectrum,
                    tau: int) -> np.ndarray:
    """Minimum-norm projected LS by lstsq on the reduced (m T) x (tau d)
    regression: A_l = sum_k W[l, k] C_k for W the low-frequency basis, so
    node l's rows are kron(W[l], X_l^T) and its targets X~_l^T. W has
    orthonormal columns, so the minimum-norm C gives the minimum-norm A."""
    m, d = bundle.m, bundle.d
    w = spec.low_frequency_basis(tau)
    design = np.vstack([np.kron(w[l], bundle.inputs(l).T) for l in range(m)])
    targets = np.vstack([bundle.targets(l).T for l in range(m)])
    coeffs, *_ = np.linalg.lstsq(design, targets, rcond=None)
    c = coeffs.reshape(tau, d, d).transpose(0, 2, 1)  # c[k] = C_k
    return np.einsum("lk,kij->lij", w, c)


def oracle_minnorm_ls(bundle: TrajectoryBundle) -> np.ndarray:
    """Unconstrained minimum-norm least squares via pinv of the full
    regression matrix."""
    a = np.linalg.pinv(dense_q(bundle)) @ dense_targets(bundle)
    return unstack(a, bundle.m, bundle.d)


def oracle_pooled(bundle: TrajectoryBundle) -> np.ndarray:
    """Common matrix minimizing the summed fit, via lstsq on the
    horizontally concatenated trajectories."""
    x_all = np.hstack([bundle.inputs(l) for l in range(bundle.m)])
    y_all = np.hstack([bundle.targets(l) for l in range(bundle.m)])
    at, *_ = np.linalg.lstsq(x_all.T, y_all.T, rcond=None)
    return np.broadcast_to(at.T, (bundle.m, bundle.d, bundle.d)).copy()


def unstack(a: np.ndarray, m: int, d: int) -> np.ndarray:
    return np.array([a[l * d * d:(l + 1) * d * d].reshape(d, d, order="F")
                     for l in range(m)])


def stack(mats: np.ndarray) -> np.ndarray:
    return np.concatenate([vec_f(mat) for mat in mats])


def random_bundle(rng: np.random.Generator, m: int, d: int, horizon: int,
                  scale: float = 1.0) -> TrajectoryBundle:
    """Arbitrary finite data (not a simulated trajectory); exercises the
    estimators as pure linear-algebra maps."""
    return TrajectoryBundle(states=scale * rng.standard_normal((m, d, horizon + 1)))


def random_connected_graph(rng: np.random.Generator, m: int) -> GraphTopology:
    """Random spanning tree plus a few extra edges."""
    edges = set()
    order = rng.permutation(m) + 1
    for i in range(1, m):
        j = rng.integers(0, i)
        a, b = int(order[i]), int(order[j])
        edges.add((min(a, b), max(a, b)))
    extras = rng.integers(0, m + 1)
    for _ in range(extras):
        a, b = rng.integers(1, m + 1, size=2)
        if a != b:
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    return custom_graph(m, sorted(edges))


def brute_force_theta(spec: LaplacianSpectrum) -> float:
    """The delocalization definition evaluated by explicit double loop."""
    m = spec.m
    asc = spec.eigenvectors[:, ::-1]
    best = 0.0
    for tau in range(1, m + 1):
        for l in range(m):
            mass = sum(asc[l, i] ** 2 for i in range(tau))
            best = max(best, mass * m / tau)
    return best
