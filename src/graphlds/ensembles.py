"""Ground-truth system ensembles, trajectory simulation, and stability
diagnostics for collections of first-order linear dynamical systems.

The l-th node evolves as x_{t+1} = A_l x_t + eta_{t+1} with x_0 = 0; only
x_1 .. x_{T+1} are stored. Noise coordinates are centered with unit
variance. Per-node RNG streams are derived from (seed, node), so a
simulation is reproducible and independent of evaluation order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

# simulation aborts rather than emit infs when states pass this magnitude
OVERFLOW_LIMIT = 1e150


class SimulationOverflowError(RuntimeError):
    pass


class NoiseKind(enum.Enum):
    GAUSSIAN_UNIT = "gaussian"
    RADEMACHER = "rademacher"


@dataclass(frozen=True)
class NoiseModel:
    """Centered unit-variance noise with independent coordinates.

    r is the subgaussian proxy constant used by the hyperparameter rules;
    it is informational here (both kinds have unit variance regardless).
    """

    kind: NoiseKind = NoiseKind.GAUSSIAN_UNIT
    r: float = 1.0

    def draw(self, rng: np.random.Generator, d: int, n: int) -> np.ndarray:
        if self.kind == NoiseKind.GAUSSIAN_UNIT:
            return rng.standard_normal((d, n))
        if self.kind == NoiseKind.RADEMACHER:
            return rng.integers(0, 2, size=(d, n)).astype(float) * 2.0 - 1.0
        raise ValueError(f"unknown noise kind {self.kind}")


@dataclass(frozen=True)
class EnsembleMeta:
    beta: float | None = None
    normalized: bool = False
    s_m: float | None = None


@dataclass(frozen=True)
class SystemEnsemble:
    """m system matrices of shape d x d plus optional sampling metadata."""

    mats: np.ndarray
    meta: EnsembleMeta | None = None

    def __post_init__(self):
        arr = np.asarray(self.mats, dtype=float)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError(f"mats must have shape (m, d, d), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("mats must be finite")
        object.__setattr__(self, "mats", arr)

    @property
    def m(self) -> int:
        return self.mats.shape[0]

    @property
    def d(self) -> int:
        return self.mats.shape[1]


@dataclass(frozen=True)
class TrajectoryBundle:
    """Observed states for each node: states[l, :, t] is x_{l,t+1}.

    x_{l,0} = 0 is implied and not stored, so states has shape
    (m, d, T+1) covering x_{l,1} .. x_{l,T+1}.
    """

    states: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        arr = np.asarray(self.states, dtype=float)
        if arr.ndim != 3 or arr.shape[2] < 2:
            raise ValueError(f"states must have shape (m, d, T+1) with T >= 1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("states must be finite")
        object.__setattr__(self, "states", arr)

    @property
    def m(self) -> int:
        return self.states.shape[0]

    @property
    def d(self) -> int:
        return self.states.shape[1]

    @property
    def horizon(self) -> int:
        """T, the number of (x_t, x_{t+1}) regression pairs."""
        return self.states.shape[2] - 1

    def inputs(self, l: int) -> np.ndarray:
        """X_l = [x_{l,1} ... x_{l,T}]."""
        return self.states[l, :, :-1]

    def targets(self, l: int) -> np.ndarray:
        """X~_l = [x_{l,2} ... x_{l,T+1}]."""
        return self.states[l, :, 1:]


def sample_holder_ensemble(m: int, d: int, beta: float,
                           family: str = "benchmark",
                           functions=None) -> SystemEnsemble:
    """Sample entry (i, j) of A_l as f_{i,j}(l/m).

    family "benchmark" uses the built-in smooth family
    f_{i,j}(x) = 4 x^beta - sin(2 pi i j x / d); family "user" takes
    functions(i, j, x) -> float. Both use 1-based i, j. The smoothness
    budget s_m is recorded as the quadratic variation on the path graph.
    """
    if m < 2:
        raise ValueError(f"need m >= 2 (graphs need at least two nodes), got {m}")
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    if family == "benchmark":
        x = (np.arange(1, m + 1) / m)[:, None, None]
        i = np.arange(1, d + 1)[:, None]
        j = np.arange(1, d + 1)
        # same left-to-right operation order as the scalar formula
        mats = 4.0 * x**beta - np.sin(2.0 * math.pi * i * j * x / d)
    elif family == "user":
        if functions is None:
            raise ValueError("family='user' requires a functions(i, j, x) callable")
        mats = np.array([[[functions(i, j, l / m) for j in range(1, d + 1)]
                          for i in range(1, d + 1)] for l in range(1, m + 1)], dtype=float)
    else:
        raise ValueError(f"unknown family {family!r}")
    diff = np.diff(mats, axis=0)  # path-graph edges (l, l + 1)
    s_m = float(np.einsum("eab,eab->", diff, diff))
    return SystemEnsemble(mats=mats, meta=EnsembleMeta(beta=beta, s_m=s_m))


def spectral_radius(a: np.ndarray) -> float:
    """Largest eigenvalue modulus of a matrix, or over a stack of them."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix must be finite")
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigenvalue computation failed: {exc}") from exc
    return float(np.max(np.abs(vals)))


def max_spectral_radius(e: SystemEnsemble) -> float:
    return spectral_radius(e.mats)


def normalize_spectral_radius(e: SystemEnsemble) -> SystemEnsemble:
    """Divide every matrix by max_l rho(A_l) so the largest radius is 1."""
    rho = max_spectral_radius(e)
    if rho <= 0.0:
        raise ValueError("all-zero ensemble: spectral-radius normalization undefined")
    meta = e.meta or EnsembleMeta()
    s_m = None if meta.s_m is None else meta.s_m / rho**2
    return SystemEnsemble(mats=e.mats / rho,
                          meta=replace(meta, normalized=True, s_m=s_m))


def _node_rng(seed, l: int) -> np.random.Generator:
    # spawn_key makes streams independent of node evaluation order
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(l,)))


def simulate(e: SystemEnsemble, horizon: int, noise: NoiseModel | None = None,
             seed: int = 0) -> TrajectoryBundle:
    """Run each node's recursion for T = horizon steps, returning
    x_{l,1} .. x_{l,T+1} (x_{l,0} = 0, so x_{l,1} is pure noise).

    If a state passes OVERFLOW_LIMIT, SimulationOverflowError names the
    earliest such step and the lowest-numbered node over the limit there.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    noise = noise or NoiseModel()
    # eta_{l,1} .. eta_{l,T+1}; x_{l,t+1} overwrites eta_{l,t+1} in place
    states = np.stack([noise.draw(_node_rng(seed, l), e.d, horizon + 1)
                       for l in range(e.m)])
    for t in range(1, horizon + 1):
        states[:, :, t] += (e.mats @ states[:, :, t - 1, None])[:, :, 0]
        over = np.flatnonzero(np.any(np.abs(states[:, :, t]) > OVERFLOW_LIMIT, axis=1))
        if over.size:
            raise SimulationOverflowError(
                f"state magnitude exceeded {OVERFLOW_LIMIT:g} at node {over[0] + 1}, "
                f"step {t}; the ensemble is explosive — normalize it or shorten T"
            )
    return TrajectoryBundle(states=states, seed=seed)


def grammian(a: np.ndarray, t: int) -> np.ndarray:
    """Reachability-energy matrix sum_{k=0}^{t} A^k (A^k)^T, built by
    iterated multiplication. Gamma_0 = I."""
    a = np.asarray(a, dtype=float)
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    d = a.shape[0]
    power = np.eye(d)
    total = np.eye(d)
    for _ in range(t):
        power = a @ power
        if not np.all(np.isfinite(power)) or np.max(np.abs(power)) > OVERFLOW_LIMIT:
            raise OverflowError(
                "matrix power overflow: the matrix is explosive at this horizon; "
                "reduce t or rescale the matrix"
            )
        total += power @ power.T
    return total


@dataclass(frozen=True)
class GammaDiagnostics:
    """Trajectory-energy summaries that parameterize the estimators'
    error behavior; reported alongside estimates, enforced nowhere."""

    gamma1: float
    gamma2: float
    gamma3: float


def gamma_diagnostics(e: SystemEnsemble, horizon: int, delta: float,
                      r: float = 1.0) -> GammaDiagnostics:
    """gamma1 = (1 + r^2 log(m/delta)) max_l sum_{t<T} tr(G_t(A_l));
    gamma2 = sum_l sum_{t=1..T} tr(G_t(A_l) - I);
    gamma3 = sum_l sum_{t<T} tr(G_t(A_l))."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    m, d = e.m, e.d
    power = np.broadcast_to(np.eye(d), e.mats.shape)  # A_l^t for every node
    tr_running = np.full(m, float(d))  # tr(Gamma_t(A_l)); tr(Gamma_0) = d
    per_node_lo = np.full(m, float(d))  # sum over t = 0 .. T-1 of tr(Gamma_t)
    gamma2 = 0.0
    for t in range(1, horizon + 1):
        power = e.mats @ power
        tr_running += np.einsum("lab,lab->l", power, power)
        gamma2 += float(np.sum(tr_running - d))
        if t <= horizon - 1:
            per_node_lo += tr_running
    gamma1 = (1.0 + r**2 * math.log(m / delta)) * float(np.max(per_node_lo))
    gamma3 = float(np.sum(per_node_lo))
    return GammaDiagnostics(gamma1=gamma1, gamma2=gamma2, gamma3=gamma3)
