"""Graph topologies, Laplacians, spectra, and smoothness functionals.

Node ids are 1-based in the public interface (edge lists, hub placement)
and 0-based in array indexing. Eigenvalues are kept in descending order,
so the zero eigenvalue of a connected graph always sits last and the
constant eigenvector is the last column of the eigenvector matrix.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# edges per gather in quadratic_variation; bounds its temporaries
_EDGE_CHUNK = 256


class GraphKind(enum.Enum):
    PATH = "path"
    COMPLETE = "complete"
    STAR = "star"
    CUSTOM = "custom"


@dataclass(frozen=True)
class GraphTopology:
    """Undirected, connected graph on m nodes.

    edges holds unordered pairs as (a, b) tuples with 1 <= a < b <= m,
    deduplicated and sorted. Use the module constructors rather than
    building instances directly; they enforce the invariants.
    """

    m: int
    edges: tuple[tuple[int, int], ...]
    kind: GraphKind = GraphKind.CUSTOM

    @functools.cached_property
    def edge_index(self) -> np.ndarray:
        """The edges as a read-only (E, 2) array of 0-based node indices."""
        idx = np.array(self.edges, dtype=np.intp).reshape(-1, 2) - 1
        idx.flags.writeable = False
        return idx

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edge_index.ravel(), minlength=self.m).astype(float)


@dataclass(frozen=True)
class LaplacianSpectrum:
    """Eigendecomposition of a graph Laplacian, eigenvalues descending.

    eigenvalues[i] pairs with eigenvectors[:, i]; for a connected graph
    eigenvalues[-1] == 0 and eigenvectors[:, -1] is the constant vector.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def m(self) -> int:
        return self.eigenvalues.shape[0]

    def low_frequency_basis(self, tau: int) -> np.ndarray:
        """Columns [v_m, v_{m-1}, ..., v_{m-tau+1}], ascending eigenvalue."""
        if not 1 <= tau <= self.m:
            raise ValueError(f"tau must be in [1, {self.m}], got {tau}")
        return self.eigenvectors[:, ::-1][:, :tau]


def _normalize_edges(m: int, edges) -> tuple[tuple[int, int], ...]:
    seen = set()
    for a, b in edges:
        a, b = int(a), int(b)
        if a == b:
            raise ValueError(f"self-loop at node {a}")
        if not (1 <= a <= m and 1 <= b <= m):
            raise ValueError(f"edge ({a},{b}) outside node range [1,{m}]")
        e = (a, b) if a < b else (b, a)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
    return tuple(sorted(seen))


def _is_connected(m: int, edges) -> bool:
    adj = [[] for _ in range(m)]
    for a, b in edges:
        adj[a - 1].append(b - 1)
        adj[b - 1].append(a - 1)
    seen = [False] * m
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == m


def custom_graph(m: int, edges, kind: GraphKind = GraphKind.CUSTOM) -> GraphTopology:
    if m < 2:
        raise ValueError(f"need at least 2 nodes, got m={m}")
    norm = _normalize_edges(m, edges)
    if not _is_connected(m, norm):
        raise ValueError("graph is not connected")
    return GraphTopology(m=m, edges=norm, kind=kind)


def path_graph(m: int) -> GraphTopology:
    return custom_graph(m, [(i, i + 1) for i in range(1, m)], GraphKind.PATH)


def complete_graph(m: int) -> GraphTopology:
    edges = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    return custom_graph(m, edges, GraphKind.COMPLETE)


def star_graph(m: int) -> GraphTopology:
    """Star with the hub at node 1, leaves at 2..m."""
    return custom_graph(m, [(1, i) for i in range(2, m + 1)], GraphKind.STAR)


def named_graph(kind: GraphKind | str, m: int) -> GraphTopology:
    """The path, complete or star graph on m nodes."""
    kind = GraphKind(kind)
    if kind == GraphKind.PATH:
        return path_graph(m)
    if kind == GraphKind.COMPLETE:
        return complete_graph(m)
    if kind == GraphKind.STAR:
        return star_graph(m)
    raise ValueError(f"no named {kind.value} graph; custom graphs need an edge list")


def load_edge_list(path) -> GraphTopology:
    """Read a custom graph from a text file: one "a b" pair per line,
    1-based ids, '#' starts a comment, blank lines ignored. The node
    count is the largest id present."""
    edges = []
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{ln}: expected 'a b', got {raw!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if not edges:
        raise ValueError(f"{path}: no edges found")
    m = max(max(e) for e in edges)
    return custom_graph(m, edges)


def build_laplacian(g: GraphTopology) -> np.ndarray:
    """L = D - A, the unnormalized combinatorial Laplacian."""
    lap = np.zeros((g.m, g.m))
    i, j = g.edge_index.T
    lap[i, j] = lap[j, i] = -1.0  # edges are distinct, so no pair repeats
    lap[np.diag_indices(g.m)] = g.degrees()
    return lap


def _canonicalize_eigenvectors(vals: np.ndarray, vecs: np.ndarray,
                               tol: float = 1e-9) -> np.ndarray:
    """Fix signs and order within repeated-eigenvalue blocks.

    Each column gets its first non-negligible coordinate made positive;
    columns whose eigenvalues agree within tol are then sorted
    lexicographically. This is a reproducibility contract for degenerate
    spectra, not a mathematical identity.
    """
    vecs = vecs.copy()
    m = vals.shape[0]
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nz = np.nonzero(np.abs(col) > tol)[0]
        if nz.size and col[nz[0]] < 0:
            vecs[:, j] = -col
    scale = max(abs(vals[0]), 1.0)
    j = 0
    while j < m:
        k = j + 1
        while k < m and abs(vals[k] - vals[j]) <= tol * scale:
            k += 1
        if k - j > 1:
            block = vecs[:, j:k]
            order = np.lexsort(block[::-1])
            vecs[:, j:k] = block[:, order]
        j = k
    return vecs


def spectrum(lap: np.ndarray) -> LaplacianSpectrum:
    """Numerical eigendecomposition, sorted descending with deterministic
    tie-breaking for repeated eigenvalues."""
    lap = np.asarray(lap, dtype=float)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError(f"Laplacian must be square, got shape {lap.shape}")
    if not np.allclose(lap, lap.T, atol=1e-10):
        raise ValueError("Laplacian must be symmetric")
    try:
        vals, vecs = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigendecomposition failed: {exc}") from exc
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    vecs = _canonicalize_eigenvectors(vals, vecs)
    return LaplacianSpectrum(eigenvalues=vals, eigenvectors=vecs)


def closed_form_spectrum(kind: GraphKind, m: int) -> LaplacianSpectrum:
    """Analytic Laplacian spectra for the three named families.

    Path eigenvalues are 4 sin^2(pi (m-l) / (2m)) with explicit cosine
    eigenvectors; complete and star families have analytic eigenvalues
    only, so their eigenvectors come from the numerical decomposition.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    ell = np.arange(1, m + 1)
    if kind == GraphKind.PATH:
        vals = 4.0 * np.sin(np.pi * (m - ell) / (2.0 * m)) ** 2
        vecs = np.empty((m, m))
        vecs[:, m - 1] = 1.0 / np.sqrt(m)
        nodes = np.arange(1, m + 1)
        for i in range(1, m):
            # column for eigenvalue index l = m - i (1-based)
            vecs[:, m - i - 1] = np.sqrt(2.0 / m) * np.cos(
                (2 * nodes - 1) * np.pi * i / (2.0 * m)
            )
        return LaplacianSpectrum(eigenvalues=vals, eigenvectors=vecs)
    if kind in (GraphKind.COMPLETE, GraphKind.STAR):
        vals = np.full(m, float(m)) if kind == GraphKind.COMPLETE else np.ones(m)
        vals[0], vals[m - 1] = float(m), 0.0
        vecs = spectrum(build_laplacian(named_graph(kind, m))).eigenvectors
        return LaplacianSpectrum(eigenvalues=vals, eigenvectors=vecs)
    raise ValueError(f"no closed-form spectrum for kind {kind}")


def _as_mats(mats) -> np.ndarray:
    arr = getattr(mats, "mats", mats)
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError(f"expected (m, d, d) matrices, got shape {arr.shape}")
    return arr


def quadratic_variation(mats, g: GraphTopology) -> float:
    """Sum over edges of the squared Frobenius difference of the node
    matrices; equals the vectorized Laplacian quadratic form."""
    arr = _as_mats(mats)
    if arr.shape[0] != g.m:
        raise ValueError(f"ensemble has {arr.shape[0]} matrices, graph has m={g.m}")
    total = 0.0
    for start in range(0, len(g.edges), _EDGE_CHUNK):
        i, j = g.edge_index[start:start + _EDGE_CHUNK].T
        diff = arr[i] - arr[j]
        total += float(np.einsum("eab,eab->", diff, diff))
    return total


def delocalization_theta(spec: LaplacianSpectrum) -> float:
    """Smallest theta such that every tau-prefix of low-frequency
    eigenvector mass at any node is <= theta * tau / m.

    Computed by prefix sums over eigenvector rows in ascending-eigenvalue
    order; always >= 1 because every row of an orthogonal matrix has unit
    norm, so the tau = m prefix gives exactly 1.
    """
    m = spec.m
    sq = spec.eigenvectors[:, ::-1] ** 2  # ascending eigenvalue order
    prefix = np.cumsum(sq, axis=1)        # prefix[l, tau-1]
    taus = np.arange(1, m + 1)
    return float(np.max(prefix * (m / taus)))
