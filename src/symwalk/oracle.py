"""Brute-force ground truth on the literal n!-vertex Cayley graph.

Vertices are the permutations of {1..n} in lexicographic one-line order;
{g, h} is an edge iff the cycle type of g h^{-1} equals the generator
class.  The dense real-symmetric adjacency matrix is eigendecomposed
once (lazily) and the factorization is reused across every evolution
time, both quantum e^{itA} and classical e^{-tL}.

This module is deliberately floating point.  It exists to certify the
exact spectral engine, not to be certified by it; exact identities are
delegated to the character and limiting modules.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import factorial

import numpy as np

from .caps import ORACLE_CAP, check_cap
from .errors import DegenerateGeneratorError, DomainError
from .partitions import Partition, class_size, cycle_type, identity_partition

StartState = Partition | tuple | list | np.ndarray


@dataclass
class DenseWalk:
    """The literal walk: all n! vertices plus a reusable eigensystem."""

    n: int
    generator: Partition
    vertices: list[tuple[int, ...]]
    adjacency: np.ndarray
    _eigensystem: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def degree(self) -> int:
        return class_size(self.generator)

    def vertex_index(self, perm: tuple[int, ...]) -> int:
        return self._index[tuple(perm)]

    @property
    def _index(self) -> dict[tuple[int, ...], int]:
        if not hasattr(self, "_index_cache"):
            self._index_cache = {v: i for i, v in enumerate(self.vertices)}
        return self._index_cache

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, orthonormal eigenvectors) of the adjacency matrix."""
        if self._eigensystem is None:
            evals, evecs = np.linalg.eigh(self.adjacency)
            self._eigensystem = (evals, evecs)
        return self._eigensystem

    def class_of_vertex(self) -> list[Partition]:
        if not hasattr(self, "_class_cache"):
            self._class_cache = [cycle_type(v) for v in self.vertices]
        return self._class_cache

    def edges(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Each undirected edge once, lexicographically ordered."""
        rows, cols = np.nonzero(np.triu(self.adjacency))
        return [(self.vertices[i], self.vertices[j]) for i, j in zip(rows, cols)]


def _compose(g: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
    """(g o h)(x) = g(h(x)) on one-line tuples over {1..n}."""
    return tuple(g[h[x] - 1] for x in range(len(g)))


def build_cayley(n: int, gamma: Partition, cap: int | None = None) -> DenseWalk:
    """Construct the Cayley graph of S_n with generator class C_gamma.

    Default cap is n <= 6 (720 vertices); n = 7 only via an explicit cap
    override since its eigensystem peaks near 1.0 GB of RSS.
    """
    check_cap(n, ORACLE_CAP, cap, "dense Cayley graph")
    if gamma.n != n:
        raise DomainError(f"generator {gamma} is not a partition of {n}")
    if gamma == identity_partition(n):
        raise DegenerateGeneratorError("the identity class does not generate a walk")
    vertices = [tuple(p) for p in itertools.permutations(range(1, n + 1))]
    index = {v: i for i, v in enumerate(vertices)}
    generators = [v for v in vertices if cycle_type(v) == gamma]
    size = len(vertices)
    adjacency = np.zeros((size, size))
    for i, g in enumerate(vertices):
        for s in generators:
            adjacency[index[_compose(s, g)], i] = 1.0
    walk = DenseWalk(n=n, generator=gamma, vertices=vertices, adjacency=adjacency)
    walk._index_cache = index
    return walk


def _start_state(walk: DenseWalk, start: StartState, quantum: bool) -> np.ndarray:
    """Start vector: class -> uniform on the class, permutation -> basis
    vector; unit norm for amplitudes, unit mass for probabilities."""
    size = len(walk.vertices)
    dtype = complex if quantum else float
    if isinstance(start, (Partition, tuple, list)):
        if isinstance(start, Partition):
            members = [i for i, c in enumerate(walk.class_of_vertex()) if c == start]
        else:
            members = [walk.vertex_index(tuple(start))]
        vec = np.zeros(size, dtype=dtype)
        vec[members] = 1.0 / (np.sqrt(len(members)) if quantum else len(members))
        return vec
    vec = np.asarray(start, dtype=dtype)
    if vec.shape != (size,):
        raise DomainError(f"state must have {size} entries")
    if not quantum and (vec.min() < 0 or abs(vec.sum() - 1) > 1e-9):
        raise DomainError("start must be a probability vector")
    return vec


def evolve_quantum(walk: DenseWalk, start: StartState, t: float) -> np.ndarray:
    """e^{itA} applied to the start state, via the cached eigensystem."""
    evals, evecs = walk.eigensystem()
    psi = _start_state(walk, start, quantum=True)
    return evecs @ (np.exp(1j * t * evals) * (evecs.T @ psi))


def evolve_classical(walk: DenseWalk, start: StartState, t: float) -> np.ndarray:
    """e^{-tL} applied to the start distribution, L = dI - A."""
    if t < 0:
        raise DomainError("classical walk time must be nonnegative")
    evals, evecs = walk.eigensystem()
    p0 = _start_state(walk, start, quantum=False)
    out = evecs @ (np.exp(-t * (walk.degree - evals)) * (evecs.T @ p0))
    return np.maximum(out.real, 0.0)


@dataclass(frozen=True)
class ClassAggregate:
    sums: dict[Partition, float]
    max_class_deviation: float


def class_aggregate(walk: DenseWalk, vec: np.ndarray) -> ClassAggregate:
    """Per-class |amplitude|^2 sums plus a class-constancy report.

    The deviation is the largest |a_g - mean of a over g's class|; for
    class-uniform starts it should sit at rounding noise (the amplitude
    profile is a class function), for arbitrary starts it is merely
    informational.
    """
    vec = np.asarray(vec)
    classes = walk.class_of_vertex()
    members: dict[Partition, list[int]] = {}
    for i, lam in enumerate(classes):
        members.setdefault(lam, []).append(i)
    sums = {}
    deviation = 0.0
    for lam, idx in members.items():
        vals = vec[idx]
        sums[lam] = float(np.sum(np.abs(vals) ** 2))
        deviation = max(deviation, float(np.max(np.abs(vals - vals.mean()))))
    return ClassAggregate(sums=sums, max_class_deviation=deviation)


def class_sums(walk: DenseWalk, vec: np.ndarray) -> dict[Partition, float]:
    """Plain per-class sums of a real vector (classical probabilities)."""
    sums: dict[Partition, float] = {}
    for lam, v in zip(walk.class_of_vertex(), np.asarray(vec)):
        sums[lam] = sums.get(lam, 0.0) + float(v)
    return sums


def limiting_distribution(walk: DenseWalk, start: StartState,
                          cluster_tol: float = 1e-6) -> dict[Partition, float]:
    """Cesaro time average per class from the dense eigensystem.

    Averaging kills cross terms between distinct eigenvalues, so the
    limit is sum over eigenvalue clusters of |projection|^2 per vertex.
    Clusters are split at gaps above ``cluster_tol`` (the true spectrum
    is integral for single-class generators).
    """
    evals, evecs = walk.eigensystem()
    psi = _start_state(walk, start, quantum=True)
    weights = evecs.T @ psi
    order = np.argsort(evals)
    probs = np.zeros(len(walk.vertices))
    block: list[int] = []
    prev = None
    for a in order:
        if prev is not None and evals[a] - prev > cluster_tol:
            contrib = evecs[:, block] @ weights[block]
            probs += np.abs(contrib) ** 2
            block = []
        block.append(a)
        prev = evals[a]
    if block:
        contrib = evecs[:, block] @ weights[block]
        probs += np.abs(contrib) ** 2
    return class_sums(walk, probs)

