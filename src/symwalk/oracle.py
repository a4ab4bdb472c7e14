"""Brute-force ground truth on the literal n!-vertex Cayley graph.

Vertices are the permutations of {1..n} in lexicographic one-line order;
{g, h} is an edge iff the cycle type of g h^{-1} equals the generator
class.  Every walk starts uniform on a conjugacy class: the graph is
vertex-transitive, so a walk from one permutation g is the walk from
the identity relabelled by g.  The graph is built from index arrays:
s o g for every vertex g at once is ``s[perms - 1]``, ranked by a
lexicographic code.  The dense real-symmetric adjacency matrix is
eigendecomposed once (lazily) and the factorization is reused across
every evolution time, both quantum e^{itA} and classical e^{-tL}, and
by the Cesaro limit; so is each quantum start state's projection onto
the eigenbasis.

This module is deliberately floating point.  It exists to certify the
exact spectral engine, not to be certified by it; exact identities are
delegated to the character and limiting modules.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .caps import ORACLE_CAP, check_cap
from .errors import DegenerateGeneratorError, DomainError
from .partitions import Partition, class_size, cycle_type, enumerate_partitions, identity_partition

# Eigenvalues of the Cesaro limit closer than this form one cluster; the
# true spectrum is integral for single-class generators.
CLUSTER_TOL = 1e-6


@dataclass
class DenseWalk:
    """The literal walk: all n! vertices plus a reusable eigensystem.

    ``classes`` lists the cycle types in canonical order, and
    ``class_index[i]`` is the position in it of vertex i's cycle type.
    """

    n: int
    generator: Partition
    vertices: list[tuple[int, ...]]
    classes: list[Partition]
    class_index: np.ndarray
    adjacency: np.ndarray
    _eigensystem: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    _coefficients: dict[Partition, np.ndarray] = field(default_factory=dict, repr=False)

    @property
    def degree(self) -> int:
        return class_size(self.generator)

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, orthonormal eigenvectors) of the adjacency matrix."""
        if self._eigensystem is None:
            evals, evecs = np.linalg.eigh(self.adjacency)
            self._eigensystem = (evals, evecs)
        return self._eigensystem

    def coefficients(self, start: Partition) -> np.ndarray:
        """The quantum start state of ``start`` in the eigenbasis, which no
        evolution time changes."""
        if start not in self._coefficients:
            evecs = self.eigensystem()[1]
            self._coefficients[start] = evecs.T @ _start_state(self, start, quantum=True)
        return self._coefficients[start]

    def edges(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Each undirected edge once, lexicographically ordered."""
        rows, cols = np.nonzero(np.triu(self.adjacency))
        return [(self.vertices[i], self.vertices[j]) for i, j in zip(rows, cols)]


def build_cayley(n: int, gamma: Partition) -> DenseWalk:
    """Construct the Cayley graph of S_n with generator class C_gamma.

    Default cap is n <= 6 (720 vertices); n = 7 only with SYMWALK_MAX_N=7,
    since its eigensystem peaks near 1.0 GB of RSS.
    """
    check_cap(n, ORACLE_CAP, "dense Cayley graph")
    if gamma.n != n:
        raise DomainError(f"generator {gamma} is not a partition of {n}")
    if gamma == identity_partition(n):
        raise DegenerateGeneratorError("the identity class does not generate a walk")
    vertices = list(itertools.permutations(range(1, n + 1)))
    classes = enumerate_partitions(n)
    position = {lam: k for k, lam in enumerate(classes)}
    class_index = np.array([position[cycle_type(v)] for v in vertices])
    perms = np.array(vertices)
    # Entries 1..n read as base-(n + 1) digits: the codes of the lex-ordered
    # vertices are increasing, so searchsorted ranks any permutation.
    digits = (n + 1) ** np.arange(n - 1, -1, -1)
    codes = perms @ digits
    targets = np.arange(len(vertices))
    adjacency = np.zeros((len(vertices), len(vertices)))
    for s in perms[class_index == position[gamma]]:
        adjacency[np.searchsorted(codes, s[perms - 1] @ digits), targets] = 1.0
    return DenseWalk(n=n, generator=gamma, vertices=vertices, classes=classes,
                     class_index=class_index, adjacency=adjacency)


def _start_state(walk: DenseWalk, start: Partition, quantum: bool) -> np.ndarray:
    """Start vector uniform on a class: unit norm for amplitudes, unit
    mass for probabilities."""
    if start.n != walk.n:
        raise DomainError(f"start class {start} is not a partition of {walk.n}")
    members = np.flatnonzero(walk.class_index == walk.classes.index(start))
    vec = np.zeros(len(walk.vertices), dtype=complex if quantum else float)
    vec[members] = 1.0 / (np.sqrt(len(members)) if quantum else len(members))
    return vec


def evolve_quantum(walk: DenseWalk, start: Partition, t: float) -> np.ndarray:
    """e^{itA} applied to the start class state, via the cached eigensystem."""
    if not np.isfinite(t * walk.degree):  # the degree is the largest |eigenvalue|
        raise DomainError(f"time {t!r} overflows the phase t*lambda")
    evals, evecs = walk.eigensystem()
    # evecs is real: the phased coefficients go back as two real products.
    c = np.exp(1j * t * evals) * walk.coefficients(start)
    return evecs @ c.real + 1j * (evecs @ c.imag)


def evolve_classical(walk: DenseWalk, start: Partition, t: float) -> np.ndarray:
    """e^{-tL} applied to the start distribution, L = dI - A."""
    if t < 0:
        raise DomainError("classical walk time must be nonnegative")
    if not np.isfinite(t):  # e^{-t gap} would take inf * 0 on the stationary modes
        raise DomainError(f"time must be a finite number, got {t!r}")
    evals, evecs = walk.eigensystem()
    gaps = walk.degree - evals
    # Stationary modes, as in the Cesaro limit: e^{-t gap} would amplify their eigh rounding.
    gaps[np.abs(gaps) <= CLUSTER_TOL] = 0.0
    p0 = _start_state(walk, start, quantum=False)
    with np.errstate(over="ignore"):  # t*gap may round to inf; e^-inf is 0
        decay = np.exp(-t * gaps)
    return np.maximum(evecs @ (decay * (evecs.T @ p0)), 0.0)


@dataclass(frozen=True)
class ClassAggregate:
    sums: dict[Partition, float]
    max_class_deviation: float


def class_aggregate(walk: DenseWalk, vec: np.ndarray) -> ClassAggregate:
    """Per-class |amplitude|^2 sums plus a class-constancy report.

    The deviation is the largest |a_g - mean of a over g's class|; for
    a walk from a class it should sit at rounding noise (the amplitude
    profile is a class function), for any other vector it is merely
    informational.
    """
    vec = np.asarray(vec)
    sums = {}
    deviation = 0.0
    for k, lam in enumerate(walk.classes):
        vals = vec[walk.class_index == k]
        sums[lam] = float(np.sum(np.abs(vals) ** 2))
        deviation = max(deviation, float(np.max(np.abs(vals - vals.mean()))))
    return ClassAggregate(sums=sums, max_class_deviation=deviation)


def class_sums(walk: DenseWalk, vec: np.ndarray) -> dict[Partition, float]:
    """Plain per-class sums of a real vector (classical probabilities)."""
    totals = np.bincount(walk.class_index, weights=vec, minlength=len(walk.classes))
    return dict(zip(walk.classes, totals.tolist()))


def limiting_distribution(walk: DenseWalk, start: Partition) -> dict[Partition, float]:
    """Cesaro time average per class from the dense eigensystem.

    Averaging kills cross terms between distinct eigenvalues, so the
    limit is sum over eigenvalue clusters of |projection|^2 per vertex.
    Clusters are split at gaps above ``CLUSTER_TOL``.
    """
    evals, evecs = walk.eigensystem()
    weights = walk.coefficients(start)
    order = np.argsort(evals)
    gaps = np.flatnonzero(np.diff(evals[order]) > CLUSTER_TOL) + 1
    probs = np.zeros(len(walk.vertices))
    for block in np.split(order, gaps):
        probs += np.abs(evecs[:, block] @ weights[block]) ** 2
    return class_sums(walk, probs)
