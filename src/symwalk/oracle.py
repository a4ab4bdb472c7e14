"""Brute-force ground truth on the literal n!-vertex Cayley graph.

Vertices are the permutations of {1..n} in lexicographic one-line order;
{g, h} is an edge iff the cycle type of g h^{-1} equals the generator
class.  Every walk starts uniform on a conjugacy class: the graph is
vertex-transitive, so a walk from one permutation g is the walk from
the identity relabelled by g.  The graph is built from index arrays:
s o g for every vertex g at once is ``s[perms - 1]``, ranked by a
lexicographic code.

A class-uniform start never leaves its Krylov subspace, which lies in
the class functions and so has at most p(n) dimensions.  One Lanczos
run per start class, by products with the literal adjacency matrix,
gives the exact spectral decomposition of the start inside it (Saad,
SIAM J. Numer. Anal. 29, 1992); it is reused across every evolution
time, both quantum e^{itA} and classical e^{-tL}.  Its tridiagonal is
unreduced, so the Ritz values are simple and the Cesaro limit is one
sum over the Ritz pairs.  No character theory enters.

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

# A classical mode whose gap d - value is at most this is stationary; the
# true spectrum is integral for single-class generators.
CLUSTER_TOL = 1e-6
# A Lanczos vector whose norm after reorthogonalisation is at most this
# times the degree (the spectral radius) closes the Krylov subspace.
KRYLOV_TOL = 1e-10

# Ritz values, Ritz vectors as columns, and the start's coefficients in them.
Krylov = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class DenseWalk:
    """The literal walk: all n! vertices plus one reusable Krylov
    decomposition per start class.

    ``classes`` lists the cycle types in canonical order, and
    ``class_index[i]`` is the position in it of vertex i's cycle type.
    """

    n: int
    generator: Partition
    vertices: list[tuple[int, ...]]
    classes: list[Partition]
    class_index: np.ndarray
    adjacency: np.ndarray
    _krylov: dict[Partition, Krylov] = field(default_factory=dict, repr=False)

    @property
    def degree(self) -> int:
        return class_size(self.generator)

    def krylov(self, start: Partition) -> Krylov:
        """The Lanczos decomposition of the unit-norm start state of
        ``start``, which no evolution time changes."""
        if start not in self._krylov:
            self._krylov[start] = _lanczos(self.adjacency, _start_state(self, start),
                                           KRYLOV_TOL * self.degree)
        return self._krylov[start]

    def edges(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Each undirected edge once, lexicographically ordered."""
        rows, cols = np.nonzero(self.adjacency)  # row-major, so the upper half keeps the order
        upper = rows < cols
        return [(self.vertices[i], self.vertices[j]) for i, j in zip(rows[upper], cols[upper])]


def build_cayley(n: int, gamma: Partition) -> DenseWalk:
    """Construct the Cayley graph of S_n with generator class C_gamma.

    Default cap is n <= 6 (720 vertices); n = 7 only with SYMWALK_MAX_N=7,
    whose dense adjacency alone takes 203 MB.
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


def _start_state(walk: DenseWalk, start: Partition) -> np.ndarray:
    """The real, unit-norm start vector uniform on a class."""
    if start.n != walk.n:
        raise DomainError(f"start class {start} is not a partition of {walk.n}")
    members = walk.class_index == walk.classes.index(start)
    return members / np.sqrt(np.count_nonzero(members))


def _lanczos(adjacency: np.ndarray, start: np.ndarray, tol: float) -> Krylov:
    """Lanczos with full reorthogonalisation from a unit-norm start.

    The basis grows until the next vector's norm falls to ``tol`` (the
    subspace is invariant) or the basis spans the whole space.
    """
    basis = [start]
    alphas, betas = [], []
    while True:
        w = adjacency @ basis[-1]
        alphas.append(basis[-1] @ w)
        q = np.array(basis)
        for _ in range(2):  # one pass leaves rounding in the basis directions
            w -= q.T @ (q @ w)
        beta = np.linalg.norm(w)
        if beta <= tol or len(basis) == len(start):
            break
        betas.append(beta)
        basis.append(w / beta)
    tridiagonal = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    values, vectors = np.linalg.eigh(tridiagonal)
    return values, q.T @ vectors, vectors[0]


def evolve_quantum(walk: DenseWalk, start: Partition, t: float) -> np.ndarray:
    """e^{itA} applied to the start class state, via its cached Krylov
    decomposition."""
    if not np.isfinite(t * walk.degree):  # the degree is the largest |eigenvalue|
        raise DomainError(f"time {t!r} overflows the phase t*lambda")
    values, vectors, coefficients = walk.krylov(start)
    # The Ritz vectors are real: the phased coefficients go back as two real products.
    c = np.exp(1j * t * values) * coefficients
    return vectors @ c.real + 1j * (vectors @ c.imag)


def evolve_classical(walk: DenseWalk, start: Partition, t: float) -> np.ndarray:
    """e^{-tL} applied to the start distribution, L = dI - A.

    The start distribution is the quantum start state over sqrt|C_mu|,
    so it shares that state's Krylov decomposition.
    """
    if t < 0:
        raise DomainError("classical walk time must be nonnegative")
    if not np.isfinite(t):  # e^{-t gap} would take inf * 0 on the stationary modes
        raise DomainError(f"time must be a finite number, got {t!r}")
    values, vectors, coefficients = walk.krylov(start)
    gaps = walk.degree - values
    # Stationary modes: e^{-t gap} would amplify their rounding.
    gaps[np.abs(gaps) <= CLUSTER_TOL] = 0.0
    with np.errstate(over="ignore"):  # t*gap may round to inf; e^-inf is 0
        decay = np.exp(-t * gaps)
    return np.maximum(vectors @ (decay * coefficients) / np.sqrt(class_size(start)), 0.0)


@dataclass(frozen=True)
class ClassAggregate:
    sums: dict[Partition, float]
    max_class_deviation: float


def class_aggregate(walk: DenseWalk, vec: np.ndarray) -> ClassAggregate:
    """``class_sums`` of |amplitude|^2 plus a class-constancy report.

    The deviation is the largest |a_g - mean of a over g's class|; for
    a walk from a class it should sit at rounding noise (the amplitude
    profile is a class function), for any other vector it is merely
    informational.
    """
    vec = np.asarray(vec)
    index, count = walk.class_index, len(walk.classes)
    means = (np.bincount(index, weights=vec.real, minlength=count)
             + 1j * np.bincount(index, weights=vec.imag, minlength=count))
    means /= np.bincount(index, minlength=count)
    deviation = float(np.max(np.abs(vec - means[index])))
    return ClassAggregate(sums=class_sums(walk, np.abs(vec) ** 2),
                          max_class_deviation=deviation)


def class_sums(walk: DenseWalk, vec: np.ndarray) -> dict[Partition, float]:
    """Plain per-class sums of a real vector (classical probabilities)."""
    totals = np.bincount(walk.class_index, weights=vec, minlength=len(walk.classes))
    return dict(zip(walk.classes, totals.tolist()))


def limiting_distribution(walk: DenseWalk, start: Partition) -> dict[Partition, float]:
    """Cesaro time average per class from the start's Krylov decomposition.

    Averaging kills the cross terms between distinct eigenvalues.  The
    Ritz values are simple, so the limit is the sum over Ritz pairs of
    (V_k c_k)^2 per vertex, added in Ritz order.
    """
    _, vectors, coefficients = walk.krylov(start)
    return class_sums(walk, sum(((vectors * coefficients) ** 2).T))
