"""Brute-force ground truth on the literal n!-vertex Cayley graph.

Vertices are the permutations of {1..n} in lexicographic one-line order;
{g, h} is an edge iff the cycle type of g h^{-1} equals the generator
class.  Every walk starts uniform on a conjugacy class: the graph is
vertex-transitive, so a walk from one permutation g is the walk from
the identity relabelled by g.  The graph is an n! x d neighbour index,
d the class size: row g lists the ranks of s o g for s in the class, so
A psi is one gather and a row sum.  A code of its first n - 1 entries
ranks s o g through a table that each build makes and frees with its
digit weights, and the code is linear in s, so one integer product
codes a block of rows; only the vertices are kept per n.

A class-uniform start never leaves its Krylov subspace, which lies in
the class functions and so has at most p(n) dimensions.  One Lanczos
run per start class, by products with the literal adjacency, gives the
exact spectral decomposition of the start inside it (Saad, SIAM J.
Numer. Anal. 29, 1992); it is reused across every evolution time, both
quantum e^{itA} and classical e^{-tL}.  Its tridiagonal is unreduced,
so the Ritz values are simple and the Cesaro limit is one sum over the
Ritz pairs.  No character theory enters.

This module is deliberately floating point.  It exists to certify the
exact spectral engine, not to be certified by it; exact identities are
delegated to the character and limiting modules.  The Lanczos run and
the evolutions carry ``np.longdouble`` (plain double where the platform
has no wider type), and each result rounds to double once, at its
return: a Ritz value one double ulp off the integer spectrum moves the
quantum probabilities by t times that ulp.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .caps import ORACLE_CAP, ORACLE_WHAT, check_cap
from .errors import DegenerateGeneratorError, DomainError
from .partitions import Partition, class_size, cycle_type, enumerate_partitions, identity_partition

# A classical mode whose gap d - value is at most this is stationary; the
# true spectrum is integral for single-class generators.
CLUSTER_TOL = 1e-6
# A Lanczos vector whose norm after reorthogonalisation is at most this
# times the degree (the spectral radius) closes the Krylov subspace.
KRYLOV_TOL = 1e-10
# Entries of the neighbour index one block of rows holds, so the build's
# codes and a product's gathered values stay small whatever the degree.
BLOCK_ENTRIES = 1 << 15

# Ritz values theta, the tridiagonal's eigenvectors Y as columns, and the
# basis Q as rows, the start its row 0: f(A) start = Q^T Y f(theta) Y^T e_1.
Krylov = tuple[np.ndarray, np.ndarray, np.ndarray]


@cache
def _vertex_set(n: int) -> tuple[np.ndarray, tuple[Partition, ...], np.ndarray]:
    """What every Cayley graph of S_n shares, built once per n.

    ``vertices`` holds the permutations as the rows of one n! x n int8
    array, in lex order, and ``class_index[g]`` is the position in
    ``classes`` of vertex g's cycle type.
    """
    symbols = range(1, n + 1)
    entries = itertools.chain.from_iterable(itertools.permutations(symbols))
    vertices = np.fromiter(entries, dtype=np.int8).reshape(-1, n)
    classes = tuple(enumerate_partitions(n))
    position = {lam: k for k, lam in enumerate(classes)}
    class_index = np.fromiter((position[cycle_type(v)] for v in itertools.permutations(symbols)),
                              dtype=np.intp, count=len(vertices))
    for array in (vertices, class_index):
        array.flags.writeable = False
    return vertices, classes, class_index


@dataclass
class CayleyWalk:
    """The literal walk: all n! vertices, the neighbour index, and one
    reusable Krylov decomposition per start class.

    ``classes`` lists the cycle types in canonical order, and
    ``class_index[i]`` is the position in it of vertex i's cycle type.
    ``neighbours[g]`` lists the ranks of s o g for s in the generator class.
    """

    n: int
    generator: Partition
    vertices: np.ndarray
    classes: tuple[Partition, ...]
    class_index: np.ndarray
    neighbours: np.ndarray
    _krylov: dict[Partition, Krylov] = field(default_factory=dict, repr=False)

    @property
    def degree(self) -> int:
        return class_size(self.generator)

    def krylov(self, start: Partition) -> Krylov:
        """The Lanczos decomposition of the real, unit-norm start state
        uniform on ``start``, which no evolution time changes."""
        if start.n != self.n:
            raise DomainError(f"start class {start} is not a partition of {self.n}")
        if start not in self._krylov:
            members = self.class_index == self.classes.index(start)
            state = members / np.sqrt(np.longdouble(np.count_nonzero(members)))
            self._krylov[start] = _lanczos(self.neighbours, state, len(self.classes),
                                           KRYLOV_TOL * self.degree)
        return self._krylov[start]

    def edges(self) -> list[tuple[str, str]]:
        """Each undirected edge once, in lex order, as two one-line labels."""
        size, degree = self.neighbours.shape
        rows = np.repeat(np.arange(size), degree)
        cols = np.sort(self.neighbours, axis=1).ravel()
        upper = rows < cols
        labels = [" ".join(map(str, v)) for v in self.vertices.tolist()]
        return [(labels[i], labels[j]) for i, j in zip(rows[upper].tolist(), cols[upper].tolist())]


def _row_blocks(size: int, degree: int):
    step = max(1, BLOCK_ENTRIES // degree)
    return (slice(lo, lo + step) for lo in range(0, size, step))


def build_cayley(n: int, gamma: Partition) -> CayleyWalk:
    """Construct the Cayley graph of S_n with generator class C_gamma.

    Default cap is n <= 6 (720 vertices); SYMWALK_MAX_N lifts it.  The
    neighbour index takes n! x |C_gamma| int32s.  The build's rank table
    takes n^(n-1) int32s and its digit weights n! x n int64s, both freed
    with the build: 172 MB and 26 MB at n = 9, 8.4 MB and 2.6 MB at n = 8.
    """
    check_cap(n, ORACLE_CAP, ORACLE_WHAT)
    if gamma.n != n:
        raise DomainError(f"generator {gamma} is not a partition of {n}")
    if gamma == identity_partition(n):
        raise DegenerateGeneratorError
    vertices, classes, class_index = _vertex_set(n)
    # The first n - 1 entries, less 1, read as base-n digits fix a
    # permutation, so its code indexes a table of ranks.  The code of s o g
    # puts s[j] at digit g^{-1}(j), which argsort reads off g.
    digits = np.append(n ** np.arange(n - 2, -1, -1), 0)
    weights = digits[np.argsort(vertices, axis=1)]
    # rank[code] is the lex position of the code's permutation g, coded as id o g.
    rank = np.zeros(n ** (n - 1), dtype=np.int32)
    rank[weights @ np.arange(n)] = np.arange(len(vertices))
    members = vertices[class_index == classes.index(gamma)] - 1
    neighbours = np.empty((len(vertices), len(members)), dtype=np.int32)
    for rows in _row_blocks(*neighbours.shape):
        neighbours[rows] = np.take(rank, weights[rows] @ members.T)
    return CayleyWalk(n, gamma, vertices, classes, class_index, neighbours)


def _times_adjacency(neighbours: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """A vec, where (A vec)[g] sums vec over g's neighbours."""
    out = np.empty_like(vec)
    for rows in _row_blocks(*neighbours.shape):
        out[rows] = np.take(vec, neighbours[rows]).sum(axis=1)
    return out


def _lanczos(neighbours: np.ndarray, start: np.ndarray, dimension: int, tol: float) -> Krylov:
    """Lanczos with full reorthogonalisation from a unit-norm start.

    The basis fills the rows of one array until the next vector's norm
    falls to ``tol`` (the subspace is invariant) or it holds ``dimension``
    rows, the most a class-uniform start's subspace can have.  LAPACK
    has no extended precision, so ``eigh`` sees the tridiagonal in
    double; each eigenvector, renormalised, then gives its Ritz value as
    the Rayleigh quotient y^T T y, whose error is quadratic in y's.
    Products use ``np.dot``, which runs about twice as fast as ``@`` on
    longdouble arrays.
    """
    basis = np.empty((dimension, len(start)), dtype=start.dtype)
    basis[0] = start
    alphas, betas = [], []
    for k in range(1, dimension + 1):
        w = _times_adjacency(neighbours, basis[k - 1])
        alphas.append(np.dot(basis[k - 1], w))
        for _ in range(2):  # one pass leaves rounding in the basis directions
            w -= np.dot(np.dot(basis[:k], w), basis[:k])
        beta = np.sqrt(np.dot(w, w))
        if beta <= tol or k == dimension:
            break
        betas.append(beta)
        basis[k] = w / beta
    tridiagonal = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    vectors = np.linalg.eigh(tridiagonal.astype(float))[1].astype(np.longdouble)
    vectors /= np.sqrt((vectors * vectors).sum(axis=0))
    values = (vectors * np.dot(tridiagonal, vectors)).sum(axis=0)
    return values, vectors, basis[:k]


def evolve_quantum(walk: CayleyWalk, start: Partition, t: float) -> np.ndarray:
    """e^{itA} applied to the start class state, via its cached Krylov
    decomposition."""
    if not np.isfinite(t * walk.degree):  # the degree is the largest |eigenvalue|
        raise DomainError(f"time {t!r} overflows the phase t*lambda")
    values, ritz, basis = walk.krylov(start)
    # The basis is real: the phased coordinates go back as two real products.
    c = np.dot(ritz, np.exp(1j * t * values) * ritz[0])
    psi = np.empty(basis.shape[1], dtype=complex)
    psi.real, psi.imag = np.dot(c.real, basis), np.dot(c.imag, basis)
    return psi


def evolve_classical(walk: CayleyWalk, start: Partition, t: float) -> np.ndarray:
    """e^{-tL} applied to the start distribution, L = dI - A.

    The start distribution is the quantum start state over sqrt|C_mu|,
    so it shares that state's Krylov decomposition.
    """
    if t < 0:
        raise DomainError("classical walk time must be nonnegative")
    if not np.isfinite(t):  # e^{-t gap} would take inf * 0 on the stationary modes
        raise DomainError(f"time must be a finite number, got {t!r}")
    values, ritz, basis = walk.krylov(start)
    gaps = walk.degree - values
    # Stationary modes: e^{-t gap} would amplify their rounding.
    gaps[np.abs(gaps) <= CLUSTER_TOL] = 0.0
    with np.errstate(over="ignore"):  # t*gap may round to inf; e^-inf is 0
        decay = np.exp(-t * gaps) / np.sqrt(np.longdouble(class_size(start)))
    density = np.dot(np.dot(ritz, decay * ritz[0]), basis)
    return np.maximum(density, 0.0).astype(float)


def class_aggregate(walk: CayleyWalk, vec: np.ndarray) -> dict[Partition, float]:
    """The quantum readout: ``class_sums`` of |amplitude|^2."""
    return class_sums(walk, np.abs(vec) ** 2)


def class_deviation(walk: CayleyWalk, vec: np.ndarray) -> float:
    """The largest |a_g - mean of a over g's class|: rounding noise for a
    walk from a class, whose amplitude profile is a class function."""
    vec = np.asarray(vec)
    index, count = walk.class_index, len(walk.classes)
    means = (np.bincount(index, weights=vec.real, minlength=count)
             + 1j * np.bincount(index, weights=vec.imag, minlength=count))
    means /= np.bincount(index, minlength=count)
    return float(np.max(np.abs(vec - means[index])))


def class_sums(walk: CayleyWalk, vec: np.ndarray) -> dict[Partition, float]:
    """Plain per-class sums of a real vector (classical probabilities)."""
    totals = np.bincount(walk.class_index, weights=vec, minlength=len(walk.classes))
    return dict(zip(walk.classes, totals.tolist()))


def limiting_distribution(walk: CayleyWalk, start: Partition) -> dict[Partition, float]:
    """Cesaro time average per class from the start's Krylov decomposition.

    Averaging kills the cross terms between distinct eigenvalues.  The
    Ritz values are simple, so the limit is the sum over Ritz pairs of
    (Q^T Y_k c_k)^2 per vertex, with c = Y^T e_1.
    """
    _, ritz, basis = walk.krylov(start)
    return class_sums(walk, sum(np.dot(y, basis) ** 2 for y in (ritz * ritz[0]).T).astype(float))
