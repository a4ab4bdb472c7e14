import hashlib
import itertools
import json
import math
import tracemalloc
from math import factorial

import numpy as np
import pytest

from symwalk import oracle, verify
from symwalk.cli import main
from symwalk.errors import (
    DegenerateGeneratorError,
    DomainError,
    ResourceLimitError,
)
from symwalk.limiting import limiting_class_distribution, time_averaged_distribution
from symwalk.oracle import (
    build_cayley,
    class_aggregate,
    class_sums,
    evolve_classical,
    evolve_quantum,
    limiting_distribution,
)
from symwalk.partitions import (
    Partition,
    class_size,
    cycle_type,
    enumerate_partitions,
    identity_partition,
    is_even_class,
)
from symwalk.verify import generator_classes
from symwalk.walk_spectrum import (
    ClassFunction,
    class_distribution,
    classical_class_distribution,
    spectrum,
)

from conftest import partition_count, transpositions


def dense_adjacency(walk):
    """The n! x n! adjacency matrix, one count per entry of the neighbour
    index, so a repeated neighbour shows as a 2."""
    size, degree = walk.neighbours.shape
    out = np.zeros((size, size))
    np.add.at(out, (np.repeat(np.arange(size), degree), walk.neighbours.ravel()), 1.0)
    return out


def test_n2_single_edge():
    walk = build_cayley(2, Partition((2,)))
    assert len(walk.vertices) == 2
    assert walk.neighbours.tolist() == [[1], [0]]
    assert dense_adjacency(walk).tolist() == [[0, 1], [1, 0]]


def test_n3_transpositions_is_bipartite_cubic():
    walk = build_cayley(3, Partition((2, 1)))
    adjacency = dense_adjacency(walk)
    assert len(walk.vertices) == 6
    assert (adjacency.sum(axis=0) == 3).all()
    # K_{3,3}: edges only between even and odd permutations
    parity = [is_even_class(walk.classes[k]) for k in walk.class_index]
    for i in range(6):
        for j in range(6):
            if adjacency[i, j]:
                assert parity[i] != parity[j]


def test_n3_full_cycles_are_two_triangles():
    walk = build_cayley(3, Partition((3,)))
    assert (dense_adjacency(walk).sum(axis=0) == 2).all()
    # identity's component is the alternating group: 3 vertices
    reach = {0}  # the identity is the first vertex in lex order
    frontier = list(reach)
    while frontier:
        i = frontier.pop()
        for j in walk.neighbours[i]:
            if j not in reach:
                reach.add(int(j))
                frontier.append(int(j))
    assert len(reach) == 3


def test_vertex_order_is_lexicographic():
    # One n! x n int8 array holds the vertices, one permutation per row.
    walk = build_cayley(3, Partition((2, 1)))
    assert walk.vertices.dtype == np.int8 and walk.vertices.shape == (6, 3)
    rows = [tuple(v) for v in walk.vertices.tolist()]
    assert rows == sorted(rows) == list(itertools.permutations(range(1, 4)))


@pytest.mark.parametrize("n", (3, 4))
def test_degree_equals_class_size(n):
    for gamma in generator_classes(n):
        adjacency = dense_adjacency(build_cayley(n, gamma))
        assert (adjacency.sum(axis=0) == class_size(gamma)).all()
        assert np.allclose(adjacency, adjacency.T)
        assert not adjacency.diagonal().any()


def test_adjacency_membership_rule():
    # edge {g, h} iff the cycle type of g o h^{-1} is the generator class
    walk = build_cayley(4, Partition((2, 2)))
    adjacency = dense_adjacency(walk)
    perms = walk.vertices.tolist()
    for i, g in enumerate(perms):
        for j, h in enumerate(perms):
            hinv = _inverse(h)
            prod = tuple(g[hinv[x] - 1] for x in range(4))
            expected = cycle_type(prod) == walk.generator
            assert bool(adjacency[i, j]) == expected


def _inverse(g):
    inv = [0] * len(g)
    for i, v in enumerate(g):
        inv[v - 1] = i + 1
    return tuple(inv)


def adjacency_right_convention(walk):
    """Adjacency built from g^{-1}h in C_gamma instead of gh^{-1}."""
    perms = walk.vertices.tolist()
    out = np.zeros((len(perms), len(perms)))
    for i, g in enumerate(perms):
        ginv = _inverse(g)
        for j, h in enumerate(perms):
            prod = tuple(ginv[h[x] - 1] for x in range(len(g)))
            if cycle_type(prod) == walk.generator:
                out[i, j] = 1.0
    return out


def test_edge_convention_identity():
    # Each S_n element is conjugate to its inverse, so the two edge rules
    # coincide for class generating sets.  The loop reference also pins
    # the neighbour index exactly, for every generator at n <= 4.
    cases = [(n, gamma) for n in (2, 3, 4) for gamma in generator_classes(n)]
    for n, gamma in cases + [(5, Partition((3, 1, 1)))]:
        walk = build_cayley(n, gamma)
        assert np.array_equal(dense_adjacency(walk), adjacency_right_convention(walk))


def test_caps():
    with pytest.raises(ResourceLimitError):
        build_cayley(7, Partition((2, 1, 1, 1, 1, 1)))
    with pytest.raises(DegenerateGeneratorError):
        build_cayley(3, identity_partition(3))
    with pytest.raises(DomainError):
        build_cayley(3, Partition((2, 2)))


def test_start_class_of_another_n_is_refused():
    walk = build_cayley(3, Partition((2, 1)))
    with pytest.raises(DomainError):
        evolve_quantum(walk, identity_partition(4), 0.5)


def test_evolve_t0_and_norm():
    walk = build_cayley(4, Partition((2, 1, 1)))
    ident = identity_partition(4)
    psi0 = evolve_quantum(walk, ident, 0.0)
    assert walk.vertices[0].tolist() == [1, 2, 3, 4]
    assert abs(psi0[0] - 1) < 1e-12
    psi = evolve_quantum(walk, ident, 1.3)
    assert abs(np.linalg.norm(psi) - 1) < 1e-10


def test_quantum_peak_s3():
    walk = build_cayley(3, Partition((2, 1)))
    psi = evolve_quantum(walk, identity_partition(3), math.pi / 3)
    agg = class_aggregate(walk, psi)
    assert abs(agg.sums[Partition((3,))] - 8 / 9) < 1e-9


def test_class_constancy_from_identity():
    walk = build_cayley(4, Partition((2, 1, 1)))
    psi = evolve_quantum(walk, identity_partition(4), 0.9)
    agg = class_aggregate(walk, psi)
    assert agg.max_class_deviation < 1e-10


def test_non_class_start_reports_deviation():
    # e^{itA} from one specific transposition, built by hand from the full
    # eigensystem, which the oracle itself never computes
    walk = build_cayley(3, Partition((2, 1)))
    i = walk.vertices.tolist().index([2, 1, 3])
    evals, evecs = np.linalg.eigh(dense_adjacency(walk))
    psi = evecs @ (np.exp(0.8j * evals) * evecs[i])
    agg = class_aggregate(walk, psi)
    assert agg.max_class_deviation > 1e-3  # not a class function
    assert abs(sum(agg.sums.values()) - 1) < 1e-10


def test_periodicity_observed_directly():
    walk = build_cayley(4, Partition((2, 1, 1)))
    start = np.zeros(24, dtype=complex)
    start[0] = 1.0  # the identity class is the identity vertex
    psi = evolve_quantum(walk, identity_partition(4), 2 * math.pi)
    assert np.max(np.abs(psi - start)) < 1e-8


def test_uniform_vector_aggregates_to_class_sizes():
    walk = build_cayley(4, Partition((2, 1, 1)))
    vec = np.full(24, 1 / math.sqrt(24), dtype=complex)
    agg = class_aggregate(walk, vec)
    for lam, s in agg.sums.items():
        assert abs(s - class_size(lam) / 24) < 1e-12


def test_classical_stochastic_and_uniform_limit():
    walk = build_cayley(4, Partition((2, 1, 1)))
    ident = identity_partition(4)
    p0 = evolve_classical(walk, ident, 0.0)
    assert abs(p0.sum() - 1) < 1e-10
    pt = evolve_classical(walk, ident, 0.5)
    assert pt.min() >= 0 and abs(pt.sum() - 1) < 1e-10
    plim = evolve_classical(walk, ident, 50.0)
    assert np.max(np.abs(plim - 1 / 24)) < 1e-8


def test_classical_matches_spectral_engine():
    from symwalk.walk_spectrum import classical_class_distribution

    walk = build_cayley(4, Partition((2, 1, 1)))
    spec = spectrum(transpositions(4))
    ident = identity_partition(4)
    for t in (0.1, 0.5, 2.0):
        dense = class_sums(walk, evolve_classical(walk, ident, t))
        dist = classical_class_distribution(spec, ident, t)
        for lam, p in dist.items():
            assert abs(p - dense[lam]) < 1e-9


@pytest.mark.parametrize("n", (4, 5))
def test_classical_keeps_its_mass_at_large_times(n):
    """Stationary gaps count as exactly 0, so e^{-t gap} cannot amplify
    their eigh rounding (the mass used to reach 2.04 at n = 5, t = 1e14)."""
    from symwalk.walk_spectrum import classical_class_distribution

    ident = identity_partition(n)
    for gamma in generator_classes(n):
        walk = build_cayley(n, gamma)
        spec = spectrum(ClassFunction.indicator(gamma))
        for t in (1e10, 1e14, 1e17, 1e300, 1e308):
            dense = class_sums(walk, evolve_classical(walk, ident, t))
            assert abs(sum(dense.values()) - 1) < 1e-12
            for lam, p in classical_class_distribution(spec, ident, t).items():
                assert abs(p - dense[lam]) < 1e-9


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_classical_refuses_a_non_finite_time(t):
    walk = build_cayley(3, Partition((2, 1)))
    with pytest.raises(DomainError):
        evolve_classical(walk, identity_partition(3), t)


def test_quantum_refuses_an_overflowing_phase():
    walk = build_cayley(3, Partition((2, 1)))
    evolve_quantum(walk, identity_partition(3), 1e307)
    with pytest.raises(DomainError):
        evolve_quantum(walk, identity_partition(3), 1e308)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_quantum_matches_spectral_engine_all_generators(n):
    from symwalk.walk_spectrum import class_distribution

    ident = identity_partition(n)
    times = [2 * math.pi * j / 16 for j in range(16)]
    for gamma in generator_classes(n):
        walk = build_cayley(n, gamma)
        spec = spectrum(ClassFunction.indicator(gamma))
        for t in times:
            agg = class_aggregate(walk, evolve_quantum(walk, ident, t))
            dist = class_distribution(spec, ident, t)
            for lam, p in dist.items():
                assert abs(p - agg.sums.get(lam, 0.0)) < 1e-9


@pytest.mark.parametrize("n", (3, 4, 5))
def test_adjacency_spectrum_matches_engine_multiset(n):
    for gamma in generator_classes(n):
        walk = build_cayley(n, gamma)
        evals = np.sort(np.linalg.eigh(dense_adjacency(walk))[0])
        spec = spectrum(ClassFunction.indicator(gamma))
        multiset = np.sort(
            np.concatenate([[float(r.eigenvalue)] * (r.dim**2) for r in spec.records])
        )
        assert evals.shape == multiset.shape == (factorial(n),)
        assert np.max(np.abs(evals - multiset)) < 1e-8


def test_limiting_distribution_cluster_average():
    walk = build_cayley(3, Partition((2, 1)))
    dense = limiting_distribution(walk, identity_partition(3))
    assert abs(dense[Partition((3,))] - 1 / 3) < 1e-12
    assert abs(sum(dense.values()) - 1) < 1e-10


def test_edges_listing():
    # Each edge once, as the space-separated rows of its two vertices.
    assert build_cayley(2, Partition((2,))).edges() == [("1 2", "2 1")]
    edges = build_cayley(3, Partition((2, 1))).edges()
    assert len(edges) == 9 and edges == sorted(edges)
    assert edges[:3] == [("1 2 3", "1 3 2"), ("1 2 3", "2 1 3"), ("1 2 3", "3 2 1")]


# Largest error each oracle time may show against the exact engine, from
# every start class at n <= 5; the worsts measured over n <= 6 are 7.6e-14
# (t <= 3.1), 2.4e-12 (t = 100) and 3.1e-15 (classical).
QUANTUM_TOL = {0.0: 1e-13, 0.7: 1e-13, 3.1: 1e-13, 100.0: 1e-11}
CLASSICAL_TOL = {0.1: 1e-14, 2.0: 1e-14, 100.0: 1e-14}


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_every_class_start_matches_the_spectral_engine(n):
    for gamma in generator_classes(n):
        walk = build_cayley(n, gamma)
        spec = spectrum(ClassFunction.indicator(gamma))
        for start in enumerate_partitions(n):
            for t, tol in QUANTUM_TOL.items():
                dense = class_aggregate(walk, evolve_quantum(walk, start, t)).sums
                for lam, p in class_distribution(spec, start, t).items():
                    assert abs(p - dense[lam]) < tol, (gamma, start, t, lam)
            for t, tol in CLASSICAL_TOL.items():
                dense = class_sums(walk, evolve_classical(walk, start, t))
                for lam, p in classical_class_distribution(spec, start, t).items():
                    assert abs(p - dense[lam]) < tol, (gamma, start, t, lam)


def test_both_engines_return_one_shape():
    # A class distribution is a dict in canonical class order, whichever
    # engine computed it, so the two compare key by key.
    n, t = 4, 0.7
    gamma, ident = Partition((2, 1, 1)), identity_partition(n)
    walk = build_cayley(n, gamma)
    spec = spectrum(ClassFunction.indicator(gamma))
    distributions = [
        class_distribution(spec, ident, t),
        classical_class_distribution(spec, ident, t),
        limiting_class_distribution(spec, ident),
        time_averaged_distribution(spec, ident, 2 * math.pi, 8),
        class_sums(walk, evolve_classical(walk, ident, t)),
        limiting_distribution(walk, ident),
        class_aggregate(walk, evolve_quantum(walk, ident, t)).sums,
    ]
    for dist in distributions:
        assert type(dist) is dict
        assert list(dist) == enumerate_partitions(n)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_krylov_dimension_is_at_most_the_class_count(n):
    # A class-uniform start stays a class function, so its Krylov subspace
    # has at most p(n) dimensions however many vertices the graph has.  The
    # decomposition is the Ritz values, the tridiagonal's eigenvectors and
    # the orthonormal basis as rows.
    for gamma in generator_classes(n):
        walk = build_cayley(n, gamma)
        for start in enumerate_partitions(n):
            values, ritz, basis = walk.krylov(start)
            size = len(values)
            assert size <= partition_count(n)
            assert ritz.shape == (size, size)
            assert basis.shape == (size, factorial(n))
            assert np.allclose(np.dot(basis, basis.T), np.eye(size), atol=1e-14)


@pytest.mark.parametrize("n", (3, 4))
def test_a_dropped_edge_fails_the_quantum_check(monkeypatch, n):
    # The oracle reads nothing but the neighbour index, so it cannot pass
    # vacuously: one edge pair {g, h} rewired into loops at g and h shows in
    # every oracle check.  The pair is the first in lex order, at the
    # identity every check starts from; the quantum, classical and limit
    # errors read 9.4e-1, 1.9e-1 and 3.3e-1 at n = 3, and 1.0, 1.2e-1 and
    # 4.2e-1 at n = 4.  Loops keep every degree, so the classical walk
    # still conserves mass: the last pair in lex order moves its error to
    # 5.3e-3 only at n = 4.
    build = oracle.build_cayley

    def broken(n, gamma):
        walk = build(n, gamma)
        index = walk.neighbours = walk.neighbours.copy()
        h = index[0].min()  # the identity is vertex 0
        index[0][index[0] == h] = 0
        index[h][index[h] == 0] = h
        return walk

    monkeypatch.setattr(oracle, "build_cayley", broken)
    results = {r.name: r for r in verify.run_suite(n)}
    for name in ("quantum_vs_oracle", "classical_vs_oracle", "limiting_vs_oracle"):
        assert not results[name].passed
        assert results[name].max_abs_error > 1e-2, name


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_the_ritz_values_of_a_class_start_are_simple(n):
    # The start's tridiagonal is unreduced, so its Ritz values are distinct;
    # single-class spectra are integral, so they sit a whole unit apart.
    # The Cesaro limit sums over Ritz pairs, one per eigenvalue, on this.
    for gamma in generator_classes(n):
        walk = build_cayley(n, gamma)
        for start in enumerate_partitions(n):
            values = walk.krylov(start)[0]
            assert np.all(np.diff(values) >= 0.5), (gamma, start, values)


def _oracle_matches_the_engine(capsys, monkeypatch, n, generator):
    monkeypatch.setenv("SYMWALK_MAX_N", str(n))
    argv = ["--n", str(n), "--generator", generator, "--t", "0.7"]
    assert main(["oracle", *argv]) == 0
    dense = json.loads(capsys.readouterr().out)["classes"]
    assert main(["distribution", *argv]) == 0
    exact = json.loads(capsys.readouterr().out)["classes"]
    assert len(dense) == len(exact) == partition_count(n)
    for row, want in zip(dense, exact):
        assert row["partition"] == want["partition"]
        assert abs(row["probability"] - want["probability"]) < 1e-12


def test_the_oracle_at_n7_matches_the_engine(capsys, monkeypatch):
    _oracle_matches_the_engine(capsys, monkeypatch, 7, "7")


def test_the_oracle_at_n8_matches_the_engine(capsys, monkeypatch):
    # 40,320 vertices: the n! x n! float matrix would take 13 GB, the
    # neighbour index takes 4.5 MB.
    _oracle_matches_the_engine(capsys, monkeypatch, 8, "2" + ",1" * 6)


def test_the_vertex_set_is_built_once_per_n(monkeypatch):
    # Every graph of S_n reads one cycle type per vertex from the cached
    # vertex set, so six generators at n = 5 cost 120 calls, not 720.
    calls = []

    def counted(perm):
        calls.append(perm)
        return cycle_type(perm)

    monkeypatch.setattr(oracle, "cycle_type", counted)
    oracle._vertex_set.cache_clear()
    for gamma in generator_classes(5):
        build_cayley(5, gamma)
    assert len(calls) == factorial(5)


def test_every_walk_holds_the_cached_vertex_set():
    vertices, classes, class_index = oracle._vertex_set(5)
    for gamma in generator_classes(5):
        walk = build_cayley(5, gamma)
        assert walk.vertices is vertices
        assert walk.classes is classes
        assert walk.class_index is class_index


def test_neighbour_rows_keep_their_order():
    # Each row's order sets the summation order of every A psi, and so the
    # oracle's floats; the adjacency dumps sort each row, so they miss it.
    digest = hashlib.sha256()
    for n in range(3, 7):
        for gamma in generator_classes(n):
            digest.update(build_cayley(n, gamma).neighbours.tobytes())
    assert digest.hexdigest() == "4467cec0bb89a50f1e1ae544eed699036f1870bbfbbb15a1c26e2d7dfabd66fc"


@pytest.mark.parametrize("gamma", generator_classes(6), ids=str)
def test_a_graph_and_its_krylov_run_fit_in_2mb_at_n6(gamma):
    # The n! x n! float matrix alone took 4.1 MB; the neighbour index takes
    # n! x |C_gamma| int32s, and the row blocks bound every temporary.
    oracle._vertex_set.cache_clear()
    tracemalloc.start()
    try:
        build_cayley(6, gamma).krylov(identity_partition(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_the_krylov_run_holds_one_basis_at_n8(monkeypatch):
    # The basis fills the rows of one array, and each evolution applies it
    # as Q^T Y f(theta) Y^T e_1, so no second copy of it is ever made: the
    # peak reads 1.19 times what the decomposition keeps.  A basis held as a
    # list, rebuilt into an array at every step and kept again as the Ritz
    # vectors Q^T Y reads 3.05.
    monkeypatch.setenv("SYMWALK_MAX_N", "8")
    walk = build_cayley(8, Partition((2, 1, 1, 1, 1, 1, 1)))
    tracemalloc.start()
    try:
        basis = walk.krylov(identity_partition(8))[2]
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept >= basis.nbytes  # 19 basis rows of 40,320 entries
    assert peak <= 1.5 * kept


# Worst error each oracle check may read from n = 3 to 6, just above what
# the longdouble run reads; a Ritz value one double ulp off the integer
# spectrum gave a quantum error of 1.4e-14 at n = 6.
EXTENDED_TOL = {"quantum_vs_oracle": 5e-15, "classical_vs_oracle": 1.2e-15,
                "limiting_vs_oracle": 3.9e-16}


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="np.longdouble is plain double on this platform")
@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_the_extended_krylov_run_keeps_the_quantum_error_small(n):
    results = {r.name: r for r in verify.run_suite(n)}
    for name, tol in EXTENDED_TOL.items():
        assert results[name].max_abs_error <= tol, name
