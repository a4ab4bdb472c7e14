import math
from math import factorial

import numpy as np
import pytest

from symwalk.errors import (
    DegenerateGeneratorError,
    DomainError,
    ResourceLimitError,
)
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
    identity_partition,
    is_even_class,
)
from symwalk.verify import generator_classes
from symwalk.walk_spectrum import ClassFunction, spectrum

from conftest import transpositions


def test_n2_single_edge():
    walk = build_cayley(2, Partition((2,)))
    assert len(walk.vertices) == 2
    assert walk.adjacency.tolist() == [[0, 1], [1, 0]]


def test_n3_transpositions_is_bipartite_cubic():
    walk = build_cayley(3, Partition((2, 1)))
    assert len(walk.vertices) == 6
    assert (walk.adjacency.sum(axis=0) == 3).all()
    # K_{3,3}: edges only between even and odd permutations
    parity = [is_even_class(walk.classes[k]) for k in walk.class_index]
    for i in range(6):
        for j in range(6):
            if walk.adjacency[i, j]:
                assert parity[i] != parity[j]


def test_n3_full_cycles_are_two_triangles():
    walk = build_cayley(3, Partition((3,)))
    assert (walk.adjacency.sum(axis=0) == 2).all()
    # identity's component is the alternating group: 3 vertices
    reach = {0}  # the identity is the first vertex in lex order
    frontier = list(reach)
    while frontier:
        i = frontier.pop()
        for j in np.nonzero(walk.adjacency[:, i])[0]:
            if j not in reach:
                reach.add(int(j))
                frontier.append(int(j))
    assert len(reach) == 3


def test_vertex_order_is_lexicographic():
    walk = build_cayley(3, Partition((2, 1)))
    assert walk.vertices[:2] == [(1, 2, 3), (1, 3, 2)]
    assert walk.vertices == sorted(walk.vertices)


@pytest.mark.parametrize("n", (3, 4))
def test_degree_equals_class_size(n):
    for gamma in generator_classes(n):
        walk = build_cayley(n, gamma)
        assert (walk.adjacency.sum(axis=0) == class_size(gamma)).all()
        assert np.allclose(walk.adjacency, walk.adjacency.T)
        assert not walk.adjacency.diagonal().any()


def test_adjacency_membership_rule():
    # edge {g, h} iff the cycle type of g o h^{-1} is the generator class
    walk = build_cayley(4, Partition((2, 2)))
    for i, g in enumerate(walk.vertices):
        for j, h in enumerate(walk.vertices):
            hinv = _inverse(h)
            prod = tuple(g[hinv[x] - 1] for x in range(4))
            expected = cycle_type(prod) == walk.generator
            assert bool(walk.adjacency[i, j]) == expected


def _inverse(g):
    inv = [0] * len(g)
    for i, v in enumerate(g):
        inv[v - 1] = i + 1
    return tuple(inv)


def adjacency_right_convention(walk):
    """Adjacency built from g^{-1}h in C_gamma instead of gh^{-1}."""
    size = len(walk.vertices)
    out = np.zeros((size, size))
    for i, g in enumerate(walk.vertices):
        ginv = _inverse(g)
        for j, h in enumerate(walk.vertices):
            prod = tuple(ginv[h[x] - 1] for x in range(len(g)))
            if cycle_type(prod) == walk.generator:
                out[i, j] = 1.0
    return out


def test_edge_convention_identity():
    # Each S_n element is conjugate to its inverse, so the two edge rules
    # coincide for class generating sets.  The loop reference also pins
    # the array-built adjacency exactly, for every generator at n <= 4.
    cases = [(n, gamma) for n in (2, 3, 4) for gamma in generator_classes(n)]
    for n, gamma in cases + [(5, Partition((3, 1, 1)))]:
        walk = build_cayley(n, gamma)
        assert np.array_equal(walk.adjacency, adjacency_right_convention(walk))


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
    assert walk.vertices[0] == (1, 2, 3, 4)
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
    # e^{itA} from one specific transposition, built by hand from the eigensystem
    walk = build_cayley(3, Partition((2, 1)))
    i = walk.vertices.index((2, 1, 3))
    evals, evecs = walk.eigensystem()
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
    spec = spectrum(4, transpositions(4))
    ident = identity_partition(4)
    for t in (0.1, 0.5, 2.0):
        dense = class_sums(walk, evolve_classical(walk, ident, t))
        dist = classical_class_distribution(spec, ident, t)
        for lam, p in dist.probs.items():
            assert abs(p - dense[lam]) < 1e-9


@pytest.mark.parametrize("n", (4, 5))
def test_classical_keeps_its_mass_at_large_times(n):
    """Stationary gaps count as exactly 0, so e^{-t gap} cannot amplify
    their eigh rounding (the mass used to reach 2.04 at n = 5, t = 1e14)."""
    from symwalk.walk_spectrum import classical_class_distribution

    ident = identity_partition(n)
    for gamma in generator_classes(n):
        walk = build_cayley(n, gamma)
        spec = spectrum(n, ClassFunction.indicator(gamma))
        for t in (1e10, 1e14, 1e17, 1e300, 1e308):
            dense = class_sums(walk, evolve_classical(walk, ident, t))
            assert abs(sum(dense.values()) - 1) < 1e-12
            for lam, p in classical_class_distribution(spec, ident, t).probs.items():
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
        spec = spectrum(n, ClassFunction.indicator(gamma))
        for t in times:
            agg = class_aggregate(walk, evolve_quantum(walk, ident, t))
            dist = class_distribution(spec, ident, t)
            for lam, p in dist.probs.items():
                assert abs(p - agg.sums.get(lam, 0.0)) < 1e-9


@pytest.mark.parametrize("n", (3, 4, 5))
def test_adjacency_spectrum_matches_engine_multiset(n):
    for gamma in generator_classes(n):
        walk = build_cayley(n, gamma)
        evals = np.sort(walk.eigensystem()[0])
        spec = spectrum(n, ClassFunction.indicator(gamma))
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
    walk = build_cayley(2, Partition((2,)))
    assert walk.edges() == [((1, 2), (2, 1))]
