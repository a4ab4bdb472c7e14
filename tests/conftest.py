"""Shared brute-force oracles, independent of the library's own paths,
and the closed forms and walks the tests share."""

import itertools
import math
from fractions import Fraction
from functools import cache
from math import factorial

import pytest

from symwalk.characters import character_table
from symwalk.partitions import Partition, cycle_type
from symwalk.walk_spectrum import ClassFunction


@cache
def partition_count(n: int) -> int:
    """p(n) by the parts-bounded counting recurrence."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def all_permutations(n: int):
    return itertools.permutations(range(1, n + 1))


@cache
def brute_class_counts(n: int) -> dict:
    """Cycle-type histogram from exhaustively enumerating S_n."""
    counts: dict[Partition, int] = {}
    for perm in all_permutations(n):
        lam = cycle_type(perm)
        counts[lam] = counts.get(lam, 0) + 1
    return counts


@pytest.fixture
def count_oracle():
    return partition_count


def transpositions(n: int) -> ClassFunction:
    """The indicator of the transposition class (2,1,...,1)."""
    return ClassFunction.indicator(Partition((2,) + (1,) * (n - 2)))


def max_ncycle_probability(n: int) -> Fraction:
    """max_t of the identity-to-class-(n) probability under transpositions:
    2^(2n-2)/(n*n!), attained at t = (2k+1)*pi/n."""
    return Fraction(2 ** (2 * n - 2), n * factorial(n))


@cache
def kernel_matrix(spec, mu: Partition) -> tuple[list[Fraction], list[list[int]]]:
    """(E_G, K) for the walk ``spec`` from start class mu, built from the
    character table: K[lam][G] = sum_{nu in G} chi_nu(lam) chi_nu(mu), with
    G running over the irreps sharing one exact eigenvalue E_G, in the
    canonical order of each group's first member."""
    columns = character_table(spec.n)
    col_mu = columns[spec.classes.index(mu)]
    groups: dict[Fraction, list[int]] = {}
    for i, rec in enumerate(spec.records):
        groups.setdefault(rec.eigenvalue, []).append(i)
    return list(groups), [[sum(col[i] * col_mu[i] for i in members) for members in groups.values()]
                          for col in columns]


def numpy_kernel_reference(kernel, t: float):
    """(amplitudes, quantum, classical) of a ``WalkKernel`` at time t, by
    the numpy matrix form the pure-Python evaluators replaced: K transposed,
    times the phases, summed over axis 0 (one group after another)."""
    import numpy as np

    spec, nfact = kernel.spec, factorial(kernel.spec.n)
    energies, matrix = kernel_matrix(spec, kernel.mu)
    sizes = [spec.class_sizes[lam] for lam in spec.classes]
    kt = np.array(matrix, dtype=float).T.copy()
    prefactors = np.array([math.sqrt(Fraction(s * spec.class_sizes[kernel.mu], nfact * nfact))
                           for s in sizes])
    neg_gaps = np.array([float(ev - spec.f.degree()) for ev in energies])
    phase = np.exp(1j * t * np.array([float(ev) for ev in energies]))
    amplitudes = prefactors * (kt * phase[:, None]).sum(axis=0)
    decay = np.exp(t * neg_gaps)
    classical = np.maximum(np.array([s / nfact for s in sizes]) * (kt * decay[:, None]).sum(axis=0),
                           0.0)
    return amplitudes, abs(amplitudes) ** 2, classical
