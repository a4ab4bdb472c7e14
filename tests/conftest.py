"""Shared brute-force oracles, independent of the library's own paths,
and the closed forms and walks the tests share."""

import itertools
from fractions import Fraction
from functools import cache
from math import factorial

import pytest

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
