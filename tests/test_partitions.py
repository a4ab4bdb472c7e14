from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symwalk.errors import DomainError, ResourceLimitError
from symwalk.partitions import (
    Partition,
    centralizer_order,
    class_size,
    cycle_type,
    enumerate_partitions,
    hook,
    identity_partition,
    is_even_class,
    transpose,
)

from conftest import brute_class_counts, partition_count

partitions_st = st.lists(st.integers(1, 9), min_size=0, max_size=9).map(
    lambda parts: Partition(tuple(sorted(parts, reverse=True)))
)


def test_empty_partition():
    assert enumerate_partitions(0) == [Partition(())]
    assert Partition(()).n == 0


def test_enumeration_n3_exact():
    assert [p.parts for p in enumerate_partitions(3)] == [(3,), (2, 1), (1, 1, 1)]


def test_enumeration_n4_exact():
    assert [p.parts for p in enumerate_partitions(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_enumeration_length_10():
    assert len(enumerate_partitions(10)) == 42


@pytest.mark.parametrize("n", range(21))
def test_count_matches_recurrence(n):
    assert len(enumerate_partitions(n)) == partition_count(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_order_is_lexicographic_descending(n):
    parts = [p.parts for p in enumerate_partitions(n)]
    assert parts == sorted(parts, reverse=True)
    assert len(set(parts)) == len(parts)


def test_invalid_partitions_rejected():
    with pytest.raises(DomainError, match=r"^parts must be weakly decreasing, got \(1, 2\)$"):
        Partition((1, 2))
    with pytest.raises(DomainError, match=r"^parts must be positive integers, got \(2, 0\)$"):
        Partition((2, 0))
    with pytest.raises(DomainError, match=r"^parts must be positive integers, got \(3, -1\)$"):
        Partition([3, -1])
    with pytest.raises(DomainError, match=r"^parts must be weakly decreasing, got \(1, 2, 2\)$"):
        Partition([1, 2, 2])
    with pytest.raises(DomainError, match=r"^cannot parse partition from '2,x'$"):
        Partition.parse("2,x")


@given(partitions_st)
def test_partition_is_an_immutable_value(lam):
    copy = Partition(list(lam.parts))
    assert copy.parts == lam.parts and isinstance(copy.parts, tuple)
    assert copy == lam and hash(copy) == hash(lam)
    assert hash(lam) == hash((lam.parts,))  # so set iteration orders cannot drift
    assert repr(lam) == f"Partition(parts={lam.parts!r})"
    assert lam != lam.parts
    assert Partition.parse(str(lam)) == lam
    with pytest.raises(AttributeError):
        lam.parts = (1,)


def test_enumeration_cap(monkeypatch):
    with pytest.raises(ResourceLimitError):
        enumerate_partitions(31)
    monkeypatch.setenv("SYMWALK_MAX_N", "31")
    assert len(enumerate_partitions(31)) == partition_count(31)


def test_class_size_examples():
    assert class_size(Partition((1, 1, 1))) == 1
    assert class_size(Partition((2, 1))) == 3


@pytest.mark.parametrize("n", range(2, 7))
def test_ncycle_class_size(n):
    # (n) -> (n-1)!, certified by exhaustive enumeration below as well
    assert class_size(Partition((n,))) == factorial(n - 1)


@pytest.mark.parametrize("n", range(1, 21))
def test_class_sizes_sum_to_group_order(n):
    assert sum(class_size(lam) for lam in enumerate_partitions(n)) == factorial(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_class_size_matches_exhaustive_enumeration(n):
    counts = brute_class_counts(n)
    for lam in enumerate_partitions(n):
        assert class_size(lam) == counts[lam]


def test_class_info_invariant():
    lam = Partition((3, 2, 2, 1))
    assert class_size(lam) * centralizer_order(lam) == factorial(8)
    assert centralizer_order(Partition((2, 2, 1))) == 8


def test_transpose_examples():
    assert transpose(Partition((5,))) == Partition((1, 1, 1, 1, 1))
    assert transpose(Partition((2, 1))) == Partition((2, 1))
    assert transpose(Partition((3, 1))) == Partition((2, 1, 1))


@pytest.mark.parametrize("n", range(13))
def test_transpose_involution_all(n):
    for lam in enumerate_partitions(n):
        assert transpose(transpose(lam)) == lam


@given(partitions_st)
def test_transpose_involution_random(lam):
    assert transpose(transpose(lam)) == lam
    assert transpose(lam).n == lam.n


def test_cycle_type_examples():
    assert cycle_type((1, 2, 3, 4)) == Partition((1, 1, 1, 1))
    # (1 2)(3 4 5) in one-line notation on {1..5}
    assert cycle_type((2, 1, 4, 5, 3)) == Partition((3, 2))
    assert cycle_type((2, 3, 4, 5, 1)) == Partition((5,))


def test_cycle_type_rejects_non_bijections():
    with pytest.raises(DomainError, match=r"^\(1, 1, 3\) is not a permutation of 1\.\.3$"):
        cycle_type((1, 1, 3))
    with pytest.raises(DomainError, match=r"^\(0, 1, 2\) is not a permutation of 1\.\.3$"):
        cycle_type((0, 1, 2))


@given(st.permutations(list(range(1, 8))))
def test_cycle_type_parts_sum(perm):
    lam = cycle_type(tuple(perm))
    assert lam.n == len(perm)


def test_serialization_grammar():
    lam = Partition((2, 1, 1, 1, 1))
    assert str(lam) == "2,1,1,1,1"
    assert Partition.parse("2,1,1,1,1") == lam
    assert Partition.parse("") == Partition(())


def test_hook_and_parity_helpers():
    assert hook(5, 3) == Partition((3, 1, 1))
    assert hook(5, 5) == Partition((5,))
    assert identity_partition(4) == Partition((1, 1, 1, 1))
    assert not is_even_class(Partition((2, 1, 1)))  # a transposition is odd
    assert is_even_class(Partition((3, 1)))
    assert is_even_class(Partition((2, 2)))
