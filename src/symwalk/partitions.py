"""Integer partitions of n and conjugacy-class combinatorics of S_n.

A partition is the universal index here: it names both a conjugacy class
(by cycle type) and an irreducible representation.  All counts are exact
Python integers; n! overflows 64 bits already at n = 21.

Canonical enumeration order is lexicographic descending on the part
tuples, e.g. for n = 4: (4), (3,1), (2,2), (2,1,1), (1,1,1,1).  Every
table and spectrum in the package is emitted in this order so output is
reproducible byte for byte.
"""

from __future__ import annotations

from functools import cache
from math import factorial
from typing import Iterator, Sequence

from .caps import PARTITION_CAP, check_cap
from .errors import DomainError


class Frozen:
    """A value set once in ``__init__``: later assignment or deletion raises."""

    __slots__ = ()

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__


class Partition(Frozen):
    """A weakly decreasing tuple of positive integers summing to n.

    Immutable and hashable; two partitions are equal iff their part
    tuples are identical.  The empty partition (n = 0) is allowed.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[int]):
        parts = tuple(parts)
        for i, p in enumerate(parts):
            if not isinstance(p, int) or p < 1:
                raise DomainError(f"parts must be positive integers, got {parts}")
            if i and parts[i - 1] < p:
                raise DomainError(f"parts must be weakly decreasing, got {parts}")
        object.__setattr__(self, "parts", parts)

    def __eq__(self, other):
        return self.parts == other.parts if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.parts,))  # as a dataclass hashes it: set orders depend on it

    def __repr__(self) -> str:
        return f"Partition(parts={self.parts!r})"

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        """Serialize as comma-separated descending parts, e.g. ``2,1,1``.

        This grammar is shared by all CLI flags and JSON fields.
        """
        return ",".join(str(p) for p in self.parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Inverse of ``str``; the empty string is the empty partition."""
        text = text.strip()
        if not text:
            return cls(())
        try:
            parts = tuple(int(tok) for tok in text.split(","))
        except ValueError:
            raise DomainError(f"cannot parse partition from {text!r}") from None
        return cls(parts)


def identity_partition(n: int) -> Partition:
    """Cycle type of the identity: n fixed points."""
    return Partition((1,) * n)


def hook(n: int, k: int) -> Partition:
    """The hook (k, 1, ..., 1) of n.  hook(n, p) is also the p-cycle class."""
    if not 1 <= k <= n:
        raise DomainError(f"hook needs 1 <= k <= n, got k={k}, n={n}")
    return Partition((k,) + (1,) * (n - k))


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in lexicographic descending order.

    List length is p(n); n above the cap (default 30) is rejected as a
    resource guard.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    check_cap(n, PARTITION_CAP, "partition enumeration")
    return [Partition(parts) for parts in _partition_tuples(n)]


@cache
def _partition_tuples(n: int) -> tuple[tuple[int, ...], ...]:
    def gen(remaining: int, max_part: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


def centralizer_order(lam: Partition) -> int:
    """z_lambda = prod_k k^{m_k} m_k! with m_k the multiplicity of part k."""
    mult: dict[int, int] = {}
    for p in lam.parts:
        mult[p] = mult.get(p, 0) + 1
    z = 1
    for k, m in mult.items():
        z *= k**m * factorial(m)
    return z


def class_size(lam: Partition) -> int:
    """|C_lambda| = n!/z_lambda, the number of permutations of cycle type lam."""
    return factorial(lam.n) // centralizer_order(lam)


def transpose(lam: Partition) -> Partition:
    """Conjugate partition: flip the Young diagram across the diagonal."""
    if not lam.parts:
        return lam
    cols = [0] * lam.parts[0]
    for p in lam.parts:
        for i in range(p):
            cols[i] += 1
    return Partition(cols)


def is_even_class(lam: Partition) -> bool:
    """Whether permutations of cycle type lam lie in the alternating group.

    The sign of a permutation with cycle type lam is (-1)^(n - #parts).
    """
    return (lam.n - len(lam.parts)) % 2 == 0


def cycle_type(perm: Sequence[int]) -> Partition:
    """Cycle type of a permutation of {1..n} given in one-line notation.

    ``perm[i]`` is the image of i+1; fixed points contribute parts of 1.
    """
    n = len(perm)
    seen = [False] * (n + 1)
    for v in perm:
        if not isinstance(v, int) or not 1 <= v <= n or seen[v]:
            raise DomainError(f"{perm!r} is not a permutation of 1..{n}")
        seen[v] = True
    visited = [False] * n
    lengths = []
    for start in range(n):
        if visited[start]:
            continue
        length = 0
        i = start
        while not visited[i]:
            visited[i] = True
            i = perm[i] - 1
            length += 1
        lengths.append(length)
    lengths.sort(reverse=True)
    return Partition(lengths)
