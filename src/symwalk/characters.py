"""Exact irreducible characters of S_n via the Murnaghan-Nakayama rule.

The recursion removes a border strip of length equal to the largest
remaining cycle part; a strip's height is the number of rows it spans
minus one.  Strip removal is done on first-column hook lengths (beta
numbers): removing a strip of length r moves one beta number b to b - r,
and the height is the number of beta numbers strictly between the two.

Closed forms from representation theory (hook dimensions, Ingram's
transposition values, hook characters at p-cycles) are implemented as
independent second paths and cross-checked against the recursion in the
test suite.  Everything here is big-integer exact; no floats.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import comb, factorial

from .caps import CHARACTER_TABLE_CAP, check_cap
from .errors import ConsistencyError, DomainError, SizeMismatchError
from .partitions import Partition, class_size, enumerate_partitions, transpose


def binom(a: int, b: int) -> int:
    """C(a, b), reading out-of-range bottom indices as 0."""
    if b < 0 or b > a:
        return 0
    return comb(a, b)


@cache
def _mn(shape: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama recursion on raw part tuples.

    ``cycles`` must be sorted descending; it is consumed front-first so
    memo keys stay canonical.  Thread-safe: the cache is only ever
    extended with values that are pure functions of the key.
    """
    if not cycles:
        return 1 if not shape else 0
    r, rest = cycles[0], cycles[1:]
    total = 0
    k = len(shape)
    beta = [shape[i] + (k - 1 - i) for i in range(k)]
    betaset = set(beta)
    for b in beta:
        nb = b - r
        if nb < 0 or nb in betaset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        newbeta = sorted((betaset - {b}) | {nb}, reverse=True)
        # Trailing zero parts drop out; beta numbers stay strictly decreasing
        # so the result is again a valid partition.
        newshape = tuple(
            part for i, x in enumerate(newbeta) if (part := x - (k - 1 - i)) > 0
        )
        sub = _mn(newshape, rest)
        total += -sub if height % 2 else sub
    return total


def character(nu: Partition, lam: Partition) -> int:
    """chi_nu(lam): the character of the irrep nu on the class lam."""
    if nu.n != lam.n:
        raise SizeMismatchError(f"partitions of different n: {nu} vs {lam}")
    return _mn(nu.parts, lam.parts)


def dimension(nu: Partition) -> int:
    """dim(rho_nu) by the hook-length formula.

    Independent of the recursion; ``character(nu, identity)`` must agree.
    """
    n = nu.n
    conj = transpose(nu).parts
    hooks = 1
    for i, row in enumerate(nu.parts):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return factorial(n) // hooks


def character_transposition(nu: Partition) -> int:
    """Ingram's closed form for chi_nu at a transposition.

    chi_nu(tau) = dim(rho_nu)/C(n,2) * sum_j (C(nu_j,2) - C(nu'_j,2)).
    The rational intermediate is asserted integral before returning.
    """
    n = nu.n
    if n < 2:
        raise DomainError("no transposition class for n < 2")
    conj = transpose(nu).parts
    diff = sum(binom(p, 2) for p in nu.parts) - sum(binom(p, 2) for p in conj)
    value = Fraction(dimension(nu) * diff, comb(n, 2))
    if value.denominator != 1:
        raise ConsistencyError(f"transposition character for {nu} is not integral: {value}")
    return int(value)


def character_hook_pcycle(k: int, p: int, n: int) -> int:
    """Hook character chi_(k,1,...,1) at the p-cycle class (p,1,...,1).

    Valid for 1 <= p <= n-1 (the n-cycle class has its own formula);
    equals C(n-p-1, k-p-1) + (-1)^(p+1) C(n-p-1, k-1).
    """
    if not 1 <= k <= n:
        raise DomainError(f"hook row k={k} outside 1..{n}")
    if not 1 <= p <= n - 1:
        raise DomainError(f"p-cycle formula needs 1 <= p <= n-1, got p={p}")
    sign = -1 if p % 2 == 0 else 1  # (-1)^(p+1)
    return binom(n - p - 1, k - p - 1) + sign * binom(n - p - 1, k - 1)


@dataclass(frozen=True)
class CharacterTable:
    """Complete character table of S_n in canonical partition order.

    ``entries[i][j]`` is chi_nu(lam) for nu = reps[i], lam = classes[j].
    """

    n: int
    classes: tuple[Partition, ...]
    reps: tuple[Partition, ...]
    entries: tuple[tuple[int, ...], ...]

    @cached_property
    def _positions(self) -> dict[Partition, int]:
        return {lam: i for i, lam in enumerate(self.classes)}

    def index(self, lam: Partition) -> int:
        return self._positions[lam]

    def value(self, nu: Partition, lam: Partition) -> int:
        return self.entries[self.index(nu)][self.index(lam)]

    def column(self, lam: Partition) -> tuple[int, ...]:
        j = self.index(lam)
        return tuple(row[j] for row in self.entries)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([""] + [str(lam) for lam in self.classes])
        for nu, row in zip(self.reps, self.entries):
            writer.writerow([str(nu)] + [str(v) for v in row])
        return out.getvalue()

    def to_json_dict(self) -> dict:
        # Integers as decimal strings so consumers without bigints survive.
        return {
            "n": self.n,
            "classes": [list(lam.parts) for lam in self.classes],
            "reps": [list(nu.parts) for nu in self.reps],
            "entries": [[str(v) for v in row] for row in self.entries],
        }


def character_table(n: int) -> CharacterTable:
    """Materialize the full p(n) x p(n) table (default cap n <= 14)."""
    check_cap(n, CHARACTER_TABLE_CAP, "character table")
    return _character_table(n)


@cache
def _character_table(n: int) -> CharacterTable:
    parts = tuple(enumerate_partitions(n))
    entries = tuple(
        tuple(_mn(nu.parts, lam.parts) for lam in parts) for nu in parts
    )
    return CharacterTable(n=n, classes=parts, reps=parts, entries=entries)


def check_orthogonality(table: CharacterTable) -> None:
    """Raise ConsistencyError unless both orthogonality identities hold.

    Columns: |C_lam| sum_nu chi_nu(lam) chi_nu(mu) = n! [lam = mu].
    Rows:    sum_lam |C_lam| chi_nu(lam) chi_eta(lam) = n! [nu = eta].
    """
    nfact = factorial(table.n)
    sizes = [class_size(lam) for lam in table.classes]
    cols = [table.column(lam) for lam in table.classes]
    for a, ca in enumerate(cols):
        for b in range(a, len(cols)):
            dot = sum(x * y for x, y in zip(ca, cols[b]))
            want = nfact if a == b else 0
            if sizes[a] * dot != want:
                raise ConsistencyError(
                    f"column orthogonality failed at {table.classes[a]}, {table.classes[b]}"
                )
    for a, ra in enumerate(table.entries):
        for b in range(a, len(table.entries)):
            dot = sum(s * x * y for s, x, y in zip(sizes, ra, table.entries[b]))
            if dot != (nfact if a == b else 0):
                raise ConsistencyError(
                    f"row orthogonality failed at {table.reps[a]}, {table.reps[b]}"
                )
