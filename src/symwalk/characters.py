"""Exact irreducible characters of S_n on the abacus.

chi_nu(lam) is the coefficient of s_nu in the power sum p_lam = p_lam1
p_lam2 ... (Macdonald, Symmetric Functions and Hall Polynomials, ch. I).
A partition of n is a bitmask of its n beta numbers (the James-Kerber
abacus), and multiplying by p_r moves one bead b to a free b + r, with
the sign of the number of beads it passes.  Folding lam's parts yields
a whole column; no expansion outlives the call that made it.

Closed forms from representation theory (hook dimensions, Ingram's
transposition values, hook characters at p-cycles) are implemented as
independent second paths and cross-checked against the abacus in the
test suite.  Everything here is big-integer exact; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb, factorial

from .caps import CHARACTER_TABLE_CAP, check_cap
from .errors import ConsistencyError, DomainError, SizeMismatchError
from .partitions import Partition, class_size, enumerate_partitions, transpose


def binom(a: int, b: int) -> int:
    """C(a, b), reading out-of-range bottom indices as 0."""
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def _abacus(nu: Partition) -> int:
    """nu's n beta numbers nu_i + n - 1 - i (zero parts padded) as a bitmask."""
    n = nu.n
    parts = nu.parts + (0,) * (n - len(nu.parts))
    return sum(1 << (part + n - 1 - i) for i, part in enumerate(parts))


def _times_power_sum(expansion: dict[int, int], r: int) -> dict[int, int]:
    """p_r times a Schur expansion {abacus: coefficient}.

    Adding a border strip of length r moves one bead b to a free b + r;
    its height, the number of beads strictly between, gives the sign.
    """
    out: dict[int, int] = {}
    between = (1 << (r - 1)) - 1
    for mask, coeff in expansion.items():
        movable = mask & ~(mask >> r)  # beads b with b + r free
        while movable:
            bead = movable & -movable
            movable ^= bead
            key = mask ^ bead ^ bead << r
            value = -coeff if (mask >> bead.bit_length() & between).bit_count() & 1 else coeff
            out[key] = out.get(key, 0) + value
    return {key: value for key, value in out.items() if value}


def _power_sum(lam: Partition) -> dict[int, int]:
    """The Schur expansion of p_lam: chi_nu(lam) at nu's abacus."""
    return reduce(_times_power_sum, lam.parts, {(1 << lam.n) - 1: 1})


def character(nu: Partition, lam: Partition) -> int:
    """chi_nu(lam): the character of the irrep nu on the class lam."""
    if nu.n != lam.n:
        raise SizeMismatchError(f"partitions of different n: {nu} vs {lam}")
    return _power_sum(lam).get(_abacus(nu), 0)


def character_column(lam: Partition) -> tuple[int, ...]:
    """chi_nu(lam) for every irrep nu of S_n, in canonical order."""
    expansion = _power_sum(lam)
    return tuple(expansion.get(_abacus(nu), 0) for nu in enumerate_partitions(lam.n))


def dimension(nu: Partition) -> int:
    """dim(rho_nu) by the hook-length formula.

    Independent of the abacus; ``character(nu, identity)`` must agree.
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
    """Complete character table of S_n in canonical partition order,
    column-major: ``columns[j][i]`` is chi_nu(lam) for lam = classes[j]
    and nu = classes[i], since irreps and classes share one list.
    """

    n: int
    classes: tuple[Partition, ...]
    columns: tuple[tuple[int, ...], ...]

    def column(self, lam: Partition) -> tuple[int, ...]:
        return self.columns[self.classes.index(lam)]


def character_table(n: int) -> CharacterTable:
    """Materialize the full p(n) x p(n) table (default cap n <= 14).

    The columns fold depth-first in canonical order: a class's part
    prefix is multiplied out once and shared by every class that extends
    it, and only the current path of expansions is alive.
    """
    check_cap(n, CHARACTER_TABLE_CAP, "character table")
    parts = tuple(enumerate_partitions(n))
    rows = [_abacus(nu) for nu in parts]
    columns = []

    def extend(expansion: dict[int, int], remaining: int, largest: int) -> None:
        if not remaining:
            columns.append(tuple(expansion.get(row, 0) for row in rows))
        for r in range(min(remaining, largest), 0, -1):
            extend(_times_power_sum(expansion, r), remaining - r, r)

    extend({(1 << n) - 1: 1}, n, n)
    return CharacterTable(n=n, classes=parts, columns=tuple(columns))


def check_orthogonality(table: CharacterTable) -> None:
    """Raise ConsistencyError unless both orthogonality identities hold.

    Columns: |C_lam| sum_nu chi_nu(lam) chi_nu(mu) = n! [lam = mu].
    Rows:    sum_lam |C_lam| chi_nu(lam) chi_eta(lam) = n! [nu = eta].
    """
    nfact = factorial(table.n)
    sizes = [class_size(lam) for lam in table.classes]
    cols = table.columns
    for a, ca in enumerate(cols):
        for b in range(a, len(cols)):
            dot = sum(x * y for x, y in zip(ca, cols[b]))
            want = nfact if a == b else 0
            if sizes[a] * dot != want:
                raise ConsistencyError(
                    f"column orthogonality failed at {table.classes[a]}, {table.classes[b]}"
                )
    rows = list(zip(*cols))
    for a, ra in enumerate(rows):
        for b in range(a, len(rows)):
            dot = sum(s * x * y for s, x, y in zip(sizes, ra, rows[b]))
            if dot != (nfact if a == b else 0):
                raise ConsistencyError(
                    f"row orthogonality failed at {table.classes[a]}, {table.classes[b]}"
                )
