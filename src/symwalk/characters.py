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

from fractions import Fraction
from math import comb, factorial

from .caps import CHARACTER_TABLE_CAP, check_cap
from .errors import ConsistencyError, DomainError
from .partitions import Partition, enumerate_partitions, transpose


def binom(a: int, b: int) -> int:
    """C(a, b), reading out-of-range bottom indices as 0."""
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def _abacus(nu: Partition) -> int:
    """nu's n beta numbers nu_i + n - 1 - i as a bitmask; zero parts fill the low bits."""
    n, k = nu.n, len(nu.parts)
    return sum((1 << (part + n - 1 - i) for i, part in enumerate(nu.parts)), (1 << (n - k)) - 1)


def _border_strips(mask: int, r: int) -> list[tuple[int, int]]:
    """p_r times the one Schur function s_mask, as (abacus, sign) pairs.

    Adding a border strip of length r moves one bead b to a free b + r;
    its height, the number of beads strictly between, gives the sign.
    """
    strips = []
    between = (1 << (r - 1)) - 1
    movable = mask & ~(mask >> r)  # beads b with b + r free
    while movable:
        bead = movable & -movable
        movable ^= bead
        sign = -1 if (mask >> bead.bit_length() & between).bit_count() & 1 else 1
        strips.append((mask ^ bead ^ bead << r, sign))
    return strips


def character(nu: Partition, lam: Partition) -> int:
    """chi_nu(lam), the entry of ``character_column(lam)`` at nu, under its cap."""
    if nu.n != lam.n:
        raise DomainError(f"partitions of different n: {nu} vs {lam}")
    return character_column(lam)[enumerate_partitions(nu.n).index(nu)]


def character_column(lam: Partition) -> tuple[int, ...]:
    """chi_nu(lam) for every irrep nu of S_n, in canonical order: the
    Schur expansion of p_lam at each abacus, folding the parts smallest
    first, the order ``character_table`` uses.  As there, the largest
    part is added straight into the column."""
    reps = enumerate_partitions(lam.n)  # checks the cap before the fold
    if not lam.parts:
        return (1,)
    expansion = {(1 << lam.n) - 1: 1}
    for r in reversed(lam.parts[1:]):
        out: dict[int, int] = {}
        for mask, coeff in expansion.items():
            for key, sign in _border_strips(mask, r):
                out[key] = out.get(key, 0) + sign * coeff
        expansion = {key: value for key, value in out.items() if value}
    row = {_abacus(nu): i for i, nu in enumerate(reps)}
    column = [0] * len(reps)
    for mask, coeff in expansion.items():
        for key, sign in _border_strips(mask, lam.parts[0]):
            column[row[key]] += sign * coeff
    return tuple(column)


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


def character_table(n: int) -> tuple[tuple[int, ...], ...]:
    """The full p(n) x p(n) table (default cap n <= 14) as its columns:
    ``columns[j][i]`` is chi_nu(lam) for lam and nu the j-th and i-th
    partitions of n in canonical order, since irreps and classes share
    one list.  At n = 0 it is ``((1,),)``.

    The columns fold smallest parts first, depth-first: a prefix is a
    multiset of a class's smallest parts, multiplied out once and shared
    by every class that extends it.  A prefix takes a part r no smaller
    than its largest only when r leaves 0, or at least r for the parts
    after it, so every prefix finishes as a class.  The expensive steps
    near a leaf then multiply by large parts, which move few beads, and
    only the current path of expansions is alive.

    Many prefixes reach the same abacus, so each (abacus, r) has its
    border strips computed once, in a memo that dies with the call.  The
    last part of a class is added straight into its column.
    """
    check_cap(n, CHARACTER_TABLE_CAP, "character table")
    parts = enumerate_partitions(n)
    if not n:
        return ((1,),)
    row = {_abacus(nu): i for i, nu in enumerate(parts)}
    position = {lam.parts: k for k, lam in enumerate(parts)}
    columns: list[tuple[int, ...]] = [()] * len(parts)
    strips: list[dict[int, list[tuple[int, int]]]] = [{} for _ in range(n + 1)]
    finish: list[dict[int, list[tuple[int, int]]]] = [{} for _ in range(n + 1)]

    def extend(expansion: dict[int, int], prefix: tuple[int, ...], remaining: int) -> None:
        for r in range(prefix[0] if prefix else 1, remaining // 2 + 1):
            memo = strips[r]  # abacus -> its (abacus, sign) strips
            out: dict[int, int] = {}
            for mask, coeff in expansion.items():
                moves = memo.get(mask)
                if moves is None:
                    moves = memo[mask] = _border_strips(mask, r)
                for key, sign in moves:
                    out[key] = out.get(key, 0) + sign * coeff
            extend({key: value for key, value in out.items() if value}, (r,) + prefix,
                   remaining - r)
        memo = finish[remaining]  # abacus -> its strips as (row, sign)
        column = [0] * len(parts)
        for mask, coeff in expansion.items():
            moves = memo.get(mask)
            if moves is None:
                moves = memo[mask] = [(row[key], sign)
                                      for key, sign in _border_strips(mask, remaining)]
            for i, sign in moves:
                column[i] += sign * coeff
        columns[position[(remaining,) + prefix]] = tuple(column)

    extend({(1 << n) - 1: 1}, (), n)
    return tuple(columns)
