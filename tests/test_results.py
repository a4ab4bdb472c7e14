"""Every table row of RESULTS.md, recomputed through the library.

Each value in a table is printed with the ``symwalk`` argv that makes
it; the test recomputes every row through the library and compares the
printed text.  ``python tests/test_results.py`` prints the tables.
"""

import re
from fractions import Fraction
from functools import cache
from pathlib import Path

from symwalk.limiting import limiting_class_distribution, table_ncycle_case, tv_distance
from symwalk.partitions import (Partition, class_size, enumerate_partitions, hook,
                                identity_partition, is_even_class)
from symwalk.walk_spectrum import ClassFunction, spectrum

RESULTS = Path(__file__).resolve().parent.parent / "RESULTS.md"

# Both limit sections have a row per n and a column per generator.
LIMIT_NS = range(4, 15)
ARGV = r"`symwalk limit --n (?P<n>\d+) --generator (?P<gamma>[\d,]+)`"

NONUNIFORM = "## Non-uniform limiting distributions"
# One cell: the TV from uniform, then the argv whose ``tv`` field holds it.
CELL = re.compile(r"^(\d\.\d{4}) " + ARGV + "$")

BLIND = "## Blind to large areas"
# One cell: the limit's mass far from the identity, the uniform mass
# there, then the argv whose per-class ``probability`` fields sum to it.
BLIND_CELL = re.compile(r"^(\d\.\d{4}) of (\d\.\d{4}) " + ARGV + "$")
# Its second table has the CELL form: the share of the support the limit
# leaves dark, then the argv whose ``per_element_exact`` fields make it.


def _columns(n: int) -> list[tuple[Partition, str]]:
    """Each column's generator and the support its uniform distribution
    lives on: transpositions on S_n, 3-cycles on A_n, the n-cycle on A_n
    when it is even (odd n) and on S_n otherwise."""
    ncycle = "alternating_group" if n % 2 else "symmetric_group"
    return [(hook(n, 2), "symmetric_group"), (hook(n, 3), "alternating_group"),
            (hook(n, n), ncycle)]


@cache
def _limit(gamma: Partition) -> dict[Partition, Fraction]:
    """The exact limit of the walk generated by gamma, started at the identity."""
    spec = spectrum(ClassFunction.indicator(gamma))
    return limiting_class_distribution(spec, identity_partition(gamma.n))


def _tv(gamma: Partition, support: str) -> tuple[str]:
    return (f"{float(tv_distance(_limit(gamma), support)):.4f}",)


def _members(n: int, support: str) -> list[Partition]:
    """The classes of S_n that make up the support."""
    return [lam for lam in enumerate_partitions(n)
            if support == "symmetric_group" or is_even_class(lam)]


def _far_mass(gamma: Partition, support: str) -> tuple[str, str]:
    """The limit's mass at transposition distance n - l(lam) >= n // 2, and
    the mass the uniform distribution on the support puts there."""
    n = gamma.n
    far = {lam for lam in enumerate_partitions(n) if n - len(lam.parts) >= n // 2}
    members = _members(n, support)
    uniform = Fraction(sum(class_size(lam) for lam in members if lam in far),
                       sum(map(class_size, members)))
    mass = sum(p for lam, p in _limit(gamma).items() if lam in far)
    return f"{float(mass):.4f}", f"{float(uniform):.4f}"


def _dark_share(gamma: Partition, support: str) -> tuple[str]:
    """The share of the support's elements whose per-element limit is
    below a tenth of the uniform share 1/|support|."""
    members = _members(gamma.n, support)
    size, limit = sum(map(class_size, members)), _limit(gamma)
    dark = sum(class_size(lam) for lam in members
               if limit[lam] / class_size(lam) < Fraction(1, 10 * size))
    return (f"{float(Fraction(dark, size)):.4f}",)


def limit_rows(values, joiner: str) -> list[str]:
    """A limit section's table rows, as RESULTS.md prints them: each cell
    the ``values`` of its column joined by ``joiner``, then its argv."""
    rows = []
    for n in LIMIT_NS:
        cells = [joiner.join(values(gamma, support))
                 + f" `symwalk limit --n {n} --generator {gamma}`"
                 for gamma, support in _columns(n)]
        rows.append(f"| {n} | " + " | ".join(cells) + " |")
    return rows


def _table(text: str, heading: str, which: int = 0) -> list[list[str]]:
    """The cells of table ``which`` (from 0) under ``heading``, header rows
    left out."""
    section = text[text.index(heading + "\n"):].split("\n## ", 1)[0]
    tables = re.findall(r"(?m)(?:^\|.*\n?)+", section)
    lines = tables[which].splitlines() if which < len(tables) else []
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]


def limit_mismatches(text: str, heading: str, cell, values, which: int = 0) -> list[str]:
    """Every printed cell of a limit section's table ``which`` that the
    library does not reproduce."""
    table = _table(text, heading, which)
    bad = [] if [row[0] for row in table] == [str(n) for n in LIMIT_NS] else ["row labels"]
    for row in table:
        n = int(row[0])
        if len(row) != 4:
            bad.append(f"row {n} has {len(row)} cells")
            continue
        for printed, (gamma, support) in zip(row[1:], _columns(n)):
            match = cell.match(printed)
            if (not match or int(match["n"]) != n or Partition.parse(match["gamma"]) != gamma
                    or match.groups()[:-2] != values(gamma, support)):
                bad.append(printed)
    return bad


def nonuniform_mismatches(text: str) -> list[str]:
    return limit_mismatches(text, NONUNIFORM, CELL, _tv)


def blind_mismatches(text: str) -> list[str]:
    return limit_mismatches(text, BLIND, BLIND_CELL, _far_mass)


def dark_mismatches(text: str) -> list[str]:
    return limit_mismatches(text, BLIND, CELL, _dark_share, which=1)


NCYCLE = "## The paper's n-cycle table"
NCYCLE_PAIRS = [(n, p) for n in range(2, 15) for p in range(2, n + 1)]
# Each case's condition on n and p, as printed and as a test, in the
# order of the cases' smallest pairs.
NCYCLE_CASES = {
    "even_p_full_cycle": ("p even, p = n", lambda n, p: p % 2 == 0 and p == n),
    "even_p_low": ("p even, p ≤ (n+1)/2", lambda n, p: p % 2 == 0 and 2 * p <= n + 1),
    "odd_n_odd_p_full_cycle": ("n odd, p = n", lambda n, p: n % 2 == 1 and p == n),
    "even_n_odd_p": ("n even, p odd", lambda n, p: n % 2 == 0 and p % 2 == 1),
    "odd_n_odd_p_low": ("n, p odd, p ≤ (n+1)/2",
                        lambda n, p: n % 2 == p % 2 == 1 and 2 * p <= n + 1),
    "odd_n_even_p_high": ("n odd, p even, (n+1)/2 < p < n",
                          lambda n, p: n % 2 == 1 and p % 2 == 0 and n + 1 < 2 * p < 2 * n),
    "even_n_even_p_high": ("n, p even, (n+1)/2 < p < n",
                           lambda n, p: n % 2 == p % 2 == 0 and n + 1 < 2 * p < 2 * n),
    "odd_n_odd_p_high": ("n, p odd, (n+1)/2 < p < n",
                         lambda n, p: n % 2 == p % 2 == 1 and n + 1 < 2 * p < 2 * n),
}


def ncycle_cells() -> list[list[str]]:
    """The section's table cells: each case's condition, its number of
    pairs, its smallest pair and that pair's value with the argv that
    prints it (the row with that p)."""
    rows = []
    for case, (condition, _) in NCYCLE_CASES.items():
        pairs = [(n, p) for n, p in NCYCLE_PAIRS if table_ncycle_case(n, p)[0] == case]
        n, p = pairs[0]
        rows.append([f"`{case}`", condition, str(len(pairs)), f"({n}, {p})",
                     f"{table_ncycle_case(n, p)[1]} `symwalk table --n {n}`"])
    return rows


def ncycle_mismatches(text: str) -> list[str]:
    """Every printed row that the library does not reproduce."""
    table, want = _table(text, NCYCLE), ncycle_cells()
    bad = [" | ".join(row) for row, cells in zip(table, want) if row != cells]
    return bad + ([] if len(table) == len(want) else [f"{len(table)} rows"])


def test_every_nonuniform_row_recomputes():
    assert nonuniform_mismatches(RESULTS.read_text()) == []


def test_one_changed_digit_fails_the_check():
    text = RESULTS.read_text()
    cell = "0.6518 `symwalk limit --n 14"
    assert text.count(cell) == 1
    changed = text.replace(cell, "0.6519 `symwalk limit --n 14")
    assert nonuniform_mismatches(changed) == [
        "0.6519 `symwalk limit --n 14 --generator 2,1,1,1,1,1,1,1,1,1,1,1,1`"]


def test_every_blind_row_recomputes():
    assert blind_mismatches(RESULTS.read_text()) == []


def test_one_changed_digit_fails_the_blind_check():
    text = RESULTS.read_text()
    cell = "0.0002 of 0.9982 `symwalk limit --n 14 --generator 14`"
    assert text.count(cell) == 1
    changed = text.replace(cell, "0.0002 of 0.9983 `symwalk limit --n 14 --generator 14`")
    assert blind_mismatches(changed) == [
        "0.0002 of 0.9983 `symwalk limit --n 14 --generator 14`"]


def test_every_dark_share_row_recomputes():
    assert dark_mismatches(RESULTS.read_text()) == []


def test_one_changed_digit_fails_the_dark_share_check():
    text = RESULTS.read_text()
    cell = "0.7436 `symwalk limit --n 8 --generator 8`"
    assert text.count(cell) == 1
    changed = text.replace(cell, "0.7437 `symwalk limit --n 8 --generator 8`")
    assert dark_mismatches(changed) == ["0.7437 `symwalk limit --n 8 --generator 8`"]


def test_every_ncycle_row_recomputes():
    assert ncycle_mismatches(RESULTS.read_text()) == []


def test_each_ncycle_case_is_its_condition_and_equals_the_grouping_engine():
    # For all 91 pairs: exactly one printed condition holds, the one of
    # the case the closed form takes, and the closed form equals the
    # per-element limit of class (n) from the identity.
    for n, p in NCYCLE_PAIRS:
        case, value = table_ncycle_case(n, p)
        assert [name for name, (_, holds) in NCYCLE_CASES.items() if holds(n, p)] == [case]
        spec, ncycle = spectrum(ClassFunction.indicator(hook(n, p))), Partition((n,))
        limit = limiting_class_distribution(spec, identity_partition(n))[ncycle]
        assert limit / spec.class_sizes[ncycle] == value, (n, p)


def test_one_changed_value_fails_the_ncycle_check():
    text = RESULTS.read_text()
    cell = "13/129600 `symwalk table --n 6`"
    assert text.count(cell) == 1
    changed = text.replace(cell, "13/129601 `symwalk table --n 6`")
    assert ncycle_mismatches(changed) == [
        "`even_n_even_p_high` | n, p even, (n+1)/2 < p < n | 9 | (6, 4) "
        "| 13/129601 `symwalk table --n 6`"]


if __name__ == "__main__":
    print("\n".join(limit_rows(_tv, "")))
    print()
    print("\n".join(limit_rows(_far_mass, " of ")))
    print()
    print("\n".join(limit_rows(_dark_share, "")))
    print()
    print("\n".join("| " + " | ".join(cells) + " |" for cells in ncycle_cells()))
