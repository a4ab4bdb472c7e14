"""Every table row of RESULTS.md, recomputed through the library.

Each value in a table is printed with the ``symwalk`` argv that makes
it; the test recomputes every row through the library and compares the
printed text.  ``python tests/test_results.py`` prints the tables.
"""

import re
from pathlib import Path

from symwalk.limiting import limiting_class_distribution, table_ncycle_case, tv_distance
from symwalk.partitions import Partition, hook, identity_partition
from symwalk.walk_spectrum import ClassFunction, spectrum

RESULTS = Path(__file__).resolve().parent.parent / "RESULTS.md"

NONUNIFORM = "## Non-uniform limiting distributions"
NONUNIFORM_NS = range(4, 15)
# One cell: the TV from uniform, then the argv whose ``tv`` field holds it.
CELL = re.compile(r"^(\d\.\d{4}) `symwalk limit --n (\d+) --generator ([\d,]+)`$")


def _columns(n: int) -> list[tuple[Partition, str]]:
    """Each column's generator and the support its TV is taken against:
    transpositions on S_n, 3-cycles on A_n, the n-cycle on A_n when it is
    even (odd n) and on S_n otherwise."""
    ncycle = "alternating_group" if n % 2 else "symmetric_group"
    return [(hook(n, 2), "symmetric_group"), (hook(n, 3), "alternating_group"),
            (hook(n, n), ncycle)]


def _tv(gamma: Partition, support: str) -> str:
    spec = spectrum(ClassFunction.indicator(gamma))
    limit = limiting_class_distribution(spec, identity_partition(gamma.n))
    return f"{float(tv_distance(limit, support)):.4f}"


def nonuniform_rows() -> list[str]:
    """The section's table rows, as RESULTS.md prints them."""
    rows = []
    for n in NONUNIFORM_NS:
        cells = [f"{_tv(gamma, support)} `symwalk limit --n {n} --generator {gamma}`"
                 for gamma, support in _columns(n)]
        rows.append(f"| {n} | " + " | ".join(cells) + " |")
    return rows


def _table(text: str, heading: str) -> list[list[str]]:
    """The cells of the first table under ``heading``, header rows left out."""
    section = text[text.index(heading + "\n"):].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]


def nonuniform_mismatches(text: str) -> list[str]:
    """Every printed cell that the library does not reproduce."""
    table = _table(text, NONUNIFORM)
    bad = [] if [row[0] for row in table] == [str(n) for n in NONUNIFORM_NS] else ["row labels"]
    for row in table:
        n = int(row[0])
        if len(row) != 4:
            bad.append(f"row {n} has {len(row)} cells")
            continue
        for cell, (gamma, support) in zip(row[1:], _columns(n)):
            match = CELL.match(cell)
            if (not match or int(match[2]) != n or Partition.parse(match[3]) != gamma
                    or match[1] != _tv(gamma, support)):
                bad.append(cell)
    return bad


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
    print("\n".join(nonuniform_rows()))
    print()
    print("\n".join("| " + " | ".join(cells) + " |" for cells in ncycle_cells()))
