"""Every table row of RESULTS.md, recomputed through the library.

Each cell of a table prints a value and the ``symwalk`` argv that makes
it; the test parses the argv, recomputes the value and compares the
printed text.  ``python tests/test_results.py`` prints the tables.
"""

import re
from pathlib import Path

from symwalk.limiting import limiting_class_distribution, tv_distance
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


def test_every_nonuniform_row_recomputes():
    assert nonuniform_mismatches(RESULTS.read_text()) == []


def test_one_changed_digit_fails_the_check():
    text = RESULTS.read_text()
    cell = "0.6518 `symwalk limit --n 14"
    assert text.count(cell) == 1
    changed = text.replace(cell, "0.6519 `symwalk limit --n 14")
    assert nonuniform_mismatches(changed) == [
        "0.6519 `symwalk limit --n 14 --generator 2,1,1,1,1,1,1,1,1,1,1,1,1`"]


if __name__ == "__main__":
    print("\n".join(nonuniform_rows()))
