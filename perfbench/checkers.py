"""Independent references and output checks for every benchmark invocation.

Nothing here imports symwalk.  The references are closed forms written
for the benchmark (hook-length dimensions, Ingram's transposition
values, hook characters at cycles, centralizer orders, the sine law of
the transposition walk), so a defect in the program's Murnaghan-Nakayama
recursion or phase sums cannot certify itself.

Each ``check_*`` function parses one invocation's stdout, raises
``CheckFailed`` (or a parsing error) when anything is wrong, and returns
the largest floating-point error it saw, as a diagnostic.
"""

from __future__ import annotations

import csv
import io
import json
import math
from decimal import Decimal
from fractions import Fraction
from functools import cache
from math import comb, factorial


class CheckFailed(Exception):
    """An invocation's output disagrees with its reference."""


# Errors that malformed output raises while it is parsed; each counts as a
# failed invocation, never as a skip.
MALFORMED = (CheckFailed, ValueError, KeyError, TypeError, IndexError, ArithmeticError)

SUM_TOL = 1e-9        # probabilities of one time point sum to 1
SINE_TOL = 1e-10      # n-cycle probability against the sine closed form
CLASSICAL_TOL = 1e-9  # classical walk at t = 0 and after one period
ORACLE_TOL = 1e-9     # largest error a passing verify check may report

VERIFY_CHECKS = frozenset({
    "quantum_vs_oracle", "classical_vs_oracle", "transposition_closed_form",
    "hook_ncycle_characters", "hook_pcycle_characters", "orthogonality",
    "eigenvalue_integrality", "dimension_agreement", "sine_closed_form",
    "limiting_table", "limiting_vs_oracle",
})


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------- references

@cache
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of n, lexicographically descending (the CLI's order)."""
    out = []

    def gen(remaining: int, largest: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, largest), 0, -1):
            gen(remaining - part, part, prefix + (part,))

    gen(n, n, ())
    return tuple(out)


def part_str(parts: tuple[int, ...]) -> str:
    return ",".join(map(str, parts))


def hook(n: int, k: int) -> tuple[int, ...]:
    """(k, 1, ..., 1): a hook shape, and for k = p the p-cycle class."""
    return (k,) + (1,) * (n - k)


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0))


def centralizer(parts: tuple[int, ...]) -> int:
    """z_lambda = prod_k k^{m_k} m_k!."""
    z = 1
    for k in set(parts):
        m = parts.count(k)
        z *= k ** m * factorial(m)
    return z


def class_size(parts: tuple[int, ...]) -> int:
    return factorial(sum(parts)) // centralizer(parts)


def hook_dimension(parts: tuple[int, ...]) -> int:
    """Irrep dimension by the hook-length formula."""
    conj = conjugate(parts)
    hooks = 1
    for i, row in enumerate(parts):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return factorial(sum(parts)) // hooks


def transposition_character(parts: tuple[int, ...]) -> int:
    """Ingram: dim * (sum C(nu_j, 2) - sum C(nu'_j, 2)) / C(n, 2)."""
    n = sum(parts)
    diff = sum(comb(p, 2) for p in parts) - sum(comb(p, 2) for p in conjugate(parts))
    value = Fraction(hook_dimension(parts) * diff, comb(n, 2))
    if value.denominator != 1:
        raise ArithmeticError(f"Ingram value for {parts} is not integral")
    return int(value)


def _binom(a: int, b: int) -> int:
    return comb(a, b) if 0 <= b <= a else 0


def hook_cycle_character(n: int, k: int, p: int) -> int:
    """Character of the hook (k, 1^{n-k}) at the p-cycle class.

    A p-strip comes off the end of the arm (height 0) or the foot of the
    leg (height p - 1); for p = n the whole hook goes, with height n - k.
    """
    if p == n:
        return (-1) ** (n - k)
    return _binom(n - p - 1, k - p - 1) + (-1) ** (p - 1) * _binom(n - p - 1, k - 1)


def ncycle_limit(n: int, p: int) -> Fraction:
    """Per-element limiting probability of an n-cycle, p-cycle walk from the identity.

    Only hooks have a nonzero character at the n-cycle, so the limit is
    (1/n!^2) sum over distinct hook eigenvalues E of
    (sum over hooks with eigenvalue E of chi((n)) * dim)^2.
    """
    cp = factorial(n) // (p * factorial(n - p))
    groups: dict[Fraction, int] = {}
    for k in range(1, n + 1):
        dim = comb(n - 1, k - 1)
        eigenvalue = Fraction(cp * hook_cycle_character(n, k, p), dim)
        groups[eigenvalue] = groups.get(eigenvalue, 0) + (-1) ** (n - k) * dim
    return Fraction(sum(s * s for s in groups.values()), factorial(n) ** 2)


def ncycle_sine_probability(n: int, t: float) -> float:
    """|(2i sin(tn/2))^(n-1)|^2 / (n n!): identity to n-cycle, transposition walk."""
    return (2 * abs(math.sin(t * n / 2))) ** (2 * (n - 1)) / (n * factorial(n))


def grid_times(lo: float, hi: float, steps: int) -> list[float]:
    return [lo + (hi - lo) * j / max(steps - 1, 1) for j in range(steps)]


# ------------------------------------------------------------------ checkers

def check_sweep(stdout: str, n: int, lo: float, hi: float, steps: int,
                classical: bool, start: tuple[int, ...]) -> float:
    """A ``distribution --t-grid`` CSV: rows in class order, each time
    point sums to 1, classical values are non-negative; the quantum walk
    from the identity matches the sine law at the n-cycle, the classical
    walk is a point mass on its start class at t = 0 and uniform on S_n
    after one period (spectral gap n)."""
    rows = list(csv.reader(io.StringIO(stdout)))
    expect(rows[:1] == [["t", "class", "probability"]], "bad CSV header")
    classes = [part_str(lam) for lam in partitions(n)]
    times = grid_times(lo, hi, steps)
    expect(len(rows) == 1 + len(times) * len(classes),
           f"{len(rows) - 1} rows, want {len(times) * len(classes)}")
    nfact = factorial(n)
    ncycle = part_str((n,))
    worst = 0.0
    for j, want_t in enumerate(times):
        block = rows[1 + j * len(classes): 1 + (j + 1) * len(classes)]
        probs = {}
        for (t_text, lam, p_text), want_lam in zip(block, classes):
            t, p = float(t_text), float(p_text)
            expect(lam == want_lam, f"class {lam!r} where {want_lam!r} belongs")
            expect(abs(t - want_t) <= 1e-12, f"time {t} where {want_t} belongs")
            expect(math.isfinite(p), f"non-finite probability at t={t}")
            expect(p >= 0 or not classical, f"negative classical probability at t={t}")
            probs[lam] = p
        total = math.fsum(probs.values())
        err = abs(total - 1)
        expect(err <= SUM_TOL, f"probabilities at t={want_t} sum to {total!r}")
        worst = max(worst, err)
        if not classical:
            err = abs(probs[ncycle] - ncycle_sine_probability(n, want_t))
            expect(err <= SINE_TOL, f"n-cycle off the sine law by {err:.3g} at t={want_t}")
            worst = max(worst, err)
        elif want_t == 0:
            for lam, p in probs.items():
                expect(abs(p - (lam == part_str(start))) <= CLASSICAL_TOL,
                       f"classical walk at t=0 is not a point mass on {part_str(start)}")
        elif want_t >= 2 * math.pi:
            for parts in partitions(n):
                err = abs(probs[part_str(parts)] - class_size(parts) / nfact)
                expect(err <= CLASSICAL_TOL, f"classical walk not uniform at t={want_t}")
    return worst


def check_limit(stdout: str, n: int, p: int, memo: dict) -> float:
    """``limit`` from the identity under the p-cycle walk: exact class
    sizes and probabilities summing to exactly 1, the n-cycle entry equal
    to the hook reference, and the exact TV distance from uniform."""
    payload = json.loads(stdout)
    expect(payload["n"] == n, "wrong n")
    classes = payload["classes"]
    expect([tuple(c["partition"]) for c in classes] == list(partitions(n)), "class order")
    nfact = factorial(n)
    total = Fraction(0)
    tv = Fraction(0)
    for c in classes:
        parts = tuple(c["partition"])
        size = class_size(parts)
        exact, per = Fraction(c["exact"]), Fraction(c["per_element_exact"])
        expect(c["class_size"] == str(size), f"class size of {parts}")
        expect(per * size == exact, f"per-element and class probability of {parts} disagree")
        expect(c["probability"] == float(exact), f"float probability of {parts}")
        total += exact
        tv += abs(exact - Fraction(size, nfact))
    expect(total == 1, f"limit probabilities sum to {total}")
    ncycle = Fraction(classes[0]["per_element_exact"])
    expect(ncycle == ncycle_limit(n, p), f"n-cycle limit for p={p} is {ncycle}")
    tv_sn = payload["tv"][0]
    expect(tv_sn["support"] == "symmetric_group" and Fraction(tv_sn["exact"]) == tv / 2,
           "TV distance from uniform on S_n")
    memo.setdefault("ncycle", {})[p] = ncycle
    return 0.0


def check_table(stdout: str, n: int, memo: dict) -> float:
    """``table``: one row per p in 2..n, each equal to the hook reference
    and to the ``limit`` n-cycle entry of the same round, with its
    20-digit decimal consistent with the exact value."""
    lines = stdout.splitlines()
    expect(len(lines) == n - 1, f"{len(lines)} table rows, want {n - 1}")
    for p, line in zip(range(2, n + 1), lines):
        row = json.loads(line)
        expect(row["n"] == n and row["p"] == p, f"row for p={p} out of place")
        exact = Fraction(row["exact"])
        expect(exact == ncycle_limit(n, p), f"table row p={p} is {exact}")
        limit = memo.get("ncycle", {}).get(p)
        expect(limit is None or limit == exact, f"table row p={p} differs from limit")
        expect(abs(Fraction(Decimal(row["decimal"])) - exact) <= exact / 10**19,
               f"decimal of row p={p}")
    return 0.0


def check_characters(stdout: str, n: int) -> float:
    """``characters --format csv``: canonical labels; the identity column
    is the hook-length dimensions with sum of squares n!; the
    transposition column is Ingram's; the n-cycle column is +-1 on hooks
    and 0 elsewhere; the trivial row is all ones; every column has norm
    z_lambda, which catches a wrong magnitude anywhere, and every other row
    is orthogonal to the trivial one, which catches a wrong sign."""
    rows = list(csv.reader(io.StringIO(stdout)))
    parts = partitions(n)
    labels = [part_str(lam) for lam in parts]
    expect(rows[0] == [""] + labels, "class labels")
    expect(len(rows) == 1 + len(parts), f"{len(rows) - 1} rows, want {len(parts)}")
    table = []
    for row, nu in zip(rows[1:], labels):
        expect(row[0] == nu and len(row) == 1 + len(parts), f"row {nu} malformed")
        table.append([int(v) for v in row[1:]])
    dims = [hook_dimension(nu) for nu in parts]
    expect([r[-1] for r in table] == dims, "identity column is not the hook dimensions")
    expect(sum(d * d for d in dims) == factorial(n), "sum of squared dimensions")
    if n >= 2:
        tau = parts.index(hook(n, 2))
        expect([r[tau] for r in table] == [transposition_character(nu) for nu in parts],
               "transposition column differs from Ingram's values")
        hooks = {hook(n, k): k for k in range(1, n + 1)}
        expect([r[0] for r in table] ==
               [(-1) ** (n - hooks[nu]) if nu in hooks else 0 for nu in parts],
               "n-cycle column is not +-1 on hooks and 0 elsewhere")
    expect(table[0] == [1] * len(parts), "trivial character")
    for j, lam in enumerate(parts):
        expect(sum(r[j] * r[j] for r in table) == centralizer(lam), f"norm of column {lam}")
    sizes = [class_size(lam) for lam in parts]
    for i, row in enumerate(table):
        expect(sum(s * v for s, v in zip(sizes, row)) == (factorial(n) if i == 0 else 0),
               f"row {labels[i]} is not orthogonal to the trivial row")
    return 0.0


def check_verify(stdout: str, n: int) -> float:
    """``verify``: every check present and passed, errors within tolerance."""
    payload = json.loads(stdout)
    expect(payload["n"] == n, "wrong n")
    checks = payload["checks"]
    names = {c["name"] for c in checks}
    expect(VERIFY_CHECKS <= names, f"missing checks {sorted(VERIFY_CHECKS - names)}")
    worst = 0.0
    for c in checks:
        expect(c["passed"] is True, f"check {c['name']} failed")
        err = c.get("max_abs_error", 0.0)
        expect(math.isfinite(err) and err <= ORACLE_TOL, f"check {c['name']} error {err}")
        worst = max(worst, err)
    expect(payload["failed"] == 0 and payload["passed"] == len(checks), "pass/fail totals")
    return worst
