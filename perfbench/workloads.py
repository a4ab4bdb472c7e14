"""The benchmark's workloads: seeded argv lists for the ``symwalk`` CLI.

The seed only generates argv, and it varies only inputs that leave the
cost unchanged: the quantum sweep's time offset, the classical sweep's
start class (drawn from classes of equal phase-term count), and which
p-cycle generators the exact limits use (each pays the same full n = 14
table).  Each ``Invocation`` carries the check its output must pass.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import checkers

WALK_N = 14
SWEEP_STEPS = 64
EXACT_N = 14
LIMIT_QUERIES = 4
TABLE_N = 18
ORACLE_N = 6

# Start classes of S_14 whose classical sweeps do equal work: the engine
# evaluates one exponential per nonzero (class, eigenvalue group)
# coefficient, and for these starts that count lies within 2% (5966 to
# 6078 per time point), against 2326 to 7702 over all 135 classes.
CLASSICAL_STARTS = (
    (3, 3, 3, 3, 2), (3, 3, 3, 3, 1, 1), (6, 2, 2, 1, 1, 1, 1),
    (7, 2, 1, 1, 1, 1, 1), (7, 3, 2, 2), (7, 2, 2, 1, 1, 1),
    (6, 2, 1, 1, 1, 1, 1, 1), (6, 2, 2, 2, 2), (4, 4, 2, 2, 1, 1),
    (4, 3, 3, 2, 2), (8, 1, 1, 1, 1, 1, 1),
)


@dataclass
class Invocation:
    """One CLI call: argv after ``symwalk``, extra environment, and the
    check of its stdout (which may read and write the round's memo)."""

    argv: tuple[str, ...]
    check: Callable[[str, dict], float]
    env: tuple[tuple[str, str], ...] = ()


def quantum_sweep(n: int, lo: float, steps: int) -> Invocation:
    """Transposition walk from the identity over one period from ``lo``."""
    lo_text, hi_text = f"{lo:.6f}", f"{lo + 2 * math.pi:.6f}"
    argv = ("distribution", "--n", str(n), "--generator", checkers.part_str(checkers.hook(n, 2)),
            "--t-grid", f"{lo_text},{hi_text},{steps}")
    lo, hi = float(lo_text), float(hi_text)
    return Invocation(argv, lambda out, memo: checkers.check_sweep(
        out, n, lo, hi, steps, classical=False, start=(1,) * n))


def classical_sweep(n: int, start: tuple[int, ...], steps: int) -> Invocation:
    """Classical transposition walk from ``start`` over [0, 2*pi]."""
    argv = ("distribution", "--n", str(n), "--generator", checkers.part_str(checkers.hook(n, 2)),
            "--t-grid", str(steps), "--classical", "--start", checkers.part_str(start))
    return Invocation(argv, lambda out, memo: checkers.check_sweep(
        out, n, 0.0, 2 * math.pi, steps, classical=True, start=start))


def limit_query(n: int, p: int) -> Invocation:
    argv = ("limit", "--n", str(n), "--generator", checkers.part_str(checkers.hook(n, p)))
    return Invocation(argv, lambda out, memo: checkers.check_limit(out, n, p, memo))


def table_query(n: int) -> Invocation:
    return Invocation(("table", "--n", str(n)),
                      lambda out, memo: checkers.check_table(out, n, memo))


def characters_query(n: int) -> Invocation:
    return Invocation(("characters", "--n", str(n), "--format", "csv"),
                      lambda out, memo: checkers.check_characters(out, n),
                      env=(("SYMWALK_MAX_N", str(n)),))


def verify_query(n: int) -> Invocation:
    return Invocation(("verify", "--n", str(n)), lambda out, memo: checkers.check_verify(out, n))


def walk_sweep(seed: int) -> list[Invocation]:
    """The spectral engine per time point: ~30 ms per point at n = 14."""
    rng = random.Random(seed)
    offset = rng.uniform(0, 2 * math.pi)
    start = rng.choice(CLASSICAL_STARTS)
    return [quantum_sweep(WALK_N, offset, SWEEP_STEPS),
            classical_sweep(WALK_N, start, SWEEP_STEPS)]


def exact_queries(seed: int) -> list[Invocation]:
    """Short exact calls dominated by fixed per-invocation cost, then one
    large MN table.  The limits precede the table so it can be compared
    with them."""
    rng = random.Random(seed)
    ps = sorted(rng.sample(range(2, EXACT_N + 1), LIMIT_QUERIES))
    return ([limit_query(EXACT_N, p) for p in ps]
            + [table_query(EXACT_N), characters_query(TABLE_N)])


def oracle_verify(seed: int) -> list[Invocation]:
    """The dense oracle battery; its input is fixed, so the seed is only recorded."""
    return [verify_query(ORACLE_N)]


WORKLOADS = {
    "walk-sweep": walk_sweep,
    "exact-queries": exact_queries,
    "oracle-verify": oracle_verify,
}
