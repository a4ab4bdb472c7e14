"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import math
import time
from fractions import Fraction
from math import comb, factorial

import pytest

from symwalk.characters import (
    character,
    character_hook_pcycle,
    character_transposition,
)
from symwalk.limiting import (
    limiting_class_distribution,
    table_ncycle_case,
    tv_distance,
)
from symwalk.oracle import (
    build_cayley,
    class_aggregate,
    class_sums,
    evolve_classical,
    evolve_quantum,
)
from symwalk.partitions import (
    Partition,
    class_size,
    enumerate_partitions,
    hook,
    identity_partition,
)
from symwalk.verify import check_orthogonality_relations, generator_classes
from symwalk.walk_spectrum import (
    ClassFunction,
    class_amplitude,
    class_distribution,
    classical_class_distribution,
    ncycle_amplitude_closed_form,
    spectrum,
)

from conftest import max_ncycle_probability, transpositions


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_oracle_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    times = [2 * math.pi * j / 16 for j in range(16)]
    for n in (3, 4, 5):
        ident = identity_partition(n)
        for gamma in generator_classes(n):
            walk = build_cayley(n, gamma)
            spec = spectrum(ClassFunction.indicator(gamma))
            for t in times:
                dense = class_aggregate(walk, evolve_quantum(walk, ident, t))
                dist = class_distribution(spec, ident, t)
                for lam, p in dist.items():
                    worst = max(worst, abs(p - dense[lam]))
    elapsed = time.monotonic() - t0
    report(
        1,
        worst <= 1e-9 and elapsed < 60,
        f"spectral vs dense e^(itA), n in 3..5, all generators, 16 t: "
        f"max_abs_error={worst:.3e}, runtime={elapsed:.1f}s",
    )


def test_criterion_2_sine_closed_form():
    worst = 0.0
    for n in range(2, 10):
        spec = spectrum(transpositions(n))
        ident = identity_partition(n)
        ncycle = Partition((n,))
        for j in range(64):
            t = 2 * math.pi * j / 64
            gap = abs(
                class_amplitude(spec, ncycle, ident, t)
                - ncycle_amplitude_closed_form(n, t)
            )
            worst = max(worst, gap)
    exact_peak = max_ncycle_probability(3) == Fraction(8, 9)
    spec3 = spectrum(transpositions(3))
    peak = class_distribution(spec3, identity_partition(3), math.pi / 3)
    numeric_peak = abs(peak[Partition((3,))] - 8 / 9) <= 1e-12
    report(
        2,
        worst <= 1e-10 and exact_peak and numeric_peak,
        f"closed form vs spectral sum, n in 2..9, 64 t: max_abs_error={worst:.3e}; "
        f"n=3 peak 8/9 exact={exact_peak}",
    )


def test_criterion_3_maximum_probability_scan():
    grid = 4096
    ok = True
    details = []
    for n in range(3, 10):
        target = float(max_ncycle_probability(n))
        values = [
            abs(ncycle_amplitude_closed_form(n, 2 * math.pi * j / grid)) ** 2
            for j in range(grid)
        ]
        best = max(values)
        argmax = 2 * math.pi * values.index(best) / grid
        # The squared closed form has period 2*pi/n, so compare the argmax
        # inside its fundamental period against the canonical maximizer pi/n.
        folded = math.fmod(argmax, 2 * math.pi / n)
        arg_ok = abs(folded - math.pi / n) <= 2 * math.pi / grid + 1e-12
        val_ok = abs(best - target) <= 1e-9
        ok = ok and arg_ok and val_ok
        details.append(f"n={n}: gap={abs(best - target):.2e}")
    report(3, ok, "scan of |closed form|^2 attains 2^(2n-2)/(n*n!): " + ", ".join(details))


def test_criterion_4_eigenvalue_integrality():
    checked = 0
    for n in range(2, 11):
        for gamma in generator_classes(n):
            spec = spectrum(ClassFunction.indicator(gamma))
            for rec in spec.records:
                assert rec.eigenvalue.denominator == 1, (n, gamma, rec.rep)
                checked += 1
    report(4, True, f"all {checked} eigenvalues exact integers for n <= 10")


def test_criterion_5_table_certification():
    checked = 0
    for n in range(5, 11):
        ident = identity_partition(n)
        ncycle = Partition((n,))
        for p in range(2, n + 1):
            spec = spectrum(ClassFunction.indicator(hook(n, p)))
            engine = limiting_class_distribution(spec, ident)[ncycle] / class_size(ncycle)
            table = table_ncycle_case(n, p)[1]
            assert table == engine, f"n={n}, p={p}: table {table} != engine {engine}"
            checked += 1
    report(5, True, f"all {checked} (n,p) table rows equal the grouping engine exactly")


def test_criterion_6_transposition_limiting_value():
    cases = []
    for n in range(2, 11):
        cases.append((n, 2))
        if n % 2 == 0 and n > 2:
            cases.append((n, n))
    for n, p in cases:
        ident = identity_partition(n)
        spec = spectrum(ClassFunction.indicator(hook(n, p)))
        ncycle = Partition((n,))
        got = limiting_class_distribution(spec, ident)[ncycle] / class_size(ncycle)
        want = Fraction(comb(2 * n - 2, n - 1), factorial(n) ** 2)
        assert got == want, (n, p)
    report(6, True, f"per-element n-cycle value C(2n-2,n-1)/(n!)^2 exact for {cases}")


def test_criterion_7_character_identities():
    for n in range(2, 11):
        tau = hook(n, 2)
        ncycle = Partition((n,))
        hooks = {hook(n, k): k for k in range(1, n + 1)}
        for nu in enumerate_partitions(n):
            assert character_transposition(nu) == character(nu, tau), (n, nu)
            got = character(nu, ncycle)
            want = (-1) ** (n - hooks[nu]) if nu in hooks else 0
            assert got == want, (n, nu)
        for p in range(1, n):
            pclass = hook(n, p)
            for k in range(1, n + 1):
                assert character_hook_pcycle(k, p, n) == character(hook(n, k), pclass)
        assert check_orthogonality_relations(n).passed
    report(7, True, "closed forms match recursion and column orthogonality holds, n <= 10")


def test_criterion_8_tv_bounds():
    details = []
    for n in range(2, 10):
        ident = identity_partition(n)
        spec = spectrum(transpositions(n))
        tv = tv_distance(limiting_class_distribution(spec, ident), "symmetric_group")
        bound = Fraction(1, n) - Fraction(comb(2 * n - 2, n - 1), n * factorial(n))
        assert tv >= bound, (n, tv, bound)
        details.append(f"n={n} tv={tv}")
    for n in (3, 5, 7, 9):
        ident = identity_partition(n)
        for p in range(3, n + 1, 2):
            spec = spectrum(ClassFunction.indicator(hook(n, p)))
            tv = tv_distance(limiting_class_distribution(spec, ident), "alternating_group")
            bound = (
                Fraction(2, n)
                - Fraction(2 * comb(2 * n - 2, n - 1), n * factorial(n))
                + Fraction(comb(n - 1, (n - 1) // 2) ** 2, n * factorial(n))
            )
            assert tv >= bound, (n, p, tv, bound)
    # the pointwise bound 1/n - 2^(2n-2)/(n*n!) first becomes positive at n=7
    signs = [Fraction(1, n) - Fraction(2 ** (2 * n - 2), n * factorial(n)) for n in range(2, 8)]
    first_positive = all(s <= 0 for s in signs[:-1]) and signs[-1] > 0
    assert first_positive
    report(8, True, "exact TV >= both n-cycle bounds (n <= 9); pointwise bound first > 0 at n=7")


def test_criterion_9_classical_sanity():
    ident = identity_partition(4)
    spec = spectrum(transpositions(4))
    dist = classical_class_distribution(spec, ident, 50.0)
    uniform_gap = max(abs(p / class_size(lam) - 1 / 24) for lam, p in dist.items())
    walk = build_cayley(4, Partition((2, 1, 1)))
    worst = 0.0
    for t in (0.1, 0.5, 2.0):
        dense = class_sums(walk, evolve_classical(walk, ident, t))
        engine = classical_class_distribution(spec, ident, t)
        for lam, p in engine.items():
            worst = max(worst, abs(p - dense[lam]))
    report(
        9,
        uniform_gap <= 1e-8 and worst <= 1e-9,
        f"uniform limit gap={uniform_gap:.2e}, dense e^(-tL) gap={worst:.2e}",
    )


def test_criterion_10_tv_reported_not_matched():
    # No published value exists for the full TV distance; report it exactly
    # and assert only the criterion-8 inequality.
    lines = []
    for n in range(2, 10):
        ident = identity_partition(n)
        spec = spectrum(transpositions(n))
        tv = tv_distance(limiting_class_distribution(spec, ident), "symmetric_group")
        bound = Fraction(1, n) - Fraction(comb(2 * n - 2, n - 1), n * factorial(n))
        assert tv >= bound
        lines.append(f"n={n}: exact TV = {tv} (~{float(tv):.6f})")
    report(10, True, "exact TV reported for n <= 9: " + "; ".join(lines))
