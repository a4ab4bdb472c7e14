import math
from fractions import Fraction
from math import comb, factorial

import pytest

from symwalk.characters import character_table
from symwalk.cli import main
from symwalk.errors import ConsistencyError, DomainError, SupportMismatchError
from symwalk.limiting import (
    eigenvalue_groups,
    limiting_class_distribution,
    table_ncycle_case,
    time_averaged_distribution,
    tv_distance,
)
from symwalk.oracle import build_cayley, limiting_distribution
from symwalk.partitions import (
    Partition,
    class_size,
    enumerate_partitions,
    hook,
    identity_partition,
    is_even_class,
)
from symwalk.verify import generator_classes
from symwalk.walk_spectrum import ClassFunction, WalkKernel, spectrum

from conftest import numpy_kernel_reference, transpositions


def hook_ratio(n, k, gamma_spec):
    rec = next(r for r in gamma_spec.records if r.rep == hook(n, k))
    return rec.eigenvalue


def test_groups_s3_transpositions_all_distinct():
    spec = spectrum(transpositions(3))
    groups = eigenvalue_groups(spec)
    assert sorted(len(g) for g in groups.groups) == [1, 1, 1]


def test_groups_zero_function_single_group():
    spec = spectrum(ClassFunction(4, {}))
    groups = eigenvalue_groups(spec)
    assert len(groups.groups) == 1
    assert len(groups.groups[0]) == len(enumerate_partitions(4))


def test_groups_cover_and_are_disjoint():
    for gamma in generator_classes(5):
        spec = spectrum(ClassFunction.indicator(gamma))
        groups = eigenvalue_groups(spec)
        eigenvalue = {r.rep: r.eigenvalue for r in spec.records}
        seen = [nu for g in groups.groups for nu in g]
        assert sorted(p.parts for p in seen) == sorted(p.parts for p in enumerate_partitions(5))
        assert len(seen) == len(set(seen))
        for g in groups.groups:
            evs = {eigenvalue[nu] for nu in g}
            assert len(evs) == 1


def test_hook_collisions_n5_p3():
    # odd n, odd p <= (n+1)/2: hooks k and n-k+1 collide, nothing else
    spec = spectrum(ClassFunction.indicator(hook(5, 3)))
    groups = eigenvalue_groups(spec)
    for k in range(1, 6):
        partner = 5 - k + 1
        g = next(g for g in groups.groups if hook(5, k) in g)
        assert hook(5, partner) in g
    hook_values = {k: hook_ratio(5, k, spec) for k in range(1, 6)}
    for k in range(1, 6):
        for kp in range(1, 6):
            same = hook_values[k] == hook_values[kp]
            assert same == (k == kp or k == 5 - kp + 1)


def test_limiting_s3_transpositions():
    spec = spectrum(transpositions(3))
    exact = limiting_class_distribution(spec, identity_partition(3))
    assert exact[Partition((3,))] / 2 == Fraction(comb(4, 2), 36)
    assert exact[Partition((3,))] / 2 == Fraction(1, 6)
    assert sum(exact.values()) == 1


def test_limiting_s3_full_cycle_generator():
    spec = spectrum(ClassFunction.indicator(Partition((3,))))
    exact = limiting_class_distribution(spec, identity_partition(3))
    assert exact[Partition((3,))] / 2 == Fraction(2, 9)


@pytest.mark.parametrize("n", range(2, 9))
def test_limiting_totals_exact(n):
    for gamma in generator_classes(n):
        spec = spectrum(ClassFunction.indicator(gamma))
        exact = limiting_class_distribution(spec, identity_partition(n))
        assert sum(exact.values()) == 1
        for lam, p in exact.items():
            assert 0 <= p <= 1


def test_limit_that_does_not_sum_to_one_is_a_consistency_error(monkeypatch, capsys):
    # One extra unit on the 4-cycle class (6 elements) adds 6/24^2 = 1/96.
    sums = WalkKernel.limiting_sums

    def bumped(self):
        first, *rest = sums(self)
        return [first + 1, *rest]

    monkeypatch.setattr(WalkKernel, "limiting_sums", bumped)
    with pytest.raises(ConsistencyError, match="^limiting distribution sums to 97/96, not 1$"):
        limiting_class_distribution(spectrum(transpositions(4)), identity_partition(4))
    assert main(["limit", "--n", "4", "--generator", "2,1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == '{"error": "limiting distribution sums to 97/96, not 1", "code": 2}\n'


def test_limiting_from_non_identity_start():
    spec = spectrum(transpositions(4))
    exact = limiting_class_distribution(spec, Partition((2, 2)))
    assert sum(exact.values()) == 1


def test_table_p2_and_zero_rows():
    for n in range(2, 11):
        assert table_ncycle_case(n, 2)[1] == Fraction(
            comb(2 * n - 2, n - 1), factorial(n) ** 2
        )
    for n in (4, 6, 8, 10):
        for p in range(3, n, 2):
            row, value = table_ncycle_case(n, p)
            assert row == "even_n_odd_p"
            assert value == 0


def test_table_example_n9_p6():
    row, value = table_ncycle_case(9, 6)
    assert row == "odd_n_even_p_high"
    want = Fraction(
        2 * sum(comb(8, k - 1) ** 2 for k in range(1, 4)) + 4 * comb(7, 5) ** 2,
        factorial(9) ** 2,
    )
    assert value == want
    assert value == Fraction(3462, factorial(9) ** 2)


def test_table_domain():
    with pytest.raises(DomainError):
        table_ncycle_case(6, 1)
    with pytest.raises(DomainError):
        table_ncycle_case(6, 7)


@pytest.mark.parametrize("n", range(2, 11))
def test_table_certified_against_grouping_engine(n):
    ident = identity_partition(n)
    ncycle = Partition((n,))
    for p in range(2, n + 1):
        spec = spectrum(ClassFunction.indicator(hook(n, p)))
        exact = limiting_class_distribution(spec, ident)
        assert table_ncycle_case(n, p)[1] == exact[ncycle] / class_size(ncycle), (n, p)


@pytest.mark.parametrize("n", range(2, 11))
def test_transposition_value_shared_by_low_even_p(n):
    want = Fraction(comb(2 * n - 2, n - 1), factorial(n) ** 2)
    assert table_ncycle_case(n, 2)[1] == want
    if n % 2 == 0:
        assert table_ncycle_case(n, n)[1] == want


@pytest.mark.parametrize("n", range(4, 11))
def test_hook_ratio_monotonicity_claims(n):
    # p even, 2 <= p <= ceil(n/2): the hook eigenvalue map is injective
    for p in range(2, (n + 1) // 2 + 1, 2):
        spec = spectrum(ClassFunction.indicator(hook(n, p)))
        values = [hook_ratio(n, k, spec) for k in range(1, n + 1)]
        assert len(set(values)) == n
    # p odd, n odd, p <= (n+1)/2: f(k) = f(n-k+1) and nothing else
    if n % 2 == 1:
        for p in range(3, (n + 1) // 2 + 1, 2):
            spec = spectrum(ClassFunction.indicator(hook(n, p)))
            values = {k: hook_ratio(n, k, spec) for k in range(1, n + 1)}
            for k in range(1, n + 1):
                for kp in range(1, n + 1):
                    same = values[k] == values[kp]
                    assert same == (k == kp or k == n - kp + 1), (n, p, k, kp)


def test_tv_uniform_is_zero():
    # the classical stationary distribution, as exact rationals
    n = 4
    probs = {lam: Fraction(class_size(lam), factorial(n)) for lam in enumerate_partitions(n)}
    assert tv_distance(probs, "symmetric_group") == 0


@pytest.mark.parametrize("n", [0, 1, 2])
def test_tv_of_the_identity_point_mass(n):
    # A_n = S_n for n <= 1, so both supports see the identity as uniform.
    ident = identity_partition(n)
    dist = limiting_class_distribution(spectrum(ClassFunction(n, {})), ident)
    want = 0 if n < 2 else Fraction(1, 2)
    assert tv_distance(dist, "symmetric_group") == want
    assert tv_distance(dist, "alternating_group") == 0


def test_tv_bound_n7_transpositions():
    spec = spectrum(transpositions(7))
    exact = limiting_class_distribution(spec, identity_partition(7))
    tv = tv_distance(exact, "symmetric_group")
    assert tv >= Fraction(1, 7) - Fraction(4096, 7 * factorial(7)) > 0
    assert tv >= Fraction(1, 7) - Fraction(comb(12, 6), 7 * factorial(7))


def test_tv_alternating_bound_n5_p3():
    spec = spectrum(ClassFunction.indicator(Partition((3, 1, 1))))
    exact = limiting_class_distribution(spec, identity_partition(5))
    tv = tv_distance(exact, "alternating_group")
    bound = (
        Fraction(2, 5)
        - Fraction(2 * comb(8, 4), 5 * factorial(5))
        + Fraction(comb(4, 2) ** 2, 5 * factorial(5))
    )
    assert tv >= bound


def test_tv_support_mismatch():
    spec = spectrum(transpositions(4))
    exact = limiting_class_distribution(spec, identity_partition(4))
    with pytest.raises(SupportMismatchError):
        tv_distance(exact, "alternating_group")


def test_time_average_converges_to_exact():
    spec = spectrum(transpositions(4))
    ident = identity_partition(4)
    exact = limiting_class_distribution(spec, ident)
    avg = time_averaged_distribution(spec, ident, 2 * math.pi, 4096)
    for lam, p in exact.items():
        assert abs(avg[lam] - float(p)) < 1e-4


@pytest.mark.parametrize("n", range(2, 7))
def test_time_average_matches_the_numpy_reference(n):
    horizon, samples = 2 * math.pi, 64
    for gamma in generator_classes(n):
        spec = spectrum(ClassFunction.indicator(gamma))
        for mu in spec.classes:
            avg = time_averaged_distribution(spec, mu, horizon, samples)
            acc = sum(numpy_kernel_reference(spec.kernel(mu), (j + 0.5) * horizon / samples)[1]
                      for j in range(samples))
            assert max(map(abs, list(avg.values()) - acc / samples)) <= 1e-15


def test_time_average_short_horizon_is_start():
    spec = spectrum(transpositions(4))
    ident = identity_partition(4)
    avg = time_averaged_distribution(spec, ident, 1e-9, 1)
    assert abs(avg[ident] - 1) < 1e-12


def test_time_average_periodicity():
    spec = spectrum(transpositions(5))
    ident = identity_partition(5)
    a = time_averaged_distribution(spec, ident, 2 * math.pi, 512)
    b = time_averaged_distribution(spec, ident, 20 * math.pi, 5120)
    for lam in a:
        assert abs(a[lam] - b[lam]) < 1e-6


@pytest.mark.parametrize("n", (3, 4, 5))
def test_limiting_matches_oracle_cesaro(n):
    # From every start class; the worst error over n <= 5 is 1.0e-15.
    for gamma in generator_classes(n):
        walk = build_cayley(n, gamma)
        spec = spectrum(ClassFunction.indicator(gamma))
        for start in enumerate_partitions(n):
            dense = limiting_distribution(walk, start)
            for lam, p in limiting_class_distribution(spec, start).items():
                assert abs(float(p) - dense[lam]) < 1e-14, (gamma, start, lam)


def test_kernel_limit_matches_per_pair_grouping_n14():
    n = 14
    spec = spectrum(transpositions(n))
    mu = identity_partition(n)
    exact = limiting_class_distribution(spec, mu)
    column = dict(zip(spec.classes, character_table(n)))
    nfact = factorial(n)
    for lam in spec.classes:
        coeff = {}
        for rec, x, y in zip(spec.records, column[lam], column[mu]):
            coeff[rec.eigenvalue] = coeff.get(rec.eigenvalue, 0) + x * y
        want = Fraction(class_size(lam) * class_size(mu) * sum(c * c for c in coeff.values()),
                        nfact**2)
        assert exact[lam] == want

