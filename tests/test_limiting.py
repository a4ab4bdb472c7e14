import math
from fractions import Fraction
from itertools import combinations
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

from conftest import kernel_matrix, transpositions


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


def _period_gap(spec, mu, limit):
    """Largest gap between the closed-form average over [0, 2*pi], one full
    period of an integer spectrum, and the exact limit ``limit``."""
    avg = time_averaged_distribution(spec, mu, 2 * math.pi)
    return max(abs(avg[lam] - float(p)) for lam, p in limit.items())


def test_time_average_converges_to_exact():
    # Every generator class at n <= 8 and every set of classes at n <= 5,
    # from the identity and from the n-cycle class; the worst gap is 1.1e-16.
    walks = [ClassFunction.indicator(gamma) for n in range(2, 9) for gamma in generator_classes(n)]
    for n in (3, 4, 5):
        classes = generator_classes(n)
        walks += [ClassFunction(n, dict.fromkeys(gens, 1))
                  for size in range(2, len(classes) + 1) for gens in combinations(classes, size)]
    for f in walks:
        spec = spectrum(f)
        for mu in (identity_partition(f.n), Partition((f.n,))):
            assert _period_gap(spec, mu, limiting_class_distribution(spec, mu)) <= 1e-15, (f, mu)


def test_time_average_over_half_a_period_is_the_limit():
    # P(t) = P(2*pi/g - t), so the average over [0, pi/g] is the limit.  Every
    # generator class at n = 3..8 with g > 1, from the identity and from the
    # n-cycle class; the worst gap is 2.2e-16.
    specs = [spectrum(ClassFunction.indicator(gamma))
             for n in range(3, 9) for gamma in generator_classes(n)]
    specs = [spec for spec in specs if spec.period < 2 * math.pi]
    assert len(specs) == 37
    for spec in specs:
        for mu in (identity_partition(spec.n), Partition((spec.n,))):
            avg = time_averaged_distribution(spec, mu, spec.period / 2)
            limit = limiting_class_distribution(spec, mu)
            assert max(abs(avg[lam] - float(p)) for lam, p in limit.items()) <= 1e-15, (spec.f, mu)


def test_the_start_is_the_likeliest_vertex():
    # Godsil's average mixing matrix sum_E P_E o P_E is positive
    # semidefinite, so on a vertex-transitive graph P(g -> g) >= P(g -> h).
    # From the identity, the identity's per-element limit is strictly
    # larger than every other class's, for every single-class generator.
    gammas = [gamma for n in range(3, 10) for gamma in generator_classes(n)]
    assert len(gammas) == 86
    for gamma in gammas:
        spec, ident = spectrum(ClassFunction.indicator(gamma)), identity_partition(gamma.n)
        per_element = {lam: p / spec.class_sizes[lam]
                       for lam, p in limiting_class_distribution(spec, ident).items()}
        start = per_element.pop(ident)
        assert all(start > p for p in per_element.values()), gamma


def test_a_perturbed_kernel_entry_fails_the_period_check():
    # Each nonzero-frequency entry of A and B, moved by one, moves the
    # average of its class by pref^2 * (2K + 1) != 0 (B at w = 0 multiplies
    # sin(0) and moves nothing).
    n, ident = 4, identity_partition(4)
    limit = limiting_class_distribution(spectrum(transpositions(n)), ident)
    kernel = spectrum(transpositions(n)).kernel(ident)
    entries = [(m, lam, w) for m in ("even", "odd") for lam in range(len(kernel.even))
               for w, freq in enumerate(kernel.spec.freqs) if m == "even" or freq]
    for m, lam, w in entries:
        spec = spectrum(transpositions(n))
        getattr(spec.kernel(ident), m)[lam][w] += 1
        assert _period_gap(spec, ident, limit) > 1e-9, (m, lam, w)


def _midpoint_averages(spec, horizon, samples):
    """The N-point midpoint rule for (1/T) integral_0^T P_t dt from each
    start class, in numpy from the grouped kernel (one phase per exact
    eigenvalue, in the same order for every start)."""
    import numpy as np

    nfact = factorial(spec.n)
    times = (np.arange(samples) + 0.5) * horizon / samples
    energies = kernel_matrix(spec, spec.classes[0])[0]
    phases = np.exp(1j * np.outer([float(e) for e in energies], times))
    for mu in spec.classes:
        weights = np.array([float(Fraction(spec.class_sizes[lam] * spec.class_sizes[mu], nfact**2))
                            for lam in spec.classes])
        matrix = np.array(kernel_matrix(spec, mu)[1], dtype=float)
        yield mu, weights * (abs(matrix @ phases) ** 2).mean(axis=1)


@pytest.mark.parametrize("n", range(2, 7))
def test_time_average_matches_the_numpy_reference(n):
    # The midpoint rule errs by at most h^2 max|P''|/24 with h = T/N, and
    # |P''| <= 4 E_max^2 because |a|, |a'|/E_max, |a''|/E_max^2 <= pref sum|K| <= 1.
    for gamma in generator_classes(n):
        spec = spectrum(ClassFunction.indicator(gamma))
        e_max = max(abs(float(rec.eigenvalue)) for rec in spec.records)
        for horizon in (1.3, 7.3):
            samples = math.ceil(40 * horizon * e_max)
            bound = (horizon / samples * e_max) ** 2 / 6 + 1e-12
            for mu, reference in _midpoint_averages(spec, horizon, samples):
                avg = time_averaged_distribution(spec, mu, horizon)
                assert max(map(abs, list(avg.values()) - reference)) <= bound, (gamma, mu)


def test_time_average_short_horizon_is_start():
    # As T -> 0 the average tends to the start's point mass, off by O(T^2 E^2).
    for gamma in generator_classes(4):
        spec = spectrum(ClassFunction.indicator(gamma))
        for mu in spec.classes:
            for horizon in (1e-9, 1e-300):
                avg = time_averaged_distribution(spec, mu, horizon)
                assert all(abs(p - (lam == mu)) < 1e-12 for lam, p in avg.items())


def test_time_average_periodicity():
    # Over any whole number of periods the average is the limit: 2*pi for
    # transpositions, 3*pi for the weight-1/3 walk with eigenvalues 0, +-2/3, +-2.
    walks = ((transpositions(5), 2 * math.pi),
             (ClassFunction(4, {hook(4, 2): Fraction(1, 3)}), 3 * math.pi))
    for f, period in walks:
        spec, ident = spectrum(f), identity_partition(f.n)
        exact = limiting_class_distribution(spec, ident)
        for periods in (1, 10):
            avg = time_averaged_distribution(spec, ident, periods * period)
            assert max(abs(avg[lam] - float(p)) for lam, p in exact.items()) <= 1e-15, (f, periods)


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

