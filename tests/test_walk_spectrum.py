import cmath
import math
from fractions import Fraction
from math import comb, factorial

import pytest

from symwalk import walk_spectrum
from symwalk.characters import binom, character_table, dimension
from symwalk.errors import ConsistencyError, DegenerateGeneratorError, DomainError
from symwalk.oracle import build_cayley, class_aggregate, class_sums, evolve_classical, evolve_quantum
from symwalk.partitions import (
    Partition,
    class_size,
    enumerate_partitions,
    hook,
    identity_partition,
    is_even_class,
    transpose,
)
from symwalk.verify import generator_classes
from symwalk.walk_spectrum import (
    ClassFunction,
    class_amplitude,
    class_distribution,
    classical_class_distribution,
    ncycle_amplitude_closed_form,
    spectrum,
)

from conftest import (
    kernel_matrix,
    max_ncycle_probability,
    numpy_kernel_reference,
    transpositions,
)


def test_class_function_validation():
    with pytest.raises(DegenerateGeneratorError):
        ClassFunction.indicator(identity_partition(3))
    with pytest.raises(DomainError):
        ClassFunction(4, {Partition((2, 1)): Fraction(1)})
    f = transpositions(4)
    assert f.is_indicator()
    assert f.degree() == 6
    assert ClassFunction(4, {hook(4, 2): 1, hook(4, 3): 1}).is_indicator()
    assert not ClassFunction(4, {hook(4, 2): 1, hook(4, 3): 2}).is_indicator()


@pytest.mark.parametrize("zero", [0, Fraction(0), "0"])
def test_class_function_is_a_frozen_value(zero):
    f = ClassFunction(4, {hook(4, 2): zero, hook(4, 3): "1/2"})
    assert f.weights == {hook(4, 3): Fraction(1, 2)}
    assert hash(f) == hash(f)
    with pytest.raises(AttributeError):
        f.n = 5
    with pytest.raises(DomainError):
        ClassFunction(4, {hook(4, 2): 1, Partition((2, 1)): zero})


def test_spectrum_s3_transpositions():
    spec = spectrum(transpositions(3))
    eigs = {str(r.rep): r.eigenvalue for r in spec.records}
    assert eigs == {"3": 3, "2,1": 0, "1,1,1": -3}


def test_spectrum_zero_function():
    spec = spectrum(ClassFunction(5, {}))
    assert all(r.eigenvalue == 0 for r in spec.records)


@pytest.mark.parametrize("n", range(2, 9))
def test_transposition_eigenvalues_closed_form(n):
    # E_nu = sum_j (C(nu_j,2) - C(nu'_j,2)) for the transposition walk
    spec = spectrum(transpositions(n))
    for rec in spec.records:
        conj = transpose(rec.rep)
        want = sum(binom(p, 2) for p in rec.rep.parts) - sum(binom(p, 2) for p in conj.parts)
        assert rec.eigenvalue == want


@pytest.mark.parametrize("n", range(2, 9))
def test_eigenvalue_integrality_and_completeness(n):
    for gamma in generator_classes(n):
        spec = spectrum(ClassFunction.indicator(gamma))
        assert all(r.eigenvalue.denominator == 1 for r in spec.records)
        assert sum(r.dim**2 for r in spec.records) == factorial(n)


def test_weighted_class_function_allows_rationals():
    f = ClassFunction(4, {Partition((2, 1, 1)): Fraction(1, 3),
                          Partition((2, 2)): Fraction(1, 2)})
    spec = spectrum(f)
    eigenvalue = {r.rep: r.eigenvalue for r in spec.records}
    assert eigenvalue[Partition((4,))] == Fraction(6, 3) + Fraction(3, 2)


def test_amplitude_at_time_zero_is_kronecker():
    spec = spectrum(transpositions(4))
    for lam in enumerate_partitions(4):
        for mu in enumerate_partitions(4):
            amp = class_amplitude(spec, lam, mu, 0.0)
            want = 1.0 if lam == mu else 0.0
            assert abs(amp - want) < 1e-12


def test_amplitude_s3_closed_form_value():
    spec = spectrum(transpositions(3))
    amp = class_amplitude(spec, Partition((3,)), identity_partition(3), math.pi / 3)
    assert abs(amp - (-4 / math.sqrt(18))) < 1e-12


def test_amplitude_symmetry_and_bound():
    spec = spectrum(ClassFunction.indicator(Partition((3, 2))))
    lams = enumerate_partitions(5)
    for t in (0.3, 1.1, 4.0):
        for lam in lams:
            for mu in (identity_partition(5), Partition((5,)), Partition((2, 2, 1))):
                a = class_amplitude(spec, lam, mu, t)
                b = class_amplitude(spec, mu, lam, t)
                assert abs(a - b) < 1e-12
                assert abs(a) <= 1 + 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_class_level_unitarity(n):
    spec = spectrum(transpositions(n))
    for mu in (identity_partition(n), Partition((n,))):
        for t in (0.0, 0.5, 2.0, 5.9):
            dist = class_distribution(spec, mu, t)
            assert abs(sum(dist.values()) - 1) < 1e-10


def test_periodicity():
    for gamma in generator_classes(5):
        spec = spectrum(ClassFunction.indicator(gamma))
        for lam in (Partition((5,)), Partition((3, 1, 1))):
            a = class_amplitude(spec, lam, identity_partition(5), 0.77)
            b = class_amplitude(spec, lam, identity_partition(5), 0.77 + 2 * math.pi)
            assert abs(a - b) < 1e-10


def test_distribution_t0_is_start_indicator():
    spec = spectrum(transpositions(4))
    dist = class_distribution(spec, identity_partition(4), 0.0)
    assert abs(dist[identity_partition(4)] - 1) < 1e-12


def test_distribution_s3_peak():
    spec = spectrum(transpositions(3))
    dist = class_distribution(spec, identity_partition(3), math.pi / 3)
    assert abs(dist[Partition((3,))] - 8 / 9) < 1e-12
    assert abs(dist[Partition((3,))] / class_size(Partition((3,))) - 4 / 9) < 1e-12


def test_distribution_matches_oracle_n4():
    walk = build_cayley(4, Partition((2, 1, 1)))
    spec = spectrum(transpositions(4))
    dense = class_aggregate(walk, evolve_quantum(walk, identity_partition(4), 0.7))
    dist = class_distribution(spec, identity_partition(4), 0.7)
    for lam, p in dist.items():
        assert abs(p - dense[lam]) < 1e-9


@pytest.mark.parametrize("gamma", [(3, 1), (5,), (3, 1, 1)])
def test_even_generator_leaves_odd_classes_exactly_empty(gamma):
    gamma = Partition(gamma)
    n = gamma.n
    spec = spectrum(ClassFunction.indicator(gamma))
    dist = class_distribution(spec, identity_partition(n), 0.9)
    for lam, p in dist.items():
        if (n - len(lam.parts)) % 2 == 1:
            assert p == 0.0
    assert abs(sum(dist.values()) - 1) < 1e-10


def test_closed_form_examples():
    assert ncycle_amplitude_closed_form(5, 0.0) == 0
    amp = ncycle_amplitude_closed_form(4, math.pi / 4)
    want = (2j) ** 3 / math.sqrt(4 * 24)
    assert abs(amp - want) < 1e-15


def test_closed_form_matches_spectral_sum_n4():
    spec = spectrum(transpositions(4))
    amp = class_amplitude(spec, Partition((4,)), identity_partition(4), 0.3)
    assert abs(amp - ncycle_amplitude_closed_form(4, 0.3)) < 1e-12


def test_max_ncycle_probability_values():
    assert max_ncycle_probability(2) == 1
    assert max_ncycle_probability(3) == Fraction(8, 9)
    assert max_ncycle_probability(7) == Fraction(4096, 35280)
    assert max_ncycle_probability(7) == Fraction(2**12, 7 * factorial(7))


def test_max_ncycle_probability_attained_numerically():
    for n in (3, 4, 5):
        target = float(max_ncycle_probability(n))
        best = max(
            abs(ncycle_amplitude_closed_form(n, 2 * math.pi * j / 4096)) ** 2
            for j in range(4096)
        )
        assert abs(best - target) < 1e-9


def test_classical_t0_and_uniform_limit():
    spec = spectrum(transpositions(4))
    ident = identity_partition(4)
    d0 = classical_class_distribution(spec, ident, 0.0)
    assert abs(d0[ident] - 1) < 1e-12
    dinf = classical_class_distribution(spec, ident, 50.0)
    for lam, p in dinf.items():
        assert abs(p / class_size(lam) - 1 / 24) < 1e-8
    assert abs(sum(dinf.values()) - 1) < 1e-10


@pytest.mark.parametrize("n", range(5, 9))
def test_classical_walk_starts_at_the_identity_and_ends_uniform(n):
    # Every gap d - E is an integer >= 1 off the stationary eigenvalues, so
    # at t = 200 each decaying term is below e^-200 and adds nothing: the
    # walk is exactly uniform on A_n for an even generator class (the sign
    # irrep sits at E = d, reached by one sign only) and on S_n for an odd
    # one (the sign irrep at E = -d pairs with the trivial one).
    ident, nfact = identity_partition(n), factorial(n)
    for gamma in generator_classes(n):
        spec = spectrum(ClassFunction.indicator(gamma))
        start = classical_class_distribution(spec, ident, 0.0)
        assert start == {lam: float(lam == ident) for lam in spec.classes}, gamma
        for lam, p in classical_class_distribution(spec, ident, 200.0).items():
            if not is_even_class(gamma):
                want = class_size(lam) / nfact
            else:
                want = class_size(lam) / (nfact // 2) if is_even_class(lam) else 0.0
            assert p == want, (gamma, lam)


def test_classical_matches_dense_exponential():
    walk = build_cayley(4, Partition((2, 1, 1)))
    spec = spectrum(transpositions(4))
    ident = identity_partition(4)
    for t in (0.1, 0.5, 2.0):
        dense = class_sums(walk, evolve_classical(walk, ident, t))
        dist = classical_class_distribution(spec, ident, t)
        for lam, p in dist.items():
            assert abs(p - dense[lam]) < 1e-9


def test_classical_rejects_bad_weights():
    spec = spectrum(ClassFunction(3, {Partition((2, 1)): Fraction(-1)}))
    with pytest.raises(DomainError):
        classical_class_distribution(spec, identity_partition(3), 1.0)
    weighted = spectrum(ClassFunction(3, {Partition((2, 1)): Fraction(1, 2)}))
    with pytest.raises(DomainError):
        classical_class_distribution(weighted, identity_partition(3), 1.0)


def test_integrality_assertion_wired():
    # A correct character engine never trips this; make sure the check exists
    # by verifying the single-class path computes integer eigenvalues.
    spec = spectrum(ClassFunction.indicator(Partition((4, 2))))
    assert all(r.eigenvalue.denominator == 1 for r in spec.records)


def test_integrality_assertion_covers_unions_of_classes(monkeypatch):
    # Each E_nu of a 0/1 generator set is a sum of central characters,
    # rational algebraic integers; a broken dimension must trip the check.
    f = ClassFunction(5, {hook(5, 2): 1, hook(5, 3): 1})
    assert all(r.eigenvalue.denominator == 1 for r in spectrum(f).records)
    monkeypatch.setattr(walk_spectrum, "dimension", lambda nu: 7 * dimension(nu))
    with pytest.raises(ConsistencyError):
        spectrum(f)


def _grouped_phase_sum(spec, column, lam, mu, phase):
    """sum_nu phase(E_nu) chi_nu(lam) chi_nu(mu) for one (lam, mu) pair,
    with the exact integer coefficient of each distinct E_nu summed first."""
    coeff = {}
    for rec, x, y in zip(spec.records, column[lam], column[mu]):
        coeff[rec.eigenvalue] = coeff.get(rec.eigenvalue, 0) + x * y
    return sum(phase(ev) * float(c) for ev, c in coeff.items() if c)


def test_kernel_matches_per_pair_phase_sum_n14():
    n = 14
    spec = spectrum(transpositions(n))
    column = dict(zip(spec.classes, character_table(n)))
    nfact = factorial(n)
    d = spec.f.degree()
    for mu in (identity_partition(n), Partition((3, 3, 3, 3, 1, 1))):
        for t in (0.3, 1.7, 4.1):
            quantum = class_distribution(spec, mu, t)
            classical = classical_class_distribution(spec, mu, t)
            for lam in spec.classes:
                pref = math.sqrt(Fraction(class_size(lam) * class_size(mu), nfact**2))
                amp = pref * _grouped_phase_sum(
                    spec, column, lam, mu, lambda ev: cmath.exp(1j * t * float(ev)))
                assert abs(quantum[lam] - abs(amp) ** 2) <= 1e-15
                heat = _grouped_phase_sum(
                    spec, column, lam, mu, lambda ev: math.exp(-t * float(d - ev)))
                want = max(class_size(lam) / nfact * heat, 0.0)
                assert abs(classical[lam] - want) <= 1e-15


def test_ncycle_amplitude_matches_closed_form_n14():
    n = 14
    spec = spectrum(transpositions(n))
    for j in range(64):
        t = 2 * math.pi * j / 64
        amp = class_amplitude(spec, Partition((n,)), identity_partition(n), t)
        assert abs(amp - ncycle_amplitude_closed_form(n, t)) <= 1e-10


def test_kernel_is_built_once_per_start():
    spec = spectrum(transpositions(6))
    mu = Partition((3, 3))
    assert spec.kernel(mu) is spec.kernel(mu)
    assert spec.kernel(mu) is not spec.kernel(identity_partition(6))
    with pytest.raises(DomainError):
        spec.kernel(Partition((3, 2)))


def test_the_spectrum_folds_the_character_table_once_for_every_start(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return character_table(n)

    monkeypatch.setattr(walk_spectrum, "character_table", counted)
    spec = spectrum(transpositions(6))
    kernels = [spec.kernel(mu) for mu in (identity_partition(6), Partition((3, 3)),
                                           Partition((6,)))]
    assert calls == [6]
    assert all(k.spec.columns is spec.columns for k in kernels)


@pytest.mark.parametrize("n, gamma, weight, g", [
    (6, (6,), 1, 12),
    (10, (10,), 1, 1440),
    (14, (14,), 1, 241920),
    (4, (2, 1, 1), Fraction(1, 3), Fraction(2, 3)),
    (2, (2,), 1, 2),
    (14, hook(14, 2).parts, 1, 1),
    (14, hook(14, 3).parts, 1, 1),
])
def test_the_period_is_two_pi_over_the_gcd_of_the_eigenvalue_gaps(n, gamma, weight, g):
    spec = spectrum(ClassFunction(n, {Partition(gamma): weight}))
    assert spec.period == 2 * math.pi / g
    gaps = {a - b for a in spec.groups for b in spec.groups}
    assert all((gap / g).denominator == 1 for gap in gaps)


def test_a_period_past_the_float_range_is_refused():
    spec = spectrum(ClassFunction(4, {hook(4, 2): Fraction("1e-4299")}))
    with pytest.raises(DomainError, match="period is too long"):
        spec.period


def test_overflowing_phase_is_refused():
    spec = spectrum(transpositions(4))
    with pytest.raises(DomainError):
        class_distribution(spec, identity_partition(4), 1e308)
    with pytest.raises(DomainError):
        classical_class_distribution(spec, identity_partition(4), -1.0)
    # Decay to the stationary law, not NaN, when t*(d - E) overflows.
    far = classical_class_distribution(spec, identity_partition(4), 1e308)
    for lam, p in far.items():
        assert p == pytest.approx(class_size(lam) / 24, abs=1e-15)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_classical_refuses_a_non_finite_time(t):
    # At t = inf the stationary group's decay would be e^{-inf * 0}, NaN.
    spec = spectrum(transpositions(4))
    with pytest.raises(DomainError):
        classical_class_distribution(spec, identity_partition(4), t)


def _assert_matches_numpy_reference(kernel, t):
    amplitudes, quantum, classical = numpy_kernel_reference(kernel, t)
    assert max(map(abs, kernel.amplitudes(t) - amplitudes)) <= 1e-15
    assert max(map(abs, kernel.quantum_probabilities(t) - quantum)) <= 1e-15
    assert max(map(abs, kernel.classical_probabilities(t) - classical)) <= 1e-15


@pytest.mark.parametrize("n", range(2, 8))
def test_kernel_matches_the_numpy_reference(n):
    for gamma in generator_classes(n):
        spec = spectrum(ClassFunction.indicator(gamma))
        for mu in spec.classes:
            # At t = 0.05 and 0.3 a paired classical term e^{-t(d - w)} is
            # above the tolerance, so a dropped one shows.
            for t in (0.0, 0.05, 0.3, 0.7, 3.1, 100.0):
                _assert_matches_numpy_reference(spec.kernel(mu), t)


# Transpositions fold their spectrum in +-E pairs; the 3-cycles' spectrum
# is not symmetric, so most |E| carry one eigenvalue there.
@pytest.mark.parametrize("cycle", [2, 3])
def test_n14_sweeps_match_the_numpy_reference(cycle):
    n = 14
    spec = spectrum(ClassFunction.indicator(Partition((cycle,) + (1,) * (n - cycle))))
    for mu in (identity_partition(n), Partition((3, 3, 3, 3, 2))):
        for j in range(64):
            _assert_matches_numpy_reference(spec.kernel(mu), 1.3 + 2 * math.pi * j / 63)


def test_folding_halves_the_transposition_terms():
    # E_nu' = -E_nu and chi_nu' = sgn chi_nu, so K-[w] = sgn(lam) sgn(mu) K+[w]:
    # B = K+ - K- vanishes on a class whose sign agrees with mu's and A =
    # K+ + K- on one whose sign differs (B[0], which multiplies sin 0, is set
    # to 0).  So exactly one float row per class is nonempty, the A row when
    # the signs agree, and a time point sums one row per class, not two.
    n = 14
    kernel = spectrum(transpositions(n)).kernel(identity_partition(n))
    _, matrix = kernel_matrix(kernel.spec, kernel.mu)
    assert sum(1 for row in matrix for k in row if k) == 7702
    walks = [(spec, mu) for m in range(2, 9) for spec in [spectrum(transpositions(m))]
             for mu in spec.classes]
    for spec, mu in [*walks, (kernel.spec, kernel.mu)]:
        folded = spec.kernel(mu)._folded
        for lam, a, b in zip(spec.classes, folded.even_rows, folded.odd_rows):
            agree = is_even_class(lam) == is_even_class(mu)
            assert (bool(a), bool(b)) == (agree, not agree), (mu, lam)
    rows = kernel._folded
    assert (sum(map(bool, rows.even_rows)), sum(map(bool, rows.odd_rows))) == (69, 66)


@pytest.mark.parametrize("n", range(2, 9))
def test_kernel_columns_put_the_one_signed_frequencies_last(n):
    # The classical odd sums read only the leading ``two_signed`` columns,
    # where s_w = (x_w - y_w)/2 can be nonzero; a w that only one of +w, -w
    # reaches has s_w = 0 and must come after all of them.  Each part keeps
    # the first-seen irrep order.  The spectrum owns the float view of the
    # axis: every start class's kernel reads its one copy of the float |E|,
    # the classical exponents and the class weights, and keeps no axis.
    for gamma in generator_classes(n):
        spec = spectrum(ClassFunction.indicator(gamma))
        present = {rec.eigenvalue for rec in spec.records}
        seen = list(dict.fromkeys(abs(rec.eigenvalue) for rec in spec.records))
        both = [w for w in seen if w in present and -w in present]
        lone = [w for w in seen if not (w in present and -w in present)]
        assert 0 not in lone
        assert spec.freqs == both + lone, gamma
        for mu in spec.classes:
            kernel = spec.kernel(mu)
            assert not hasattr(kernel, "freqs"), (gamma, mu)
            assert kernel._folded.two_signed == len(both), (gamma, mu)
            for name in ("freqs", "rising", "falling", "weights"):
                assert getattr(kernel._folded, name) is getattr(spec.float_axis, name), (gamma, mu)


@pytest.mark.parametrize("n", [*range(2, 9), 14])
def test_prefactors_round_as_the_exact_fraction_does(n):
    # pref_lam = sqrt(|C_lam||C_mu|)/n!, taken as the square root of the
    # correctly rounded float of the exact ratio: for every class pair, and
    # at n = 14 from the identity.
    spec, nfact = spectrum(transpositions(n)), factorial(n)
    for mu in spec.classes if n <= 8 else [identity_partition(n)]:
        prefactors = spec.kernel(mu)._folded.prefactors
        for lam, pref in zip(spec.classes, prefactors):
            exact = Fraction(class_size(lam) * class_size(mu), nfact * nfact)
            assert pref == math.sqrt(exact), (lam, mu)


@pytest.mark.parametrize("n", range(2, 7))
def test_limiting_sums_are_the_squares_of_the_grouped_kernel(n):
    # The fold keeps every square: K+^2 + K-^2 = (A^2 + B^2)/2, exactly.
    for gamma in generator_classes(n):
        spec = spectrum(ClassFunction.indicator(gamma))
        for mu in spec.classes:
            _, matrix = kernel_matrix(spec, mu)
            assert spec.kernel(mu).limiting_sums() == [sum(k * k for k in row) for row in matrix]
