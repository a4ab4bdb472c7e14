import json
from fractions import Fraction

import numpy as np
import pytest

from symwalk import oracle, verify
from symwalk.errors import DomainError
from symwalk.limiting import limiting_class_distribution
from symwalk.partitions import Partition, identity_partition
from symwalk.walk_spectrum import (
    ClassFunction,
    class_distribution,
    classical_class_distribution,
    spectrum,
)

ORACLE_CHECKS = ("quantum_vs_oracle", "classical_vs_oracle", "limiting_vs_oracle")


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_graph_is_built_and_diagonalised_once(monkeypatch):
    builds = _counting(monkeypatch, oracle, "build_cayley")
    eighs = _counting(monkeypatch, np.linalg, "eigh")
    spectra = _counting(monkeypatch, verify, "spectrum")
    results = verify.run_suite(4)
    assert all(r.passed for r in results)
    assert len(builds) == len(eighs) == len(spectra) == len(verify.generator_classes(4)) == 4
    names = [r.name for r in results]
    assert (names[0], names[1], names[-1]) == ORACLE_CHECKS and len(names) == 11


def test_each_start_state_is_projected_once_per_graph(monkeypatch):
    starts = []
    original = oracle._lanczos

    def counted(neighbours, start, dimension, tol):
        starts.append(start)
        return original(neighbours, start, dimension, tol)

    monkeypatch.setattr(oracle, "_lanczos", counted)
    verify.run_suite(4)
    # one start state and one Lanczos run per generator class; the classical
    # walk reads the same Krylov decomposition, so no classical time builds
    # a start of its own
    assert len(starts) == 4


def _offset_distribution(original):
    """Offset every class of a class dict: the quantum readout or the limit."""
    return lambda walk, *args: {lam: p + 1e-6 for lam, p in original(walk, *args).items()}


def _offset_vector(original):
    return lambda walk, start, t: original(walk, start, t) + 1e-6


def _on_transpositions(wrap):
    """Perturb the oracle on the graph of the transpositions 2,1 alone, the
    second of the two generator classes at n = 3."""
    def wrap_one(original):
        perturbed = wrap(original)
        return lambda walk, *args: (
            perturbed if walk.generator == Partition((2, 1)) else original)(walk, *args)
    wrap_one.generator = [2, 1]
    return wrap_one


@pytest.mark.parametrize("target, name, wrap", [
    ("quantum_vs_oracle", "class_aggregate", _offset_distribution),
    ("classical_vs_oracle", "evolve_classical", _offset_vector),
    ("limiting_vs_oracle", "limiting_distribution", _offset_distribution),
    pytest.param("quantum_vs_oracle", "class_aggregate", _on_transpositions(_offset_distribution),
                 id="quantum_vs_oracle-on-2,1"),
    pytest.param("classical_vs_oracle", "evolve_classical", _on_transpositions(_offset_vector),
                 id="classical_vs_oracle-on-2,1"),
    pytest.param("limiting_vs_oracle", "limiting_distribution",
                 _on_transpositions(_offset_distribution), id="limiting_vs_oracle-on-2,1"),
])
def test_oracle_checks_fail_on_a_perturbed_oracle(monkeypatch, target, name, wrap):
    # A check that cannot fail shows nothing: a 1e-6 error in exactly one
    # oracle output must fail exactly the check that reads it.  Perturbed on
    # one generator's graph alone, the check names that generator.
    monkeypatch.setattr(oracle, name, wrap(getattr(oracle, name)))
    results = {r.name: r for r in verify.run_suite(3)}
    assert {check: results[check].passed for check in ORACLE_CHECKS} == {
        check: check != target for check in ORACLE_CHECKS
    }
    if hasattr(wrap, "generator"):
        assert results[target].worst_at["generator"] == wrap.generator


def test_each_oracle_check_names_where_its_worst_error_came_from():
    # Recomputed at the generator, time and class it names, each oracle
    # check's gap is its reported worst error, bit for bit.
    n = 5
    results = {r.name: r for r in verify.run_suite(n)}
    ident = identity_partition(n)
    gaps = {}
    for name in ORACLE_CHECKS:
        at = results[name].worst_at
        assert list(at) == (["generator", "class"] if name == "limiting_vs_oracle"
                            else ["generator", "t", "class"])
        gamma, lam, t = Partition(at["generator"]), Partition(at["class"]), at.get("t")
        walk, spec = oracle.build_cayley(n, gamma), spectrum(ClassFunction.indicator(gamma))
        if name == "quantum_vs_oracle":
            engine = class_distribution(spec, ident, t)[lam]
            dense = oracle.class_aggregate(walk, oracle.evolve_quantum(walk, ident, t))[lam]
        elif name == "classical_vs_oracle":
            engine = classical_class_distribution(spec, ident, t)[lam]
            dense = oracle.class_sums(walk, oracle.evolve_classical(walk, ident, t))[lam]
        else:
            engine = float(limiting_class_distribution(spec, ident)[lam])
            dense = oracle.limiting_distribution(walk, ident)[lam]
        gaps[name] = abs(engine - dense)
    assert gaps == {name: results[name].max_abs_error for name in ORACLE_CHECKS}


def test_a_tied_worst_error_names_where_it_first_occurs():
    # Partition has no order, so a tie must not fall through to comparing
    # classes; the first time, class and generator win.
    a, b = Partition((2, 1)), Partition((3,))
    engine, dense = {b: 0.75, a: 0.75}, {b: 0.5, a: 0.5}
    assert verify._worst_gap([0.5, 0.1], lambda t: engine, lambda t: dense) == (0.25, 0.5, b)
    result = verify._oracle_check("quantum_vs_oracle", [(a, (0.25, 0.5, b)), (b, (0.25, 0.1, a))])
    assert result.worst_at == {"generator": [2, 1], "t": 0.5, "class": [3]}


@pytest.mark.parametrize("n", [0, 1])
def test_suite_refuses_n_without_a_walk(n):
    with pytest.raises(DomainError):
        verify.run_suite(n)


@pytest.mark.parametrize("t_samples", [0, -3])
def test_suite_refuses_to_sample_no_times(monkeypatch, t_samples):
    # With no times the quantum check would compare nothing and pass.  No
    # sample count can be asked for: every graph is compared at the
    # QUANTUM_SAMPLES distinct times of its first half period.
    with pytest.raises(TypeError, match="t_samples"):
        verify.run_suite(3, t_samples=t_samples)
    sampled = []
    original = verify.check_quantum_vs_oracle

    def recorded(walk, spec, times):
        sampled.append(list(times))
        return original(walk, spec, times)

    monkeypatch.setattr(verify, "check_quantum_vs_oracle", recorded)
    verify.run_suite(3)
    assert len(sampled) == len(verify.generator_classes(3))
    assert all(len(set(times)) == verify.QUANTUM_SAMPLES == 16 for times in sampled)


def test_quantum_check_samples_sixteen_distinct_distributions(monkeypatch):
    # P(t) = P(2*pi/g - t) for a real start, and the walk repeats after
    # 2*pi/g, so times spread over [0, 2*pi] can see one distribution many
    # times: 3 of 16 for (6) and 3,2,1 at n = 6, whose g is 12.  The
    # midpoints of [0, pi/g] give 16 that no oracle tolerance merges.
    sampled = {}
    original = verify.check_quantum_vs_oracle

    def recorded(walk, spec, times):
        sampled[walk.generator] = (spec, list(times))
        return original(walk, spec, times)

    monkeypatch.setattr(verify, "check_quantum_vs_oracle", recorded)
    verify.run_suite(6)
    assert list(sampled) == verify.generator_classes(6)
    ident = identity_partition(6)
    for gamma, (spec, times) in sampled.items():
        dists = [list(class_distribution(spec, ident, t).values()) for t in times]
        gaps = [max(abs(p - q) for p, q in zip(dists[i], dists[j]))
                for i in range(len(dists)) for j in range(i)]
        assert len(dists) == 16 and min(gaps) > verify.ORACLE_TOL, gamma


def _double_dimension(monkeypatch, parts):
    from symwalk import walk_spectrum
    from symwalk.partitions import Partition

    dimension = walk_spectrum.dimension
    monkeypatch.setattr(walk_spectrum, "dimension",
                        lambda nu: dimension(nu) * (2 if nu == Partition(parts) else 1))


def test_a_non_integral_eigenvalue_fails_its_check_with_a_report(monkeypatch, capsys):
    # Doubling dim (2,2) at n = 4 makes E_(2,2) = 3/2 for the (2,2) generator
    # only; the other three still reach the oracle, which sees (3,1)'s E_(2,2)
    # move from -4 to -2.
    from symwalk.cli import main

    _double_dimension(monkeypatch, (2, 2))
    builds = _counting(monkeypatch, oracle, "build_cayley")
    results = verify.run_suite(4)
    assert len(results) == 11 and len(builds) == 3
    failed = {r.name for r in results if not r.passed}
    assert "eigenvalue_integrality" in failed
    assert failed <= {"eigenvalue_integrality", *ORACLE_CHECKS}
    assert "3/2" in results[6].message
    assert main(["verify", "--n", "4"]) == 2
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert err == "" and payload["failed"] == len(failed) and len(payload["checks"]) == 11


def test_a_suite_without_any_spectrum_still_reports_every_check(monkeypatch):
    # At n = 2, doubling dim (1,1) breaks the spectrum of the only generator.
    _double_dimension(monkeypatch, (1, 1))
    results = verify.run_suite(2)
    assert len(results) == 11
    assert {r.name for r in results if not r.passed} == {
        *ORACLE_CHECKS, "eigenvalue_integrality", "sine_closed_form", "limiting_table"}


def test_a_non_integral_transposition_character_fails_its_check_with_a_report(monkeypatch):
    # dim (4,1) one too high makes Ingram's value at (4,1) 5/2; only the
    # closed form reads characters.dimension, so only its check fails.
    from symwalk import characters

    dimension = characters.dimension
    monkeypatch.setattr(characters, "dimension",
                        lambda nu: dimension(nu) + (nu == Partition((4, 1))))
    results = verify.run_suite(5)
    assert len(results) == 11
    assert [r for r in results if not r.passed] == [verify.CheckResult(
        name="transposition_closed_form", passed=False,
        message="transposition character for 4,1 is not integral: 5/2")]


def _offset_at(target, offset):
    """Wrap a reference so that only calls whose leading arguments are
    ``target`` are offset."""
    def wrap(original):
        return lambda *args: original(*args) + (offset if args[:len(target)] == target else 0)
    return wrap


def _flip_one_entry(original):
    def flipped(n):
        first, *rest = original(n)
        return ((-first[0], *first[1:]), *rest)
    return flipped


def test_a_limit_that_does_not_sum_to_one_fails_its_checks_with_a_report(monkeypatch, capsys):
    # One flipped entry of the table the walk kernel reads at n = 4 makes
    # the limits of the 3,1 and 2,2 walks sum to 25/24.  Both limit checks
    # fail with the sum guard's message; every other check still reports.
    from symwalk import walk_spectrum
    from symwalk.cli import main

    monkeypatch.setattr(walk_spectrum, "character_table",
                        _flip_one_entry(walk_spectrum.character_table))
    results = verify.run_suite(4)
    assert len(results) == 11
    failed = {r.name: r.message for r in results if not r.passed}
    message = "limiting distribution sums to 25/24, not 1"
    assert failed == {"quantum_vs_oracle": None, "classical_vs_oracle": None,
                      "sine_closed_form": None, "limiting_table": message,
                      "limiting_vs_oracle": message}
    assert main(["verify", "--n", "4"]) == 2
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert err == "" and (payload["passed"], payload["failed"]) == (6, 5)
    assert [check["name"] for check in payload["checks"]] == [r.name for r in results]


def test_orthogonality_names_the_first_failing_pair(monkeypatch):
    monkeypatch.setattr(verify, "character_table", _flip_one_entry(verify.character_table))
    result = verify.check_orthogonality_relations(5)
    assert (result.name, result.passed) == ("orthogonality", False)
    assert result.message == "column orthogonality failed at 5, 4,1"


def _offset_ncycle_column(original):
    def offset(lam):
        column = original(lam)
        return (column[0] + 1, *column[1:]) if lam == Partition((5,)) else column
    return offset


def _offset_one_row(original):
    def offset(n, p):
        row, value = original(n, p)
        return row, value + (Fraction(1, 10**9) if p == 3 else 0)
    return offset


@pytest.mark.parametrize("target, name, wrap", [
    ("transposition_closed_form", "character_transposition",
     _offset_at((Partition((3, 2)),), 1)),
    ("hook_ncycle_characters", "character_column", _offset_ncycle_column),
    ("hook_pcycle_characters", "character_hook_pcycle", _offset_at((2, 3, 5), 1)),
    ("orthogonality", "character_table", _flip_one_entry),
    ("dimension_agreement", "dimension", _offset_at((Partition((3, 2)),), 1)),
    ("sine_closed_form", "ncycle_amplitude_closed_form", _offset_at((5,), 1e-6)),
    ("limiting_table", "table_ncycle_case", _offset_one_row),
])
def test_exact_checks_fail_on_a_perturbed_reference(monkeypatch, target, name, wrap):
    # Each check compares two paths; a wrong value in the one reference it
    # reads, and only there, must fail exactly that check.
    monkeypatch.setattr(verify, name, wrap(getattr(verify, name)))
    results = verify.run_suite(5)
    assert [r.name for r in results if not r.passed] == [target]
