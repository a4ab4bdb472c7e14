import json
from fractions import Fraction

import numpy as np
import pytest

from symwalk import oracle, verify
from symwalk.errors import DomainError
from symwalk.oracle import ClassAggregate
from symwalk.partitions import Partition

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


def _offset_aggregate(original):
    def offset(walk, vec):
        agg = original(walk, vec)
        return ClassAggregate({lam: p + 1e-6 for lam, p in agg.sums.items()},
                              agg.max_class_deviation)
    return offset


def _offset_vector(original):
    return lambda walk, start, t: original(walk, start, t) + 1e-6


def _offset_limit(original):
    def offset(walk, start):
        return {lam: p + 1e-6 for lam, p in original(walk, start).items()}
    return offset


@pytest.mark.parametrize("target, name, wrap", [
    ("quantum_vs_oracle", "class_aggregate", _offset_aggregate),
    ("classical_vs_oracle", "evolve_classical", _offset_vector),
    ("limiting_vs_oracle", "limiting_distribution", _offset_limit),
])
def test_oracle_checks_fail_on_a_perturbed_oracle(monkeypatch, target, name, wrap):
    # A check that cannot fail shows nothing: a 1e-6 error in exactly one
    # oracle output must fail exactly the check that reads it.
    monkeypatch.setattr(oracle, name, wrap(getattr(oracle, name)))
    passed = {r.name: r.passed for r in verify.run_suite(3)}
    assert {check: passed[check] for check in ORACLE_CHECKS} == {
        check: check != target for check in ORACLE_CHECKS
    }


@pytest.mark.parametrize("n", [0, 1])
def test_suite_refuses_n_without_a_walk(n):
    with pytest.raises(DomainError):
        verify.run_suite(n)


@pytest.mark.parametrize("t_samples", [0, -3])
def test_suite_refuses_to_sample_no_times(t_samples):
    # With no times the quantum check would compare nothing and pass.
    message = f"^verify needs at least one time sample, got {t_samples}$"
    with pytest.raises(DomainError, match=message):
        verify.run_suite(3, t_samples=t_samples)


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
