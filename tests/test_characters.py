import importlib.util
import json
from functools import cache
from math import comb, factorial

import pytest

import symwalk
from symwalk import characters
from symwalk.characters import (
    binom,
    character,
    character_column,
    character_hook_pcycle,
    character_table,
    character_transposition,
    dimension,
)
from symwalk.cli import main
from symwalk.errors import DomainError, ResourceLimitError
from symwalk.partitions import (
    Partition,
    class_size,
    enumerate_partitions,
    hook,
    identity_partition,
)
from symwalk.verify import check_orthogonality_relations


def count_fixed_points(lam):
    return sum(1 for p in lam.parts if p == 1)


@cache
def _mn(shape: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """Reference engine: the Murnaghan-Nakayama recursion, which removes
    a border strip of the first (largest) cycle length on beta numbers."""
    if not cycles:
        return 1 if not shape else 0
    r, rest = cycles[0], cycles[1:]
    total = 0
    k = len(shape)
    beta = [shape[i] + (k - 1 - i) for i in range(k)]
    betaset = set(beta)
    for b in beta:
        nb = b - r
        if nb < 0 or nb in betaset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        newbeta = sorted((betaset - {b}) | {nb}, reverse=True)
        newshape = tuple(
            part for i, x in enumerate(newbeta) if (part := x - (k - 1 - i)) > 0
        )
        sub = _mn(newshape, rest)
        total += -sub if height % 2 else sub
    return total


@pytest.mark.parametrize("n", range(0, 15))
def test_table_equals_the_reference_recursion(n):
    parts = enumerate_partitions(n)
    assert character_table(n) == tuple(
        tuple(_mn(nu.parts, lam.parts) for nu in parts) for lam in parts
    )


@pytest.mark.parametrize("n, strips", [(10, 211), (14, 898)])
def test_table_folds_smallest_parts_first(monkeypatch, n, strips):
    # Each (abacus, r) the fold meets has its strips computed exactly once,
    # and every part r is folded with 0 or at least r still to come.
    calls = []
    original = characters._border_strips

    def counted(mask, r):
        calls.append((mask, r))
        return original(mask, r)

    monkeypatch.setattr(characters, "_border_strips", counted)
    character_table(n)
    assert len(calls) == len(set(calls)) == strips
    floor = n * (n - 1) // 2  # the sum of the empty partition's beta numbers
    for mask, r in calls:
        size = sum(b for b in range(mask.bit_length()) if mask >> b & 1) - floor
        assert n - size - r == 0 or n - size - r >= r


@pytest.mark.parametrize("lam", [Partition((3, 2, 2, 1)), identity_partition(8)], ids=str)
def test_column_folds_smallest_parts_first(monkeypatch, lam):
    # The column folds through the table's strip rule, in the table's order,
    # and its last fold is the largest part.
    calls = []
    original = characters._border_strips

    def counted(mask, r):
        calls.append(r)
        return original(mask, r)

    monkeypatch.setattr(characters, "_border_strips", counted)
    character_column(lam)
    assert calls == sorted(calls)
    assert calls[-1] == lam.parts[0]


def test_every_column_equals_the_table_n14():
    for lam, column in zip(enumerate_partitions(14), character_table(14)):
        assert character_column(lam) == column


@pytest.mark.parametrize("n", range(0, 9))
def test_single_characters_and_columns_equal_the_table(n):
    classes = enumerate_partitions(n)
    for lam, column in zip(classes, character_table(n)):
        assert character_column(lam) == column
        for nu, value in zip(classes, column):
            assert character(nu, lam) == value


def _held(value, seen):
    """Entries in the containers reachable from value."""
    if id(value) in seen or not isinstance(value, (dict, list, tuple, set)):
        return 0
    seen.add(id(value))
    items = [*value.keys(), *value.values()] if isinstance(value, dict) else value
    return len(value) + sum(_held(v, seen) for v in items)


def test_no_character_memo_outlives_a_call():
    assert not [name for name, value in vars(characters).items()
                if callable(getattr(value, "cache_clear", None))]
    # A fresh copy of the module, so no earlier test has filled a memo at n = 10.
    spec = importlib.util.spec_from_file_location("symwalk._fresh", characters.__file__)
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)

    def held():
        return {name: _held(value, set()) for name, value in vars(fresh).items()
                if not name.startswith("__")}

    before = held()
    fresh.character_table(10)
    assert held() == before


# Columns at n = 30, far past the table cap, against the closed forms.
N30 = 30


def test_identity_column_is_the_hook_length_dimensions_n30():
    column = character_column(identity_partition(N30))
    assert column == tuple(dimension(nu) for nu in enumerate_partitions(N30))


def test_transposition_column_is_ingrams_formula_n30():
    column = character_column(hook(N30, 2))
    assert column == tuple(character_transposition(nu) for nu in enumerate_partitions(N30))


def test_ncycle_and_pcycle_columns_on_hooks_n30():
    parts = enumerate_partitions(N30)
    hooks = {hook(N30, k): k for k in range(1, N30 + 1)}
    ncycle = character_column(Partition((N30,)))
    assert {nu: v for nu, v in zip(parts, ncycle) if v} == {
        nu: (-1) ** (N30 - k) for nu, k in hooks.items()}
    p = 7
    pcycle = dict(zip(parts, character_column(hook(N30, p))))
    for nu, k in hooks.items():
        assert pcycle[nu] == character_hook_pcycle(k, p, N30)


def test_binom_out_of_range_is_zero():
    assert binom(1, -2) == 0
    assert binom(3, 5) == 0
    assert binom(5, 2) == 10


def test_trivial_representation_is_constant_one():
    for n in range(1, 9):
        nu = Partition((n,))
        assert all(character(nu, lam) == 1 for lam in enumerate_partitions(n))


def test_sign_representation_is_class_parity():
    for n in range(2, 9):
        nu = identity_partition(n)
        for lam in enumerate_partitions(n):
            want = (-1) ** (n - len(lam.parts))
            assert character(nu, lam) == want


def test_standard_representation_vs_fixed_point_oracle():
    # chi_(n-1,1)(lam) = #fixed points - 1, from the permutation module
    for n in range(2, 9):
        nu = hook(n, n - 1)
        for lam in enumerate_partitions(n):
            assert character(nu, lam) == count_fixed_points(lam) - 1


def test_s3_values():
    assert character(Partition((2, 1)), Partition((3,))) == -1
    assert enumerate_partitions(3) == [Partition((3,)), Partition((2, 1)), Partition((1, 1, 1))]
    # canonical (descending) column order: (3), (2,1), (1,1,1)
    assert character_table(3) == ((1, -1, 1), (1, 0, -1), (1, 2, 1))


def test_a_table_is_its_columns():
    # One shape: the p(n) columns in canonical class order, no wrapper type.
    table = character_table(4)
    assert type(table) is tuple and len(table) == 5
    assert all(type(column) is tuple for column in table)
    assert table == tuple(character_column(lam) for lam in enumerate_partitions(4))
    assert "CharacterTable" not in symwalk.__all__


def test_n1_table():
    assert character_table(1) == ((1,),)


def test_size_mismatch():
    with pytest.raises(DomainError, match=r"^partitions of different n: 2,1 vs 2,2$"):
        character(Partition((2, 1)), Partition((2, 2)))


def test_table_cap():
    with pytest.raises(ResourceLimitError):
        character_table(15)


def test_a_single_character_is_its_column_entry_under_the_column_cap(monkeypatch):
    # The fold of one class grows with p(n), so a single character keeps
    # the partition cap that its column checks, and refuses before folding.
    calls = []
    original = characters._border_strips

    def counted(mask, r):
        calls.append(r)
        return original(mask, r)

    monkeypatch.setattr(characters, "_border_strips", counted)
    monkeypatch.delenv("SYMWALK_MAX_N", raising=False)
    nu, lam = Partition((16, 15)), identity_partition(31)
    with pytest.raises(ResourceLimitError,
                       match=r"^partition enumeration for n=31 exceeds the cap of 30$"):
        character(nu, lam)
    assert calls == []
    monkeypatch.setenv("SYMWALK_MAX_N", "31")
    column = character_column(lam)
    assert character(nu, lam) == column[enumerate_partitions(31).index(nu)] == dimension(nu)


@pytest.mark.parametrize("n", range(1, 11))
def test_orthogonality(n):
    assert check_orthogonality_relations(n).passed


@pytest.mark.parametrize("n", range(1, 11))
def test_column_orthogonality_fact(n):
    # |C_lam| * sum_nu chi_nu(lam)^2 = n!
    for lam, col in zip(enumerate_partitions(n), character_table(n)):
        assert class_size(lam) * sum(v * v for v in col) == factorial(n)


@pytest.mark.parametrize("n", range(1, 11))
def test_row_orthogonality_fact(n):
    # sum_lam |C_lam| chi_nu(lam) chi_eta(lam) = n! [nu = eta]; verify's
    # orthogonality check reads only the columns, from which this follows
    # for a square table.
    sizes = [class_size(lam) for lam in enumerate_partitions(n)]
    rows = list(zip(*character_table(n)))
    for a, row_a in enumerate(rows):
        for b, row_b in enumerate(rows):
            dot = sum(s * x * y for s, x, y in zip(sizes, row_a, row_b))
            assert dot == (factorial(n) if a == b else 0), (n, a, b)


def test_dimension_examples():
    assert dimension(Partition((4,))) == 1
    assert dimension(Partition((2, 1))) == 2
    for n in range(2, 9):
        for k in range(1, n + 1):
            assert dimension(hook(n, k)) == comb(n - 1, k - 1)


@pytest.mark.parametrize("n", range(1, 13))
def test_dimension_hook_length_vs_recursion(n):
    ident = identity_partition(n)
    for nu in enumerate_partitions(n):
        assert dimension(nu) == character(nu, ident)


@pytest.mark.parametrize("n", range(1, 11))
def test_dimension_squares_sum_to_group_order(n):
    assert sum(dimension(nu) ** 2 for nu in enumerate_partitions(n)) == factorial(n)


def test_transposition_closed_form_examples():
    assert character_transposition(Partition((3,))) == 1
    assert character_transposition(Partition((2, 1))) == 0
    assert character_transposition(Partition((1, 1, 1, 1))) == -1
    with pytest.raises(DomainError):
        character_transposition(Partition((1,)))


@pytest.mark.parametrize("n", range(2, 11))
def test_transposition_closed_form_vs_recursion(n):
    tau = hook(n, 2)
    for nu in enumerate_partitions(n):
        assert character_transposition(nu) == character(nu, tau)


@pytest.mark.parametrize("n", range(2, 11))
def test_hook_characters_at_ncycle(n):
    ncycle = Partition((n,))
    hooks = {hook(n, k): k for k in range(1, n + 1)}
    for nu in enumerate_partitions(n):
        got = character(nu, ncycle)
        if nu in hooks:
            assert got == (-1) ** (n - hooks[nu])
        else:
            assert got == 0


def test_hook_pcycle_example():
    # n=5, p=3, k=2: C(1,-2) + C(1,1) = 1
    assert character_hook_pcycle(2, 3, 5) == 1
    with pytest.raises(DomainError):
        character_hook_pcycle(2, 5, 5)
    with pytest.raises(DomainError):
        character_hook_pcycle(0, 2, 5)


@pytest.mark.parametrize("n", range(2, 11))
def test_hook_pcycle_vs_recursion(n):
    for p in range(1, n):
        pclass = hook(n, p)
        for k in range(1, n + 1):
            assert character_hook_pcycle(k, p, n) == character(hook(n, k), pclass)


# starts at n=3: for n=2 the transposition class is the n-cycle class,
# which the p-cycle formula excludes
@pytest.mark.parametrize("n", range(3, 11))
def test_hook_pcycle_at_p2_matches_transposition_form(n):
    for k in range(1, n + 1):
        assert character_hook_pcycle(k, 2, n) == character_transposition(hook(n, k))


@pytest.mark.parametrize("n", range(1, 7))
def test_regular_representation_trace(n):
    # sum_nu dim(nu) * chi_nu(lam) = n! [lam = identity]
    ident = identity_partition(n)
    for lam in enumerate_partitions(n):
        total = sum(dimension(nu) * character(nu, lam) for nu in enumerate_partitions(n))
        assert total == (factorial(n) if lam == ident else 0)


def test_csv_serialization(capsys):
    assert main(["characters", "--n", "3", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ',3,"2,1","1,1,1"'
    assert lines[1] == "3,1,1,1"
    assert lines[2] == '"2,1",-1,0,2'
    assert lines[3] == '"1,1,1",1,-1,1'


def test_json_serialization_uses_strings(capsys):
    assert main(["characters", "--n", "4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 4
    assert payload["classes"][0] == [4]
    assert all(isinstance(v, str) for row in payload["entries"] for v in row)
