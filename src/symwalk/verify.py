"""Cross-engine verification: spectral formulas against the literal oracle
and the closed-form character formulas against the abacus engine.

Each check returns a CheckResult, except the three oracle comparisons:
they return the worst error on one graph with where it occurred, and
``run_suite`` gathers them over the generator classes.  The CLI
``verify`` subcommand runs the whole battery for one n and reports
per-check pass/fail with the worst absolute error where a tolerance
applies, and for an oracle check the generator, time and class it came
from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import oracle as oracle_mod
from .characters import (
    character_column,
    character_hook_pcycle,
    character_table,
    character_transposition,
    dimension,
)
from .errors import ConsistencyError, DomainError
from .limiting import limiting_class_distribution, table_ncycle_case
from .partitions import Partition, class_size, enumerate_partitions, hook, identity_partition
from .walk_spectrum import (
    ClassFunction,
    WalkSpectrum,
    class_amplitude,
    class_distribution,
    classical_class_distribution,
    ncycle_amplitude_closed_form,
    spectrum,
)


# Largest error an oracle check passes with.
ORACLE_TOL = 1e-9
# Samples of the quantum oracle check: midpoints of [0, period/2], as P(t) = P(period - t).
QUANTUM_SAMPLES = 16
# Times at which the classical walk is compared with the oracle.
CLASSICAL_TIMES = (0.1, 0.5, 2.0)
# Samples over one period, and the largest error, of the sine closed form.
SINE_SAMPLES = 64
SINE_TOL = 1e-10
# Each generator class's spectrum, or what ``spectrum`` raised for it.
Spectra = dict[Partition, WalkSpectrum | ConsistencyError]


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_abs_error: float | None = None
    message: str | None = None
    worst_at: dict | None = None


def generator_classes(n: int) -> list[Partition]:
    """Every nonidentity class of S_n, canonical order."""
    return enumerate_partitions(n)[:-1]  # the identity class comes last


def _error(gap: tuple) -> float:
    return gap[0]  # the key that ranks gaps: Partition has no ordering


def _worst_gap(times, engine, oracle) -> tuple[float, float, Partition]:
    """Largest |engine(t)[lam] - oracle(t)[lam]| over times and classes,
    with the first (t, class) it occurs at."""
    gaps = []
    for t in times:
        sums = oracle(t)
        gaps += [(abs(p - sums[lam]), t, lam) for lam, p in engine(t).items()]
    return max(gaps, key=_error)


def check_quantum_vs_oracle(walk: oracle_mod.CayleyWalk, spec: WalkSpectrum, times):
    """Worst gap between spectral class probabilities and the oracle's
    e^{itA} on one graph, identity start, with its (t, class)."""
    ident = identity_partition(walk.n)
    return _worst_gap(
        times, lambda t: class_distribution(spec, ident, t),
        lambda t: oracle_mod.class_aggregate(walk, oracle_mod.evolve_quantum(walk, ident, t)))


def check_classical_vs_oracle(walk: oracle_mod.CayleyWalk, spec: WalkSpectrum):
    """Worst gap between the spectral classical engine and the oracle's
    e^{-tL} on one graph, identity start, with its (t, class)."""
    ident = identity_partition(walk.n)
    return _worst_gap(
        CLASSICAL_TIMES, lambda t: classical_class_distribution(spec, ident, t),
        lambda t: oracle_mod.class_sums(walk, oracle_mod.evolve_classical(walk, ident, t)))


def check_limiting_vs_oracle(walk: oracle_mod.CayleyWalk, spec: WalkSpectrum):
    """Worst gap between the exact limiting distribution and the oracle's
    Cesaro average on one graph, identity start, with its class."""
    ident = identity_partition(walk.n)
    dense = oracle_mod.limiting_distribution(walk, ident)
    exact = limiting_class_distribution(spec, ident)
    return max(((abs(float(p) - dense[lam]), lam) for lam, p in exact.items()), key=_error)


def check_transposition_closed_form(n: int) -> CheckResult:
    """Ingram's formula equals the abacus engine on every irrep (exact)."""
    try:
        want = tuple(character_transposition(nu) for nu in enumerate_partitions(n))
    except ConsistencyError as exc:  # a non-integral Ingram value
        return CheckResult(name="transposition_closed_form", passed=False, message=str(exc))
    return CheckResult(name="transposition_closed_form",
                       passed=character_column(hook(n, 2)) == want)


def check_hook_ncycle_characters(n: int) -> CheckResult:
    """chi_nu((n)) is (-1)^(n-k) on hooks and 0 elsewhere (exact)."""
    hooks = {hook(n, k): (-1) ** (n - k) for k in range(1, n + 1)}
    want = tuple(hooks.get(nu, 0) for nu in enumerate_partitions(n))
    return CheckResult(name="hook_ncycle_characters",
                       passed=character_column(Partition((n,))) == want)


def check_hook_pcycle_characters(n: int) -> CheckResult:
    """Closed form for hooks at p-cycles equals the abacus engine (exact)."""
    parts = enumerate_partitions(n)
    columns = {p: dict(zip(parts, character_column(hook(n, p)))) for p in range(1, n)}
    ok = all(character_hook_pcycle(k, p, n) == column[hook(n, k)]
             for p, column in columns.items() for k in range(1, n + 1))
    return CheckResult(name="hook_pcycle_characters", passed=ok)


def check_orthogonality_relations(n: int) -> CheckResult:
    """The column relation |C_lam| sum_nu chi_nu(lam) chi_nu(mu) = n! [lam = mu]
    holds on the abacus table (exact); a failure names the first pair.

    The row relation sum_lam |C_lam| chi_nu(lam) chi_eta(lam) = n! [nu = eta]
    follows: X = (chi_nu(lam)) is square and X^T X = n! D^-1 (D the class
    sizes), so D X^T / n! is the inverse of X and X D X^T = n! I.
    """
    columns = character_table(n)  # checks its cap before the enumeration below
    classes = enumerate_partitions(n)
    nfact = math.factorial(n)
    for a, ca in enumerate(columns):
        size = class_size(classes[a])
        for b in range(a, len(columns)):
            if size * sum(x * y for x, y in zip(ca, columns[b])) != (nfact if a == b else 0):
                message = f"column orthogonality failed at {classes[a]}, {classes[b]}"
                return CheckResult(name="orthogonality", passed=False, message=message)
    return CheckResult(name="orthogonality", passed=True)


def check_eigenvalue_integrality(spectra: Spectra) -> CheckResult:
    """E_nu is an exact integer for every single-class generator; the
    failures are what ``spectrum`` raised for each generator class."""
    failures = [str(spec) for spec in spectra.values() if isinstance(spec, ConsistencyError)]
    return CheckResult(name="eigenvalue_integrality", passed=not failures,
                       message="; ".join(failures) or None)


def check_sine_closed_form(n: int, spectra: Spectra) -> CheckResult:
    """(2i sin(tn/2))^(n-1)/sqrt(n*n!) against the full spectral sum."""
    spec = spectra[hook(n, 2)]
    if isinstance(spec, ConsistencyError):
        return CheckResult(name="sine_closed_form", passed=False, message=str(spec))
    ident = identity_partition(n)
    ncycle = Partition((n,))
    worst = 0.0
    for j in range(SINE_SAMPLES):
        t = 2 * math.pi * j / SINE_SAMPLES
        worst = max(
            worst,
            abs(class_amplitude(spec, ncycle, ident, t) - ncycle_amplitude_closed_form(n, t)),
        )
    return CheckResult(name="sine_closed_form", passed=worst <= SINE_TOL, max_abs_error=worst)


def check_limiting_table(n: int, spectra: Spectra) -> CheckResult:
    """Closed-form table values equal the grouping engine, as reduced rationals."""
    ident = identity_partition(n)
    ncycle = Partition((n,))
    for p in range(2, n + 1):
        spec = spectra[hook(n, p)]
        if isinstance(spec, ConsistencyError):
            return CheckResult(name="limiting_table", passed=False, message=str(spec))
        try:
            exact = limiting_class_distribution(spec, ident)[ncycle] / spec.class_sizes[ncycle]
        except ConsistencyError as exc:  # the limit's sum guard
            return CheckResult(name="limiting_table", passed=False, message=str(exc))
        table = table_ncycle_case(n, p)[1]
        if table != exact:
            return CheckResult(
                name="limiting_table", passed=False,
                message=f"mismatch at n={n}, p={p}: table {table}, engine {exact}",
            )
    return CheckResult(name="limiting_table", passed=True)


def check_dimension_agreement(n: int) -> CheckResult:
    """Hook-length dimensions equal the abacus engine at the identity."""
    want = tuple(dimension(nu) for nu in enumerate_partitions(n))
    return CheckResult(name="dimension_agreement",
                       passed=character_column(identity_partition(n)) == want)


def _oracle_check(name: str, worsts: list[tuple[Partition, tuple]]) -> CheckResult:
    """The worst of one (generator, (error, [t,] class)) entry per generator
    class, ties to the first generator; the first ConsistencyError entry fails it."""
    if not worsts:  # every generator's spectrum failed
        return CheckResult(name=name, passed=False, message="no generator class has a spectrum")
    failure = next((gap for _, gap in worsts if isinstance(gap, ConsistencyError)), None)
    if failure:
        return CheckResult(name=name, passed=False, message=str(failure))
    gamma, (worst, *t, lam) = max(worsts, key=lambda entry: _error(entry[1]))
    # Partitions as lists of parts, as in every other JSON output; t if timed.
    worst_at = {"generator": list(gamma.parts), **dict(zip(["t"], t)), "class": list(lam.parts)}
    return CheckResult(name=name, passed=worst <= ORACLE_TOL, max_abs_error=worst,
                       worst_at=worst_at)


def run_suite(n: int) -> list[CheckResult]:
    """The full battery for one n.

    One spectrum per generator class feeds every check that needs one;
    a generator whose spectrum fails is left out of the oracle comparisons,
    a limit that fails its sum guard fails the two limit checks, and every
    check still reports.  The oracle checks share one graph and one Krylov
    decomposition of the identity start per generator class; the quantum
    one samples QUANTUM_SAMPLES midpoints of the first half period.
    """
    if n < 2:
        raise DomainError(f"verify needs n >= 2, got {n}")
    quantum, classical, limiting, spectra = [], [], [], {}
    for gamma in generator_classes(n):
        try:
            spec = spectra[gamma] = spectrum(ClassFunction.indicator(gamma))
        except ConsistencyError as exc:
            spectra[gamma] = exc
            continue
        walk = oracle_mod.build_cayley(n, gamma)
        times = [(j + 0.5) * spec.period / (2 * QUANTUM_SAMPLES) for j in range(QUANTUM_SAMPLES)]
        quantum.append((gamma, check_quantum_vs_oracle(walk, spec, times)))
        classical.append((gamma, check_classical_vs_oracle(walk, spec)))
        try:
            limiting.append((gamma, check_limiting_vs_oracle(walk, spec)))
        except ConsistencyError as exc:  # the limit's sum guard
            limiting.append((gamma, exc))
        del walk  # free this graph before the next one is built
    return [
        _oracle_check("quantum_vs_oracle", quantum),
        _oracle_check("classical_vs_oracle", classical),
        check_transposition_closed_form(n),
        check_hook_ncycle_characters(n),
        check_hook_pcycle_characters(n),
        check_orthogonality_relations(n),
        check_eigenvalue_integrality(spectra),
        check_dimension_agreement(n),
        check_sine_closed_form(n, spectra),
        check_limiting_table(n, spectra),
        _oracle_check("limiting_vs_oracle", limiting),
    ]
