"""Spectral engine for continuous-time walks on Cayley graphs of S_n.

For a class function f, the operator H[g,h] = f(g^{-1}h) acts as the
scalar E_nu = (1/dim rho_nu) sum_gamma |C_gamma| f(gamma) chi_nu(gamma)
on the nu-isotypic block, so class-to-class amplitudes of U(t) = e^{itH}
reduce to a sum of p(n) phase terms:

    <c_lam| U(t) |c_mu> = sqrt(|C_lam||C_mu|)/n!
                          * sum_nu e^{i t E_nu} chi_nu(lam) chi_nu(mu).

The Cayley graph's edge rule gh^{-1} in C_gamma matches H's g^{-1}h
convention because every S_n element is conjugate to its inverse, so
f(g^{-1}h) = f(gh^{-1}) for class functions (the oracle tests this
identity on the literal adjacency matrix).

Eigenvalues are exact rationals (exact integers for single-class
generators, the mechanism behind the walk's 2*pi periodicity).  Phase
terms are accumulated per distinct eigenvalue with exact integer
coefficients, once per start class (``WalkKernel``), and folded onto the
distinct |E| in exact integers.  The only floating-point steps are a
cos and sin (or two exps) per distinct |E| and, per target class, sums
of coefficient times those factors over the nonzero coefficients, so
destructive interference that is exact in the algebra (e.g. odd classes
under an even generator) is exact in the output as well.  Evaluation is
plain Python (``math`` and lists), so no walk command imports numpy;
only the dense oracle does.  Float sums use ``sum()``, which adds left
to right up to Python 3.11 and compensates rounding from 3.12, so the
last bits of a float output depend on the interpreter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import factorial
from operator import add, mul, sub
from types import SimpleNamespace

from .characters import character_column, character_table, dimension
from .errors import ConsistencyError, DegenerateGeneratorError, DomainError
from .partitions import Partition, class_size, enumerate_partitions, identity_partition


@dataclass(frozen=True, eq=False)
class ClassFunction:
    """Rational weights on the conjugacy classes of S_n, finitely supported.

    The common case is the indicator of a single generator class; general
    weighted mixtures are accepted everywhere the math allows them.
    Zero weights are dropped.
    """

    n: int
    weights: dict[Partition, Fraction]

    def __post_init__(self):
        for lam in self.weights:
            if lam.n != self.n:
                raise DomainError(f"{lam} is not a partition of {self.n}")
        weights = {lam: Fraction(w) for lam, w in self.weights.items()}
        object.__setattr__(self, "weights", {lam: w for lam, w in weights.items() if w})

    @classmethod
    def indicator(cls, gamma: Partition) -> "ClassFunction":
        """Indicator of one generator class; the identity class is refused."""
        if gamma == identity_partition(gamma.n):
            raise DegenerateGeneratorError("the identity class does not generate a walk")
        return cls(gamma.n, {gamma: Fraction(1)})

    def is_single_class_indicator(self) -> bool:
        return len(self.weights) == 1 and next(iter(self.weights.values())) == 1

    def degree(self) -> Fraction:
        """sum_gamma |C_gamma| f(gamma); the graph degree for indicators."""
        return sum((class_size(g) * w for g, w in self.weights.items()), Fraction(0))


def eigenvalue_float(value: Fraction) -> float:
    """An exact eigenvalue or gap as a float; past the float range a DomainError."""
    try:
        return float(value)
    except OverflowError:
        raise DomainError("eigenvalue too large for a float; only exact output is available") from None


@dataclass(frozen=True)
class EigenRecord:
    rep: Partition
    eigenvalue: Fraction
    dim: int


class WalkSpectrum:
    """The diagonalized walk operator: one exact eigenvalue per irrep."""

    def __init__(self, n: int, f: ClassFunction, records: list[EigenRecord]):
        self.n = n
        self.f = f
        self.records = records
        self.classes = tuple(rec.rep for rec in records)  # canonical order
        self._kernels: dict[Partition, WalkKernel] = {}

    @cached_property
    def class_sizes(self) -> dict[Partition, int]:
        return {lam: class_size(lam) for lam in self.classes}

    @cached_property
    def eigenvalue_classes(self) -> list[tuple[Fraction, list[int]]]:
        """Indices of reps sharing each exact eigenvalue, in canonical order."""
        groups: dict[Fraction, list[int]] = {}
        for i, rec in enumerate(self.records):
            groups.setdefault(rec.eigenvalue, []).append(i)
        return sorted(groups.items(), key=lambda kv: kv[1][0])

    def kernel(self, mu: Partition) -> "WalkKernel":
        """The phase kernel from start class mu, built once per start."""
        if mu not in self._kernels:
            self._kernels[mu] = WalkKernel(self, mu)
        return self._kernels[mu]


def spectrum(n: int, f: ClassFunction) -> WalkSpectrum:
    """Diagonalize the walk operator for generator weighting f.

    Reads only the generator columns, one per class of f, so it runs
    to the partition cap.  For a single-class indicator every eigenvalue
    must come out an exact integer; a non-integer here means the
    character engine is broken, so it raises rather than rounding.
    """
    if f.n != n:
        raise DomainError(f"class function is on n={f.n}, not {n}")
    columns = [(class_size(gamma) * w, character_column(gamma)) for gamma, w in f.weights.items()]
    single = f.is_single_class_indicator()
    records = []
    for i, nu in enumerate(enumerate_partitions(n)):
        dim = dimension(nu)
        ev = sum((scale * column[i] for scale, column in columns), Fraction(0)) / dim
        if single and ev.denominator != 1:
            raise ConsistencyError(
                f"eigenvalue for rep {nu} is {ev}, expected an integer"
            )
        records.append(EigenRecord(rep=nu, eigenvalue=ev, dim=dim))
    return WalkSpectrum(n, f, records)


@dataclass(frozen=True)
class ClassDistribution:
    """Probability per conjugacy class: floats after walking for time t,
    or exact rationals of the limiting distribution (t None)."""

    n: int
    probs: dict[Partition, float | Fraction]
    t: float | None = None

    @cached_property
    def per_element(self) -> dict[Partition, float | Fraction]:
        """Probability of each single permutation of a class."""
        return {lam: p / class_size(lam) for lam, p in self.probs.items()}

    @classmethod
    def of(cls, spec: WalkSpectrum, t: float, probs: list[float]) -> "ClassDistribution":
        """Wrap a list of class probabilities in canonical class order."""
        return cls(n=spec.n, probs=dict(zip(spec.classes, probs)), t=t)


def _sparse(row: list[int]) -> tuple[list[float], list[bool]]:
    """The nonzero entries of an exact row as floats, and a selector of
    their places for ``itertools.compress``.  A zero entry adds k*x = 0
    to its sum, which changes no nonzero sum, so evaluation skips it."""
    return list(map(float, filter(None, row))), list(map(bool, row))


class WalkKernel:
    """The walk from one start class mu as one exact integer matrix.

    K[lam][G] = sum_{nu in G} chi_nu(lam) chi_nu(mu), with G running over
    the groups of irreps that share one exact eigenvalue E_G.  Every
    engine is a short formula over K:

        quantum     |pref_lam * sum_G K[lam][G] e^{itE_G}|^2
        classical   |C_lam|/n! * sum_G K[lam][G] e^{-t(d - E_G)}
        limit       |C_lam||C_mu|/(n!)^2 * sum_G K[lam][G]^2

    Grouping happens in exact integers before any float appears, so an
    algebraically exact cancellation (a zero entry of K) stays exact in
    floating point.  The time engines evaluate K folded onto the distinct
    |E_G| (``_folded``): per time point one cos and sin (or two exps) per
    |E_G|, and per class a sum over the nonzero entries of each fold.
    """

    def __init__(self, spec: WalkSpectrum, mu: Partition):
        if mu.n != spec.n:
            raise DomainError(f"start class {mu} is not a partition of {spec.n}")
        groups = spec.eigenvalue_classes
        table = character_table(spec.n)  # the one engine that needs every column
        col_mu = table.column(mu)
        self.coefficients = tuple(
            tuple(sum(col[i] * col_mu[i] for i in members) for _, members in groups)
            for col in table.columns
        )
        self.energies = tuple(ev for ev, _ in groups)
        self.spec = spec
        self.mu = mu

    @cached_property
    def _folded(self) -> SimpleNamespace:
        """K folded onto the distinct w = |E_G|, rounded to floats once.

        With K+[w] and K-[w] the entries of K at E = +w and E = -w (E = 0
        counted in K+), A = K+ + K- and B = K+ - K- are summed in exact
        integers, and both engines become sums over w:

            quantum     Re = sum_w A[w] cos(tw),  Im = sum_w B[w] sin(tw)
            classical   sum_w A[w] c_w + B[w] s_w,  c_w, s_w = (x_w +- y_w)/2

        with x_w = e^{t(w - d)} and y_w = e^{-t(w + d)}, which for a 0/1
        generator (|E| <= d) never overflow.  B[0] multiplies sin(0) = 0
        and is left out.  Where only one of +w, -w is an eigenvalue, the
        classical walk takes x_w = y_w = e^{t(E - d)}, so c_w is that one
        exponential and s_w = 0 drops out.  For an odd generator class
        (transpositions among them) E_nu' = -E_nu and chi_nu' = sgn chi_nu,
        so K-[w] = +-K+[w] and one of A[w], B[w] is 0 on every class: with
        the zeros skipped, a time point adds about half the nonzero terms
        of the sum over groups.
        """
        spec, nfact = self.spec, factorial(self.spec.n)
        sizes = [spec.class_sizes[lam] for lam in spec.classes]
        degree = spec.f.degree()
        freqs = list(dict.fromkeys(abs(ev) for ev in self.energies))  # first-seen order
        signed = {ev: g for g, ev in enumerate(self.energies)}
        pad = len(self.energies)  # the index of a 0 appended to each row of K
        plus = [signed.get(w, pad) for w in freqs]
        minus = [signed.get(-w, pad) if w else pad for w in freqs]
        nonzero = [w != 0 for w in freqs]
        paired = [w != 0 and w in signed and -w in signed for w in freqs]
        even_rows, odd_rows, paired_rows = [], [], []
        for row in self.coefficients:
            row = (*row, 0)
            k_plus, k_minus = [row[g] for g in plus], [row[g] for g in minus]
            b = list(map(sub, k_plus, k_minus))
            even_rows.append(_sparse(list(map(add, k_plus, k_minus))))
            odd_rows.append(_sparse(list(compress(b, nonzero))))
            paired_rows.append(_sparse(list(compress(b, paired))))
        cos_freqs = [eigenvalue_float(w) for w in freqs]
        return SimpleNamespace(
            even_rows=even_rows,
            odd_rows=odd_rows,
            paired_rows=paired_rows,
            paired=paired,
            cos_freqs=cos_freqs,
            sin_freqs=[eigenvalue_float(w) for w in compress(freqs, nonzero)],
            max_freq=max(cos_freqs),
            # x_w = e^{t*rising}, y_w = e^{t*falling}
            rising=[eigenvalue_float((w if w in signed else -w) - degree) for w in freqs],
            falling=[eigenvalue_float((-w if -w in signed else w) - degree) for w in freqs],
            prefactors=[
                math.sqrt(Fraction(s * spec.class_sizes[self.mu], nfact * nfact)) for s in sizes
            ],
            weights=[s / nfact for s in sizes],
        )

    def _sums(self, evens: list[float], odds: list[float], odd_rows) -> tuple[list, list]:
        """Per class, sum_w A[w] evens[w] and sum_w B[w] odds[w] over the
        nonzero A and B (last bits by interpreter: see the module notes)."""
        even_rows = self._folded.even_rows
        return ([sum(map(mul, a, compress(evens, at))) if a else 0.0 for a, at in even_rows],
                [sum(map(mul, b, compress(odds, bt))) if b else 0.0 for b, bt in odd_rows])

    def _real_imag(self, t: float) -> tuple[list[float], list[float]]:
        """Real and imaginary parts of every class amplitude at time t."""
        f = self._folded
        if not math.isfinite(t * f.max_freq):
            raise DomainError(f"time {t!r} overflows the phase t*E")
        re, im = self._sums([math.cos(t * w) for w in f.cos_freqs],
                            [math.sin(t * w) for w in f.sin_freqs], f.odd_rows)
        return list(map(mul, f.prefactors, re)), list(map(mul, f.prefactors, im))

    def amplitudes(self, t: float) -> list[complex]:
        """<c_lam| e^{itH} |c_mu> for every target class lam."""
        return list(map(complex, *self._real_imag(t)))

    def quantum_probabilities(self, t: float) -> list[float]:
        re, im = self._real_imag(t)
        return [x * x + y * y for x, y in zip(re, im)]

    def classical_probabilities(self, t: float) -> list[float]:
        """Class masses of e^{-tL} started uniform on C_mu; L = d - H has
        eigenvalue d - E_G on the group G, d the degree.  Only 0/1
        generator weightings give a genuine Laplacian."""
        if not all(w == 1 for w in self.spec.f.weights.values()):
            raise DomainError("classical walk requires a 0/1 generator indicator")
        if not t >= 0:
            raise DomainError(f"the classical walk runs forward in time, got t={t!r}")
        if not math.isfinite(t):  # e^{-t(d - w)} would take inf * 0 at w = d
            raise DomainError(f"time must be a finite number, got {t!r}")
        f = self._folded
        x = [math.exp(t * r) for r in f.rising]
        y = [math.exp(t * r) for r in f.falling]  # may round to e^-inf = 0
        even, odd = self._sums([(p + q) / 2 for p, q in zip(x, y)],
                               [(p - q) / 2 for pair, p, q in zip(f.paired, x, y) if pair],
                               f.paired_rows)
        return [0.0 if m < 0.0 else m for m in map(mul, f.weights, map(add, even, odd))]

    def limiting_sums(self) -> list[int]:
        """sum_G K[lam][G]^2 per target class lam, exact."""
        return [sum(k * k for k in row) for row in self.coefficients]


def class_amplitude(spec: WalkSpectrum, lam: Partition, mu: Partition, t: float) -> complex:
    """<c_lam| e^{itH} |c_mu> for class-uniform unit states c."""
    if lam.n != spec.n or mu.n != spec.n:
        raise DomainError("start and target classes must partition the walk's n")
    return complex(spec.kernel(mu).amplitudes(t)[spec.classes.index(lam)])


def class_distribution(spec: WalkSpectrum, mu: Partition, t: float) -> ClassDistribution:
    """Measurement distribution over classes at time t, started from c_mu."""
    return ClassDistribution.of(spec, t, spec.kernel(mu).quantum_probabilities(t))


def classical_class_distribution(spec: WalkSpectrum, mu: Partition, t: float) -> ClassDistribution:
    """Continuous-time random walk M(t) = e^{-tL}, aggregated per class.

    Started from the uniform distribution on C_mu.
    """
    return ClassDistribution.of(spec, t, spec.kernel(mu).classical_probabilities(t))


def ncycle_amplitude_closed_form(n: int, t: float) -> complex:
    """(2i sin(tn/2))^(n-1) / sqrt(n*n!): identity-to-n-cycle amplitude
    for the transposition walk."""
    if n < 2:
        raise DomainError("closed form needs n >= 2")
    return (2j * math.sin(t * n / 2)) ** (n - 1) / math.sqrt(n * factorial(n))

