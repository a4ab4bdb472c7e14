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

Eigenvalues are exact rationals (exact integers for a 0/1 generator
set, the mechanism behind the walk's 2*pi periodicity).  Phase terms
are accumulated onto the distinct |E| with exact integer coefficients,
once per start class (``WalkKernel``).  The only floating-point steps
are a cos and sin (or two exps) per distinct |E| and, per target class,
sums of coefficient times those factors over the nonzero coefficients, so
destructive interference that is exact in the algebra (e.g. odd classes
under an even generator) is exact in the output as well.  Evaluation is
plain Python (``math`` and lists), so no walk command imports numpy;
only the literal oracle does.  Float sums use ``sum()``, which adds left
to right up to Python 3.11 and compensates rounding from 3.12, so the
last bits of a float output depend on the interpreter.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import factorial
from operator import add, mul
from types import SimpleNamespace
from typing import NamedTuple

from .characters import character_column, character_table, dimension
from .errors import ConsistencyError, DegenerateGeneratorError, DomainError
from .partitions import Frozen, Partition, class_size, enumerate_partitions, identity_partition


class ClassFunction(Frozen):
    """Rational weights on the conjugacy classes of S_n, finitely supported.

    The common case is the indicator of a single generator class; general
    weighted mixtures are accepted everywhere the math allows them.
    Zero weights are dropped.  Equal only to itself, like any object.
    """

    def __init__(self, n: int, weights: dict[Partition, Fraction]):
        for lam in weights:
            if lam.n != n:
                raise DomainError(f"{lam} is not a partition of {n}")
        weights = {lam: Fraction(w) for lam, w in weights.items()}
        vars(self).update(n=n, weights={lam: w for lam, w in weights.items() if w})

    @classmethod
    def indicator(cls, gamma: Partition) -> "ClassFunction":
        """Indicator of one generator class; the identity class is refused."""
        if gamma == identity_partition(gamma.n):
            raise DegenerateGeneratorError
        return cls(gamma.n, {gamma: Fraction(1)})

    def is_indicator(self) -> bool:
        """Whether f is the 0/1 indicator of a set of classes.  Then every
        E_nu is a sum of central characters, which are rational algebraic
        integers, so an integer; and L = d - H is a genuine Laplacian."""
        return all(w == 1 for w in self.weights.values())

    def degree(self) -> Fraction:
        """sum_gamma |C_gamma| f(gamma); the graph degree for indicators."""
        return sum((class_size(g) * w for g, w in self.weights.items()), Fraction(0))


def eigenvalue_float(value: Fraction) -> float:
    """An exact eigenvalue or gap as a float; past the float range a DomainError."""
    try:
        return float(value)
    except OverflowError:
        raise DomainError("eigenvalue too large for a float; only exact output is available") from None


class EigenRecord(NamedTuple):
    rep: Partition
    eigenvalue: Fraction
    dim: int


class WalkSpectrum:
    """The diagonalized walk operator: one exact eigenvalue per irrep."""

    def __init__(self, f: ClassFunction, records: list[EigenRecord]):
        self.n = f.n
        self.f = f
        self.records = records
        self.classes = tuple(rec.rep for rec in records)  # canonical order
        self._kernels: dict[Partition, WalkKernel] = {}

    @cached_property
    def class_sizes(self) -> dict[Partition, int]:
        return {lam: class_size(lam) for lam in self.classes}

    def kernel(self, mu: Partition) -> "WalkKernel":
        """The phase kernel from start class mu, built once per start."""
        if mu not in self._kernels:
            self._kernels[mu] = WalkKernel(self, mu)
        return self._kernels[mu]


def spectrum(f: ClassFunction) -> WalkSpectrum:
    """Diagonalize the walk operator for generator weighting f.

    Reads only the generator columns, one per class of f, so it runs
    to the partition cap.  For a 0/1 generator set every eigenvalue
    must come out an exact integer; a non-integer here means the
    character engine is broken, so it raises rather than rounding.
    """
    reps = enumerate_partitions(f.n)  # checks the cap before the columns' n-sized work
    columns = [(class_size(gamma) * w, character_column(gamma)) for gamma, w in f.weights.items()]
    integral = f.is_indicator()
    records = []
    for i, nu in enumerate(reps):
        dim = dimension(nu)
        ev = sum((scale * column[i] for scale, column in columns), Fraction(0)) / dim
        if integral and ev.denominator != 1:
            raise ConsistencyError(
                f"eigenvalue for rep {nu} is {ev}, expected an integer"
            )
        records.append(EigenRecord(rep=nu, eigenvalue=ev, dim=dim))
    return WalkSpectrum(f, records)


def _sparse(row: list[int]) -> tuple[list[float], list[bool]]:
    """The nonzero entries of an exact row as floats, and a selector of
    their places for ``itertools.compress``.  A zero entry adds k*x = 0
    to its sum, which changes no nonzero sum, so evaluation skips it."""
    return list(map(float, filter(None, row))), list(map(bool, row))


class WalkKernel:
    """The walk from one start class mu as two exact integer matrices.

    With w running over the distinct |E_nu| in first-seen irrep order
    and s_nu = -1 where E_nu < 0 and +1 elsewhere,

        A[lam][w] = sum_{nu : |E_nu| = w} chi_nu(lam) chi_nu(mu)
        B[lam][w] = sum_{nu : |E_nu| = w} s_nu chi_nu(lam) chi_nu(mu)

    so A = K+ + K- and B = K+ - K-, with K+[w] and K-[w] the sums over
    the irreps at E = +w and E = -w (E = 0 in K+).  Every engine is a
    short formula over A and B:

        quantum     |pref_lam * (sum_w A[w] cos(tw) + i sum_w B[w] sin(tw))|^2
        classical   |C_lam|/n! * sum_w A[w] c_w + B[w] s_w  (see ``_folded``)
        limit       |C_lam||C_mu|/(n!)^2 * sum_w (A[w]^2 + B[w]^2)/2

    Folding happens in exact integers before any float appears, so an
    algebraically exact cancellation (a zero entry) stays exact in
    floating point.
    """

    def __init__(self, spec: WalkSpectrum, mu: Partition):
        if mu.n != spec.n:
            raise DomainError(f"start class {mu} is not a partition of {spec.n}")
        columns = character_table(spec.n)  # A and B have a row per class: every column
        slots: dict[Fraction, int] = {}  # w -> its column, in first-seen order
        where = [slots.setdefault(abs(rec.eigenvalue), len(slots)) for rec in spec.records]
        col_mu = columns[spec.classes.index(mu)]
        # Irreps with chi_nu(mu) = 0 add nothing to any entry.
        terms = [(i, where[i], c, -c if rec.eigenvalue < 0 else c)
                 for i, (rec, c) in enumerate(zip(spec.records, col_mu)) if c]
        self.even, self.odd = [], []  # A and B
        for col in columns:
            a, b = [0] * len(slots), [0] * len(slots)
            for i, w, c, sc in terms:
                a[w] += col[i] * c
                b[w] += col[i] * sc
            self.even.append(a)
            self.odd.append(b)
        self.freqs = list(slots)
        self.spec = spec
        self.mu = mu

    @cached_property
    def _folded(self) -> SimpleNamespace:
        """The nonzero entries of A and B rounded to floats once, with the
        factors they multiply: per time point one cos and sin of tw, or
        the classical c_w, s_w = (x_w +- y_w)/2 from two exps per w,
        x_w = e^{t(w - d)} and y_w = e^{-t(w + d)}, which for a 0/1
        generator (|E| <= d) never overflow.  B[0] multiplies sin(0) = 0
        and is left out.  Where only one of +w, -w is an eigenvalue, the
        classical walk takes x_w = y_w = e^{t(E - d)}, so c_w is that one
        exponential and s_w = 0 drops out.  For an odd generator class
        (transpositions among them) E_nu' = -E_nu and chi_nu' = sgn chi_nu,
        so K-[w] = +-K+[w] and one of A[w], B[w] is 0 on every class: with
        the zeros skipped, a time point adds about half the nonzero terms
        of the sum over eigenvalues.
        """
        spec, nfact, freqs = self.spec, factorial(self.spec.n), self.freqs
        sizes = [spec.class_sizes[lam] for lam in spec.classes]
        degree = spec.f.degree()
        present = {rec.eigenvalue for rec in spec.records}
        nonzero = [w != 0 for w in freqs]
        paired = [w != 0 and w in present and -w in present for w in freqs]
        cos_freqs = [eigenvalue_float(w) for w in freqs]
        return SimpleNamespace(
            even_rows=[_sparse(a) for a in self.even],
            odd_rows=[_sparse(list(compress(b, nonzero))) for b in self.odd],
            paired_rows=[_sparse(list(compress(b, paired))) for b in self.odd],
            paired=paired,
            cos_freqs=cos_freqs,
            sin_freqs=[eigenvalue_float(w) for w in compress(freqs, nonzero)],
            max_freq=max(cos_freqs),
            # x_w = e^{t*rising}, y_w = e^{t*falling}
            rising=[eigenvalue_float((w if w in present else -w) - degree) for w in freqs],
            falling=[eigenvalue_float((-w if -w in present else w) - degree) for w in freqs],
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
        if not self.spec.f.is_indicator():
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
        """sum_E (sum_{nu : E_nu = E} chi_nu(lam) chi_nu(mu))^2 per class lam,
        exact: K+^2 + K-^2 = (A^2 + B^2)/2, and B = A where K- = 0 (w = 0)."""
        return [(sum(map(mul, a, a)) + sum(map(mul, b, b))) // 2
                for a, b in zip(self.even, self.odd)]


def class_amplitude(spec: WalkSpectrum, lam: Partition, mu: Partition, t: float) -> complex:
    """<c_lam| e^{itH} |c_mu> for class-uniform unit states c."""
    if lam.n != spec.n or mu.n != spec.n:
        raise DomainError("start and target classes must partition the walk's n")
    return spec.kernel(mu).amplitudes(t)[spec.classes.index(lam)]


def class_distribution(spec: WalkSpectrum, mu: Partition, t: float) -> dict[Partition, float]:
    """Measurement probability of each class at time t, started from c_mu;
    one permutation of class lam has probability p / |C_lam|."""
    return dict(zip(spec.classes, spec.kernel(mu).quantum_probabilities(t)))


def classical_class_distribution(
    spec: WalkSpectrum, mu: Partition, t: float
) -> dict[Partition, float]:
    """Continuous-time random walk M(t) = e^{-tL}, aggregated per class.

    Started from the uniform distribution on C_mu.
    """
    return dict(zip(spec.classes, spec.kernel(mu).classical_probabilities(t)))


def ncycle_amplitude_closed_form(n: int, t: float) -> complex:
    """(2i sin(tn/2))^(n-1) / sqrt(n*n!): identity-to-n-cycle amplitude
    for the transposition walk."""
    if n < 2:
        raise DomainError("closed form needs n >= 2")
    return (2j * math.sin(t * n / 2)) ** (n - 1) / math.sqrt(n * factorial(n))

