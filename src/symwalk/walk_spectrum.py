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
set), so the walk is periodic: ``WalkSpectrum.period`` is 2*pi/g, with
g the gcd of the eigenvalues' differences.  Phase terms
are accumulated onto the spectrum's |E| axis, in exact integers,
once per start class (``WalkKernel``).  The only floating-point steps
are a cos and sin (or two exps) per distinct |E| and, per target class,
sums of coefficient times those factors (a zero row skipped), so
destructive interference that is exact in the algebra (e.g. odd classes
under an even generator) is exact in the output as well: a zero
coefficient adds 0.  Evaluation is plain Python (``math`` and lists), so
no walk command imports numpy; only the literal oracle does.  Float sums
use ``sum()``, which adds left to right up to Python 3.11 and compensates
rounding from 3.12: the last bits of a float output depend only on that.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
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

    @cached_property
    def groups(self) -> dict[Fraction, list[int]]:
        """Each distinct exact E, first seen first, with its irreps' positions."""
        groups: dict[Fraction, list[int]] = {}
        for i, rec in enumerate(self.records):
            groups.setdefault(rec.eigenvalue, []).append(i)
        return groups

    @cached_property
    def freqs(self) -> list[Fraction]:
        """Every kernel's |E| axis, first seen first; an |E| only one sign reaches goes last."""
        return sorted(dict.fromkeys(map(abs, self.groups)),
                      key=lambda w: w not in self.groups or -w not in self.groups)

    @cached_property
    def period(self) -> float:
        """The shortest period 2*pi/g of e^{itH} up to a global phase: g is the
        gcd of the differences of the distinct exact eigenvalues, for rationals
        the gcd of the numerators over the lcm of the denominators."""
        first, *rest = self.groups
        gaps = [e - first for e in rest]
        g = eigenvalue_float(Fraction(math.gcd(*(d.numerator for d in gaps)),
                                      math.lcm(*(d.denominator for d in gaps))))
        period = 2 * math.pi / g if g else math.inf  # g is 0.0 where it underflows
        if not math.isfinite(period):
            raise DomainError("the walk's period is too long for a float")
        return period

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The full character table, folded once for every start's kernel."""
        return character_table(self.n)

    @cached_property
    def float_axis(self) -> SimpleNamespace:
        """The |E| axis in floats, with its max, ``two_signed``, the classical
        exponents and the class weights, which every start class's kernel reads."""
        groups, degree, nfact = self.groups, self.f.degree(), factorial(self.n)
        floats = [eigenvalue_float(w) for w in self.freqs]
        return SimpleNamespace(
            freqs=floats,
            max_freq=max(floats),
            two_signed=sum(w in groups and -w in groups for w in self.freqs),
            rising=[eigenvalue_float((w if w in groups else -w) - degree) for w in self.freqs],
            falling=[eigenvalue_float((-w if -w in groups else w) - degree) for w in self.freqs],
            weights=[self.class_sizes[lam] / nfact for lam in self.classes],
        )

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


def _floats(row: list[int]) -> list[float]:
    """An exact row rounded to floats, or [] where every entry is 0."""
    return list(map(float, row)) if any(row) else []


class WalkKernel:
    """The walk from one start class mu as two exact integer matrices.

    With w running over the spectrum's |E| axis ``freqs`` and s_nu = -1
    where E_nu < 0 and +1 elsewhere,

        A[lam][w] = sum_{nu : |E_nu| = w} chi_nu(lam) chi_nu(mu)
        B[lam][w] = sum_{nu : |E_nu| = w} s_nu chi_nu(lam) chi_nu(mu)

    so A = K+ + K- and B = K+ - K-, with K+[w] and K-[w] the sums over
    the irreps at E = +w and E = -w (E = 0 in K+).  Every engine is a
    short formula over A and B:

        quantum     |pref_lam * (sum_w A[w] cos(tw) + i sum_w B[w] sin(tw))|^2
        classical   |C_lam|/n! * sum_w A[w] c_w + B[w] s_w  (see ``_folded``)
        limit       |C_lam||C_mu|/(n!)^2 * sum_w (A[w]^2 + B[w]^2)/2
        average     pref_lam^2 * sum_{u,v} (A[u]A[v] S+[u][v] + B[u]B[v] S-[u][v])
                    over [0, T]  (see ``averaged_probabilities``)

    Folding happens in exact integers before any float appears, so an
    algebraically exact cancellation (a zero entry) stays exact in
    floating point.
    """

    def __init__(self, spec: WalkSpectrum, mu: Partition):
        if mu.n != spec.n:
            raise DomainError(f"start class {mu} is not a partition of {spec.n}")
        columns = spec.columns  # A and B have a row per class: every column
        slots = {w: i for i, w in enumerate(spec.freqs)}
        col_mu = columns[spec.classes.index(mu)]
        # Irreps with chi_nu(mu) = 0 add nothing to any entry.
        terms = [(i, slots[abs(e)], col_mu[i], -col_mu[i] if e < 0 else col_mu[i])
                 for e, at in spec.groups.items() for i in at if col_mu[i]]
        self.even, self.odd = [], []  # A and B
        for col in columns:
            a, b = [0] * len(slots), [0] * len(slots)
            for i, w, c, sc in terms:
                a[w] += col[i] * c
                b[w] += col[i] * sc
            self.even.append(a)
            self.odd.append(b)
        self.spec = spec
        self.mu = mu

    @cached_property
    def _folded(self) -> SimpleNamespace:
        """The rows of A and B rounded to floats once, [] for an all-zero
        row, with the factors they multiply: per time point one cos and sin
        of tw, or the classical c_w, s_w = (x_w +- y_w)/2 from two exps per
        w, x_w = e^{t(w - d)} and y_w = e^{-t(w + d)}, which for a 0/1
        generator (|E| <= d) never overflow.  B[0] multiplies sin(0) = 0
        and is set to 0.  Where only one of +w, -w is an eigenvalue, the
        classical walk takes x_w = y_w = e^{t(E - d)}, so c_w is that one
        exponential and s_w = 0: those w come last, and the classical odd
        sums stop after the ``two_signed`` leading columns.  For an odd
        generator class (transpositions among them) E_nu' = -E_nu and
        chi_nu' = sgn chi_nu, so K-[w] = sgn(lam) sgn(mu) K+[w]: the B row
        is 0 where the signs agree and the A row where they differ, and a
        time point sums one row per class.  Only the rows and the
        prefactors depend on mu: the rest is ``spec.float_axis``."""
        spec, nfact = self.spec, factorial(self.spec.n)
        size_mu = spec.class_sizes[self.mu]
        return SimpleNamespace(
            **vars(spec.float_axis),
            even_rows=[_floats(a) for a in self.even],
            odd_rows=[_floats([b if w else 0 for w, b in zip(spec.freqs, r)]) for r in self.odd],
            prefactors=[math.sqrt(spec.class_sizes[lam] * size_mu / nfact ** 2)
                        for lam in spec.classes],  # int / int rounds as float(Fraction) does
        )

    def _sums(self, evens: list[float], odds: list[float]) -> tuple[list, list]:
        """Per class, sum_w A[w] evens[w] and sum_w B[w] odds[w], 0.0 for a
        zero row; a shorter ``odds`` ends its sums there (last bits by
        interpreter: see the module notes)."""
        f = self._folded
        return ([sum(map(mul, a, evens)) if a else 0.0 for a in f.even_rows],
                [sum(map(mul, b, odds)) if b else 0.0 for b in f.odd_rows])

    def _real_imag(self, t: float) -> tuple[list[float], list[float]]:
        """Real and imaginary parts of every class amplitude at time t."""
        f = self._folded
        if not math.isfinite(t * f.max_freq):
            raise DomainError(f"time {t!r} overflows the phase t*E")
        re, im = self._sums([math.cos(t * w) for w in f.freqs], [math.sin(t * w) for w in f.freqs])
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
                               [(p - q) / 2 for p, q in zip(x, y[:f.two_signed])])
        return [0.0 if m < 0.0 else m for m in map(mul, f.weights, map(add, even, odd))]

    def averaged_probabilities(self, horizon: float) -> list[float]:
        """``quantum_probabilities`` averaged over [0, T], exact to rounding:
        cos(tu)cos(tv) and sin(tu)sin(tv) average to S+-[u][v] = (S(u - v)
        +- S(u + v))/2, with S(x) = sin(xT)/(xT) and S(0) = 1."""
        f = self._folded
        if not horizon > 0:
            raise DomainError("averaging horizon must be positive")
        if not math.isfinite(horizon * (2 * f.max_freq)):  # u + v reaches 2 max |E|
            raise DomainError(f"horizon {horizon!r} overflows the phase T*E")

        def sinc(x: float) -> float:
            y = x * horizon
            return math.sin(y) / y if y else 1.0

        def form(rows, sign) -> list[float]:
            pairs = [[(sinc(u - v) + sign * sinc(u + v)) / 2 for v in f.freqs] for u in f.freqs]
            return [sum(x * sum(map(mul, vals, row)) for x, row in zip(vals, pairs) if x)
                    for vals in rows]

        even, odd = form(f.even_rows, 1), form(f.odd_rows, -1)
        return [max(0.0, p * p * (a + b)) for p, a, b in zip(f.prefactors, even, odd)]

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

