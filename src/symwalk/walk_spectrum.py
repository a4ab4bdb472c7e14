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
coefficients, once per start class (``WalkKernel``); the only
floating-point steps are e^{itE} and one matrix-vector product, so
destructive interference that is exact in the algebra (e.g. odd classes
under an even generator) is exact in the output as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial
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
    def of(cls, spec: WalkSpectrum, t: float, probs) -> "ClassDistribution":
        """Wrap an array of class probabilities in canonical class order."""
        return cls(n=spec.n, probs=dict(zip(spec.classes, probs.tolist())), t=t)


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
    floating point.  The float copies are made on first evaluation.
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
    def _arrays(self) -> SimpleNamespace:
        """The float copies the engines evaluate.  Differences and ratios
        are taken exactly and rounded once."""
        import numpy as np

        spec, nfact = self.spec, factorial(self.spec.n)
        sizes = [spec.class_sizes[lam] for lam in spec.classes]
        return SimpleNamespace(
            # K transposed: summing it over axis 0 adds the groups one after
            # another, in the order of a per-class loop (a BLAS product
            # would not keep that order).
            kt=np.array(self.coefficients, dtype=float).T.copy(),
            prefactors=np.array([
                math.sqrt(Fraction(s * spec.class_sizes[self.mu], nfact * nfact)) for s in sizes
            ]),
            weights=np.array([s / nfact for s in sizes]),
            energies=np.array([eigenvalue_float(ev) for ev in self.energies]),
            neg_gaps=np.array([eigenvalue_float(ev - spec.f.degree())  # -(d - E_G)
                               for ev in self.energies]),
        )

    def amplitudes(self, t: float):
        """<c_lam| e^{itH} |c_mu> for every target class lam, as an array."""
        import numpy as np

        a = self._arrays
        if not math.isfinite(t * float(abs(a.energies).max())):
            raise DomainError(f"time {t!r} overflows the phase t*E")
        return a.prefactors * (a.kt * np.exp(1j * t * a.energies)[:, None]).sum(axis=0)

    def quantum_probabilities(self, t: float):
        return abs(self.amplitudes(t)) ** 2

    def classical_probabilities(self, t: float):
        """Class masses of e^{-tL} started uniform on C_mu; L = d - H has
        eigenvalue d - E_G on the group G, d the degree."""
        import numpy as np

        if not t >= 0:
            raise DomainError(f"the classical walk runs forward in time, got t={t!r}")
        if not math.isfinite(t):  # e^{-t(d - E_G)} would take inf * 0 on the stationary group
            raise DomainError(f"time must be a finite number, got {t!r}")
        a = self._arrays
        with np.errstate(over="ignore"):  # t*(E_G - d) may round to -inf; e^-inf is 0
            decay = np.exp(t * a.neg_gaps)
        return np.maximum(a.weights * (a.kt * decay[:, None]).sum(axis=0), 0.0)

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

    Started from the uniform distribution on C_mu.  Only 0/1 generator
    weightings give a genuine Laplacian.
    """
    if not all(w == 1 for w in spec.f.weights.values()):
        raise DomainError("classical walk requires a 0/1 generator indicator")
    return ClassDistribution.of(spec, t, spec.kernel(mu).classical_probabilities(t))


def ncycle_amplitude_closed_form(n: int, t: float) -> complex:
    """(2i sin(tn/2))^(n-1) / sqrt(n*n!): identity-to-n-cycle amplitude
    for the transposition walk."""
    if n < 2:
        raise DomainError("closed form needs n >= 2")
    return (2j * math.sin(t * n / 2)) ** (n - 1) / math.sqrt(n * factorial(n))

