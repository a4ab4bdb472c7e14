"""Exact limiting (time-averaged) distributions of the quantum walk.

Averaging e^{it(E_nu - E_eta)} over all time kills every cross term
except those with exactly equal eigenvalues, so the limiting probability
of class lam starting from c_mu is

    P_bar[lam] = |C_lam||C_mu|/(n!)^2 * sum_G ( sum_{nu in G}
                 chi_nu(lam) chi_nu(mu) )^2

with G running over the groups of irreps sharing one exact eigenvalue.
Everything on this route is a big-integer/rational identity; the only
collision detection is equality of exact rationals, never floats.

The closed-form n-cycle table for p-cycle generators is implemented
separately in ``table_ncycle_case``: it drives the ``table`` command
and, independent of the grouping engine, cross-checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Literal

from .errors import ConsistencyError, DomainError, SupportMismatchError
from .partitions import Partition, class_size, is_even_class
from .walk_spectrum import (
    ClassDistribution,
    WalkSpectrum,
)


@dataclass(frozen=True)
class EigenGroups:
    """Partition of the irreps of S_n by exact eigenvalue equality."""

    groups: tuple[tuple[Partition, ...], ...]


def eigenvalue_groups(spec: WalkSpectrum) -> EigenGroups:
    """Group irreps by equal exact E_nu (rational comparison only)."""
    groups = tuple(
        tuple(spec.classes[i] for i in members)
        for _, members in spec.eigenvalue_classes
    )
    return EigenGroups(groups=groups)


def limiting_class_distribution(spec: WalkSpectrum, mu: Partition) -> ClassDistribution:
    """Exact time average of the class distribution started from c_mu."""
    scale = Fraction(spec.class_sizes[mu], factorial(spec.n) ** 2)
    probs = {lam: scale * acc * spec.class_sizes[lam]
             for lam, acc in zip(spec.classes, spec.kernel(mu).limiting_sums())}
    total = sum(probs.values(), Fraction(0))
    if total != 1:
        raise ConsistencyError(f"limiting distribution sums to {total}, not 1")
    return ClassDistribution(n=spec.n, probs=probs)


def table_ncycle_case(n: int, p: int) -> tuple[str, Fraction]:
    """Closed-form per-element n-cycle limiting probability and which of
    the eight parity/range cases produced it.

    Generator is the p-cycle class (p,1,...,1), start is the identity.
    Independent of the grouping engine by construction.
    """
    if not 2 <= p <= n:
        raise DomainError(f"p must lie in 2..{n}, got {p}")
    sq = factorial(n) ** 2

    def hooksq_sum(upper: int) -> int:
        return sum(comb(n - 1, k - 1) ** 2 for k in range(1, upper + 1))

    if p % 2 == 0:
        if p == n:
            return "even_p_full_cycle", Fraction(comb(2 * n - 2, n - 1), sq)
        if p <= (n + 1) // 2:
            return "even_p_low", Fraction(comb(2 * n - 2, n - 1), sq)
        if n % 2 == 0:
            return "even_n_even_p_high", Fraction(2 * hooksq_sum(n - p), sq)
        return (
            "odd_n_even_p_high",
            Fraction(2 * hooksq_sum(n - p) + 4 * comb(n - 2, p - 1) ** 2, sq),
        )
    if n % 2 == 0:
        return "even_n_odd_p", Fraction(0)
    folded = 2 * comb(2 * n - 2, n - 1) - comb(n - 1, (n - 1) // 2) ** 2
    if p == n:
        return "odd_n_odd_p_full_cycle", Fraction(folded, sq)
    if p <= (n + 1) // 2:
        return "odd_n_odd_p_low", Fraction(folded, sq)
    return (
        "odd_n_odd_p_high",
        Fraction(4 * hooksq_sum(n - p) + 4 * comb(n - 2, p - 1) ** 2, sq),
    )


Support = Literal["symmetric_group", "alternating_group"]


def tv_distance(dist: ClassDistribution, support: Support = "symmetric_group") -> Fraction:
    """Exact total variation distance from uniform on the given support.

    Both distributions are constant on classes, so the half-L1 sum runs
    classwise and stays exact.  Alternating support is only meaningful
    when every odd class carries zero probability; for n <= 1, A_n = S_n.
    """
    if support not in ("symmetric_group", "alternating_group"):
        raise DomainError(f"unknown support {support!r}")
    alternating = support == "alternating_group" and dist.n >= 2
    odd_mass = sum((p for lam, p in dist.probs.items() if not is_even_class(lam)), Fraction(0))
    if alternating and odd_mass != 0:
        raise SupportMismatchError(
            "alternating-group support requested but odd classes carry mass"
        )
    share = Fraction(1 + alternating, factorial(dist.n))
    uniform = {lam: share * class_size(lam) if not alternating or is_even_class(lam) else 0
               for lam in dist.probs}
    return sum((abs(p - uniform[lam]) for lam, p in dist.probs.items()), Fraction(0)) / 2


def time_averaged_distribution(
    spec: WalkSpectrum, mu: Partition, horizon: float, samples: int
) -> ClassDistribution:
    """Numeric quadrature of (1/T) integral_0^T P_t dt by the midpoint rule.

    Converges to ``limiting_class_distribution`` as the horizon and the
    sample count grow; for integer eigenvalues, T = 2*pi is already the
    full period.
    """
    if horizon <= 0:
        raise DomainError("averaging horizon must be positive")
    if samples < 1:
        raise DomainError("need at least one sample")
    kernel = spec.kernel(mu)
    acc = sum(kernel.quantum_probabilities((j + 0.5) * horizon / samples)
              for j in range(samples))
    return ClassDistribution.of(spec, horizon, acc / samples)
