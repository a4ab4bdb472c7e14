"""Exact limiting (time-averaged) distributions of the quantum walk.

Averaging e^{it(E_nu - E_eta)} over all time kills every cross term
except those with exactly equal eigenvalues, so the limiting probability
of class lam starting from c_mu is

    P_bar[lam] = |C_lam||C_mu|/(n!)^2 * sum_G ( sum_{nu in G}
                 chi_nu(lam) chi_nu(mu) )^2

with G running over the groups of irreps sharing one exact eigenvalue
(``WalkSpectrum.groups``); the kernel reads the sum off its fold onto
the spectrum's |E| axis (``WalkKernel.limiting_sums``).  Everything on
this route is a big-integer/rational identity; the only collision
detection is equality of exact rationals, never floats.

The closed-form n-cycle table for p-cycle generators is implemented
separately in ``table_ncycle_case``: it drives the ``table`` command
and, independent of the grouping engine, cross-checks it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Literal, NamedTuple

from .errors import ConsistencyError, DomainError, SupportMismatchError
from .partitions import Partition, class_size, is_even_class
from .walk_spectrum import WalkSpectrum


class EigenGroups(NamedTuple):
    """Partition of the irreps of S_n by exact eigenvalue equality."""

    groups: tuple[tuple[Partition, ...], ...]


def eigenvalue_groups(spec: WalkSpectrum) -> EigenGroups:
    """The irreps grouped by equal exact E_nu (``WalkSpectrum.groups``), in
    the canonical order of each group's first member."""
    return EigenGroups(tuple(tuple(spec.classes[i] for i in at) for at in spec.groups.values()))


def limiting_class_distribution(spec: WalkSpectrum, mu: Partition) -> dict[Partition, Fraction]:
    """Exact time average of the class distribution started from c_mu."""
    scale = Fraction(spec.class_sizes[mu], factorial(spec.n) ** 2)
    probs = {lam: scale * acc * spec.class_sizes[lam]
             for lam, acc in zip(spec.classes, spec.kernel(mu).limiting_sums())}
    total = sum(probs.values(), Fraction(0))
    if total != 1:
        raise ConsistencyError(f"limiting distribution sums to {total}, not 1")
    return probs


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


def tv_distance(probs: dict[Partition, Fraction], support: Support = "symmetric_group") -> Fraction:
    """Exact total variation distance from uniform on the given support.

    Both distributions are constant on classes, so the half-L1 sum runs
    classwise and stays exact.  The support's order is the total size of
    its classes: n!, or n!/2 for A_n at n >= 2.  Alternating support is
    only meaningful when every odd class carries zero probability.
    """
    if support not in ("symmetric_group", "alternating_group"):
        raise DomainError(f"unknown support {support!r}")
    alternating = support == "alternating_group"
    if alternating and any(p for lam, p in probs.items() if not is_even_class(lam)):
        raise SupportMismatchError(
            "alternating-group support requested but odd classes carry mass"
        )
    sizes = {lam: class_size(lam) if not alternating or is_even_class(lam) else 0 for lam in probs}
    order = sum(sizes.values())
    return sum((abs(p - Fraction(sizes[lam], order)) for lam, p in probs.items()), Fraction(0)) / 2


def time_averaged_distribution(spec: WalkSpectrum, mu: Partition,
                               horizon: float) -> dict[Partition, float]:
    """The class distribution from c_mu averaged over [0, T], in closed form
    (``WalkKernel.averaged_probabilities``).  At T = 2*pi, the period of an
    integer spectrum, it equals ``limiting_class_distribution`` to rounding."""
    return dict(zip(spec.classes, spec.kernel(mu).averaged_probabilities(horizon)))
