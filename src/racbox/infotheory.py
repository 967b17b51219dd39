"""Shannon quantities over exact joint distributions.

Probabilities stay integer counts over one denominator all the way to the
log; only the final entropy is a float.  All measures take the log base
explicitly (base 2 for bits, base d for dit-valued alphabets) and follow
the convention 0 log 0 = 0.

Identities are checked exactly instead.  With counts c_i over N,
N*H = N log N - sum_i c_i log c_i, so every entropy and every mutual
information is sum_p e_p log p over primes p with rational e_p.  Logs of
distinct primes are linearly independent over the rationals, so two such
quantities are equal exactly when their exponent maps are
(``mutual_information_exponents`` and ``log_exponents``).

The capacity-bound verifiers that consume these measures live in the
capacity module.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Sequence

from .dists import JointDistribution, grouped_counts
from .reports import ProbeReport

TOLERANCE = 1e-9


def _checked(
    dist: JointDistribution, given: Sequence[str], *groups: Sequence[str]
) -> tuple[tuple[str, ...], ...]:
    """``groups`` then ``given`` as tuples: each group non-empty, every variable
    known, none named twice across them all."""
    groups = tuple(tuple(g) for g in groups) + (tuple(given),)
    names = [var for group in groups for var in group]
    if not all(groups[:-1]):
        raise ValueError("each group must name at least one variable")
    unknown = sorted(set(names).difference(name for name, _ in dist.variables))
    if unknown:
        raise ValueError(f"unknown variable {unknown[0]!r}")
    if len(set(names)) != len(names):
        raise ValueError("a variable is named twice across the groups")
    return groups


def entropy(dist: JointDistribution, vars: Sequence[str], base: int = 2) -> float:
    """H(vars) in the given base; exact marginalization, float logs."""
    group, _ = _checked(dist, (), vars)
    if base < 2:
        raise ValueError("log base must be at least 2")
    log_base = math.log(base)
    den = dist.denominator
    h = 0.0
    # Python floats in sorted key order, so every printed entropy is reproducible
    for count in grouped_counts(dist, group)[1].tolist():
        p = count / den
        h -= p * math.log(p)
    return h / log_base


def conditional_entropy(
    dist: JointDistribution, targets: Sequence[str], given: Sequence[str] = (), base: int = 2
) -> float:
    """H(targets | given) = H(targets, given) - H(given)."""
    targets, given = _checked(dist, given, targets)
    if not given:
        return entropy(dist, targets, base)
    return entropy(dist, targets + given, base) - entropy(dist, given, base)


def mutual_information(
    dist: JointDistribution,
    group_a: Sequence[str],
    group_b: Sequence[str],
    given: Sequence[str] = (),
    base: int = 2,
) -> float:
    """I(A : B | given) via the four-entropy expansion."""
    group_a, group_b, given = _checked(dist, given, group_a, group_b)
    h_ac = entropy(dist, group_a + given, base)
    h_bc = entropy(dist, group_b + given, base)
    h_abc = entropy(dist, group_a + group_b + given, base)
    h_c = entropy(dist, given, base) if given else 0.0
    return h_ac + h_bc - h_abc - h_c


def log_exponents(value: int) -> dict[int, Fraction]:
    """{p: e_p} with log(value) = sum_p e_p log p, by trial division below 10^7."""
    if value < 1:
        raise ValueError(f"log of {value} is not a finite real number")
    exps: Counter[int] = Counter()
    p = 2
    while value > 1:
        p = p if p * p <= value else value
        if 10**7 < p < value:
            raise ValueError(f"cannot factor {value}: no prime factor below 10^7")
        while value % p == 0:
            exps[p] += 1
            value //= p
        p += 1
    return {p: Fraction(e) for p, e in exps.items()}


def _entropy_exponents(dist: JointDistribution, group: Sequence[str]) -> dict[int, Fraction]:
    """H(group) in nats as prime-log exponents: (S log N - sum_i c_i log c_i) / N."""
    den = dist.denominator
    counts = grouped_counts(dist, group)[1].tolist()
    scaled = {p: sum(counts) * e for p, e in log_exponents(den).items()}
    for count, times in Counter(counts).items():
        for p, e in log_exponents(count).items():
            scaled[p] = scaled.get(p, 0) - count * times * e
    return {p: e / den for p, e in scaled.items()}


def mutual_information_exponents(
    dist: JointDistribution,
    group_a: Sequence[str],
    group_b: Sequence[str],
    given: Sequence[str] = (),
) -> dict[int, Fraction]:
    """I(A : B | given) exactly: {p: e_p} with I = sum_p e_p log p, zeros dropped.

    Compare two informations by comparing these maps; (1/n) log d is
    ``{p: e / n for p, e in log_exponents(d).items()}``.
    """
    group_a, group_b, given = _checked(dist, given, group_a, group_b)
    total: dict[int, Fraction] = {}
    for group, sign in ((group_a + given, 1), (group_b + given, 1),
                        (group_a + group_b + given, -1), (given, -1)):
        if group:
            for p, e in _entropy_exponents(dist, group).items():
                total[p] = total.get(p, 0) + sign * e
    return {p: e for p, e in sorted(total.items()) if e}


def multi_information(
    dist: JointDistribution,
    groups: Sequence[Sequence[str]],
    target: Sequence[str],
    given: Sequence[str] = (),
    base: int = 2,
) -> float:
    """I(S_1 : ... : S_n : T | V) = sum H(S_i|V) + H(T|V) - H(S_1..S_n,T|V)."""
    if not groups:
        raise ValueError("need at least one group")
    *groups, target, given = _checked(dist, given, *groups, target)
    total = conditional_entropy(dist, target, given, base)
    for g in groups:
        total += conditional_entropy(dist, g, given, base)
    everything = [v for g in groups for v in g] + list(target)
    total -= conditional_entropy(dist, everything, given, base)
    return total


def check_lemma4(
    dist: JointDistribution,
    groups: Sequence[Sequence[str]],
    target: Sequence[str],
    given: Sequence[str] = (),
) -> ProbeReport:
    """Sum of pairwise informations against the multi-information bound.

    Checks sum_i I(S_i : T | V) <= I(S_1 : ... : S_n : T | V), which holds
    for every distribution by strong subadditivity; reported with a small
    float tolerance since the entropies are floats.
    """
    lhs = sum(mutual_information(dist, g, target, given, 2) for g in groups)
    rhs = multi_information(dist, groups, target, given, 2)
    return ProbeReport(
        claim="sum of single-group informations is at most the multi-information",
        passed=lhs <= rhs + TOLERANCE,
        quantity=lhs,
        bound=rhs,
        notes=(f"groups={len(list(groups))}", "base=2"),
    )
