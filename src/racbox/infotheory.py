"""Shannon quantities over exact joint distributions.

Probabilities stay integer counts over one denominator all the way to the
log; only the final entropy is a float.  All measures take the log base
explicitly (base 2 for bits, base d for dit-valued alphabets) and follow
the convention 0 log 0 = 0.  A query's plan, its checked groups and the
marginals its formula reads, is cached per (wires, groups, given, measure,
formula) in a 256-plan ``lru_cache`` (``_plan``; failed checks and counts are
never cached); one ``grouped_counts`` pass counts them (``_query``), and the
formulas add their entropies in a fixed order, so every float is reproducible.

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
from collections import Counter, defaultdict
from functools import lru_cache
from fractions import Fraction
from itertools import chain
from typing import Callable, Sequence, TypeVar

from .dists import JointDistribution, grouped_counts
from .reports import ProbeReport

TOLERANCE = 1e-9

_V = TypeVar("_V")
_R = TypeVar("_R")


@lru_cache(maxsize=256)
def _plan(variables: tuple, groups: tuple, given: tuple, measure: Callable, formula: Callable
          ) -> tuple[tuple[str, ...], ...]:
    """The marginals ``formula`` reads, each once, in first-read order, learned by running
    it against a recorder whose every ``H`` is the measure of no counts (so its flow must
    not depend on values).  Refuses an empty group, an unknown wire, a wire named twice."""
    names = list(chain(*groups, given))
    if not all(groups):
        raise ValueError("each group must name at least one variable")
    named = set(names)
    unknown = named.difference(name for name, _ in variables)
    if unknown:
        raise ValueError(f"unknown variable {min(unknown)!r}")
    if len(named) != len(names):
        raise ValueError("a variable is named twice across the groups")
    blank = measure([], 1)
    needed: defaultdict[tuple[str, ...], _V] = defaultdict(lambda: blank)
    formula(needed.__getitem__, groups, given)
    return tuple(needed)


def _query(
    dist: JointDistribution,
    given: Sequence[str],
    groups: Sequence[Sequence[str]],
    measure: Callable[[list[int], int], _V],
    formula: Callable[..., _R],
) -> _R:
    """``formula(H, groups, given)``, ``H(group)`` being ``measure(counts, denominator)``
    of the marginal over an ordered tuple of wires: one ``grouped_counts`` call counts
    each marginal the plan lists.  Order tells tuples apart, since the column order
    fixes the order in which an entropy's float terms are added."""
    groups, given = tuple(map(tuple, groups)), tuple(given)
    needed = _plan(dist.variables, groups, given, measure, formula)
    values = {group: measure(counts.tolist(), dist.denominator)
              for group, (_, counts) in zip(needed, grouped_counts(dist, needed))}
    return formula(values.__getitem__, groups, given)


@lru_cache(maxsize=16)
def _entropy_in(base: int) -> Callable[[list[int], int], float]:
    """The measure taking marginal counts over a denominator to their entropy in ``base``."""
    if base < 2:
        raise ValueError("log base must be at least 2")
    log, log_base = math.log, math.log(base)

    def measure(counts: list[int], den: int) -> float:
        h = 0.0
        # Python floats in row-major key order, so every printed entropy is reproducible
        for count in counts:
            p = count / den
            h -= p * log(p)
        return h / log_base

    return measure


def _conditional(H, groups, given):
    """H(first group | given); the formulas take (H, groups, given), as ``_query`` calls them."""
    return H(groups[0] + given) - H(given) if given else H(groups[0])


def _information(H, groups, given):
    group_a, group_b = groups
    h_given = H(given) if given else 0.0
    return H(group_a + given) + H(group_b + given) - H(group_a + group_b + given) - h_given


def _information_and_entropy(H, groups, given):
    return _information(H, groups, given), _conditional(H, groups[1:], given)


def _multi(H, groups, given):
    """I(S_1 : ... : S_n : T | V) = sum H(S_i|V) + H(T|V) - H(S_1..S_n,T|V)."""
    *groups, target = groups
    total = _conditional(H, (target,), given)
    for g in groups:
        total += _conditional(H, (g,), given)
    everything = tuple(chain.from_iterable(groups)) + target
    return total - _conditional(H, (everything,), given)


def _lemma4_sides(H, groups, given):
    """check_lemma4's sides: sum_i I(S_i : T | V), and I(S_1 : ... : S_n : T | V)."""
    return (sum(_information(H, (g, groups[-1]), given) for g in groups[:-1]),
            _multi(H, groups, given))


def entropy(dist: JointDistribution, vars: Sequence[str], base: int = 2) -> float:
    """H(vars) in the given base; exact marginalization, float logs."""
    return _query(dist, (), (vars,), _entropy_in(base), _conditional)


def mutual_information(
    dist: JointDistribution,
    group_a: Sequence[str],
    group_b: Sequence[str],
    given: Sequence[str] = (),
    base: int = 2,
) -> float:
    """I(A : B | given) via the four-entropy expansion."""
    return _query(dist, given, (group_a, group_b), _entropy_in(base), _information)


def information_and_entropy(
    dist: JointDistribution,
    group_a: Sequence[str],
    group_b: Sequence[str],
    given: Sequence[str] = (),
    base: int = 2,
) -> tuple[float, float]:
    """I(A : B | given) and H(B | given) from one query.

    The two share H(B, given) and H(given), so each marginal is grouped once.
    They are equal exactly when B is a function of (A, given) on the support.
    """
    return _query(dist, given, (group_a, group_b), _entropy_in(base),
                  _information_and_entropy)


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


def _entropy_exponents(counts: list[int], den: int) -> dict[int, Fraction]:
    """H in nats of ``counts`` over ``den`` as prime-log exponents:
    (S log N - sum_i c_i log c_i) / N."""
    scaled = {p: sum(counts) * e for p, e in log_exponents(den).items()}
    for count, times in Counter(counts).items():
        for p, e in log_exponents(count).items():
            scaled[p] = scaled.get(p, 0) - count * times * e
    return {p: e / den for p, e in scaled.items()}


def _information_exponents(H, groups, given):
    group_a, group_b = groups
    total: dict[int, Fraction] = {}
    for group, sign in ((group_a + given, 1), (group_b + given, 1),
                        (group_a + group_b + given, -1), (given, -1)):
        if group:
            for p, e in H(group).items():
                total[p] = total.get(p, 0) + sign * e
    return {p: e for p, e in sorted(total.items()) if e}


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
    return _query(dist, given, (group_a, group_b), _entropy_exponents, _information_exponents)


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
    if not groups:
        raise ValueError("need at least one group")
    lhs, rhs = _query(dist, given, (*groups, target), _entropy_in(2), _lemma4_sides)
    return ProbeReport(
        claim="sum of single-group informations is at most the multi-information",
        passed=lhs <= rhs + TOLERANCE,
        quantity=lhs,
        bound=rhs,
        notes=(f"groups={len(groups)}", "base=2"),
    )
