"""Shannon quantities over exact joint distributions.

Probabilities stay rational all the way to the log; only the final entropy
is a float.  All measures take the log base explicitly (base 2 for bits,
base d for dit-valued alphabets) and follow the convention 0 log 0 = 0.

The capacity-bound verifiers that consume these measures live in the
capacity module.
"""

from __future__ import annotations

import math
from typing import Sequence

from .dists import JointDistribution, condition, marginalize
from .reports import ProbeReport

TOLERANCE = 1e-9


def _check_group(dist: JointDistribution, group: Sequence[str], label: str) -> tuple[str, ...]:
    group = tuple(group)
    if not group:
        raise ValueError(f"{label} must name at least one variable")
    known = set(dist.names)
    for var in group:
        if var not in known:
            raise ValueError(f"unknown variable {var!r}")
    if len(set(group)) != len(group):
        raise ValueError(f"{label} repeats a variable")
    return group


def _disjoint(*groups: Sequence[str]) -> None:
    seen: set[str] = set()
    for group in groups:
        for var in group:
            if var in seen:
                raise ValueError(f"variable {var!r} appears in two groups")
            seen.add(var)


def entropy(dist: JointDistribution, vars: Sequence[str], base: int = 2) -> float:
    """H(vars) in the given base; exact marginalization, float logs."""
    group = _check_group(dist, vars, "vars")
    if base < 2:
        raise ValueError("log base must be at least 2")
    marg = marginalize(dist, list(group))
    log_base = math.log(base)
    h = 0.0
    for _, p in marg.items():
        if p > 0:
            pf = float(p)
            h -= pf * math.log(pf)
    return h / log_base


def _joint_entropy(dist: JointDistribution, *groups: Sequence[str], base: int) -> float:
    names: list[str] = []
    for g in groups:
        for var in g:
            if var not in names:
                names.append(var)
    if not names:
        return 0.0
    return entropy(dist, names, base)


def conditional_entropy(
    dist: JointDistribution, targets: Sequence[str], given: Sequence[str] = (), base: int = 2
) -> float:
    """H(targets | given) = H(targets, given) - H(given)."""
    targets = _check_group(dist, targets, "targets")
    given = tuple(given)
    if given:
        given = _check_group(dist, given, "given")
    _disjoint(targets, given)
    if not given:
        return entropy(dist, targets, base)
    return _joint_entropy(dist, targets, given, base=base) - entropy(dist, given, base)


def mutual_information(
    dist: JointDistribution,
    group_a: Sequence[str],
    group_b: Sequence[str],
    given: Sequence[str] = (),
    base: int = 2,
) -> float:
    """I(A : B | given) via the four-entropy expansion."""
    group_a = _check_group(dist, group_a, "group_a")
    group_b = _check_group(dist, group_b, "group_b")
    given = tuple(given)
    if given:
        given = _check_group(dist, given, "given")
    _disjoint(group_a, group_b, given)
    h_ac = _joint_entropy(dist, group_a, given, base=base)
    h_bc = _joint_entropy(dist, group_b, given, base=base)
    h_abc = _joint_entropy(dist, group_a, group_b, given, base=base)
    h_c = _joint_entropy(dist, given, base=base) if given else 0.0
    return h_ac + h_bc - h_abc - h_c


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
    groups = [_check_group(dist, g, f"group {i}") for i, g in enumerate(groups)]
    target = _check_group(dist, target, "target")
    given = tuple(given)
    if given:
        given = _check_group(dist, given, "given")
    _disjoint(*groups, target, given)
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


def information_causality_lhs(
    dist: JointDistribution,
    key_vars: Sequence[str],
    eavesdrop_var: str,
    choice_var: str,
    base: int = 2,
) -> float:
    """Sum over i of I(key_i : E | choice = i).

    The choice variable must range over exactly the indices of key_vars.
    This is a measurement utility only; no bound is asserted here.
    """
    key_vars = list(key_vars)
    sizes = dict(dist.variables)
    if choice_var not in sizes:
        raise ValueError(f"unknown variable {choice_var!r}")
    if eavesdrop_var not in sizes:
        raise ValueError(f"unknown variable {eavesdrop_var!r}")
    if sizes[choice_var] != len(key_vars):
        raise ValueError(
            f"choice variable has {sizes[choice_var]} values "
            f"but there are {len(key_vars)} key variables"
        )
    total = 0.0
    for i, key in enumerate(key_vars):
        sliced = condition(dist, {choice_var: i})
        total += mutual_information(sliced, [key], [eavesdrop_var], (), base)
    return total
