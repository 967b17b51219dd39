"""Exact joint distributions over named finite variables.

Everything downstream (boxes, protocol pipelines, channel extraction,
entropy bookkeeping) reduces to manipulating a joint table of rational
probabilities, so this module keeps that one structure small and exact:
a tuple of (name, cardinality) pairs plus a dict from assignment tuples
to ``fractions.Fraction``.  Floats never appear here; they enter only
when entropies are taken.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

Assignment = tuple[int, ...]

ZERO = Fraction(0)


def iter_assignments(sizes: Sequence[int]) -> Iterable[Assignment]:
    """All value tuples for the given cardinalities, row-major (last varies fastest)."""
    return itertools.product(*(range(s) for s in sizes))


@dataclass(frozen=True)
class JointDistribution:
    """A finitely supported joint distribution.

    variables: ordered (name, cardinality) pairs; symbols are 0..cardinality-1.
    probs: map from full assignment tuples (aligned with ``variables``) to
    exact probabilities.  Zero-probability assignments may be omitted.
    """

    variables: tuple[tuple[str, int], ...]
    probs: dict[Assignment, Fraction] = field(compare=True)

    def __post_init__(self) -> None:
        names = [name for name, _ in self.variables]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        for name, size in self.variables:
            if size < 1:
                raise ValueError(f"variable {name!r} has empty alphabet")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.variables)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(size for _, size in self.variables)

    def index(self, name: str) -> int:
        for i, (var, _) in enumerate(self.variables):
            if var == name:
                return i
        raise KeyError(f"unknown variable {name!r}; have {self.names}")

    def total(self) -> Fraction:
        return sum(self.probs.values(), ZERO)

    def as_dict(self, assignment: Assignment) -> dict[str, int]:
        return {name: value for (name, _), value in zip(self.variables, assignment)}

    def items(self):
        """Support items in a deterministic order, zeros skipped."""
        for key in sorted(self.probs):
            p = self.probs[key]
            if p != 0:
                yield key, p


def validate(dist: JointDistribution) -> None:
    """Raise if probabilities are negative, out of range, or do not sum to 1."""
    for key, p in dist.probs.items():
        if len(key) != len(dist.variables):
            raise ValueError(f"assignment {key} has wrong arity")
        for value, (name, size) in zip(key, dist.variables):
            if not 0 <= value < size:
                raise ValueError(f"value {value} out of range for {name!r} (size {size})")
        if p < 0:
            raise ValueError(f"negative probability at {key}")
    if dist.total() != 1:
        raise ValueError(f"probabilities sum to {dist.total()}, not 1")


def uniform(name: str, size: int) -> JointDistribution:
    p = Fraction(1, size)
    return JointDistribution(((name, size),), {(v,): p for v in range(size)})


def independent_uniform(pairs: Sequence[tuple[str, int]]) -> JointDistribution:
    """Product of independent uniform variables."""
    pairs = tuple(pairs)
    sizes = [size for _, size in pairs]
    total = 1
    for s in sizes:
        total *= s
    p = Fraction(1, total)
    return JointDistribution(pairs, {key: p for key in iter_assignments(sizes)})


def extend(
    dist: JointDistribution,
    new_vars: Sequence[tuple[str, int]],
    kernel: Callable[[dict[str, int]], Mapping[Assignment, Fraction]],
) -> JointDistribution:
    """Attach new variables via an exact conditional kernel.

    ``kernel`` maps an assignment of the existing variables (as a name->value
    dict) to a distribution over the new variables' value tuples.  Each kernel
    output must sum to 1.
    """
    new_vars = tuple(new_vars)
    variables = dist.variables + new_vars
    probs: dict[Assignment, Fraction] = {}
    for key, p in dist.probs.items():
        if p == 0:
            continue
        row = kernel(dist.as_dict(key))
        row_total = ZERO
        for new_key, q in row.items():
            row_total += q
            if q == 0:
                continue
            probs[key + tuple(new_key)] = probs.get(key + tuple(new_key), ZERO) + p * q
        if row_total != 1:
            raise ValueError(f"kernel at {key} sums to {row_total}, not 1")
    return JointDistribution(variables, probs)


def derive(
    dist: JointDistribution,
    name: str,
    size: int,
    fn: Callable[[dict[str, int]], int],
) -> JointDistribution:
    """Attach a deterministic variable computed from the existing ones.

    The same as ``extend`` with a point-mass kernel, in one pass that keeps
    each probability object as it is.
    """
    probs: dict[Assignment, Fraction] = {}
    for key, p in dist.probs.items():
        if not p:
            continue
        v = fn(dist.as_dict(key))
        if not 0 <= v < size:
            raise ValueError(f"derived value {v} out of range for {name!r}")
        probs[key + (v,)] = p
    return JointDistribution(dist.variables + ((name, size),), probs)


def marginalize(dist: JointDistribution, keep: Sequence[str]) -> JointDistribution:
    """Marginal over ``keep`` (result variables in the order given)."""
    keep = list(keep)
    idx = [dist.index(name) for name in keep]
    variables = tuple((name, dist.variables[i][1]) for name, i in zip(keep, idx))
    probs: dict[Assignment, Fraction] = {}
    for key, p in dist.probs.items():
        if p == 0:
            continue
        sub = tuple(key[i] for i in idx)
        probs[sub] = probs.get(sub, ZERO) + p
    return JointDistribution(variables, probs)


def condition(dist: JointDistribution, assignment: Mapping[str, int]) -> JointDistribution:
    """Condition on a partial assignment; errors on zero-probability events.

    The conditioned variables are removed; the rest keep their order.
    """
    fixed = {dist.index(name): value for name, value in assignment.items()}
    for i, value in fixed.items():
        name, size = dist.variables[i]
        if not 0 <= value < size:
            raise ValueError(f"value {value} out of range for {name!r} (size {size})")
    keep_idx = [i for i in range(len(dist.variables)) if i not in fixed]
    mass = ZERO
    rows: dict[Assignment, Fraction] = {}
    for key, p in dist.probs.items():
        if p == 0:
            continue
        if all(key[i] == v for i, v in fixed.items()):
            mass += p
            sub = tuple(key[i] for i in keep_idx)
            rows[sub] = rows.get(sub, ZERO) + p
    if mass == 0:
        raise ValueError(f"conditioning event {dict(assignment)} has probability zero")
    variables = tuple(dist.variables[i] for i in keep_idx)
    probs = {key: p / mass for key, p in rows.items()}
    return JointDistribution(variables, probs)


def probability(dist: JointDistribution, predicate: Callable[[dict[str, int]], bool]) -> Fraction:
    """Exact probability of an event given as a predicate on assignments."""
    mass = ZERO
    for key, p in dist.probs.items():
        if p != 0 and predicate(dist.as_dict(key)):
            mass += p
    return mass
