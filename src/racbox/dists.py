"""Exact joint distributions over named finite variables.

A joint is stored the way a ``Box`` table is: integer numerators over one
denominator.  Only the support is kept, as two arrays:

* ``keys``: one row per support point, one column per wire, sorted
  row-major (last wire fastest) with no repeated row;
* ``counts``: the numerator of each row, positive, over ``denominator``,
  in lowest terms and in the narrowest integer type that holds them.

So two joints are equal exactly when their wires, denominators and arrays
are.  Each operation is one array step with exact integer sums:
``marginalize`` sorts and sums counts per kept key, ``condition`` masks
rows and takes the masked mass as the new denominator, and ``derive``
appends a column read from a function table.  Floats never appear here;
they enter only when entropies are taken.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from numbers import Rational
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from .tables import TableFn

Assignment = tuple[int, ...]

_INT64_MAX = np.iinfo(np.int64).max
_NARROW = tuple((np.dtype(t), np.iinfo(t).max) for t in (np.int8, np.int16, np.int32, np.int64))


def iter_assignments(sizes: Sequence[int]) -> Iterable[Assignment]:
    """All value tuples for the given cardinalities, row-major (last varies fastest)."""
    return itertools.product(*(range(s) for s in sizes))


def numerator_dtype(peak: int, cells: int) -> np.dtype:
    """Narrowest signed integer type for numerators of magnitude at most ``peak``.

    Python-int ``object`` is the fallback once a sum over ``cells`` such
    numerators could pass int64, so every sum of a table stored in an integer
    type is exact in int64.
    """
    if peak * max(cells, 1) > _INT64_MAX:
        return np.dtype(object)
    for dtype, top in _NARROW:
        if peak <= top:
            return dtype


def sum_dtype(table: np.ndarray) -> np.dtype:
    """Accumulator for sums of stored numerators: int64, or Python ints for object tables.

    int64 is exact because ``numerator_dtype`` stores a table in an integer
    type only when its largest magnitude times its size fits in int64.
    """
    return table.dtype if table.dtype == object else np.dtype(np.int64)


def _key_dtype(variables: Sequence[tuple[str, int]]) -> np.dtype:
    return numerator_dtype(max((size for _, size in variables), default=1), 1)


def _row_codes(keys: np.ndarray, columns: Sequence[int], sizes: Sequence[int]) -> np.ndarray:
    """int64 codes whose order is the row-major order of ``keys[:, columns]``,
    whose alphabets are ``sizes``."""
    if prod(sizes) <= _INT64_MAX:
        codes = np.zeros(len(keys), dtype=np.int64)
        for i, size in zip(columns, sizes):
            codes *= size
            codes += keys[:, i]
        return codes
    # too wide for one mixed radix (say 64 binary wires): rank the codes of each half
    half = len(columns) // 2
    head = np.unique(_row_codes(keys, columns[:half], sizes[:half]), return_inverse=True)[1]
    tail_codes, tail = np.unique(_row_codes(keys, columns[half:], sizes[half:]),
                                 return_inverse=True)
    return head * len(tail_codes) + tail


def _joint(variables, keys: np.ndarray, counts: np.ndarray, den: int) -> JointDistribution:
    return object.__new__(JointDistribution)._fill(variables, keys, counts, den)


@dataclass(frozen=True, eq=False, init=False)
class JointDistribution:
    """A finitely supported joint distribution: integer counts over one denominator.

    variables: ordered (name, cardinality) pairs; symbols are 0..cardinality-1.
    ``JointDistribution(variables, probs)`` takes a map from full assignment
    tuples to exact probabilities (``Fraction`` or ``int``); zeros are dropped.
    """

    variables: tuple[tuple[str, int], ...]
    keys: np.ndarray
    counts: np.ndarray
    denominator: int

    def __init__(
        self, variables: Sequence[tuple[str, int]], probs: Mapping[Assignment, Rational]
    ) -> None:
        items = sorted((key, p) for key, p in probs.items() if p)
        den = lcm(*(p.denominator for _, p in items))
        counts = np.array([p.numerator * (den // p.denominator) for _, p in items])
        keys = np.array([key for key, _ in items], dtype=np.int64)
        if not items or keys.shape != (len(items), len(variables)):
            raise ValueError(f"need assignments of positive probability, one value per "
                             f"variable of {tuple(variables)}")
        sizes = [size for _, size in variables]
        if (keys < 0).any() or (keys >= sizes).any() or (counts < 0).any():
            raise ValueError(f"an assignment is out of range for {tuple(variables)} "
                             "or has negative probability")
        self._fill(variables, keys.astype(_key_dtype(variables)), counts, den)

    def _fill(self, variables, keys: np.ndarray, counts: np.ndarray, den) -> JointDistribution:
        """Take sorted, distinct keys and their positive counts; store the
        counts in lowest terms and the narrowest dtype."""
        variables = tuple(variables)
        names = [name for name, _ in variables]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        if any(size < 1 for _, size in variables):
            raise ValueError(f"a variable of {variables} has an empty alphabet")
        den = int(den)
        common = gcd(den, int(np.gcd.reduce(counts)))
        if common > 1:
            counts, den = counts // common, den // common
        peak = max(den, int(counts.max()))
        counts = counts.astype(numerator_dtype(peak, len(counts)), copy=False)
        # the arrays are this joint's own (or another joint's, already read-only)
        keys.flags.writeable = counts.flags.writeable = False
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "denominator", den)
        return self

    @classmethod
    def from_table(
        cls, variables: Sequence[tuple[str, int]], table: np.ndarray, denominator: int
    ) -> JointDistribution:
        """The joint whose numerators are a dense array, one axis per wire."""
        flat = np.flatnonzero(table)
        keys = np.empty((len(flat), table.ndim), dtype=_key_dtype(variables))
        counts = table.reshape(-1)[flat]
        for axis in reversed(range(table.ndim)):
            flat, keys[:, axis] = np.divmod(flat, table.shape[axis])
        return _joint(variables, keys, counts, denominator)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JointDistribution):
            return NotImplemented
        return (self.variables == other.variables and self.denominator == other.denominator
                and np.array_equal(self.keys, other.keys)
                and np.array_equal(self.counts, other.counts))

    __hash__ = None  # type: ignore[assignment]

    @property
    def probs(self) -> np.ndarray:
        """The support's numerators over ``denominator`` (read-only), row by row of ``keys``."""
        return self.counts

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
        return Fraction(int(self.counts.sum(dtype=sum_dtype(self.counts))), self.denominator)


def derive(dist: JointDistribution, table: TableFn) -> JointDistribution:
    """Append the wire ``table.name``, the table's value on each support row.

    The table's inputs must name wires of ``dist`` with the same alphabets.
    """
    idx = [dist.index(name) for name, _ in table.inputs]
    if tuple(dist.variables[i] for i in idx) != table.inputs:
        raise ValueError(f"table {table.name!r} reads {table.inputs}, the joint has "
                         f"{tuple(dist.variables[i] for i in idx)}")
    variables = dist.variables + ((table.name, table.output_size),)
    keys = np.empty((len(dist.keys), len(variables)), dtype=_key_dtype(variables))
    keys[:, :-1] = dist.keys
    keys[:, -1] = table.at({name: dist.keys[:, i] for (name, _), i in zip(table.inputs, idx)})
    return _joint(variables, keys, dist.counts, dist.denominator)


def grouped_counts(dist: JointDistribution, keep: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The marginal over ``keep`` as (the row of ``dist`` heading each group,
    its numerator over ``dist.denominator``), groups in row-major order."""
    idx = [dist.index(name) for name in keep]
    codes = _row_codes(dist.keys, idx, [dist.variables[i][1] for i in idx])
    order = codes.argsort(kind="stable")
    codes = codes[order]
    starts = np.concatenate(([True], codes[1:] != codes[:-1])).nonzero()[0]
    return order[starts], np.add.reduceat(dist.counts[order], starts, dtype=sum_dtype(dist.counts))


def marginalize(dist: JointDistribution, keep: Sequence[str]) -> JointDistribution:
    """Marginal over ``keep`` (result variables in the order given)."""
    idx = [dist.index(name) for name in keep]
    heads, counts = grouped_counts(dist, keep)
    return _joint([dist.variables[i] for i in idx], dist.keys[heads][:, idx], counts,
                  dist.denominator)


def condition(dist: JointDistribution, assignment: Mapping[str, int]) -> JointDistribution:
    """Condition on a partial assignment; errors on zero-probability events.

    The conditioned variables are removed; the rest keep their order.
    """
    fixed = {dist.index(name): value for name, value in assignment.items()}
    mask = np.ones(len(dist.keys), dtype=bool)
    for i, value in fixed.items():
        name, size = dist.variables[i]
        if not 0 <= value < size:
            raise ValueError(f"value {value} out of range for {name!r} (size {size})")
        mask &= dist.keys[:, i] == value
    counts = dist.counts[mask]
    if not counts.size:
        raise ValueError(f"conditioning event {dict(assignment)} has probability zero")
    keep = [i for i in range(len(dist.variables)) if i not in fixed]
    return _joint([dist.variables[i] for i in keep], dist.keys[mask][:, keep], counts,
                  int(counts.sum(dtype=sum_dtype(counts))))
