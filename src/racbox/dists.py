"""Exact joint distributions over named finite variables.

A joint is stored the way a ``Box`` table is, through ``lowest_terms``:
integer numerators over one denominator.  Only the support is kept, as two arrays:

* ``keys``: one row per support point, one column per wire, sorted
  row-major (last wire fastest) with no repeated row;
* ``counts``: the numerator of each row, positive, over ``denominator``,
  in lowest terms and in the narrowest integer type that holds them.

So two joints are equal exactly when their wires, denominators and arrays
are.  Each operation is one array step with exact integer sums:
``marginalize`` numbers the rows by their cell index over the kept wires and
adds their counts into int64 (or Python-int) bins with one ``np.add.at``
(see ``grouped_counts``), ``condition`` masks rows and takes the masked mass
as the new denominator, and ``derive`` appends a column read from a function
table.  ``grouped_counts`` counts every marginal of a list in that one
``np.add.at`` while the joint is small, so an information query counts all
the marginals it needs in one pass.  A wire list's checks, key type and
sizes, and ``grouped_counts``'s columns, sizes, strides and offsets, are
planned once per key in 256-plan ``lru_cache``s that hold no values or failed checks.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from numbers import Integral, Rational
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from .tables import TableFn

Assignment = tuple[int, ...]

_INT64_MAX = np.iinfo(np.int64).max
_DENSE_CELLS = 2**16  # counting may use this many bins even on a smaller joint
_NARROW = tuple((np.dtype(t), np.iinfo(t).max) for t in (np.int8, np.int16, np.int32, np.int64))


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


def lowest_terms(nums: np.ndarray, den, *, positive: bool = False) -> tuple[np.ndarray, int]:
    """``nums`` over ``den`` in lowest terms, in the narrowest dtype that holds them.
    The gcd is taken over blocks of 4,096 cells, then 4x larger, and stops at
    the first block that takes it to 1.  A denominator below 1 is refused.
    ``positive`` says that no numerator is negative, so only their max is read."""
    den = int(den)
    if den < 1:
        raise ValueError(f"denominator must be positive, got {den}")
    common, cells, start, size = den, nums.reshape(-1), 0, 4096
    while common > 1 and start < cells.size:
        common = gcd(common, int(np.gcd.reduce(cells[start:start + size])))
        start, size = start + size, 4 * size
    if common > 1:
        nums, den = nums // common, den // common
    peak = den
    if nums.size:
        peak = max(den, int(nums.max()), 0 if positive else -int(nums.min()))
    return nums.astype(numerator_dtype(peak, nums.size), copy=False), den


def sum_dtype(table: np.ndarray) -> np.dtype:
    """Accumulator for sums of stored numerators: int64, or Python ints for object tables.

    int64 is exact because ``numerator_dtype`` stores a table in an integer
    type only when its largest magnitude times its size fits in int64.
    """
    return table.dtype if table.dtype == object else np.dtype(np.int64)


@lru_cache(maxsize=256)
def _wires(variables: tuple[tuple[str, int], ...]) -> tuple[np.dtype, np.ndarray]:
    """A wire list's key dtype and read-only sizes; refuses repeated names, empty alphabets."""
    names = [name for name, _ in variables]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names: {names}")
    if any(size < 1 for _, size in variables):
        raise ValueError(f"a variable of {variables} has an empty alphabet")
    sizes = np.array([size for _, size in variables], dtype=np.uint64)
    sizes.setflags(write=False)
    return numerator_dtype(max((size for _, size in variables), default=1), 1), sizes


def _cell_keys(cells: np.ndarray, sizes: Sequence[int], dtype: np.dtype) -> np.ndarray:
    """The rows whose row-major cell indices over ``sizes`` are ``cells``."""
    keys = np.empty((len(cells), len(sizes)), dtype=dtype)
    for axis in reversed(range(len(sizes))):
        cells, keys[:, axis] = np.divmod(cells, sizes[axis])
    return keys


def _add(codes: np.ndarray, counts: np.ndarray, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Add ``counts`` into bins ``codes`` (broadcast together) of ``cells`` exact
    integer bins: (the bins of positive mass, in order; their sums)."""
    bins = np.zeros(cells, dtype=sum_dtype(counts))
    # values of the accumulator's own dtype keep np.add.at on its typed loop; the
    # widened copy lives for this call only
    np.add.at(bins, codes, counts.astype(bins.dtype, copy=False))
    present = bins.nonzero()[0]
    return present, bins[present]


def _joint(variables, keys: np.ndarray, counts: np.ndarray, den) -> JointDistribution:
    """The joint of sorted, distinct keys and positive counts over ``den``, on checked wires."""
    counts, den = lowest_terms(counts, den, positive=True)
    return object.__new__(JointDistribution)._fill(variables, keys, counts, den)


@dataclass(frozen=True, eq=False, init=False)
class JointDistribution:
    """A finitely supported joint distribution: integer counts over one denominator.

    variables: ordered (name, cardinality) pairs; symbols are 0..cardinality-1.
    ``JointDistribution(variables, probs)`` takes a map from full assignment
    tuples to exact probabilities (``Fraction`` or ``int``) that sum to 1;
    zeros are dropped.  A float probability, a symbol that is not an integer
    in its alphabet, an assignment of the wrong length, a negative
    probability or a total other than 1 is refused with a ``ValueError``.
    """

    variables: tuple[tuple[str, int], ...]
    keys: np.ndarray
    counts: np.ndarray
    denominator: int

    def __init__(
        self, variables: Sequence[tuple[str, int]], probs: Mapping[Assignment, Rational]
    ) -> None:
        variables = tuple(map(tuple, variables))
        dtype, sizes = _wires(variables)
        # a float has an integer ratio too, but not the exact probability meant
        if not set(map(type, probs.values())) <= {int, Fraction}:
            for key, p in probs.items():
                if not isinstance(p, (int, Fraction)):
                    raise ValueError(f"probability {p!r} of {key} is not an exact Fraction or int")
        support = sorted(probs)
        ratios = [probs[key].as_integer_ratio() for key in support]
        den = lcm(*{d for _, d in ratios})
        nums = [num * (den // d) for num, d in ratios]
        if 0 in nums:  # zeros are dropped
            support = [key for key, num in zip(support, nums) if num]
            nums = [num for num in nums if num]
        if not support:
            raise ValueError(f"need assignments of positive probability for {variables}")
        if set(map(len, support)) != {len(variables)}:
            key = next(key for key in support if len(key) != len(variables))
            raise ValueError(f"assignment {key} needs one value per variable of {variables}")
        # read straight into the unsigned twin of the key type, which holds every
        # symbol of every alphabet and refuses a negative one
        symbols = list(chain.from_iterable(support))
        unsigned = dtype.char.upper()
        try:
            keys = np.frombuffer(array(unsigned, symbols), dtype=unsigned)
        except TypeError:
            bad = next(v for v in symbols if not isinstance(v, Integral))
            raise ValueError(f"symbol {bad!r} of an assignment is not an integer") from None
        except OverflowError:
            raise ValueError(f"an assignment is out of range for {variables}") from None
        keys = keys.reshape(len(support), len(variables))
        if min(nums) < 0 or np.count_nonzero(keys >= sizes):
            raise ValueError(f"an assignment is out of range for {variables} "
                             "or has negative probability")
        if sum(nums) != den:
            raise ValueError(f"probabilities sum to {Fraction(sum(nums), den)}, not 1")
        # already in lowest terms: den is the lcm of reduced fractions' denominators
        counts = np.array(nums, dtype=numerator_dtype(max(den, *nums), len(nums)))
        self._fill(variables, keys.view(dtype), counts, den)

    def _fill(self, variables, keys: np.ndarray, counts: np.ndarray, den: int) -> JointDistribution:
        """Store sorted, distinct keys and their counts, already in the form
        ``lowest_terms`` gives."""
        # the arrays are this joint's own (or another joint's, already read-only)
        keys.setflags(write=False)
        counts.setflags(write=False)
        vars(self).update(variables=variables, keys=keys, counts=counts, denominator=den)
        return self

    @classmethod
    def from_table(
        cls, variables: Sequence[tuple[str, int]], table: np.ndarray, denominator: int
    ) -> JointDistribution:
        """The joint whose numerators are a dense array, one axis per wire; a
        negative cell is refused with a ``ValueError`` that names it."""
        variables = tuple(map(tuple, variables))
        flat = np.flatnonzero(table)
        if not flat.size:
            raise ValueError(f"need assignments of positive probability for {variables}")
        counts = table.reshape(-1)[flat]
        if counts.min() < 0:
            first = int(np.argmax(counts < 0))
            cell = np.unravel_index(flat[first], table.shape)
            named = ", ".join(f"{name}={int(v)}" for (name, _), v in zip(variables, cell))
            raise ValueError(f"cell ({named}) has the negative numerator {counts[first]}")
        keys = _cell_keys(flat, table.shape, _wires(variables)[0])
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
    keys = np.empty((len(dist.keys), len(variables)), dtype=_wires(variables)[0])
    keys[:, :-1] = dist.keys
    keys[:, -1] = table.at({name: dist.keys[:, i] for (name, _), i in zip(table.inputs, idx)})
    return _joint(variables, keys, dist.counts, dist.denominator)


@lru_cache(maxsize=256)
def _grouping(variables: tuple, groups: tuple) -> tuple[np.ndarray | None, tuple[int, ...], tuple]:
    """For 2+ groups within 2^16 cells in all, the read-only float64 matrix of each wire's
    stride per group, its last row each group's first cell (else None); the first cells;
    and each group's plan: (its wires' columns, their sizes, its cell count)."""
    where = {name: (i, size) for i, (name, size) in enumerate(variables)}
    count, offsets, strides = len(groups), [0], [0] * (len(variables) * len(groups))
    plans = []
    for group, keep in enumerate(groups):
        stride = 1
        for name in reversed(keep):  # a wire's stride: the product of the sizes after it
            if name not in where:
                raise KeyError(f"unknown variable {name!r}; have {tuple(where)}")
            i, size = where[name]
            strides[i * count + group] += stride
            stride *= size
        plans.append((tuple(where[name][0] for name in keep),
                      tuple(where[name][1] for name in keep), stride))
        offsets.append(offsets[-1] + stride)
    if count < 2 or offsets[-1] > _DENSE_CELLS:
        return None, tuple(offsets), tuple(plans)
    matrix = np.array(strides + offsets[:-1], dtype=np.float64).reshape(len(variables) + 1, count)
    matrix.setflags(write=False)
    return matrix, tuple(offsets), tuple(plans)


def grouped_counts(
    dist: JointDistribution, groups: Sequence[Sequence[str]], *, with_keys: bool = False
) -> list[tuple[np.ndarray | None, np.ndarray]]:
    """For each group of wires, the marginal over it as (its rows if ``with_keys``,
    else None; their numerators over ``dist.denominator``), rows of positive mass
    in row-major order.

    Each row is numbered by its row-major cell index over the group's wires
    (intp, or Python ints past int64): the index itself while the group spans at
    most max(2^16, rows) cells, else its rank from one 1-D ``np.unique``, each
    kept row read off the joint where it first occurs.  One ``np.add.at`` adds
    the counts into an int64 (or Python-int, for ``object`` counts) bin per
    number, so every sum is exact.  Two or more groups share one ``np.add.at``
    while the rows x groups index matrix and all the groups' cells each hold at
    most 2^16 entries: the cell indices are one matrix product of the keys with
    the planned strides (``_grouping``), each group's offset past the cells before it.
    """
    groups = tuple(map(tuple, groups))
    matrix, offsets, plans = _grouping(dist.variables, groups)
    rows = len(dist.keys)
    if matrix is not None and rows * len(groups) <= _DENSE_CELLS:
        # a float64 product (BLAS) is exact here: every partial sum is a cell index below 2^16
        codes = dist.keys @ matrix[:-1]
        codes += matrix[-1]
        # each row's count goes to every one of its cells, one per group
        present, counts = _add(codes.astype(np.intp), dist.counts[:, None], offsets[-1])
        cells = present.tolist()
        ends = [bisect_left(cells, start) for start in offsets]
        return [(_cell_keys(present[lo:hi] - start, sizes, dist.keys.dtype)
                 if with_keys else None, counts[lo:hi])
                for (_, sizes, _), start, lo, hi in zip(plans, offsets, ends, ends[1:])]
    marginals = []
    for idx, sizes, cells in plans:
        columns = tuple(dist.keys[:, i] for i in idx)
        if cells > _INT64_MAX:  # past intp: the index in Python ints
            codes = np.zeros(rows, dtype=object)
            for column, size in zip(columns, sizes):
                codes = codes * size + column.astype(object)
        else:
            codes = np.ravel_multi_index(columns, sizes) if idx else np.zeros(rows, dtype=np.intp)
        if cells > max(_DENSE_CELLS, rows):
            # too many cells to bin: number the rows by the rank of their cell index
            _, first, codes = np.unique(codes, return_index=True, return_inverse=True)
            counts = _add(codes, dist.counts, len(first))[1]
            kept = dist.keys[first][:, idx] if with_keys else None
        else:
            present, counts = _add(codes, dist.counts, cells)
            kept = _cell_keys(present, sizes, dist.keys.dtype) if with_keys else None
        marginals.append((kept, counts))
    return marginals


def marginalize(dist: JointDistribution, keep: Sequence[str]) -> JointDistribution:
    """Marginal over ``keep`` (result variables in the order given)."""
    variables = tuple(dist.variables[dist.index(name)] for name in keep)
    _wires(variables)  # refuses a wire kept twice
    ((rows, counts),) = grouped_counts(dist, [keep], with_keys=True)
    return _joint(variables, rows, counts, dist.denominator)


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
    return _joint(tuple(dist.variables[i] for i in keep), dist.keys[mask][:, keep], counts,
                  int(counts.sum(dtype=sum_dtype(counts))))
