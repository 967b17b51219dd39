"""Bipartite no-signaling boxes with exact rational tables.

A box is a conditional distribution P(outputs | inputs) for two parties.
The constructors here build the three families this package studies:

* ``make_bn_box(n)``: Alice holds bits x_1..x_{n-1} and outputs a bit X;
  Bob holds an index y in {0..n-1} and outputs a bit Y; the outputs are
  individually uniform with X xor Y = x_y, where x_0 = 0 by convention.
* ``make_bnd_box(n, d, sign)``: the modular-arithmetic generalization with
  dits and X +_d Y = x_y (sign "plus") or X -_d Y = x_y (sign "minus").
* ``make_rb(n, d, variant)``: a RAC-box: Alice inputs n dits a_0..a_{n-1}
  and receives a uniform dit A uncorrelated with her inputs; Bob inputs a
  guess A' and an index b and receives B with B = a_b whenever A' = A.
  The variants fix the behaviour on the A' != A branch (see below).

Both families have the interface ``family_signature(n, d)``, which every
protocol that simulates or extends them builds on.

A table is one integer array of numerators, one axis per wire (inputs,
then outputs, in signature order), over a single denominator kept in
lowest terms; the box owns it, read-only.  ``make_rb`` gathers its table as
whole (A, B) blocks of one small kernel.  Every marginal is a run of wire
axes summed by adding its slices as whole arrays (``sum_wires``), into the
narrowest integer type that holds the sum exactly; a short trailing block
under many rows is added column by column, so each add is one long strided
run rather than a short loop per row.  A box sums each party's
output marginal at most once, when a check first reads it, and the three
checks (normalization, no-signaling both ways) read those two.  A check
compares the whole marginal with its reference in one exact integer compare
and looks for the first failing row only when something differs;
``Fraction`` appears only where a single probability leaves a box.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .dists import JointDistribution, lowest_terms, numerator_dtype, sum_dtype

RB_VARIANTS = ("nosignaling", "signalinghalf", "plus", "minus", "three")
BND_SIGNS = ("plus", "minus")
DIRECTIONS = ("a2b", "b2a")

# largest dense table (input rows x output cells) a box may be built with
MAX_TABLE_CELLS = 10**7


@dataclass(frozen=True)
class BoxSignature:
    """Named, sized wires for each party; symbols are 0..size-1."""

    alice_inputs: tuple[tuple[str, int], ...]
    alice_outputs: tuple[tuple[str, int], ...]
    bob_inputs: tuple[tuple[str, int], ...]
    bob_outputs: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.all_vars]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate wire names in signature: {names}")

    @property
    def all_vars(self) -> tuple[tuple[str, int], ...]:
        return self.alice_inputs + self.alice_outputs + self.bob_inputs + self.bob_outputs

    @property
    def input_vars(self) -> tuple[tuple[str, int], ...]:
        return self.alice_inputs + self.bob_inputs

    @property
    def output_vars(self) -> tuple[tuple[str, int], ...]:
        return self.alice_outputs + self.bob_outputs

    @property
    def input_sizes(self) -> tuple[int, ...]:
        return tuple(size for _, size in self.input_vars)

    @property
    def output_sizes(self) -> tuple[int, ...]:
        return tuple(size for _, size in self.output_vars)

    def output_index(self, outvals: Sequence[int]) -> int:
        """Row-major position of an output assignment (last wire fastest).

        Raises ValueError for the wrong number of values or a symbol outside
        its wire's alphabet.
        """
        if len(outvals) != len(self.output_vars):
            raise ValueError(
                f"{len(outvals)} output values for {len(self.output_vars)} output wires"
            )
        idx = 0
        for value, (name, size) in zip(outvals, self.output_vars):
            if not 0 <= value < size:
                raise ValueError(f"output symbol {value} out of range for wire {name!r}")
            idx = idx * size + value
        return idx


@dataclass(frozen=True, eq=False)
class Box:
    """signature plus an exact table: integer numerators over one denominator.

    ``table`` has one axis per wire, ``input_sizes + output_sizes``, so
    ``table[invals + outvals] / denominator`` is P(outvals | invals).  The
    constructor brings the pair to lowest terms in the narrowest integer type
    that holds them with ``dists.lowest_terms``, the one normal form a joint
    has too, so two boxes are equal exactly when their signatures,
    denominators and numerator arrays are.

    The box owns its table.  When the lowest terms are the caller's array as
    it is, the box keeps that memory without a copy and makes the array, and
    each array it is a view of, read-only, so a later write through them
    raises (as ``JointDistribution`` does with its arrays); memory that no
    array owns, such as a buffer, is copied.  numpy does not pass the flag on
    to views made earlier, so the caller must not write to the memory through
    one.  ``alice_marginal`` and ``bob_marginal`` are summed once, on first
    use, and kept read-only.
    """

    signature: BoxSignature
    table: np.ndarray
    denominator: int

    def __post_init__(self) -> None:
        sig = self.signature
        given = table = np.asarray(self.table)
        if table.shape != sig.input_sizes + sig.output_sizes:
            raise ValueError(
                f"table shape {table.shape} does not match the signature's wire sizes "
                f"{sig.input_sizes + sig.output_sizes}"
            )
        if table.dtype.kind not in "biuO":
            raise ValueError(f"box numerators must be integers, got dtype {table.dtype}")
        if table.dtype.kind == "b":
            table = table.view(np.int8)
        table, den = lowest_terms(table, self.denominator)
        if np.may_share_memory(table, given) and not _lock(given):
            table = table.copy()
        # a read-only view: equality and the dtype rest on the lowest terms
        table = table.view()
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "denominator", den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return (
            self.signature == other.signature
            and self.denominator == other.denominator
            and bool(np.array_equal(self.table, other.table))
        )

    __hash__ = None  # type: ignore[assignment]

    @cached_property
    def alice_marginal(self) -> np.ndarray:
        """Numerators of P(Alice's outputs | inputs): the table with Bob's outputs
        summed away, one axis per input and Alice output wire (read-only)."""
        marginal = sum_wires(
            self.table, self.table.ndim - len(self.signature.bob_outputs), self.table.ndim)
        marginal.flags.writeable = False
        return marginal

    @cached_property
    def bob_marginal(self) -> np.ndarray:
        """Numerators of P(Bob's outputs | inputs): the table with Alice's outputs
        summed away, one axis per input and Bob output wire (read-only)."""
        first = len(self.signature.input_vars)
        marginal = sum_wires(self.table, first, first + len(self.signature.alice_outputs))
        marginal.flags.writeable = False
        return marginal

    def _input_row(self, invals: Sequence[int]) -> tuple[int, ...]:
        """``invals`` as a tuple; ValueError if it is not an input assignment of the box."""
        invals = tuple(invals)
        sizes = self.signature.input_sizes
        if len(invals) != len(sizes) or not all(0 <= v < s for v, s in zip(invals, sizes)):
            raise ValueError(f"input assignment {invals} is not in the box's input space")
        return invals

    def prob(self, invals: Sequence[int], outvals: Sequence[int]) -> Fraction:
        """P(outvals | invals); ValueError for an assignment outside the signature."""
        cell = self.table[self._input_row(invals)].reshape(-1)[
            self.signature.output_index(outvals)
        ]
        return Fraction(int(cell), self.denominator)

    def joint(self) -> JointDistribution:
        """Joint over inputs then outputs under uniform inputs: the nonzero
        cells of the table."""
        sig = self.signature
        return JointDistribution.from_table(
            sig.input_vars + sig.output_vars, self.table, self.denominator * prod(sig.input_sizes))


def _lock(array: np.ndarray) -> bool:
    """Make ``array`` and each array it is a view of read-only; False, and
    nothing changed, if the memory belongs to something other than an array."""
    arrays = [array]
    while isinstance(arrays[-1].base, np.ndarray):
        arrays.append(arrays[-1].base)
    if arrays[-1].base is not None:
        return False
    for view in arrays:
        view.flags.writeable = False
    return True


def check_table_size(sizes: Iterable[int]) -> None:
    """Refuse, before building it, a dense table over wires of these positive
    sizes with more than ``MAX_TABLE_CELLS`` cells; the product stops past
    ``MAX_TABLE_CELLS ** 2``, so no long multiplication or huge count is formatted."""
    cells, cap = 1, MAX_TABLE_CELLS**2
    for size in sizes:
        cells *= size
        if cells > cap:
            break
    if cells > MAX_TABLE_CELLS:
        raise ValueError(
            f"box table would have {cells if cells <= cap else f'more than {cap}'} cells "
            f"(input rows x output cells), more than the limit of {MAX_TABLE_CELLS}"
        )


def addressed(d: int, k: int, pad: bool) -> np.ndarray:
    """v[w_0, ..., w_{k-1}, i] = w_i: the i-th of k d-ary values, for every i and w.

    With ``pad`` the index runs over (0, w_0, ..., w_{k-1}) instead, so index 0
    addresses a constant 0 (the x_0 = 0 convention of the box families).
    """
    grid = np.indices((d,) * k, dtype=numerator_dtype(d, 1))
    if pad:
        grid = np.concatenate([np.zeros_like(grid[:1]), grid])
    return np.moveaxis(grid, 0, -1)


def _check_n_d(n: int, d: int) -> None:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")


def family_signature(n: int, d: int) -> BoxSignature:
    """The interface of the box families: Alice's x_1..x_{n-1} -> X, Bob's y -> Y.

    Every symbol is d-ary except y, which is n-ary.
    """
    _check_n_d(n, d)
    return BoxSignature(
        alice_inputs=tuple((f"x_{i}", d) for i in range(1, n)),
        alice_outputs=(("X", d),),
        bob_inputs=(("y", n),),
        bob_outputs=(("Y", d),),
    )


def _family_box(n: int, d: int, combo: np.ndarray) -> Box:
    """The family box with outputs uniform and combo[X, Y] = x_y, where x_0 = 0."""
    # y is n-ary and the other wires d-ary: checked before naming n - 1 wires
    check_table_size(chain((n,), repeat(d, n + 1)))
    return Box(family_signature(n, d), addressed(d, n - 1, pad=True)[..., None, None] == combo, d)


def make_bn_box(n: int) -> Box:
    """The bit family: X xor Y = x_y with x_0 = 0, outputs individually uniform.

    Built directly from the xor condition rather than by delegating to
    ``make_bnd_box`` so the advertised table equality with the d=2 "plus"
    family stays a real cross-check.
    """
    X, Y = np.indices((2, 2), sparse=True)
    return _family_box(n, 2, X ^ Y)


def make_bnd_box(n: int, d: int, sign: str) -> Box:
    """The dit family: X +_d Y = x_y ("plus") or X -_d Y = x_y ("minus")."""
    _check_n_d(n, d)
    if sign not in BND_SIGNS:
        raise ValueError(f"sign must be one of {BND_SIGNS}, got {sign!r}")
    X, Y = np.indices((d, d), sparse=True)
    return _family_box(n, d, (X + Y) % d if sign == "plus" else (X - Y) % d)


def check_rb_size(n: int, d: int) -> None:
    """Refuse an (n, d) whose RAC-box table ``make_rb`` could not build: b is
    n-ary and the other n + 3 wires d-ary, so it has n * d^(n+3) cells.
    Checked before any of the n wires is named."""
    check_table_size(chain((n,), repeat(d, n + 3)))


def make_rb(n: int, d: int, variant: str) -> Box:
    """A RAC-box: perfect (n->1) RAC behaviour on the A' = A branch.

    Off-branch (A' != A) behaviour per variant:

    * ``nosignaling`` (d=2 only): B = a_b xor A xor A', the unique
      no-signaling completion (B is the wrong bit whenever A' != A).
    * ``signalinghalf`` (d=2 only): B uniform on A' != A; this box signals
      from Alice to Bob (P(B=a_b | b) = 3/4 under an uninformed A').
    * ``plus`` / ``minus`` (any d): the group-law completions
      B = a_b -_d A +_d A' and B = a_b +_d A -_d A'.
    * ``three`` (any d): B uniform over the d-1 wrong symbols, each with
      probability 1/(d-1), the unique uniform completion with
      P(B = a_b | A' != A) = 0 that stays normalized and no-signaling.

    In every variant Alice's output A is uniform and independent of her
    inputs (so the box never signals Bob to Alice).
    """
    _check_n_d(n, d)
    if variant not in RB_VARIANTS:
        raise ValueError(f"variant must be one of {RB_VARIANTS}, got {variant!r}")
    if variant in ("nosignaling", "signalinghalf") and d != 2:
        raise ValueError(f"variant {variant!r} is only defined for d=2, got d={d}")
    check_rb_size(n, d)
    sig = BoxSignature(
        alice_inputs=tuple((f"a_{i}", d) for i in range(n)),
        alice_outputs=(("A", d),),
        bob_inputs=(("Aprime", d), ("b", n)),
        bob_outputs=(("B", d),),
    )
    # kernel[a_b, A', A, B] = scale * P(B | a_b, A, A'); A is uniform, so a cell of the
    # table is P(A, B | a, A', b) = kernel / (d * scale).  Only the requested
    # variant's off-branch array is built.
    ab, Ap, A, B = np.indices((d,) * 4, sparse=True)
    scale = {"signalinghalf": 2, "three": d - 1}.get(variant, 1)
    off = {
        "nosignaling": lambda: B == (ab + A + Ap) % 2,
        "signalinghalf": lambda: 1,
        "plus": lambda: B == (ab - A + Ap) % d,
        "minus": lambda: B == (ab + A - Ap) % d,
        "three": lambda: B != ab,
    }[variant]()
    kernel = np.where(Ap == A, scale * (B == ab), off).astype(numerator_dtype(scale, 1))
    # row a_b * d + A' of the kernel, laid flat, is the (A, B) block of every input
    # with that a_b and A': one gather of whole blocks, not of single cells
    blocks = d * addressed(d, n, pad=False).astype(np.intp)[..., None, :] + np.arange(d)[:, None]
    table = np.take(kernel.reshape(d * d, d * d), blocks, axis=0)
    return Box(sig, table.reshape(sig.input_sizes + sig.output_sizes), d * scale)


# for each stored integer type, (longest run, accumulator) pairs, narrowest first:
# the accumulator holds exactly the sum of that many cells of the largest magnitude
# the type can store; past the last pair, or for any other type, ``sum_dtype``
_SIGNED = tuple(map(np.dtype, (np.int8, np.int16, np.int32, np.int64)))
_ACCUMULATORS = {
    stored: tuple((int(np.iinfo(acc).max) // -int(np.iinfo(stored).min), acc)
                  for acc in _SIGNED[i + 1:-1])
    for i, stored in enumerate(_SIGNED)
}


# sum_wires reads a trailing block of fewer than _COLUMN_TRAILING cells under at
# least _COLUMN_ROWS rows column by column, in chunks of about _COLUMN_CHUNK_BYTES
# of table and at least _COLUMN_ROWS_MIN rows (thresholds measured on a grid of
# int8, int16 and int64 shapes)
_COLUMN_TRAILING = 8
_COLUMN_ROWS = 256
_COLUMN_CHUNK_BYTES = 1 << 20
_COLUMN_ROWS_MIN = 1024


def _accumulator(table: np.ndarray, run: int) -> np.dtype:
    for longest, dtype in _ACCUMULATORS.get(table.dtype, ()):
        if run <= longest:
            return dtype
    return sum_dtype(table)


def sum_wires(table: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Exact sum of a box table over its wire axes ``start..stop-1``.

    The accumulator is the narrowest signed type that holds the run's length
    times the largest magnitude the table's type can store (int16 for an int8
    table over a run of up to 255 cells), never wider than ``sum_dtype``:
    int64, exact by ``numerator_dtype``'s invariant, or Python ints for
    object tables.

    The table is read as blocks[row, i, cell]: the wires before the run, the
    run, and the trailing wires after it.  The run's slices are added as
    whole arrays, where ``np.sum`` over a short inner axis sets up a short
    loop per result cell.  A slice costs about that setup on 64 cells, so a
    run of more than 1/64 the result's cells goes to ``np.sum``.  Otherwise
    one of two loop nests, read from the shape, adds the slices:

    * a trailing block of 2 to 7 cells under at least 256 rows is summed
      column by column: the accumulator is laid out trailing-major, so each
      add runs along the rows, one long strided run per trailing cell; the
      rows are taken in chunks of about 1 MB of table (at least 1,024 rows)
      so a chunk stays in cache while its run is added;
    * any other shape adds each slice as one (rows, trailing) block.
    """
    shape = table.shape[:start] + table.shape[stop:]
    run, rest = prod(table.shape[start:stop]), prod(shape)
    dtype = _accumulator(table, run)
    if not 0 < 64 * run <= rest:
        return table.sum(axis=tuple(range(start, stop)), dtype=dtype)
    rows = prod(table.shape[:start])
    trailing = rest // rows
    blocks = table.reshape(rows, run, trailing)
    if not (1 < trailing < _COLUMN_TRAILING and rows >= _COLUMN_ROWS):
        total = np.empty((rows, trailing), dtype)
        _add_run(blocks.transpose(1, 0, 2), total)
        return total.reshape(shape)
    total = np.empty((trailing, rows), dtype)
    step = max(_COLUMN_ROWS_MIN, _COLUMN_CHUNK_BYTES // (run * trailing * table.itemsize))
    for first in range(0, rows, step):
        _add_run(blocks[first:first + step].transpose(1, 2, 0), total[:, first:first + step])
    return total.T.reshape(shape)


def _add_run(slices: np.ndarray, total: np.ndarray) -> None:
    """``total`` = the sum of ``slices`` over their first axis, one whole-array add a slice."""
    total[...] = slices[0]
    for part in slices[1:]:
        total += part


def _first_row(box: Box, flagged: np.ndarray) -> tuple[int, ...] | None:
    """Input assignment of the first flagged row (flags in row-major input order)."""
    hits = np.flatnonzero(flagged)
    if not hits.size:
        return None
    return tuple(int(v) for v in np.unravel_index(hits[0], box.signature.input_sizes))


def unnormalized_row(box: Box) -> tuple[int, ...] | None:
    """The first input row that has a negative cell or does not sum exactly to 1.

    A row's sum is its ``alice_marginal`` summed over Alice's outputs."""
    marginal = box.alice_marginal
    flagged = sum_wires(marginal, len(box.signature.input_vars), marginal.ndim) != box.denominator
    if box.table.min() < 0:
        flagged |= (box.table.reshape(flagged.shape + (-1,)) < 0).any(axis=-1)
    return _first_row(box, flagged)


def check_normalization(box: Box) -> bool:
    """True iff every conditional row is non-negative and sums exactly to 1."""
    return unnormalized_row(box) is None


def signaling_row(box: Box, direction: str) -> tuple[int, ...] | None:
    """The first input row whose receiver marginal differs from the marginal
    at the sender's first input, in row-major order; None if there is none.

    direction "a2b": Bob's marginal P(bob outputs | inputs) (``bob_marginal``)
    is compared with the one at Alice's first input; "b2a" symmetrically.
    """
    if direction not in ("a2b", "b2a"):
        raise ValueError(f"direction must be a2b or b2a, got {direction!r}")
    sig = box.signature
    marg = (box.bob_marginal if direction == "a2b" else box.alice_marginal).reshape(
        prod(s for _, s in sig.alice_inputs), prod(s for _, s in sig.bob_inputs), -1
    )
    differs = marg != (marg[:1] if direction == "a2b" else marg[:, :1])
    if not differs.any():
        return None
    return _first_row(box, differs.any(axis=2))


def check_no_signaling(box: Box, direction: str) -> bool:
    """True iff the receiver's output marginal ignores the sender's inputs.

    direction "a2b": Bob's marginal P(bob outputs | bob inputs) must be the
    same for every choice of Alice's inputs; "b2a" symmetrically.
    """
    return signaling_row(box, direction) is None

