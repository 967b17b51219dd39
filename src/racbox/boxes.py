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

Tables are dense over the input product space and exact; probability
vectors are shared between input rows that induce the same conditional,
which keeps even the largest grid sizes cheap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from operator import is_not
from typing import Iterable, Mapping, Sequence

from .dists import JointDistribution, ZERO, exact_sum, iter_assignments

RB_VARIANTS = ("nosignaling", "signalinghalf", "plus", "minus", "three")
BND_SIGNS = ("plus", "minus")
DIRECTIONS = ("a2b", "b2a")

# largest dense table (input rows x output cells) a box may be built with
MAX_TABLE_CELLS = 10**7

# zero is interned as dists.ZERO so that ``support`` skips it by identity
_FRACTION_CACHE: dict[tuple[int, int], Fraction] = {(0, 1): ZERO}


def _frac(num: int, den: int) -> Fraction:
    """Interned Fraction so large tables share probability objects."""
    key = (num, den)
    if key not in _FRACTION_CACHE:
        _FRACTION_CACHE[key] = Fraction(num, den)
    return _FRACTION_CACHE[key]


def support(row: Sequence[Fraction]) -> list[tuple[int, Fraction]]:
    """(position, probability) of a row's nonzero cells, in row order.

    Cells holding the shared ``ZERO`` object are skipped by identity, without
    a Fraction call; any other cell is kept only if it is nonzero.
    """
    maybe_nonzero = itertools.compress(range(len(row)), map(is_not, row, itertools.repeat(ZERO)))
    return [(i, row[i]) for i in maybe_nonzero if row[i]]


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


@dataclass(frozen=True)
class Box:
    """signature plus dense table: input assignment -> probability vector."""

    signature: BoxSignature
    table: dict[tuple[int, ...], tuple[Fraction, ...]]

    def prob(self, invals: Sequence[int], outvals: Sequence[int]) -> Fraction:
        """P(outvals | invals); ValueError for an assignment outside the signature."""
        row = self.table.get(tuple(invals))
        if row is None:
            raise ValueError(f"input assignment {tuple(invals)} is not in the box's input space")
        return row[self.signature.output_index(outvals)]

    def input_assignments(self) -> Iterable[tuple[int, ...]]:
        return iter_assignments(self.signature.input_sizes)

    def output_assignments(self) -> Iterable[tuple[int, ...]]:
        return iter_assignments(self.signature.output_sizes)

    def joint(self, input_dist: JointDistribution | None = None) -> JointDistribution:
        """Joint over inputs and outputs; inputs default to uniform.

        A supplied ``input_dist`` must cover exactly the box's input wires in
        signature order (alice inputs then bob inputs).
        """
        sig = self.signature
        if input_dist is None:
            n_inputs = 1
            for s in sig.input_sizes:
                n_inputs *= s
            in_probs: Mapping[tuple[int, ...], Fraction] = {
                key: _frac(1, n_inputs) for key in self.input_assignments()
            }
        else:
            if input_dist.variables != sig.input_vars:
                raise ValueError(
                    f"input distribution variables {input_dist.variables} do not match "
                    f"box inputs {sig.input_vars}"
                )
            in_probs = input_dist.probs
        outputs = list(self.output_assignments())
        probs: dict[tuple[int, ...], Fraction] = {}
        for invals, p_in in in_probs.items():
            if not p_in:
                continue
            for j, p_out in support(self.table[invals]):
                probs[invals + outputs[j]] = p_in * p_out
        return JointDistribution(sig.input_vars + sig.output_vars, probs)


def check_table_size(sig: BoxSignature) -> None:
    """Refuse, before building it, a dense table larger than ``MAX_TABLE_CELLS``."""
    cells = prod(sig.input_sizes) * prod(sig.output_sizes)
    if cells > MAX_TABLE_CELLS:
        raise ValueError(
            f"box table would have {cells} cells (input rows x output cells), "
            f"more than the limit of {MAX_TABLE_CELLS}"
        )


def _dense_box(sig: BoxSignature, row_for) -> Box:
    """Build a dense table, sharing row tuples via a local cache."""
    check_table_size(sig)
    cache: dict[object, tuple[Fraction, ...]] = {}
    table: dict[tuple[int, ...], tuple[Fraction, ...]] = {}
    for invals in iter_assignments(sig.input_sizes):
        key, build = row_for(invals)
        if key not in cache:
            cache[key] = build()
        table[invals] = cache[key]
    return Box(sig, table)


def make_bn_box(n: int) -> Box:
    """The bit family: X xor Y = x_y with x_0 = 0, outputs individually uniform.

    Built directly from the xor condition rather than by delegating to
    ``make_bnd_box`` so the advertised table equality with the d=2 "plus"
    family stays a real cross-check.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    sig = BoxSignature(
        alice_inputs=tuple((f"x_{i}", 2) for i in range(1, n)),
        alice_outputs=(("X", 2),),
        bob_inputs=(("y", n),),
        bob_outputs=(("Y", 2),),
    )
    half = _frac(1, 2)
    zero = _frac(0, 1)

    def row_for(invals: tuple[int, ...]):
        xs = invals[:-1]
        y = invals[-1]
        target = 0 if y == 0 else xs[y - 1]

        def build() -> tuple[Fraction, ...]:
            return tuple(
                half if (X ^ Y) == target else zero for X in range(2) for Y in range(2)
            )

        return target, build

    return _dense_box(sig, row_for)


def make_bnd_box(n: int, d: int, sign: str) -> Box:
    """The dit family: X +_d Y = x_y ("plus") or X -_d Y = x_y ("minus")."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    sign = sign.lower()
    if sign not in BND_SIGNS:
        raise ValueError(f"sign must be one of {BND_SIGNS}, got {sign!r}")
    sig = BoxSignature(
        alice_inputs=tuple((f"x_{i}", d) for i in range(1, n)),
        alice_outputs=(("X", d),),
        bob_inputs=(("y", n),),
        bob_outputs=(("Y", d),),
    )
    p = _frac(1, d)
    zero = _frac(0, 1)

    def row_for(invals: tuple[int, ...]):
        xs = invals[:-1]
        y = invals[-1]
        target = 0 if y == 0 else xs[y - 1]

        def build() -> tuple[Fraction, ...]:
            row = []
            for X in range(d):
                for Y in range(d):
                    combo = (X + Y) % d if sign == "plus" else (X - Y) % d
                    row.append(p if combo == target else zero)
            return tuple(row)

        return target, build

    return _dense_box(sig, row_for)


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
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    variant = variant.lower().replace("-", "").replace("_", "")
    if variant not in RB_VARIANTS:
        raise ValueError(f"variant must be one of {RB_VARIANTS}, got {variant!r}")
    if variant in ("nosignaling", "signalinghalf") and d != 2:
        raise ValueError(f"variant {variant!r} is only defined for d=2, got d={d}")
    sig = BoxSignature(
        alice_inputs=tuple((f"a_{i}", d) for i in range(n)),
        alice_outputs=(("A", d),),
        bob_inputs=(("Aprime", d), ("b", n)),
        bob_outputs=(("B", d),),
    )
    pA = _frac(1, d)
    zero = _frac(0, 1)

    def b_prob(a_b: int, A: int, Aprime: int, B: int) -> Fraction:
        """P(B | A, a_b, A') for the chosen variant (exact, sums to 1 over B)."""
        if Aprime == A:
            return _frac(1, 1) if B == a_b else zero
        if variant == "nosignaling":
            return _frac(1, 1) if B == (a_b + A + Aprime) % 2 else zero
        if variant == "signalinghalf":
            return _frac(1, 2)
        if variant == "plus":
            return _frac(1, 1) if B == (a_b - A + Aprime) % d else zero
        if variant == "minus":
            return _frac(1, 1) if B == (a_b + A - Aprime) % d else zero
        # three: uniform over the wrong symbols
        return zero if B == a_b else _frac(1, d - 1)

    def row_for(invals: tuple[int, ...]):
        a = invals[:n]
        Aprime, b = invals[n], invals[n + 1]
        key = (a[b], Aprime)

        def build() -> tuple[Fraction, ...]:
            row = []
            for A in range(d):
                for B in range(d):
                    row.append(pA * b_prob(a[b], A, Aprime, B))
            return tuple(row)

        return key, build

    return _dense_box(sig, row_for)


def _row_normalized(row: Sequence[Fraction]) -> bool:
    """Non-negative and summing exactly to 1, read off the nonzero cells."""
    cells = [p for _, p in support(row)]
    return all(p.numerator > 0 for p in cells) and exact_sum(cells) == 1


def unnormalized_row(box: Box) -> tuple[int, ...] | None:
    """The first input row that has a negative cell or does not sum exactly to 1."""
    seen: dict[int, bool] = {}
    for invals, row in box.table.items():
        verdict = seen.get(id(row))
        if verdict is None:
            verdict = seen[id(row)] = _row_normalized(row)
        if not verdict:
            return invals
    return None


def check_normalization(box: Box) -> bool:
    """True iff every conditional row is non-negative and sums exactly to 1."""
    return unnormalized_row(box) is None


def _party_marginal(box: Box, row: tuple[Fraction, ...], party: str) -> tuple[Fraction, ...]:
    """Output marginal of one party from a table row."""
    sig = box.signature
    n_alice = 1
    for _, s in sig.alice_outputs:
        n_alice *= s
    n_bob = 1
    for _, s in sig.bob_outputs:
        n_bob *= s
    if party == "alice":
        return tuple(
            sum((row[i * n_bob + j] for j in range(n_bob)), ZERO) for i in range(n_alice)
        )
    return tuple(
        sum((row[i * n_bob + j] for i in range(n_alice)), ZERO) for j in range(n_bob)
    )


def check_no_signaling(box: Box, direction: str) -> bool:
    """True iff the receiver's output marginal ignores the sender's inputs.

    direction "a2b": Bob's marginal P(bob outputs | bob inputs) must be the
    same for every choice of Alice's inputs; "b2a" symmetrically.
    """
    direction = direction.lower().replace("-", "").replace("_", "")
    aliases = {"a2b": "a2b", "alicetobob": "a2b", "b2a": "b2a", "bobtoalice": "b2a"}
    if direction not in aliases:
        raise ValueError(f"direction must be one of {sorted(set(aliases))}, got {direction!r}")
    direction = aliases[direction]
    sig = box.signature
    n_alice_in = len(sig.alice_inputs)
    receiver = "bob" if direction == "a2b" else "alice"
    marg_cache: dict[int, tuple[Fraction, ...]] = {}

    def marginal(row: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        m = marg_cache.get(id(row))
        if m is None:
            m = _party_marginal(box, row, receiver)
            marg_cache[id(row)] = m
        return m

    reference: dict[tuple[int, ...], tuple[Fraction, ...]] = {}
    # verdicts of comparisons already made, keyed by the cached marginals' ids
    same: dict[tuple[int, int], bool] = {}
    for invals, row in box.table.items():
        # the receiver's own inputs index the reference marginal
        local = invals[n_alice_in:] if direction == "a2b" else invals[:n_alice_in]
        m = marginal(row)
        ref = reference.get(local)
        if ref is None:
            reference[local] = m
        elif ref is not m:
            key = (id(ref), id(m))
            verdict = same.get(key)
            if verdict is None:
                verdict = same[key] = ref == m
            if not verdict:
                return False
    return True


def rb_blind_guess_probability(rb: Box, index: int) -> Fraction:
    """P(B = a_index | b = index) under uniform inputs and an uninformed, uniform A'.

    This is the no-message figure of merit: with no information flowing from
    Alice, every no-signaling variant scores exactly 1/d, while the signaling
    variant scores 3/4 at d=2.
    """
    sig = rb.signature
    n = len(sig.alice_inputs)
    d = sig.alice_inputs[0][1]
    if not 0 <= index < n:
        raise ValueError(f"index {index} out of range for n={n}")
    total = ZERO
    count = 0
    for a in iter_assignments([d] * n):
        for aprime in range(d):
            row = rb.table[a + (aprime, index)]
            count += 1
            for outvals, p in zip(rb.output_assignments(), row):
                if p != 0 and outvals[1] == a[index]:
                    total += p
    return total / count
