"""Exact execution of box-plus-local-processing protocols.

Each protocol here is a one-round pipeline: Alice feeds a resource box,
optionally sends a single message, both parties post-process locally, and
the whole pipeline induces an effective box on the task interface.  The
executor lays the run out as one integer grid over every task input,
shared-randomness symbol and box outcome and calls the parties' callbacks on
whole arrays of that grid.  Every callback takes one dict of the wires its
party holds at that point, by name, so a strategy's function tables can be
passed to it as they are, and every value a callback returns is checked
against its wire's alphabet in one place.  The executor reads the
resource's numerators with one flat ``take`` and adds them into the induced
table with one integer scatter whose values have the accumulator's own
dtype, so every sum is exact and runs on numpy's typed loop; there is no
sampling and no float anywhere.

The resource box is queried sequentially (Alice first, then Bob, whose box
inputs may depend on the message).  That split is only sound when the box
cannot signal from Bob to Alice, so the executor validates that property
before running.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import prod
from typing import Callable, Mapping, Sequence

import numpy as np

from .boxes import (
    DIRECTIONS,
    Box,
    BoxSignature,
    addressed,
    check_no_signaling,
    family_signature,
    make_bn_box,
    make_bnd_box,
    make_rb,
    signaling_row,
    sum_wires,
    unnormalized_row,
)
from .dists import JointDistribution, numerator_dtype
from .reports import ProbeReport

ZERO = Fraction(0)

# one wire array per name, broadcasting over the executor's grid
Wires = dict[str, np.ndarray]


class ProtocolError(ValueError):
    """A protocol violated its own contract (budget, normalization, shape)."""


@dataclass(frozen=True)
class ProtocolRun:
    """A completed protocol: its message alphabet and the box it induces."""

    name: str
    message_alphabet: int
    result: Box

    def __post_init__(self) -> None:
        if self.message_alphabet < 1:
            raise ProtocolError("the message alphabet must have size >= 1")
        bad = unnormalized_row(self.result)
        if bad is not None:
            row = self.result.table[bad]
            total = Fraction(int(sum_wires(row, 0, row.ndim)), self.result.denominator)
            raise ProtocolError(
                f"result of {self.name!r} is not normalized: induced row at {bad} "
                f"sums to {total} or has a negative cell"
            )


@dataclass(frozen=True)
class ErasureChannelReport:
    """Erasure parameters of an extracted side channel, in message-alphabet units."""

    erasure_probability: Fraction
    capacity: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.erasure_probability <= 1:
            raise ProtocolError(f"erasure probability {self.erasure_probability} out of range")
        if self.capacity != 1 - self.erasure_probability:
            raise ProtocolError("capacity must equal 1 - erasure probability")


# grid cells one block of Alice task rows may span: bounds the executor's scratch memory
BLOCK_CELLS = 1 << 16


def _digits(wires: Sequence[tuple[str, int]], flat: np.ndarray, axis: int) -> dict[str, np.ndarray]:
    """Each wire's value at each row-major index in ``flat``, laid along ``axis`` of the grid."""
    shape = [1] * 5
    shape[axis] = len(flat)
    values = {}
    for name, size in reversed(wires):
        flat, value = np.divmod(flat, size)
        values[name] = value.reshape(shape)
    return values


def _checked_index(what: str, values: Sequence, wires: Sequence[tuple[str, int]]) -> np.ndarray:
    """The int64 row-major index over ``wires`` of broadcastable integer
    arrays, one per wire in order, each checked against its wire's alphabet;
    ``what`` names the values in the error."""
    values = [np.asarray(v) for v in values]
    if len(values) != len(wires):
        raise ProtocolError(f"{what}: expected {len(wires)} values for the wires "
                            f"{[nm for nm, _ in wires]}, got {len(values)}")
    idx = np.zeros((), dtype=np.int64)
    for value, (name, size) in zip(values, wires):
        # min and max first: a mask over every grid cell is built only for a fault
        if value.min() < 0 or value.max() >= size:
            bad = value[(value < 0) | (value >= size)][0]
            raise ProtocolError(f"{what} {name}={bad} outside its alphabet of size {size}")
        idx = idx * size + value
    return idx


def run_box_protocol(
    name: str,
    resource: Box,
    iface: BoxSignature,
    *,
    alice_box_inputs: Callable[[Wires], Sequence],
    bob_box_inputs: Callable[[Wires], Sequence],
    alice_outputs: Callable[[Wires], Mapping[str, np.ndarray]],
    bob_outputs: Callable[[Wires], Mapping[str, np.ndarray]],
    message: Callable[[Wires], np.ndarray] | None = None,
    message_size: int = 1,
    sr_size: int = 1,
) -> ProtocolRun:
    """Run a single-resource protocol exactly and return the induced box.

    The run is laid out on the grid (Alice task input, s, A, Bob task input,
    B), A and B being the resource's output assignments, and is taken in
    blocks of Alice task rows of at most ``BLOCK_CELLS`` cells.  Each
    callback is called once per block with one dict: every wire its party
    holds at that point, by name, each an integer array that broadcasts over
    the grid, with size-1 axes where the wire does not vary.

    ``alice_box_inputs`` gets Alice's task inputs and the shared randomness
    ``"s"``; ``message`` and ``alice_outputs`` get those plus Alice's
    resource outputs.  ``bob_box_inputs`` gets Bob's task inputs, ``"s"``
    and, only when a message alphabet is declared, the message ``"m"``;
    ``bob_outputs`` gets those plus Bob's resource outputs.  The box-input
    callbacks return the resource wires in signature order, ``message`` the
    message symbols, each in ``range(message_size)``, and ``alice_outputs``
    and ``bob_outputs`` dicts that name every Alice and every Bob output
    wire of ``iface``.  Alice's dicts span no Bob axis, so her side runs once
    per (Alice task input, s, A) round and the message cannot depend on
    Bob's task input.  A party whose wires would repeat a name (a task input
    called ``s`` or ``m``, or named like a resource output) is refused
    before any callback runs.  Callbacks are evaluated on zero-probability A
    and B as well, and every value they return is range-checked there too.

    The resource numerators are read with one ``take`` from the table laid
    flat as rows of B over the row-major (Alice row, Bob row, A) index, B
    being the last axis of both the table and the grid.  The nonzero ones are
    cast to the accumulator's dtype, int64 or Python-int ``object`` once a
    sum could pass int64, and summed into the induced table with one
    ``np.add.at``: with both operands of one dtype numpy runs its typed loop,
    and both accumulators share this one path.  The result's normalization
    is checked in one place, ``ProtocolRun.__post_init__``, when the
    returned run is built.
    """
    if message_size > 1 and message is None:
        raise ProtocolError("a message alphabet was declared but no sender given")
    if message_size == 1 and message is not None:
        raise ProtocolError("message sender given but no message alphabet declared")
    signaling = signaling_row(resource, "b2a")
    if signaling is not None:
        raise ProtocolError(
            f"resource signals from Bob to Alice at input row {signaling}; "
            "sequential execution is unsound"
        )
    res_sig = resource.signature
    for party, names in (
            ("Alice", [nm for nm, _ in iface.alice_inputs + res_sig.alice_outputs] + ["s"]),
            ("Bob", [nm for nm, _ in iface.bob_inputs + res_sig.bob_outputs]
             + ["s"] + (["m"] if message is not None else []))):
        repeated = sorted({nm for nm in names if names.count(nm) > 1})
        if repeated:
            raise ProtocolError(f"{party}'s wires repeat the names {repeated}")
    n_a, n_b = prod(s for _, s in res_sig.alice_outputs), prod(s for _, s in res_sig.bob_outputs)
    n_ta, n_tb = prod(s for _, s in iface.alice_inputs), prod(s for _, s in iface.bob_inputs)
    n_out = prod(iface.output_sizes)
    n_brow = prod(s for _, s in res_sig.bob_inputs)
    # nums[(Alice row, Bob row, A) flat, B]: the resource's numerators
    nums = resource.table.reshape(-1, n_b)
    peak = max(int(nums.max()), -int(nums.min()))
    exact = object if peak * sr_size * n_a * n_b > np.iinfo(np.int64).max else np.int64
    s_val = np.arange(sr_size).reshape(1, -1, 1, 1, 1)
    a_out = _digits(res_sig.alice_outputs, np.arange(n_a), 2)
    tb = _digits(iface.bob_inputs, np.arange(n_tb), 3)
    b_out = _digits(res_sig.bob_outputs, np.arange(n_b), 4)
    a_cell = np.arange(n_a).reshape(1, 1, -1, 1, 1)
    tb_row = np.arange(n_tb).reshape(1, 1, 1, -1, 1)
    rows_per_block = max(1, BLOCK_CELLS // (sr_size * n_a * n_tb * n_b))
    denominator = resource.denominator * sr_size

    def block(start: int) -> np.ndarray:
        """The induced table's rows for Alice task rows from ``start``, stored narrow."""
        rows = np.arange(start, min(start + rows_per_block, n_ta))
        alice = {**_digits(iface.alice_inputs, rows, 0), "s": s_val}
        a_row = _checked_index("Alice's resource input", alice_box_inputs(alice),
                               res_sig.alice_inputs)
        alice = {**alice, **a_out}
        bob = {**tb, "s": s_val}
        if message is not None:
            sent = message(alice)
            if sent is None:
                raise ProtocolError("declared message was never sent")
            m_val = _checked_index("message", [sent], [("m", message_size)])
            bob["m"] = np.broadcast_to(m_val, (len(rows), sr_size, n_a, 1, 1))
        b_row = _checked_index("Bob's resource input", bob_box_inputs(bob), res_sig.bob_inputs)
        grid = (len(rows), sr_size, n_a, n_tb, n_b)
        # one take of whole B rows, the last axis of both the grid and nums
        cell_nums = np.broadcast_to(
            nums.take(((a_row * n_brow + b_row) * n_a + a_cell)[..., 0], axis=0), grid)
        nonzero = cell_nums != 0
        outs = {**alice_outputs(alice), **bob_outputs({**bob, **b_out})}
        out_cell = _checked_index("output", [outs[nm] for nm, _ in iface.output_vars],
                                  iface.output_vars)
        del outs  # only the output cell index outlives this point
        cells = np.broadcast_to(
            ((rows - start).reshape(-1, 1, 1, 1, 1) * n_tb + tb_row) * n_out + out_cell,
            grid)[nonzero]
        acc = np.zeros(len(rows) * n_tb * n_out, dtype=exact)
        # values of the accumulator's own dtype keep np.add.at on its typed loop
        np.add.at(acc, cells, cell_nums[nonzero].astype(exact, copy=False))
        # stored narrow at once, so the blocks never hold the whole table as int64
        top = max(int(acc.max()), -int(acc.min()), denominator)
        return acc.astype(numerator_dtype(top, n_ta * n_tb * n_out))

    # one call per block, so no block's scratch arrays outlive it
    blocks = [block(start) for start in range(0, n_ta, rows_per_block)]
    table = np.concatenate(blocks).reshape(iface.input_sizes + iface.output_sizes)
    return ProtocolRun(name, message_size, Box(iface, table, denominator))


def _rac_iface(n: int, d: int) -> BoxSignature:
    return BoxSignature(
        alice_inputs=tuple((f"a_{i}", d) for i in range(n)),
        alice_outputs=(),
        bob_inputs=(("b", n),),
        bob_outputs=(("B", d),),
    )


def rac_via_bnd_box(n: int, d: int, sign: str) -> ProtocolRun:
    """Win the (n->1) d-ary RAC perfectly with one box use and one message dit.

    Alice feeds x_i = a_i -_d a_0, sends m = X +_d a_0; Bob answers
    m +_d Y for the "plus" family and m -_d Y for the "minus" family.
    """
    return _rac_via_bnd_box(n, d, sign, make_bnd_box(n, d, sign), f"rac-via-b{n}{d}-{sign}")


def _rac_via_bnd_box(n: int, d: int, sign: str, resource: Box, name: str) -> ProtocolRun:
    step = 1 if sign == "plus" else -1
    return run_box_protocol(
        name,
        resource,
        _rac_iface(n, d),
        alice_box_inputs=lambda a: tuple((a[f"a_{i}"] - a["a_0"]) % d for i in range(1, n)),
        bob_box_inputs=lambda b: (b["b"],),
        alice_outputs=lambda a: {},
        bob_outputs=lambda b: {"B": (b["m"] + step * b["Y"]) % d},
        message=lambda a: (a["X"] + a["a_0"]) % d,
        message_size=d,
    )


def rac_via_bn_box(n: int) -> ProtocolRun:
    """Bit special case: x_i = a_0 xor a_i, m = a_0 xor X, answer m xor Y."""
    return _rac_via_bnd_box(n, 2, "plus", make_bn_box(n), f"rac-via-bn-{n}")


def bnd_box_via_rb(n: int, d: int, sign: str, rb_variant: str | None = None) -> ProtocolRun:
    """Reproduce the d-ary box family from a RAC-box without any message.

    Alice fixes a_0 = 0 and encodes her x_i straight into the RAC-box
    ("plus": a_i = x_i; "minus": a_i = -_d x_i), outputs X = A; Bob fixes
    A' = 0, queries b = y and outputs Y = B.  With the matching group-law
    variant the induced table equals ``make_bnd_box(n, d, sign)`` exactly.
    ``rb_variant`` may be overridden (e.g. "three") to see the reproduction
    fail for box families that do not extend the group law.
    """
    if sign not in ("plus", "minus"):
        raise ProtocolError(f"sign must be plus or minus, got {sign!r}")
    variant = sign if rb_variant is None else rb_variant
    return _bnd_box_via_rb(n, d, sign, variant, f"b{n}{d}-{sign}-via-rb-{variant}")


def _bnd_box_via_rb(n: int, d: int, sign: str, variant: str, name: str) -> ProtocolRun:
    step = 1 if sign == "plus" else -1
    return run_box_protocol(
        name,
        make_rb(n, d, variant),
        family_signature(n, d),
        alice_box_inputs=lambda a: (0,) + tuple(step * a[f"x_{i}"] % d for i in range(1, n)),
        bob_box_inputs=lambda b: (0, b["y"]),
        alice_outputs=lambda a: {"X": a["A"]},
        bob_outputs=lambda b: {"Y": b["B"]},
    )


def bn_box_via_rb(n: int, rb_variant: str = "nosignaling") -> ProtocolRun:
    """Bit special case of the converse direction (a_0 = 0, A' = 0, no message)."""
    return _bnd_box_via_rb(n, 2, "plus", rb_variant, f"bn-via-rb-{n}")


def resource_inequality_sim(
    n: int, d: int = 2, rb_variant: str | None = None
) -> tuple[ProtocolRun, ErasureChannelReport]:
    """One RAC-box + one message dit + one shared dit simulate the box family
    and an erasure channel at the same time.

    Alice hides the channel input z in the box's a_0 slot and her simulated
    output in shared randomness (X = s); the message carries her box output A.
    Bob relays A' = m, queries b = y and outputs Y = -_d s when y = 0 (where
    B itself is the transmitted z) and Y = B -_d s otherwise (adding the
    control B onto his share), declaring the channel erased.  The channel
    output zhat uses symbol d as the erasure flag.
    """
    if rb_variant is None:
        rb_variant = "nosignaling" if d == 2 else "plus"
    rb = make_rb(n, d, rb_variant)
    family = family_signature(n, d)
    iface = replace(family, alice_inputs=family.alice_inputs + (("z", d),),
                    bob_outputs=family.bob_outputs + (("zhat", d + 1),))

    def bob_outputs(b: Wires) -> Wires:
        clear = b["y"] == 0
        return {"Y": np.where(clear, -b["s"], b["B"] - b["s"]) % d,
                "zhat": np.where(clear, b["B"], d)}

    run = run_box_protocol(
        f"resource-inequality-{n}-{d}-{rb_variant}",
        rb,
        iface,
        alice_box_inputs=lambda a: (a["z"],) + tuple(a[f"x_{i}"] for i in range(1, n)),
        bob_box_inputs=lambda b: (b["m"], b["y"]),
        alice_outputs=lambda a: {"X": a["s"]},
        bob_outputs=bob_outputs,
        message=lambda a: a["A"],
        message_size=d,
        sr_size=d,
    )
    # measure the channel: zhat must be z exactly when y = 0 and erased otherwise;
    # seen[z, y, zhat]: some cell with channel input z and query y outputs zhat
    # (the run refuses negative cells, so a nonzero marginal has a nonzero cell)
    seen = sum_wires(sum_wires(run.result.table, 0, n - 1), 2, 4) != 0
    if (seen[:, :, :d] & ~np.eye(d, dtype=bool)[:, None, :]).any():
        raise ProtocolError("non-erased channel output differs from z")
    erased_y = seen[:, :, d].any(axis=0)
    clear_y = seen[:, :, :d].any(axis=(0, 2))
    if (erased_y & clear_y).any():
        raise ProtocolError("channel erasure is not a deterministic function of y")
    report = ErasureChannelReport(
        erasure_probability=Fraction(int(erased_y.sum()), n),
        capacity=Fraction(int(clear_y.sum()), n),
    )
    return run, report


def induced_bbox(run: ProtocolRun, z: int) -> Box:
    """Slice the simulated box family out of a resource-inequality run.

    Fixes the channel input z, marginalizes the channel output away and
    returns the induced (x_1..x_{n-1}; y -> X, Y) box for exact comparison.
    """
    sig = run.result.signature
    n, d = sig.bob_inputs[0][1], sig.alice_outputs[0][1]
    table = run.result.table[(slice(None),) * (n - 1) + (z,)]
    return Box(family_signature(n, d), sum_wires(table, table.ndim - 1, table.ndim),
               run.result.denominator)


def channel_joint(run: ProtocolRun) -> JointDistribution:
    """The extracted channel: joint distribution of (z, zhat) under uniform inputs.

    Equals ``marginalize(run.result.joint(), ["z", "zhat"])``, summed straight
    out of the induced table's (z, zhat) axes instead of through the full joint.
    """
    box = run.result
    sig = box.signature
    wires = sig.input_vars + sig.output_vars
    names = [nm for nm, _ in wires]
    z, zhat = names.index("z"), names.index("zhat")
    # the wires before z, then those between z and zhat, then those after zhat
    table = sum_wires(box.table, 0, z)
    table = sum_wires(table, 1, zhat - z)
    table = sum_wires(table, 2, table.ndim)
    return JointDistribution.from_table(
        [wires[z], wires[zhat]], table, box.denominator * prod(sig.input_sizes))


def rac_win_probability(run: ProtocolRun) -> Fraction:
    """Average probability that B equals a_b under uniform inputs.

    Equals 1 exactly iff the protocol wins on every single input assignment.
    """
    box = run.result
    sig = box.signature
    n = sig.bob_inputs[0][1]
    first_out = len(sig.input_vars)
    # P(B | a, b) for B the first output wire, any other outputs summed away
    answers = sum_wires(box.table, first_out + 1, box.table.ndim)
    wins = np.take_along_axis(answers, addressed(sig.alice_inputs[0][1], n, pad=False)[..., None],
                              axis=-1)
    return Fraction(int(wins.sum()), box.denominator * prod(sig.input_sizes))


def verify_lemma1(n: int, d: int = 2) -> ProbeReport:
    """Is the off-branch (A' != A) behaviour of a no-signaling RAC-box forced?

    At d = 2 the paper's Lemma 1 pins it to B = a_b xor 1; the report states
    that verdict, since the min/max LP over the no-signaling polytope that
    would derive it is not implemented.  At d >= 3 the verdict is derived
    from an exact witness: the "plus" and "minus" completions of ``make_rb``
    are both no-signaling in both directions, agree on the A' = A branch and
    differ off it, so no-signaling leaves the off-branch cells free.  The
    report names the first cell where they differ.
    """
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    claim = f"forced off-branch behaviour (n={n}, d={d})"
    if d == 2:
        return ProbeReport(
            claim=claim,
            passed=True,
            quantity=ZERO,
            bound=ZERO,
            witness="B = a_b xor 1 on A' != A",
            notes=("stated by Lemma 1, not derived: the LP over the no-signaling polytope "
                   "is not implemented",),
        )
    plus, minus = make_rb(n, d, "plus"), make_rb(n, d, "minus")
    no_signaling = all(check_no_signaling(box, direction)
                       for box in (plus, minus) for direction in DIRECTIONS)
    # the tables' last four axes are (A', b, A, B)
    differs = plus.table != minus.table  # numerators, over one denominator d
    aprime_axis, a_axis = np.indices((d, d), sparse=True)
    on_branch = (aprime_axis == a_axis)[:, None, :, None]
    off = differs & ~on_branch
    if (not no_signaling or plus.denominator != minus.denominator
            or (differs & on_branch).any() or not off.any()):
        return ProbeReport(claim=claim, passed=False,
                           notes=("undecided: the plus and minus completions are no witness",))
    cell = tuple(int(v) for v in np.unravel_index(np.argmax(off), off.shape))
    a, (aprime, b, a_out, b_out) = cell[:n], cell[n:]
    probs = [box.prob(cell[:n + 2], cell[n + 2:]) for box in (plus, minus)]
    return ProbeReport(
        claim=claim,
        passed=False,
        witness=(f"a={a}, A'={aprime}, b={b}; A={a_out}, B={b_out}: "
                 f"P = {probs[0]} (plus) vs {probs[1]} (minus)"),
        notes=("under-determined: make_rb plus and minus are no-signaling in both "
               "directions, agree on the A' = A branch and differ off it",),
    )
