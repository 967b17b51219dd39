"""Exact execution of box-plus-local-processing protocols.

Each protocol here is a one-round pipeline: Alice feeds a resource box,
optionally sends a single message, both parties post-process locally, and
the whole pipeline induces an effective box on the task interface.  The
executor enumerates every input, shared-randomness symbol and box outcome
with exact rationals, no sampling anywhere.

The resource box is queried sequentially (Alice first, then Bob, whose box
inputs may depend on the message).  That split is only sound when the box
cannot signal from Bob to Alice, so the executor validates that property
before running.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Callable, Mapping, Sequence

import numpy as np

from .boxes import (
    Box,
    BoxSignature,
    addressed,
    make_bn_box,
    make_bnd_box,
    make_rb,
    signaling_row,
    unnormalized_row,
)
from .dists import JointDistribution, iter_assignments, numerator_dtype, sum_dtype
from .reports import ProbeReport

ZERO = Fraction(0)


class ProtocolError(ValueError):
    """A protocol violated its own contract (budget, normalization, shape)."""


class MessageWire:
    """One-shot classical channel from Alice to Bob.

    A second ``send`` within the same round exceeds the message budget and
    is rejected immediately, which is what makes the budget testable.
    """

    def __init__(self, size: int):
        self.size = size
        self.value: int | None = None
        self.uses = 0

    def send(self, value: int) -> None:
        self.uses += 1
        if self.uses > 1:
            raise ProtocolError("message budget exceeded: one use per round")
        if not 0 <= value < self.size:
            raise ProtocolError(f"message {value} outside alphabet of size {self.size}")
        self.value = value


@dataclass(frozen=True)
class ProtocolRun:
    """A completed protocol: resources used and the box it induces."""

    name: str
    resources: tuple[Box, ...]
    message_alphabet: int
    shared_randomness_alphabet: int
    result: Box

    def __post_init__(self) -> None:
        if self.message_alphabet < 1 or self.shared_randomness_alphabet < 1:
            raise ProtocolError("alphabets must have size >= 1")
        bad = unnormalized_row(self.result)
        if bad is not None:
            row = self.result.table[bad]
            total = Fraction(int(row.sum(dtype=sum_dtype(row))), self.result.denominator)
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


def _outside_alphabet(party: str, wires: Sequence[tuple[str, int]], values: tuple) -> str:
    return (f"{party} fed the resource inputs {[nm for nm, _ in wires]} the values "
            f"{list(values)}, outside their alphabets {[size for _, size in wires]}")


def run_box_protocol(
    name: str,
    resource: Box,
    iface: BoxSignature,
    *,
    alice_box_inputs: Callable[[dict[str, int], int], Sequence[int]],
    bob_box_inputs: Callable[[dict[str, int], int | None, int], Sequence[int]],
    alice_outputs: Callable[[dict[str, int], dict[str, int], int], Mapping[str, int]],
    bob_outputs: Callable[[dict[str, int], dict[str, int], int | None, int], Mapping[str, int]],
    message: Callable[[dict[str, int], dict[str, int], int, MessageWire], None] | None = None,
    message_size: int = 1,
    sr_size: int = 1,
) -> ProtocolRun:
    """Run a single-resource protocol exactly and return the induced box.

    ``alice_box_inputs(task_inputs, s)`` and ``bob_box_inputs(task_inputs, m, s)``
    yield the resource wires in signature order; ``message`` must push exactly
    one symbol through the wire when a message alphabet is declared.
    ``alice_outputs`` must name every Alice output wire of ``iface`` and
    ``bob_outputs`` every Bob output wire.

    Alice's side (her box inputs, the message and her outputs) is evaluated
    once per (Alice task input, s, A), with a fresh wire for each such round,
    and then serves every Bob task input; so ``message`` cannot depend on
    Bob's task input.  The result's normalization is checked in one place,
    ``ProtocolRun.__post_init__``, when the returned run is built.
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
    n_bob_out = prod(s for _, s in res_sig.bob_outputs)
    alice_out_dicts = [
        dict(zip([nm for nm, _ in res_sig.alice_outputs], a_out))
        for a_out in iter_assignments([s for _, s in res_sig.alice_outputs])
    ]
    bob_out_dicts = [
        dict(zip([nm for nm, _ in res_sig.bob_outputs], b_out))
        for b_out in iter_assignments([s for _, s in res_sig.bob_outputs])
    ]
    # Each resource row is read once, as Python ints, into its nonzero cells:
    # (Bob output index, numerator) per Alice output.  Rows with the same
    # numerators share one such list; row_cells[a_row][b_row] holds it.
    alice_rows = {a_in: i for i, a_in in enumerate(iter_assignments(
        [s for _, s in res_sig.alice_inputs]))}
    bob_rows = {b_in: i for i, b_in in enumerate(iter_assignments(
        [s for _, s in res_sig.bob_inputs]))}
    shared: dict[tuple[int, ...], list[list[tuple[int, int]]]] = {}
    row_cells: list[list[list[list[tuple[int, int]]]]] = []
    for a_block in resource.table.reshape(len(alice_rows), len(bob_rows), -1):
        row_cells.append([])
        for row in a_block.tolist():
            cells = shared.get(tuple(row))
            if cells is None:
                cells = shared[tuple(row)] = [
                    [(j, v) for j, v in enumerate(row[i:i + n_bob_out]) if v]
                    for i in range(0, len(row), n_bob_out)
                ]
            row_cells[-1].append(cells)

    # (name, size, row-major stride) of each interface output wire, by party
    strides = {}
    n_iface_out = 1
    for nm, size in reversed(iface.output_vars):
        strides[nm] = n_iface_out
        n_iface_out *= size
    alice_wires = [(nm, size, strides[nm]) for nm, size in iface.alice_outputs]
    bob_wires = [(nm, size, strides[nm]) for nm, size in iface.bob_outputs]

    def output_part(outs: Mapping[str, int], wires: list[tuple[str, int, int]]) -> int:
        """One party's share of the interface output index."""
        idx = 0
        for nm, size, stride in wires:
            value = outs[nm]
            if not 0 <= value < size:
                raise ProtocolError(f"output {nm}={value} outside its alphabet of size {size}")
            idx += value * stride
        return idx

    alice_in_names = [nm for nm, _ in iface.alice_inputs]
    bob_in_names = [nm for nm, _ in iface.bob_inputs]
    bob_task = [dict(zip(bob_in_names, tb_in))
                for tb_in in iter_assignments([s for _, s in iface.bob_inputs])]
    # the induced table's numerators over resource.denominator * sr_size, by flat cell
    acc: dict[int, int] = {}
    row_base = 0
    for ta_in in iter_assignments([s for _, s in iface.alice_inputs]):
        ta_dict = dict(zip(alice_in_names, ta_in))
        for s_val in range(sr_size):
            a_in = tuple(alice_box_inputs(ta_dict, s_val))
            a_row = alice_rows.get(a_in)
            if a_row is None:
                raise ProtocolError(_outside_alphabet("Alice", res_sig.alice_inputs, a_in))
            a_cells = row_cells[a_row]
            # Alice's marginal ignores Bob's input (checked above): read it at his first
            marg = [sum(v for _, v in part) for part in a_cells[0]]
            for a_idx, a_out_dict in enumerate(alice_out_dicts):
                if not marg[a_idx]:
                    continue
                wire = MessageWire(message_size)
                if message is not None:
                    message(ta_dict, a_out_dict, s_val, wire)
                    if wire.uses == 0:
                        raise ProtocolError("declared message was never sent")
                m_val = wire.value
                alice_idx = output_part(alice_outputs(ta_dict, a_out_dict, s_val), alice_wires)
                for tb_pos, tb_dict in enumerate(bob_task):
                    base = row_base + tb_pos * n_iface_out + alice_idx
                    b_in = tuple(bob_box_inputs(tb_dict, m_val, s_val))
                    b_row = bob_rows.get(b_in)
                    if b_row is None:
                        raise ProtocolError(_outside_alphabet("Bob", res_sig.bob_inputs, b_in))
                    for b_idx, v in a_cells[b_row][a_idx]:
                        tb_out = bob_outputs(tb_dict, bob_out_dicts[b_idx], m_val, s_val)
                        idx = base + output_part(tb_out, bob_wires)
                        acc[idx] = acc.get(idx, 0) + v
        row_base += len(bob_task) * n_iface_out
    denominator = resource.denominator * sr_size
    peak = max(map(abs, acc.values()), default=0)
    table = np.zeros(row_base, dtype=numerator_dtype(max(peak, denominator), row_base))
    table[list(acc)] = list(acc.values())
    return ProtocolRun(
        name=name,
        resources=(resource,),
        message_alphabet=message_size,
        shared_randomness_alphabet=sr_size,
        result=Box(iface, table.reshape(iface.input_sizes + iface.output_sizes), denominator),
    )


def _rac_iface(n: int, d: int) -> BoxSignature:
    return BoxSignature(
        alice_inputs=tuple((f"a_{i}", d) for i in range(n)),
        alice_outputs=(),
        bob_inputs=(("b", n),),
        bob_outputs=(("B", d),),
    )


def rac_via_bnd_box(n: int, d: int, sign: str, box: Box | None = None) -> ProtocolRun:
    """Win the (n->1) d-ary RAC perfectly with one box use and one message dit.

    Alice feeds x_i = a_i -_d a_0, sends m = X +_d a_0; Bob answers
    m +_d Y for the "plus" family and m -_d Y for the "minus" family.
    """
    sign = sign.lower()
    return _rac_via_bnd_box(n, d, sign, box, f"rac-via-b{n}{d}-{sign}")


def _rac_via_bnd_box(n: int, d: int, sign: str, box: Box | None, name: str) -> ProtocolRun:
    resource = make_bnd_box(n, d, sign) if box is None else box
    want = make_bnd_box(n, d, sign).signature
    if resource.signature != want:
        raise ProtocolError("resource box has the wrong interface for this protocol")

    def alice_box_inputs(a: dict[str, int], s: int) -> tuple[int, ...]:
        return tuple((a[f"a_{i}"] - a["a_0"]) % d for i in range(1, n))

    def message(a: dict[str, int], a_out: dict[str, int], s: int, wire: MessageWire) -> None:
        wire.send((a_out["X"] + a["a_0"]) % d)

    def bob_box_inputs(tb: dict[str, int], m: int | None, s: int) -> tuple[int, ...]:
        return (tb["b"],)

    def bob_outputs(tb, b_out, m, s) -> dict[str, int]:
        if sign == "plus":
            return {"B": (m + b_out["Y"]) % d}
        return {"B": (m - b_out["Y"]) % d}

    return run_box_protocol(
        name,
        resource,
        _rac_iface(n, d),
        alice_box_inputs=alice_box_inputs,
        bob_box_inputs=bob_box_inputs,
        alice_outputs=lambda a, a_out, s: {},
        bob_outputs=bob_outputs,
        message=message,
        message_size=d,
    )


def rac_via_bn_box(n: int, box: Box | None = None) -> ProtocolRun:
    """Bit special case: x_i = a_0 xor a_i, m = a_0 xor X, answer m xor Y."""
    resource = make_bn_box(n) if box is None else box
    return _rac_via_bnd_box(n, 2, "plus", resource, f"rac-via-bn-{n}")


def bnd_box_via_rb(n: int, d: int, sign: str, rb_variant: str | None = None) -> ProtocolRun:
    """Reproduce the d-ary box family from a RAC-box without any message.

    Alice fixes a_0 = 0 and encodes her x_i straight into the RAC-box
    ("plus": a_i = x_i; "minus": a_i = -_d x_i), outputs X = A; Bob fixes
    A' = 0, queries b = y and outputs Y = B.  With the matching group-law
    variant the induced table equals ``make_bnd_box(n, d, sign)`` exactly.
    ``rb_variant`` may be overridden (e.g. "three") to see the reproduction
    fail for box families that do not extend the group law.
    """
    sign = sign.lower()
    if sign not in ("plus", "minus"):
        raise ProtocolError(f"sign must be plus or minus, got {sign!r}")
    variant = sign if rb_variant is None else rb_variant
    return _bnd_box_via_rb(n, d, sign, variant, f"b{n}{d}-{sign}-via-rb-{variant}")


def _bnd_box_via_rb(n: int, d: int, sign: str, variant: str, name: str) -> ProtocolRun:
    rb = make_rb(n, d, variant)

    def alice_box_inputs(x: dict[str, int], s: int) -> tuple[int, ...]:
        vals = [0]
        for i in range(1, n):
            xi = x[f"x_{i}"]
            vals.append(xi if sign == "plus" else (-xi) % d)
        return tuple(vals)

    iface = BoxSignature(
        alice_inputs=tuple((f"x_{i}", d) for i in range(1, n)),
        alice_outputs=(("X", d),),
        bob_inputs=(("y", n),),
        bob_outputs=(("Y", d),),
    )
    return run_box_protocol(
        name,
        rb,
        iface,
        alice_box_inputs=alice_box_inputs,
        bob_box_inputs=lambda tb, m, s: (0, tb["y"]),
        alice_outputs=lambda x, a_out, s: {"X": a_out["A"]},
        bob_outputs=lambda tb, b_out, m, s: {"Y": b_out["B"]},
    )


def bn_box_via_rb(n: int, rb_variant: str = "nosignaling") -> ProtocolRun:
    """Bit special case of the converse direction (a_0 = 0, A' = 0, no message)."""
    return _bnd_box_via_rb(n, 2, "plus", rb_variant, f"bn-via-rb-{n}")


ERASURE = "erasure"


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
    iface = BoxSignature(
        alice_inputs=tuple((f"x_{i}", d) for i in range(1, n)) + (("z", d),),
        alice_outputs=(("X", d),),
        bob_inputs=(("y", n),),
        bob_outputs=(("Y", d), ("zhat", d + 1)),
    )

    def alice_box_inputs(a: dict[str, int], s: int) -> tuple[int, ...]:
        return (a["z"],) + tuple(a[f"x_{i}"] for i in range(1, n))

    def message(a, a_out, s, wire: MessageWire) -> None:
        wire.send(a_out["A"])

    def bob_outputs(tb, b_out, m, s) -> dict[str, int]:
        B = b_out["B"]
        if tb["y"] == 0:
            return {"Y": (-s) % d, "zhat": B}
        return {"Y": (B - s) % d, "zhat": d}

    run = run_box_protocol(
        f"resource-inequality-{n}-{d}-{rb_variant}",
        rb,
        iface,
        alice_box_inputs=alice_box_inputs,
        bob_box_inputs=lambda tb, m, s: (m, tb["y"]),
        alice_outputs=lambda a, a_out, s: {"X": s},
        bob_outputs=bob_outputs,
        message=message,
        message_size=d,
        sr_size=d,
    )
    # measure the channel: zhat must be z exactly when y = 0 and erased otherwise;
    # seen[z, y, zhat]: some cell with channel input z and query y outputs zhat
    seen = (run.result.table != 0).any(axis=tuple(range(n - 1)) + (n + 1, n + 2))
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
    n = sig.bob_inputs[0][1]
    d = sig.alice_outputs[0][1]
    n_x = len(sig.alice_inputs) - 1
    iface = BoxSignature(
        alice_inputs=tuple((f"x_{i}", d) for i in range(1, n_x + 1)),
        alice_outputs=(("X", d),),
        bob_inputs=(("y", n),),
        bob_outputs=(("Y", d),),
    )
    table = run.result.table[(slice(None),) * n_x + (z,)]
    return Box(iface, table.sum(axis=-1, dtype=sum_dtype(table)), run.result.denominator)


def channel_joint(run: ProtocolRun) -> JointDistribution:
    """The extracted channel: joint distribution of (z, zhat) under uniform inputs.

    Equals ``marginalize(run.result.joint(), ["z", "zhat"])``, summed straight
    out of the induced table's (z, zhat) axes instead of through the full joint.
    """
    box = run.result
    sig = box.signature
    wires = sig.input_vars + sig.output_vars
    names = [nm for nm, _ in wires]
    at = (names.index("z"), names.index("zhat"))
    others = tuple(ax for ax in range(box.table.ndim) if ax not in at)
    return JointDistribution.from_table(
        [wires[i] for i in at],
        box.table.sum(axis=others, dtype=sum_dtype(box.table)),
        box.denominator * prod(sig.input_sizes),
    )


def rac_win_probability(run: ProtocolRun) -> Fraction:
    """Average probability that B equals a_b under uniform inputs.

    Equals 1 exactly iff the protocol wins on every single input assignment.
    """
    box = run.result
    sig = box.signature
    n = sig.bob_inputs[0][1]
    first_out = len(sig.input_vars)
    # P(B | a, b) for B the first output wire, any other outputs summed away
    answers = box.table.sum(axis=tuple(range(first_out + 1, box.table.ndim)),
                            dtype=sum_dtype(box.table))
    wins = np.take_along_axis(answers, addressed(sig.alice_inputs[0][1], n, pad=False)[..., None],
                              axis=-1)
    return Fraction(int(wins.sum()), box.denominator * prod(sig.input_sizes))


def verify_lemma1(n: int, d: int = 2) -> ProbeReport:
    """Derive the off-branch behaviour forced on a no-signaling RAC-box.

    Starting only from: B = a_b whenever A' = A, Alice's output uniform and
    independent, uniform inputs and no signaling from Alice to Bob, propagate
    the resulting linear constraints on Bob's marginal.  For d = 2 this pins
    the whole table (B = a_b xor 1 on the A' != A branch); for d >= 3 only
    P(B = a_b | A' != A) = 0 is forced and the probe reports the branch as
    under-determined.
    """
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    one_over_d = Fraction(1, d)
    forced_zero = True
    # For each of Bob's contexts, bound his output marginal from below:
    # c_beta >= max over Alice inputs of P(A = A') * [a_b = beta].
    for b in range(n):
        lower = []
        for beta in range(d):
            best = ZERO
            for a_b in range(d):
                contribution = one_over_d if a_b == beta else ZERO
                if contribution > best:
                    best = contribution
            lower.append(best)
        if sum(lower, ZERO) != 1:
            forced_zero = False
    # Slack zero means c_beta = 1/d exactly, so on the A' != A branch the
    # correct symbol gets probability (c_beta - 1/d * [beta = a_b]) * d/(d-1) = 0.
    notes = [
        "P(B = a_b | A' != A) = 0 is forced for every d (zero slack in the marginal bound)",
        "off-branch mass per wrong symbol: 1/(d-1) * (d-1) values",
    ]
    if not forced_zero:
        return ProbeReport(
            claim=f"forced off-branch behaviour (n={n}, d={d})",
            passed=False,
            notes=("marginal bound left slack; nothing is forced",),
        )
    if d == 2:
        return ProbeReport(
            claim=f"forced off-branch behaviour (n={n}, d={d})",
            passed=True,
            quantity=ZERO,
            bound=ZERO,
            witness="B = a_b xor 1 on A' != A",
            notes=tuple(notes),
        )
    return ProbeReport(
        claim=f"forced off-branch behaviour (n={n}, d={d})",
        passed=False,
        quantity=ZERO,
        bound=ZERO,
        notes=tuple(
            notes
            + [
                f"under-determined: the remaining mass can spread over {d - 1} wrong "
                "symbols in more than one way (plus, minus and the uniform completion all qualify)"
            ]
        ),
    )
