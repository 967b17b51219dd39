"""Channel-capacity bounds for box-assisted communication strategies.

Setting: Alice holds uniform independent x_1..x_{n-1} and a channel input z
(all d-ary), Bob holds a uniform query y in {0..n-1}; they share a uniform
dit s, one use of a RAC-box whose off-branch behaviour is uniform over the
wrong symbols, and a single d-ary message.  A strategy fixes, as function
tables, Alice's box inputs a_0..a_{n-1}, her message m, her simulated
output X, and Bob's relay A' and simulated output Y.

The verifier runs the game through the sequential protocol executor and
keeps the exact joint of the inputs, Alice's X and Bob's view
(s, m, B, A', Y): the support of the induced table as integer counts over
one denominator, taken from the executor's blocks as they are computed,
with A' and Y read from their strategy tables in the same pass.  It checks
that the strategy really reproduces the target box family on
(x_1..x_{n-1}; y -> X, Y) (the premise of the bound), using the
(x, y, X, Y) marginal, and then computes the channel information
I(z : B, y, s) available to Bob about z from the marginal counts.  The
claim under test is that this never exceeds 1/n in message-alphabet units.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .boxes import Box, check_rb_size, family_signature, make_bnd_box, make_rb
from .dists import JointDistribution, condition, derive, grouped_counts, marginalize
from .infotheory import TOLERANCE, information_and_entropy, mutual_information
from .protocols import protocol_joint
from .reports import ProbeReport
from .tables import Domain, TableFn, build_tables, parse_tables, preamble_int, serialize_tables


@lru_cache(maxsize=64)
def capacity_domains(n: int, d: int) -> Mapping[str, Domain]:
    """The tables of a capacity strategy, in file order, as a read-only
    mapping built once per (n, d); alphabets are d-ary except y, which is
    n-ary.

      a_0 .. a_{n-1}(x_1..x_{n-1}, z)   Alice's box inputs
      m(x_1..x_{n-1}, z, A)             the message dit
      X(x_1..x_{n-1}, z, A, s)          Alice's simulated box output
      Aprime(m, y, s)                   Bob's relay into the box
      Y(m, y, s, B)                     Bob's simulated box output

    The game runs on ``make_rb(n, d, ...)``, so an (n, d) whose RAC-box
    table is too large to build is refused here, before any table is.
    """
    check_rb_size(n, d)
    xz = tuple((f"x_{i}", d) for i in range(1, n)) + (("z", d),)
    bob = (("m", d), ("y", n), ("s", d))
    return MappingProxyType({
        **{f"a_{i}": (xz, d) for i in range(n)},
        "m": (xz + (("A", d),), d),
        "X": (xz + (("A", d), ("s", d)), d),
        "Aprime": (bob, d),
        "Y": (bob + (("B", d),), d),
    })


@dataclass(frozen=True)
class CapacityStrategy:
    """Deterministic wire assignments for the capacity game, as tables by name.

    ``tables`` holds exactly the tables of ``capacity_domains(n, d)``, each a
    TableFn or the values ``TableFn.from_array`` builds it from; they are
    kept as a read-only mapping of TableFns in that order.
    """

    name: str
    n: int
    d: int
    tables: Mapping[str, TableFn]

    def __post_init__(self) -> None:
        if self.n < 2 or self.d < 2:
            raise ValueError("need n >= 2 and d >= 2")
        object.__setattr__(self, "tables", build_tables(self.tables, capacity_domains(self.n, self.d)))


def protocol_strategy(n: int, d: int) -> CapacityStrategy:
    """The saturating strategy: hide z in a_0, relay m = A, decode with s.

    Exactly the resource-inequality protocol with the channel half dropped:
    X = s and Y = -s or B - s depending on whether y points at the z slot.
    """
    dit = np.arange(d)
    x = np.indices((d,) * n, sparse=True)  # x_1..x_{n-1}, z
    _, y, s, B = np.indices((d, n, d, d), sparse=True)
    # a_0 is z, the last axis; a_i is x_i.  ``dit`` broadcasts along the last
    # input: m = A and X = s
    return CapacityStrategy(f"protocol-{n}-{d}", n, d, {
        **{f"a_{i}": x[i - 1] for i in range(n)},
        "m": dit,
        "X": dit,
        "Aprime": dit[:, None, None],
        "Y": np.where(y == 0, -s, B - s) % d,
    })


def send_x1_strategy(n: int, d: int) -> CapacityStrategy:
    """Spend the message on x_1 instead of the box: m = x_1, a = (z,..,z).

    Only defined at n = 2.  The box family is still reproduced (X = s,
    Y = -s or m - s), but the box output B carries nothing about z once
    its off-branch noise is averaged in.
    """
    if n != 2:
        raise ValueError("the send-x_1 strategy is a two-input construction")
    dit = np.arange(d)
    m, y, s, _ = np.indices((d, n, d, d), sparse=True)
    # ``dit`` broadcasts along the last input: a_i = z and X = s; m = x_1
    return CapacityStrategy(f"send-x1-{n}-{d}", n, d, {
        **{f"a_{i}": dit for i in range(n)},
        "m": dit[:, None, None],
        "X": dit,
        "Aprime": 0,
        "Y": np.where(y == 0, -s, m - s) % d,
    })


def ignore_rb_strategy(n: int, d: int) -> CapacityStrategy:
    """A lazy strategy that outputs constants; fails the reproduction premise."""
    return CapacityStrategy(f"ignore-rb-{n}-{d}", n, d, {
        **{f"a_{i}": 0 for i in range(n)}, "m": 0, "X": 0, "Aprime": 0, "Y": 0})


BUILTIN_STRATEGIES = {
    "protocol": protocol_strategy,
    "send-x1": send_x1_strategy,
    "ignore-rb": ignore_rb_strategy,
}


def build_capacity_joint(strategy: CapacityStrategy, rb_variant: str) -> JointDistribution:
    """Exact joint of the capacity game's inputs, X and Bob's view.

    The game runs through the protocol executor's joint end,
    ``protocol_joint``: Alice feeds the tables a_0..a_{n-1} into the RAC-box
    and sends m; Bob relays A', queries the box at y and outputs Y.  The
    joint covers x_1..x_{n-1}, z, y, X and Bob's view (s, m, B, Aprime, Y)
    under uniform inputs.  It is built from the nonzero cells of each block
    of the run, with no dense induced table.  Aprime and Y are functions of
    (y, s, m, B), so they are not outputs of the run but derived wires,
    read from their tables once per (y, outputs) column of the run and
    gathered with the rest of each support row.

    The executor hands each callback one dict of the wires its party holds,
    by name, and ``capacity_domains`` names every table's inputs after those
    wires, so each table reads that dict as it is with ``TableFn.at`` over
    the executor's whole arrays (the message sender is ``t["m"].at``
    itself).  Those lookups skip range checks, which is sound because
    ``CapacityStrategy`` holds its tables to ``capacity_domains`` with
    ``check_tables``, which fixes every table's inputs by name and
    alphabet, and every wire the executor hands over (task inputs, A, B, s
    and the range-checked message) lies inside those alphabets.
    """
    n, d, t = strategy.n, strategy.d, strategy.tables
    box_inputs = [t[f"a_{i}"] for i in range(n)]
    # the family's interface plus z, with Bob's view in place of Y
    iface = replace(family_signature(n, d), alice_inputs=t["a_0"].inputs,
                    bob_outputs=(("s", d), ("m", d), ("B", d)))
    return protocol_joint(
        f"capacity-{strategy.name}-{rb_variant}",
        make_rb(n, d, rb_variant),
        iface,
        (t["Aprime"], t["Y"]),
        alice_box_inputs=lambda a: tuple(f.at(a) for f in box_inputs),
        message=t["m"].at,
        alice_outputs=lambda a: {"X": t["X"].at(a)},
        bob_box_inputs=lambda b: (t["Aprime"].at(b), b["y"]),
        bob_outputs=lambda b: {"s": b["s"], "m": b["m"], "B": b["B"]},
        message_size=d,
        sr_size=d,
    )


def _reproduces_box_family(dist: JointDistribution, n: int, d: int) -> tuple[bool, str]:
    """Does P(X, Y | x_vec, y) equal the plus-family box table exactly?

    The (x_1..x_{n-1}, y, X, Y) marginal's counts are laid out densely, as
    they are, and compared with the box as a Box.
    """
    target = make_bnd_box(n, d, "plus")
    sig = target.signature
    marg = marginalize(dist, [name for name, _ in sig.input_vars + sig.output_vars])
    counts = np.zeros(target.table.shape, dtype=marg.counts.dtype)
    counts[tuple(marg.keys.T)] = marg.counts
    # the executor's joint has uniform inputs, so each (x, y) row holds 1/rows of the
    # mass and P(X, Y | x, y) is its count over denominator/rows
    rows = d ** (n - 1) * n
    if marg.denominator % rows:
        raise ValueError(f"the (x, y) rows of the joint cannot be uniform: its denominator "
                         f"{marg.denominator} is not a multiple of their number {rows}")
    induced = Box(sig, counts, marg.denominator // rows)
    if induced == target:
        return True, "induced (X,Y) table matches the plus-family box exactly"
    differs = (induced.table.astype(object) * target.denominator
               != target.table.astype(object) * induced.denominator)
    cell = tuple(int(v) for v in np.argwhere(differs)[0])
    xs, y, (X, Y) = cell[: n - 1], cell[n - 1], cell[n:]
    got, want = induced.prob(cell[:n], cell[n:]), target.prob(cell[:n], cell[n:])
    return False, f"P(X={X},Y={Y} | x={xs},y={y}) = {got}, box table says {want}"


def _determined(dist: JointDistribution, wire: str) -> bool:
    """Whether ``wire`` is a function of (B, s) on the support of ``dist``."""
    (_, with_wire), (_, without) = grouped_counts(dist, [("B", "s", wire), ("B", "s")])
    return len(with_wire) == len(without)


def _zero_entropy_diagnostics(dist: JointDistribution, n: int, d: int, base: int) -> list[str]:
    """Report the conditional-entropy identities behind the bound's proof.

    On the y = 0 slice, I(B : X | s) should equal H(X | s) (Bob's box
    output determines Alice's X there, given the conditioning); the dit
    argument uses the y = 1 slice with x_1 -_d X in place of X.  These are
    diagnostics about the proof route, not the gate: strategies can satisfy
    the reproduction premise while taking a different route.  Each verdict
    is exact: I(B : X | s) = H(X | s) exactly when X is a function of
    (B, s) on the slice's support, that is when the (B, s, X) marginal has
    no more rows than the (B, s) marginal; the floats are printed beside it.
    """
    notes = []
    slice0 = condition(dist, {"y": 0})
    lhs, rhs = information_and_entropy(slice0, ["B"], ["X"], ["s"], base)
    tag = "holds" if _determined(slice0, "X") else "does not hold"
    notes.append(
        f"identity I(B:X|b,s,y=0) = H(X|b,s,y=0) {tag}: {lhs:.9f} vs {rhs:.9f}"
    )
    x1, X = np.indices((d, d), sparse=True)
    w_fn = TableFn.from_array("W", (("x_1", d), ("X", d)), d, (x1 - X) % d)
    slice1 = derive(condition(dist, {"y": 1}), w_fn)
    lhs1, rhs1 = information_and_entropy(slice1, ["B"], ["W"], ["s"], base)
    tag1 = "holds" if _determined(slice1, "W") else "does not hold"
    notes.append(
        f"identity I(B:x_1-X|b,s,y=1) = H(x_1-X|b,s,y=1) {tag1}: "
        f"{lhs1:.9f} vs {rhs1:.9f}"
    )
    return notes


def _verify_capacity_bound(
    n: int, d: int, strategy: CapacityStrategy, rb_variant: str, base: int
) -> ProbeReport:
    if strategy.n != n or strategy.d != d:
        raise ValueError(
            f"strategy is for (n,d)=({strategy.n},{strategy.d}), asked for ({n},{d})"
        )
    dist = build_capacity_joint(strategy, rb_variant)
    ok, detail = _reproduces_box_family(dist, n, d)
    unit = "bit" if base == 2 else f"{d}-ary dit"
    if not ok:
        return ProbeReport(
            claim=f"channel information bounded by 1/{n} {unit} (strategy {strategy.name})",
            passed=False,
            witness=strategy.name,
            notes=("premise unmet: " + detail,),
        )
    mi = mutual_information(dist, ["z"], ["B", "y", "s"], (), base)
    bound = Fraction(1, n)
    notes = [
        "premise met: " + detail,
        f"box variant {rb_variant}; message relayed through tables, A drawn uniform",
    ]
    notes.extend(_zero_entropy_diagnostics(dist, n, d, base))
    full = mutual_information(dist, ["z"], ["B", "y", "s", "m", "Aprime"], (), base)
    notes.append(f"with the message and relay included, I(z:view) = {full:.9f} {unit}s")
    return ProbeReport(
        claim=f"channel information bounded by 1/{n} {unit} (strategy {strategy.name})",
        passed=mi <= float(bound) + TOLERANCE,
        quantity=mi,
        bound=bound,
        witness=strategy.name,
        notes=tuple(notes),
    )


def verify_capacity_bound_bits(n: int, strategy: CapacityStrategy) -> ProbeReport:
    """Bit case: signaling box (uniform off-branch), base-2 information."""
    return _verify_capacity_bound(n, 2, strategy, "signalinghalf", 2)


def verify_capacity_bound_dits(n: int, d: int, strategy: CapacityStrategy) -> ProbeReport:
    """Dit case: uniform-wrong-symbol box, information in base-d units."""
    return _verify_capacity_bound(n, d, strategy, "three", d)


def serialize_capacity_strategy(strategy: CapacityStrategy) -> str:
    preamble = [
        ("strategy-kind", "capacity"),
        ("name", strategy.name),
        ("n", str(strategy.n)),
        ("d", str(strategy.d)),
    ]
    return serialize_tables(preamble, strategy.tables.values())


def parse_capacity_strategy(text: str) -> CapacityStrategy:
    preamble, tables = parse_tables(text)
    if preamble.get("strategy-kind") != "capacity":
        raise ValueError("not a capacity strategy file")
    n, d = preamble_int(preamble, "n"), preamble_int(preamble, "d")
    return CapacityStrategy(preamble.get("name", "from-file"), n, d, tables)
