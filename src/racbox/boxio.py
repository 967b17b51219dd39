"""Textual box format: header of wire declarations, body of nonzero entries.

Format, one document per box::

    var alice input x_1 2
    var alice output X 2
    var bob input y 2
    var bob output Y 2

    0 0 : 0 0 = 1/2
    0 0 : 1 1 = 1/2
    ...

Header lines declare each wire as ``var <party> <input|output> <name> <size>``
in signature order.  Body lines give input assignment, output assignment and
an exact probability ``numerator/denominator``; zero entries are omitted and
restored on parse.  ``parse_box(serialize_box(box)) == box`` for every box.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

import numpy as np

from .boxes import Box, BoxSignature, check_table_size
from .dists import numerator_dtype

_PARTIES = ("alice", "bob")
_ROLES = ("input", "output")


def serialize_box(box: Box) -> str:
    sig = box.signature
    lines: list[str] = []
    for party, role, pairs in (
        ("alice", "input", sig.alice_inputs),
        ("alice", "output", sig.alice_outputs),
        ("bob", "input", sig.bob_inputs),
        ("bob", "output", sig.bob_outputs),
    ):
        for name, size in pairs:
            if any(ch.isspace() for ch in name):
                raise ValueError(f"wire name {name!r} contains whitespace")
            lines.append(f"var {party} {role} {name} {size}")
    lines.append("")
    n_in = len(sig.input_sizes)
    cells = np.nonzero(box.table)
    values = box.table[cells].tolist()
    probs = {}
    for v in set(values):
        p = Fraction(v, box.denominator)
        probs[v] = f" = {p.numerator}/{p.denominator}"
    for cell, v in zip(zip(*(axis.tolist() for axis in cells)), values):
        lines.append(
            " ".join(map(str, cell[:n_in])) + " : " + " ".join(map(str, cell[n_in:])) + probs[v]
        )
    return "\n".join(lines) + "\n"


def parse_box(text: str) -> Box:
    wires: dict[tuple[str, str], list[tuple[str, int]]] = {
        (p, r): [] for p in _PARTIES for r in _ROLES
    }
    entries: list[tuple[tuple[int, ...], tuple[int, ...], Fraction]] = []
    in_header = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("var "):
            if not in_header:
                raise ValueError(f"line {lineno}: var declaration after body started")
            parts = line.split()
            if len(parts) != 5:
                raise ValueError(f"line {lineno}: expected 'var party role name size'")
            _, party, role, name, size_s = parts
            if party not in _PARTIES or role not in _ROLES:
                raise ValueError(f"line {lineno}: unknown party/role {party!r} {role!r}")
            try:
                size = int(size_s)
            except ValueError:
                raise ValueError(f"line {lineno}: wire size {size_s!r} is not an integer") from None
            if size < 1:
                raise ValueError(f"line {lineno}: size must be positive")
            wires[(party, role)].append((name, size))
            continue
        in_header = False
        if ":" not in line or "=" not in line:
            raise ValueError(f"line {lineno}: expected 'invals : outvals = num/den'")
        in_part, rest = line.split(":", 1)
        out_part, prob_part = rest.split("=", 1)
        try:
            invals = tuple(int(tok) for tok in in_part.split())
            outvals = tuple(int(tok) for tok in out_part.split())
            p = Fraction(prob_part.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if not 0 <= p <= 1:
            raise ValueError(f"line {lineno}: probability {p} outside [0, 1]")
        entries.append((invals, outvals, p))

    sig = BoxSignature(
        alice_inputs=tuple(wires[("alice", "input")]),
        alice_outputs=tuple(wires[("alice", "output")]),
        bob_inputs=tuple(wires[("bob", "input")]),
        bob_outputs=tuple(wires[("bob", "output")]),
    )
    check_table_size(sig)
    n_out = prod(sig.output_sizes)
    den = lcm(*(p.denominator for _, _, p in entries))
    cells: dict[int, int] = {}
    for invals, outvals, p in entries:
        if len(invals) != len(sig.input_sizes):
            raise ValueError(f"entry {invals} : {outvals} has wrong input arity for the header")
        row = 0
        for v, s in zip(invals, sig.input_sizes):
            if not 0 <= v < s:
                raise ValueError(f"input symbol {v} out of range in entry {invals}")
            row = row * s + v
        try:
            cell = row * n_out + sig.output_index(outvals)
        except ValueError as exc:
            raise ValueError(f"{exc} in entry {outvals}") from None
        if cell in cells:
            raise ValueError(f"duplicate entry for {invals} : {outvals}")
        cells[cell] = p.numerator * (den // p.denominator)
    # every entry lies in [0, 1], so no numerator exceeds the denominator
    table = np.zeros(prod(sig.input_sizes) * n_out, dtype=numerator_dtype(den, len(cells)))
    table[list(cells)] = list(cells.values())
    return Box(sig, table.reshape(sig.input_sizes + sig.output_sizes), den)
