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
an exact probability in [0, 1]: any token ``fractions.Fraction`` reads, such
as ``1/2``, ``0.5`` or ``1e-1``.  Zero entries are omitted and restored on
parse; blank lines and lines starting with ``#`` are skipped.
``parse_box(serialize_box(box)) == box`` for every box.

``parse_box`` refuses a header whose dense table would pass the size cap
(``boxes.check_table_size``) before it reads any body line.  It reads the
body in one loop over its lines and reads each distinct string once: an
input or output assignment by ``int`` and a range check against the wire
sizes, a probability by ``Fraction`` once its decimal exponent, if any, is
within Python's integer-string digit limit.  One flag per table cell finds
a repeated cell.  The loop stops at the first bad line in file order, a
repeated cell being the fault of the later entry, and ``_read_line`` reads
that line alone to write its error, which names it (``line N: ...``).
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterator
from fractions import Fraction
from itertools import islice, product
from math import lcm, prod
from typing import NoReturn

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
    # one "invals : " prefix per input row and one "outvals" label per output cell
    prefixes = [" ".join(row) + " : " for row in _symbols(sig.input_sizes)]
    suffixes = [" ".join(cell) for cell in _symbols(sig.output_sizes)]
    table = box.table.reshape(len(prefixes), len(suffixes))
    rows, cols = np.nonzero(table)
    values = table[rows, cols].tolist()
    probs = {}
    for v in set(values):
        p = Fraction(v, box.denominator)
        probs[v] = f" = {p.numerator}/{p.denominator}"
    lines += [
        prefixes[r] + suffixes[c] + probs[v]
        for r, c, v in zip(rows.tolist(), cols.tolist(), values)
    ]
    return "\n".join(lines) + "\n"


def _symbols(sizes: tuple[int, ...]) -> Iterator[tuple[str, ...]]:
    """Every assignment of the wires, row-major, as tuples of decimal strings."""
    return product(*([str(v) for v in range(size)] for size in sizes))


def parse_box(text: str) -> Box:
    wires: dict[tuple[str, str], list[tuple[str, int]]] = {
        (p, r): [] for p in _PARTIES for r in _ROLES
    }
    lines = text.splitlines()
    body_start = len(lines)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.startswith("var "):
            body_start = lineno - 1
            break
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

    sig = BoxSignature(
        alice_inputs=tuple(wires[("alice", "input")]),
        alice_outputs=tuple(wires[("alice", "output")]),
        bob_inputs=tuple(wires[("bob", "input")]),
        bob_outputs=tuple(wires[("bob", "output")]),
    )
    # a var line after the first body line is an error, so the header is final
    check_table_size(sig.input_sizes + sig.output_sizes)
    return _read_body(sig, lines, body_start)


def _read_body(sig: BoxSignature, lines: list[str], start: int) -> Box:
    in_sizes, out_sizes = sig.input_sizes, sig.output_sizes
    n_out = prod(out_sizes)
    # what each distinct string reads as: an assignment as its row-major
    # index (None if it is bad), a probability token as its position in ``probs``
    rows: dict[str, int | None] = {}
    outs: dict[str, int | None] = {}
    prob_ids: dict[str, int] = {}
    probs: list[Fraction] = []
    seen = bytearray(prod(in_sizes) * n_out)
    cells = array("q")
    ids = array("i")
    for lineno, raw in enumerate(islice(lines, start, None), start + 1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        # a line without ":" or "=" has an empty probability part, which
        # ``_probability`` refuses
        in_part, _, rest = line.partition(":")
        out_part, _, prob_part = rest.partition("=")
        row = rows.get(in_part)
        if row is None:
            row = rows[in_part] = _index(in_part, in_sizes)
        out = outs.get(out_part)
        if out is None:
            out = outs[out_part] = _index(out_part, out_sizes)
        pid = prob_ids.get(prob_part)
        if pid is None:
            try:
                probs.append(_probability(prob_part.strip()))
                pid = prob_ids[prob_part] = len(probs) - 1
            except (ValueError, ZeroDivisionError):
                pass
        if row is None or out is None or pid is None or seen[cell := row * n_out + out]:
            _read_line(sig, raw, lineno)
        seen[cell] = 1
        cells.append(cell)
        ids.append(pid)
    den = lcm(*(p.denominator for p in probs))
    # every entry lies in [0, 1], so no numerator exceeds the denominator
    dtype = numerator_dtype(den, len(cells))
    scaled = np.array([p.numerator * (den // p.denominator) for p in probs], dtype=dtype)
    table = np.zeros(len(seen), dtype=dtype)
    table[np.asarray(cells)] = scaled[np.asarray(ids)]
    return Box(sig, table.reshape(in_sizes + out_sizes), den)


def _index(part: str, sizes: tuple[int, ...]) -> int | None:
    """Row-major index of a space-separated assignment of the wires ``sizes``;
    None for a wrong arity, a non-integer or an out-of-range symbol."""
    symbols = part.split()
    if len(symbols) != len(sizes):
        return None
    index = 0
    for symbol, size in zip(symbols, sizes):
        try:
            v = int(symbol)
        except ValueError:
            return None
        if not 0 <= v < size:
            return None
        index = index * size + v
    return index


def _read_line(sig: BoxSignature, raw: str, lineno: int) -> NoReturn:
    """Raise the error of a body line the loop refused, naming the line: its
    first fault, or, for a line with none, the repeat of an earlier entry's cell."""
    line = raw.strip()
    if line.startswith("var "):
        raise ValueError(f"line {lineno}: var declaration after body started")
    if ":" not in line or "=" not in line:
        raise ValueError(f"line {lineno}: expected 'invals : outvals = num/den'")
    try:
        in_part, rest = line.split(":", 1)
        out_part, prob_part = rest.split("=", 1)
        invals = tuple(int(tok) for tok in in_part.split())
        outvals = tuple(int(tok) for tok in out_part.split())
        _probability(prob_part.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    if len(invals) != len(sig.input_sizes):
        raise ValueError(
            f"line {lineno}: entry {invals} : {outvals} has wrong input arity for the header"
        )
    for v, s in zip(invals, sig.input_sizes):
        if not 0 <= v < s:
            raise ValueError(f"line {lineno}: input symbol {v} out of range in entry {invals}")
    try:
        sig.output_index(outvals)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc} in entry {outvals}") from None
    raise ValueError(f"line {lineno}: duplicate entry for {invals} : {outvals}")


def _probability(token: str) -> Fraction:
    """``Fraction(token)`` if it lies in [0, 1], else ValueError quoting the token.
    An exponent past Python's integer-string digit limit is refused before
    ``Fraction`` builds its power of ten, which takes seconds at 10^7."""
    digits = token.lower().partition("e")[2].lstrip("+-").replace("_", "")
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if digits.isdecimal() and int(digits) > limit:
        raise ValueError(f"probability {token} has an exponent past the digit limit {limit}")
    p = Fraction(token)
    if not 0 <= p <= 1:
        raise ValueError(f"probability {token} outside [0, 1]")
    return p
