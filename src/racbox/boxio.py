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
body in blocks of ``BLOCK_LINES`` lines with whole-list string calls, and
reads each distinct string once: an input or output assignment by ``int``
and one range compare against the wire sizes, a probability by
``Fraction`` once its decimal exponent, if any, is within Python's
integer-string digit limit.  Repeated cells are found by one sort after
the last block.  Every body error names its line (``line N: ...``), and
the error reported is that of the first bad line in file order; a
repeated cell is the bad line of the later entry.  A block with a bad line
is read again one line at a time, which finds the line and its error.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain, product, repeat
from math import lcm, prod

import numpy as np

from .boxes import Box, BoxSignature, check_table_size
from .dists import numerator_dtype

_PARTIES = ("alice", "bob")
_ROLES = ("input", "output")

BLOCK_LINES = 4096


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
    check_table_size(sig)
    return _read_body(sig, lines, body_start)


class _Tokens:
    """What each distinct string of a body reads as, each read once: input and
    output assignments as row-major indices, probabilities as ids into ``probs``."""

    def __init__(self) -> None:
        self.rows: dict[str, int] = {}
        self.outs: dict[str, int] = {}
        self.prob_ids: dict[str, int] = {}
        self.probs: list[Fraction] = []

    def add_prob(self, token: str, p: Fraction) -> None:
        if token not in self.prob_ids:
            self.prob_ids[token] = len(self.probs)
            self.probs.append(p)

    def scaled(self) -> tuple[list[int], int]:
        """Numerators of every probability over their least common denominator."""
        den = lcm(*(p.denominator for p in self.probs))
        return [p.numerator * (den // p.denominator) for p in self.probs], den


def _read_body(sig: BoxSignature, lines: list[str], start: int) -> Box:
    tokens = _Tokens()
    # (index of the block's first line, cells, probability ids), one per block
    blocks: list[tuple[int, np.ndarray, np.ndarray]] = []
    for first in range(start, len(lines), BLOCK_LINES):
        block = lines[first:first + BLOCK_LINES]
        read = _read_block(sig, block, tokens)
        if read is None:
            # some line of this block is bad; an earlier repeated cell comes first
            _check_duplicates(sig, lines, blocks)
            read = _walk_block(sig, block, first, blocks, tokens)
        blocks.append((first, *read))
    cells = _check_duplicates(sig, lines, blocks)
    ids = np.concatenate([b[2] for b in blocks] or [np.zeros(0, np.int32)])
    scaled, den = tokens.scaled()
    # every entry lies in [0, 1], so no numerator exceeds the denominator
    dtype = numerator_dtype(den, len(cells))
    sizes = sig.input_sizes + sig.output_sizes
    table = np.zeros(prod(sizes), dtype=dtype)
    table[cells] = np.array(scaled, dtype=dtype)[ids]
    return Box(sig, table.reshape(sizes), den)


def _read_block(
    sig: BoxSignature, block: list[str], tokens: _Tokens
) -> tuple[np.ndarray, np.ndarray] | None:
    """Cells and probability ids of a block's entries as whole arrays; None if any line is bad."""
    body = [line for line in map(str.strip, block) if line and line[0] != "#"]
    if not body:
        return np.zeros(0, np.int64), np.zeros(0, np.int32)
    in_parts, colons, rests = zip(*map(str.partition, body, repeat(":")))
    out_parts, equals, prob_parts = zip(*map(str.partition, rests, repeat("=")))
    if "" in colons or "" in equals:
        return None
    rows = _assignments(tokens.rows, in_parts, sig.input_sizes)
    outs = _assignments(tokens.outs, out_parts, sig.output_sizes)
    if rows is None or outs is None:
        return None
    probs = list(map(str.strip, prob_parts))
    for token in set(probs).difference(tokens.prob_ids):
        try:
            tokens.add_prob(token, _probability(token))
        except (ValueError, ZeroDivisionError):
            return None
    ids = np.fromiter(map(tokens.prob_ids.__getitem__, probs), np.int32, len(probs))
    return rows * prod(sig.output_sizes) + outs, ids


def _assignments(
    index: dict[str, int], parts: tuple[str, ...], sizes: tuple[int, ...]
) -> np.ndarray | None:
    """Row-major index of each space-separated assignment of the wires ``sizes``,
    reading each distinct string once into ``index``; None if one has the wrong
    arity, a non-integer or an out-of-range symbol."""
    new = list(set(parts).difference(index))
    if new:
        symbols = list(map(str.split, new))
        if set(map(len, symbols)) != {len(sizes)}:
            return None
        try:
            flat = np.fromiter(
                map(int, chain.from_iterable(symbols)), np.int64, len(new) * len(sizes)
            )
        except (ValueError, OverflowError):
            return None
        grid = flat.reshape(len(new), len(sizes))
        # negative symbols wrap to huge unsigned values, so one compare checks both ends
        if not (grid.view(np.uint64) < np.array(sizes, dtype=np.uint64)).all():
            return None
        strides = [prod(sizes[i + 1:]) for i in range(len(sizes))]
        index.update(zip(new, (grid @ np.array(strides, dtype=np.int64)).tolist()))
    return np.fromiter(map(index.__getitem__, parts), np.int64, len(parts))


def _read_line(sig: BoxSignature, raw: str, lineno: int) -> tuple | None:
    """(lineno, invals, outvals, cell, token, p) of one body line; None for a blank
    or comment line; ValueError naming the line for a bad one."""
    line = raw.strip()
    if not line or line.startswith("#"):
        return None
    if line.startswith("var "):
        raise ValueError(f"line {lineno}: var declaration after body started")
    if ":" not in line or "=" not in line:
        raise ValueError(f"line {lineno}: expected 'invals : outvals = num/den'")
    try:
        in_part, rest = line.split(":", 1)
        out_part, prob_part = rest.split("=", 1)
        invals = tuple(int(tok) for tok in in_part.split())
        outvals = tuple(int(tok) for tok in out_part.split())
        token = prob_part.strip()
        p = _probability(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    if len(invals) != len(sig.input_sizes):
        raise ValueError(
            f"line {lineno}: entry {invals} : {outvals} has wrong input arity for the header"
        )
    row = 0
    for v, s in zip(invals, sig.input_sizes):
        if not 0 <= v < s:
            raise ValueError(f"line {lineno}: input symbol {v} out of range in entry {invals}")
        row = row * s + v
    try:
        cell = row * prod(sig.output_sizes) + sig.output_index(outvals)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc} in entry {outvals}") from None
    return lineno, invals, outvals, cell, token, p


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


def _walk_block(
    sig: BoxSignature, block: list[str], first: int, blocks: list, tokens: _Tokens
) -> tuple[np.ndarray, np.ndarray]:
    """A block read one line at a time: its cells and probability ids, or the
    error of its first bad line (a repeated cell included)."""
    entries = []
    for lineno, raw in enumerate(block, start=first + 1):
        try:
            entry = _read_line(sig, raw, lineno)
        except ValueError as error:
            seen = _cells(blocks)
            j = _first_duplicate(np.concatenate([seen, _entry_cells(entries)]))
            if j is not None:
                raise _duplicate(entries[j - len(seen)]) from None
            raise error
        if entry is not None:
            entries.append(entry)
            tokens.add_prob(entry[4], entry[5])
    return _entry_cells(entries), np.array([tokens.prob_ids[e[4]] for e in entries], dtype=np.int32)


def _entry_cells(entries: list[tuple]) -> np.ndarray:
    return np.array([e[3] for e in entries], dtype=np.int64)


def _cells(blocks: list) -> np.ndarray:
    return np.concatenate([b[1] for b in blocks] or [np.zeros(0, np.int64)])


def _check_duplicates(sig: BoxSignature, lines: list[str], blocks: list) -> np.ndarray:
    """Every cell read so far, in file order; ValueError at the first entry
    whose cell an earlier entry already set."""
    cells = _cells(blocks)
    j = _first_duplicate(cells)
    if j is None:
        return cells
    for first, block_cells, _ in blocks:
        if j < len(block_cells):
            break
        j -= len(block_cells)
    block = lines[first:first + BLOCK_LINES]
    read = (_read_line(sig, raw, n) for n, raw in enumerate(block, start=first + 1))
    entries = (entry for entry in read if entry is not None)
    for _ in range(j):
        next(entries)
    raise _duplicate(next(entries))


def _first_duplicate(cells: np.ndarray) -> int | None:
    """Position of the first cell, in order, that repeats an earlier one."""
    order = np.argsort(cells, kind="stable")
    ranked = cells[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    return int(repeats.min()) if repeats.size else None


def _duplicate(entry: tuple) -> ValueError:
    lineno, invals, outvals = entry[:3]
    return ValueError(f"line {lineno}: duplicate entry for {invals} : {outvals}")
