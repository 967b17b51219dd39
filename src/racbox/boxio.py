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
parse; blank lines and lines starting with ``#`` are skipped.  A line ends
at ``\n`` only, so every ``line N:`` counts newlines.
``parse_box(serialize_box(box)) == box`` for every box.

``parse_box`` refuses a header whose dense table would pass the size cap
(``boxes.check_table_size``) before it reads any body line.  It reads the
body in one loop that does no more per line than strip it, split it at its
first ``:`` and look its two parts up in two dicts, which give each distinct
input part and each distinct remainder ``outvals = prob`` an id.  Each
distinct string is read once after the loop: the distinct input and output
parts in batches, by one dict lookup per canonically spelled symbol and a
numpy range check (any other spelling through ``int``), and each probability
token by ``Fraction`` once its decimal exponent, if any, is within Python's
integer-string digit limit.  One flag per table cell finds a repeated cell.
If any part or token is bad, or a cell repeats, the lines are walked once
more to the first faulty entry in file order, a repeated cell being the
fault of the later entry, and ``_read_line`` reads that line alone to write
its error, which names it (``line N: ...``).
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain, count, islice, product, repeat
from math import lcm, prod
from typing import NoReturn

import numpy as np

from .boxes import Box, BoxSignature, check_table_size
from .dists import numerator_dtype

_PARTIES = ("alice", "bob")
_ROLES = ("input", "output")
# symbols with their canonical spelling, read by one dict lookup each; any other
# spelling (01, +1, 1_0) or a larger symbol goes through ``_index``
_SYMBOLS = {str(v): v for v in range(256)}
# distinct assignments ``_indices`` reads per batch
_BATCH = 1024


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
    lines = text.split("\n")
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
    # the loop gives each distinct input part and each distinct remainder
    # "outvals = prob" the next id on its first lookup, and keeps the two ids
    # of every entry; the ids come from a counter, since the dict's own
    # ``__len__`` as its factory would hold the dict in a reference cycle
    ins, rests = defaultdict(count().__next__), defaultdict(count().__next__)
    ids = array("i")
    for raw in islice(lines, start, None):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        in_part, _, rest = line.partition(":")
        ids.append(ins[in_part])
        ids.append(rests[rest])
    # remainders are few (output cells times distinct probabilities); each
    # distinct output part and probability token among them is read once
    outs, tokens = defaultdict(count().__next__), defaultdict(count().__next__)
    rest_outs, rest_tokens = [], []
    for rest in rests:
        # a line without ":" or "=" has an empty probability part, which
        # ``_probability`` refuses
        out_part, _, prob_part = rest.partition("=")
        rest_outs.append(outs[out_part])
        rest_tokens.append(tokens[prob_part])
    probs = [_probability_or_none(token) for token in tokens]
    token_of = np.array(rest_tokens, dtype=np.int32)
    # each input part's row and each remainder's output cell, -1 if it is bad
    row_of = _indices(list(ins), in_sizes)
    out_of = _indices(list(outs), out_sizes)[rest_outs]
    out_of[np.array([p is None for p in probs], dtype=bool)[token_of]] = -1
    pairs = np.frombuffer(ids, dtype=np.int32).reshape(-1, 2)
    n_out = prod(out_sizes)
    cells = _cells(pairs, row_of, out_of, n_out, prod(in_sizes) * n_out)
    if cells is None:
        _raise_first_fault(
            sig, lines, start, dict(zip(ins, row_of.tolist())), dict(zip(rests, out_of.tolist()))
        )
    den = lcm(*(p.denominator for p in probs))
    # every entry lies in [0, 1], so no numerator exceeds the denominator
    dtype = numerator_dtype(den, len(cells))
    scaled = np.array([p.numerator * (den // p.denominator) for p in probs], dtype=dtype)
    table = np.zeros(prod(in_sizes) * n_out, dtype=dtype)
    table[cells] = scaled[token_of[pairs[:, 1]]]
    return Box(sig, table.reshape(in_sizes + out_sizes), den)


def _cells(
    pairs: np.ndarray, row_of: np.ndarray, out_of: np.ndarray, n_out: int, n_cells: int
) -> np.ndarray | None:
    """The table cell of each entry, given as a (input part id, remainder id)
    row of ``pairs``; None if a part is bad (-1) or two entries share a cell."""
    if (row_of < 0).any() or (out_of < 0).any():
        return None
    cells = row_of[pairs[:, 0]]
    cells *= n_out
    cells += out_of[pairs[:, 1]]
    seen = np.zeros(n_cells, dtype=bool)
    seen[cells] = True
    return cells if np.count_nonzero(seen) == len(cells) else None


def _indices(parts: list[str], sizes: tuple[int, ...]) -> np.ndarray:
    """``_index`` of each part, -1 for None.  Parts are read in batches, by one
    dict lookup per symbol spelled canonically, ``str(v)``, and a numpy range
    check; a part with another spelling or an out-of-range symbol, and every
    part of a batch with a wrong arity, goes through ``_index``."""
    arity = len(sizes)
    weights = np.array([prod(sizes[k + 1:]) for k in range(arity)], dtype=np.int32)
    # a row-major index is below the table size cap, far below 2^31
    result = np.empty(len(parts), dtype=np.int32)
    for lo in range(0, len(parts), _BATCH):
        batch = parts[lo:lo + _BATCH]
        split = list(map(str.split, batch))
        if set(map(len, split)) == {arity}:
            symbols = np.fromiter(
                map(_SYMBOLS.get, chain.from_iterable(split), repeat(-1)),
                dtype=np.int32, count=len(batch) * arity,
            ).reshape(len(batch), arity)
            good = ((symbols >= 0) & (symbols < sizes)).all(axis=1)
            result[lo:lo + len(batch)] = symbols @ weights
        else:
            good = np.zeros(len(batch), dtype=bool)
        for k in np.flatnonzero(~good).tolist():
            index = _index(batch[k], sizes)
            result[lo + k] = -1 if index is None else index
    return result


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


def _raise_first_fault(
    sig: BoxSignature, lines: list[str], start: int, rows: dict[str, int], outs: dict[str, int]
) -> NoReturn:
    """Raise the error of the first faulty body line in file order: one whose
    input part has row -1 in ``rows`` or whose remainder has output cell -1 in
    ``outs``, or one that repeats an earlier entry's cell."""
    n_out = prod(sig.output_sizes)
    seen = set()
    for lineno, raw in enumerate(islice(lines, start, None), start + 1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        in_part, _, rest = line.partition(":")
        row, out = rows[in_part], outs[rest]
        if row < 0 or out < 0 or (cell := row * n_out + out) in seen:
            _read_line(sig, raw, lineno)
        seen.add(cell)
    raise AssertionError("the body has no faulty entry")


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


def _probability_or_none(token: str) -> Fraction | None:
    """``_probability`` of the stripped token, None where it refuses it."""
    try:
        return _probability(token.strip())
    except (ValueError, ZeroDivisionError):
        return None


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
