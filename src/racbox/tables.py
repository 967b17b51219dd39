"""Deterministic function tables with a plain-text file format.

A TableFn is a total function on a finite product domain: one read-only
integer array of entries, one per domain point in row-major order (the
last declared input varies fastest).  A strategy for the search or the
capacity tool is a set of these tables held by name.  Each strategy kind
declares its tables once, as an ordered map from table name to (inputs,
output alphabet size); ``build_tables`` makes a kind's tables from that
map and ``check_tables``, the one strategy validator, holds any set of
tables to it.  Strategy files are those tables plus a small key-value
preamble, read by the one parser ``parse_tables``.

File format, by example::

    strategy-kind rac-with-rbs
    n 3

    table m 2
    in a_0 2
    in a_1 2
    entries
    0 1 1 0

Preamble lines are ``key value`` pairs (value may contain spaces), ended by
the first ``table`` line.  Each table block declares the output alphabet
size, its inputs in order, then exactly one integer per domain point in
row-major order, wrapped at any line width.  Table names are unique within
a file.  Blank lines and ``#`` comments are ignored everywhere.  A line
ends at ``\n`` only, so every ``line N:`` counts newlines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

# a declared table: its inputs as (name, alphabet size) pairs, in order, and
# its output alphabet size
Domain = tuple[tuple[tuple[str, int], ...], int]
# up to this many entries, Python's max over a list is cheaper than numpy's
# reduction, whose fixed cost is about 1 us
_SMALL_TABLE = 32


@dataclass(frozen=True, eq=False)
class TableFn:
    """A total deterministic function as an explicit truth table.

    ``entries`` takes a flat sequence of one integer per domain point,
    row-major, and is kept as a private read-only array: uint8 for output
    alphabets up to 256, else int64.
    """

    name: str
    inputs: tuple[tuple[str, int], ...]
    output_size: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        size = _domain_size(self.name, self.inputs, self.output_size)
        values = np.asarray(self.entries)
        if values.shape != (size,):
            raise ValueError(f"table {self.name!r} has entries of shape {values.shape}, "
                             f"its domain needs ({size},)")
        kind = values.dtype.kind
        if kind not in "biu":
            raise ValueError(f"table {self.name!r} entries must be 64-bit integers, got {values.dtype}")
        # one range reduction: viewed as unsigned, a negative entry reads as
        # 2^(bits-1) or more, past every non-negative entry of its dtype
        unsigned, limit = values, self.output_size
        if kind == "i":
            unsigned = values.view(f"u{values.itemsize}")
            limit = min(limit, 1 << (8 * values.itemsize - 1))
        if (max(unsigned.tolist()) if size <= _SMALL_TABLE else unsigned.max()) >= limit:
            lo, hi = values.min(), values.max()
            raise ValueError(f"table {self.name!r} entry {lo if lo < 0 else hi} outside output alphabet")
        entries = values.astype(np.uint8 if self.output_size <= 256 else np.int64)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_array(cls, name: str, inputs: Sequence[tuple[str, int]], output_size: int, values) -> TableFn:
        """The table whose entry at (v_1, .., v_k) is ``values[v_1, .., v_k]``: a
        scalar, or an array with one axis per input, broadcast to the domain
        shape (``np.indices(shape, sparse=True)`` gives one such axis per input)."""
        inputs = tuple(inputs)
        shape = tuple(s for _, s in inputs)
        values = np.asarray(values)
        full = np.empty(shape, values.dtype)
        try:
            full[...] = values
        except ValueError:
            raise ValueError(f"table {name!r}: values of shape {values.shape} do not broadcast "
                             f"to the domain shape {shape}") from None
        return cls(name, inputs, output_size, full.reshape(-1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TableFn):
            return NotImplemented
        return ((self.name, self.inputs, self.output_size) == (other.name, other.inputs, other.output_size)
                and bool(np.array_equal(self.entries, other.entries)))

    __hash__ = None  # type: ignore[assignment]

    def __call__(self, *args: int) -> int:
        if len(args) != len(self.inputs):
            raise ValueError(
                f"table {self.name!r} takes {len(self.inputs)} arguments, got {len(args)}"
            )
        idx = 0
        for val, (var, s) in zip(args, self.inputs):
            if not 0 <= val < s:
                raise ValueError(f"argument {var}={val} outside its alphabet of size {s}")
            idx = idx * s + val
        return self.entries.item(idx)

    def index(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """The row-major index over the inputs of every cell of ``columns``,
        one integer array per input by name, broadcast together: the first
        input's column as intp, then one ``idx * size + column`` per further
        input.  Any table with the same declared inputs reads its entries at
        it.  Unlike ``__call__`` nothing is range-checked: callers feed
        columns whose values they know to lie inside the declared alphabets.
        """
        if not self.inputs:
            return np.intp(0)
        (first, _), *rest = self.inputs
        idx = np.asarray(columns[first], dtype=np.intp)
        for var, size in rest:
            idx = idx * size + columns[var]
        return idx

    def at(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """The entries array read at ``self.index(columns)``: uint8 for output
        alphabets up to 256, else int64.  Nothing is range-checked."""
        return self.entries[self.index(columns)]


@lru_cache(maxsize=256)
def _domain_size(name: str, inputs: tuple[tuple[str, int], ...], output_size: int) -> int:
    """The number of points of a table's domain, after checking its name,
    input names and alphabets; cached, since strategies repeat their
    declared domains."""
    if name.split() != [name]:
        raise ValueError(f"bad table name {name!r}")
    if output_size < 1:
        raise ValueError("output alphabet must be non-empty")
    size = 1
    for var, s in inputs:
        if s < 1:
            raise ValueError(f"input {var!r} has empty alphabet")
        if var.split() != [var]:
            raise ValueError(f"bad input name {var!r}")
        size *= s
    return size


def check_tables(tables: Mapping[str, TableFn], domains: Mapping[str, Domain]) -> None:
    """Refuse ``tables`` unless it holds exactly the tables ``domains``
    declares, each under its own name, with the declared inputs in order and
    the declared output alphabet.  Every error names the table."""
    for name in domains:
        if name not in tables:
            raise ValueError(f"missing table {name!r}")
    for name, tab in tables.items():
        if name not in domains:
            raise ValueError(f"unexpected table {name!r}")
        if tab.name != name:
            raise ValueError(f"table {tab.name!r} is stored under the name {name!r}")
        inputs, output_size = domains[name]
        if tab.inputs != inputs:
            raise ValueError(f"table {name!r} has inputs {tab.inputs}, expected {inputs}")
        if tab.output_size != output_size:
            raise ValueError(f"table {name!r} has output alphabet {tab.output_size}, "
                             f"expected {output_size}")


def build_tables(tables: Mapping[str, object], domains: Mapping[str, Domain]) -> Mapping[str, TableFn]:
    """The tables ``domains`` declares, checked by ``check_tables``, as a
    read-only mapping in declaration order.

    Each entry of ``tables`` is a TableFn, or the values that
    ``TableFn.from_array`` broadcasts over that table's declared domain.
    """
    built = {
        name: TableFn.from_array(name, *domains[name], tab)
        if name in domains and not isinstance(tab, TableFn) else tab
        for name, tab in tables.items()
    }
    check_tables(built, domains)
    return MappingProxyType({name: built[name] for name in domains})


def serialize_tables(
    preamble: Sequence[tuple[str, str]], tables: Iterable[TableFn]
) -> str:
    """Render a preamble and a list of tables in the module file format.

    Refuses, naming it, any text ``parse_tables`` would read back as
    something else: a key, table name or input name that is not one word
    free of ``#``, and a preamble value that holds ``#`` or a line break or
    has surrounding whitespace.
    """
    lines: list[str] = []
    for key, value in preamble:
        _check_word("preamble key", key)
        if "#" in value or "\n" in value or value != value.strip():
            raise ValueError(f"bad preamble value {value!r} for key {key!r}")
        lines.append(f"{key} {value}")
    for tab in tables:
        _check_word("table name", tab.name)
        lines.append("")
        lines.append(f"table {tab.name} {tab.output_size}")
        for var, size in tab.inputs:
            _check_word(f"table {tab.name!r} input name", var)
            lines.append(f"in {var} {size}")
        lines.append("entries")
        tokens = list(map(str, tab.entries.tolist()))
        lines += [" ".join(tokens[i:i + 20]) for i in range(0, len(tokens), 20)]
    lines.append("")
    return "\n".join(lines)


def _check_word(what: str, word: str) -> None:
    if word.split() != [word] or "#" in word:
        raise ValueError(f"bad {what} {word!r}: must be one word without '#'")


def parse_tables(text: str) -> tuple[dict[str, str], dict[str, TableFn]]:
    """Inverse of serialize_tables: the preamble, and the tables by name in
    file order.  Validates totality and ranges, and refuses a repeated table
    name at the line that repeats it.  A table that fails its checks is
    refused at the last line of its entries, or at its ``table`` line if it
    has no ``entries`` line."""
    preamble: dict[str, str] = {}
    tables: dict[str, TableFn] = {}
    name: str | None = None
    output_size = 0
    inputs: list[tuple[str, int]] = []
    entries: list[int] = []
    reading_entries = False
    last_line = 0  # where a failing table is refused: its table line, then its last entries line

    def flush() -> None:
        nonlocal name, inputs, entries, reading_entries
        if name is None:
            return
        try:
            tables[name] = TableFn(name=name, inputs=tuple(inputs), output_size=output_size,
                                   entries=entries)
        except ValueError as exc:
            raise ValueError(f"line {last_line}: {exc}") from None
        name = None
        inputs = []
        entries = []
        reading_entries = False

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "table":
            flush()
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'table NAME SIZE'")
            if parts[1] in tables:
                raise ValueError(f"line {lineno}: repeated table {parts[1]!r}")
            name = parts[1]
            output_size = _integer(parts[2], "table size", lineno)
            last_line = lineno
        elif parts[0] == "in" and name is not None and not reading_entries:
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'in NAME SIZE'")
            inputs.append((parts[1], _integer(parts[2], "input size", lineno)))
        elif name is not None and (reading_entries or parts[0] == "entries"):
            if parts[0] == "entries":
                if reading_entries:
                    raise ValueError(f"line {lineno}: duplicate 'entries'")
                reading_entries = True
                del parts[0]
            try:
                entries.extend(map(int, parts))
            except ValueError:
                raise ValueError(f"line {lineno}: expected integers, got {line!r}") from None
            last_line = lineno
        elif name is None:
            key = parts[0]
            if key in preamble:
                raise ValueError(f"line {lineno}: duplicate preamble key {key!r}")
            preamble[key] = line[len(key):].strip()
        else:
            raise ValueError(f"line {lineno}: unexpected {line!r} inside table block")
    flush()
    return preamble, tables


def _integer(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"line {lineno}: {what} {token!r} is not an integer") from None


def preamble_int(preamble: dict[str, str], key: str) -> int:
    """The integer on preamble line ``key``; ValueError naming a missing or
    non-integer line."""
    if key not in preamble:
        raise ValueError(f"missing preamble line {key!r}")
    try:
        return int(preamble[key])
    except ValueError:
        raise ValueError(f"preamble line {key!r}: {preamble[key]!r} is not an integer") from None
