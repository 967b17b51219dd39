"""Deterministic function tables with a plain-text file format.

A TableFn is a total function on a finite product domain, stored row-major.
Strategy files for the search and capacity tools are collections of these
tables plus a small key-value preamble, so both share one parser.

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
row-major order (the last declared input varies fastest), wrapped at any
line width.  Blank lines and ``#`` comments are ignored everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .dists import iter_assignments


@dataclass(frozen=True)
class TableFn:
    """A total deterministic function as an explicit truth table."""

    name: str
    inputs: tuple[tuple[str, int], ...]
    output_size: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.name or any(ch.isspace() for ch in self.name):
            raise ValueError(f"bad table name {self.name!r}")
        if self.output_size < 1:
            raise ValueError("output alphabet must be non-empty")
        size = 1
        for var, s in self.inputs:
            if s < 1:
                raise ValueError(f"input {var!r} has empty alphabet")
            if not var or any(ch.isspace() for ch in var):
                raise ValueError(f"bad input name {var!r}")
            size *= s
        if len(self.entries) != size:
            raise ValueError(
                f"table {self.name!r} has {len(self.entries)} entries, domain has {size}"
            )
        for e in self.entries:
            if not 0 <= e < self.output_size:
                raise ValueError(f"table {self.name!r} entry {e} outside output alphabet")
        # the entries as the array ``at`` reads, built once: the protocol
        # executor reads each table once per block
        object.__setattr__(self, "_lookup", np.array(
            self.entries, dtype=np.uint8 if self.output_size <= 256 else np.int64))

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
        return self.entries[idx]

    def at(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """The table read at every cell of ``columns``, one integer array per
        input by name, broadcast together: uint8 for output alphabets up to
        256, else int64.

        Each cell is read at its row-major index over the inputs, built in
        place.  Unlike ``__call__`` nothing is range-checked: callers feed
        columns whose values they know to lie inside the declared alphabets.
        """
        shape = np.broadcast_shapes(*(columns[var].shape for var, _ in self.inputs))
        idx = np.zeros(shape, dtype=np.int32 if len(self.entries) < 2 ** 31 else np.int64)
        for var, size in self.inputs:
            idx *= size
            idx += columns[var]
        return self._lookup[idx]

    @classmethod
    def from_callable(
        cls,
        name: str,
        inputs: Sequence[tuple[str, int]],
        output_size: int,
        fn: Callable[..., int],
    ) -> "TableFn":
        inputs = tuple(inputs)
        entries = tuple(fn(*vals) for vals in iter_assignments([s for _, s in inputs]))
        return cls(name=name, inputs=inputs, output_size=output_size, entries=entries)

    @classmethod
    def constant(
        cls, name: str, inputs: Sequence[tuple[str, int]], output_size: int, value: int
    ) -> "TableFn":
        return cls.from_callable(name, inputs, output_size, lambda *args: value)


def serialize_tables(
    preamble: Sequence[tuple[str, str]], tables: Iterable[TableFn]
) -> str:
    """Render a preamble and a list of tables in the module file format."""
    lines: list[str] = []
    for key, value in preamble:
        if any(ch.isspace() for ch in key):
            raise ValueError(f"bad preamble key {key!r}")
        lines.append(f"{key} {value}")
    for tab in tables:
        lines.append("")
        lines.append(f"table {tab.name} {tab.output_size}")
        for var, size in tab.inputs:
            lines.append(f"in {var} {size}")
        lines.append("entries")
        row: list[str] = []
        for e in tab.entries:
            row.append(str(e))
            if len(row) == 20:
                lines.append(" ".join(row))
                row = []
        if row or not tab.entries:
            lines.append(" ".join(row))
    lines.append("")
    return "\n".join(lines)


def parse_tables(text: str) -> tuple[dict[str, str], list[TableFn]]:
    """Inverse of serialize_tables; validates totality and ranges."""
    preamble: dict[str, str] = {}
    tables: list[TableFn] = []
    name: str | None = None
    output_size = 0
    inputs: list[tuple[str, int]] = []
    entries: list[int] = []
    reading_entries = False

    def flush(lineno: int) -> None:
        nonlocal name, inputs, entries, reading_entries
        if name is None:
            return
        try:
            tables.append(
                TableFn(
                    name=name,
                    inputs=tuple(inputs),
                    output_size=output_size,
                    entries=tuple(entries),
                )
            )
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        name = None
        inputs = []
        entries = []
        reading_entries = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "table":
            flush(lineno)
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'table NAME SIZE'")
            name = parts[1]
            output_size = int(parts[2])
        elif parts[0] == "in" and name is not None and not reading_entries:
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'in NAME SIZE'")
            inputs.append((parts[1], int(parts[2])))
        elif parts[0] == "entries" and name is not None:
            if reading_entries:
                raise ValueError(f"line {lineno}: duplicate 'entries'")
            reading_entries = True
            entries.extend(int(tok) for tok in parts[1:])
        elif reading_entries:
            try:
                entries.extend(int(tok) for tok in parts)
            except ValueError:
                raise ValueError(f"line {lineno}: expected integers, got {line!r}") from None
        elif name is None:
            key = parts[0]
            if key in preamble:
                raise ValueError(f"line {lineno}: duplicate preamble key {key!r}")
            preamble[key] = line[len(key):].strip()
        else:
            raise ValueError(f"line {lineno}: unexpected {line!r} inside table block")
    flush(len(text.splitlines()))
    return preamble, tables
