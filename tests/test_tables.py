"""Finite function tables and their text format."""

import numpy as np
import pytest

from racbox.tables import TableFn, parse_tables, serialize_tables


def test_call_uses_mixed_radix_indexing():
    t = TableFn("f", (("x", 2), ("y", 3)), 4, (0, 1, 2, 3, 0, 1))
    assert t(0, 0) == 0
    assert t(0, 2) == 2
    assert t(1, 0) == 3
    assert t(1, 2) == 1


def test_at_reads_every_cell_of_broadcast_columns_like_call():
    t = TableFn("f", (("x", 2), ("y", 3)), 4, (0, 1, 2, 3, 0, 1))
    # columns by name, in any order, broadcast together: x down, y across
    got = t.at({"y": np.arange(3)[None, :], "x": np.arange(2)[:, None], "unused": 7})
    assert got.dtype == np.uint8 and got.shape == (2, 3)
    assert got.tolist() == [[t(x, y) for y in range(3)] for x in range(2)]
    wide = TableFn.from_callable("g", (("x", 2),), 300, lambda x: 299 * x)
    assert wide.at({"x": np.arange(2)}).tolist() == [0, 299]


def test_from_callable_round_trip():
    t = TableFn.from_callable("xor", (("a", 2), ("b", 2)), 2, lambda a, b: a ^ b)
    assert t.entries == (0, 1, 1, 0)
    assert t(1, 1) == 0


def test_constant_table():
    t = TableFn.constant("z", (("a", 2),), 3, 2)
    assert t.entries == (2, 2)


def test_validation():
    with pytest.raises(ValueError):
        TableFn("f", (("x", 2),), 2, (0,))  # wrong entry count
    with pytest.raises(ValueError):
        TableFn("f", (("x", 2),), 2, (0, 2))  # entry out of range
    with pytest.raises(ValueError):
        TableFn("bad name", (("x", 2),), 2, (0, 0))  # whitespace in name
    with pytest.raises(ValueError):
        TableFn("f", (("x", 0),), 2, ())  # empty input alphabet


def test_call_range_check():
    t = TableFn("f", (("x", 2),), 2, (0, 1))
    with pytest.raises(ValueError):
        t(2)
    with pytest.raises(ValueError):
        t(0, 1)


def test_text_round_trip_with_preamble():
    tables = [
        TableFn.from_callable("f", (("a", 2), ("b", 2)), 2, lambda a, b: a & b),
        TableFn.constant("g", (("a", 3),), 5, 4),
    ]
    text = serialize_tables([("kind", "demo"), ("n", "2")], tables)
    preamble, parsed = parse_tables(text)
    assert preamble == {"kind": "demo", "n": "2"}
    assert parsed == tables


def test_long_entry_lists_wrap_and_parse():
    big = TableFn("h", (("x", 64),), 64, tuple(range(64)))
    text = serialize_tables([], [big])
    assert max(len(line) for line in text.splitlines()) < 100
    _, parsed = parse_tables(text)
    assert parsed == [big]


def test_comments_and_blank_lines_ignored():
    text = serialize_tables([("k", "v")], [TableFn("f", (("x", 2),), 2, (0, 1))])
    noisy = "# leading comment\n\n" + text.replace("entries", "# mid comment\nentries")
    preamble, parsed = parse_tables(noisy)
    assert preamble == {"k": "v"}
    assert parsed[0].entries == (0, 1)


def test_parse_errors_carry_line_numbers():
    text = "table f 2\nin x 2\nentries\n0 7\n"
    with pytest.raises(ValueError, match="line"):
        parse_tables(text)


def test_truncated_entries_rejected():
    text = "table f 2\nin x 2\nentries\n0\n"
    with pytest.raises(ValueError):
        parse_tables(text)
