"""Finite function tables and their text format."""

import re

import numpy as np
import pytest

from racbox.tables import TableFn, check_tables, parse_tables, preamble_int, serialize_tables


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
    wide = TableFn.from_array("g", (("x", 2),), 300, [0, 299])
    got = wide.at({"x": np.arange(2)})
    assert got.dtype == np.int64 and got.tolist() == [0, 299]


def test_index_is_row_major_and_serves_every_table_with_the_same_inputs():
    inputs = (("x", 2), ("y", 3))
    t = TableFn("f", inputs, 4, (0, 1, 2, 3, 0, 1))
    u = TableFn("g", inputs, 2, (1, 0, 0, 1, 1, 0))
    columns = {"x": np.arange(2)[:, None], "y": np.arange(3)[None, :]}
    idx = t.index(columns)
    assert idx.tolist() == [[0, 1, 2], [3, 4, 5]]
    assert t.entries[idx].tolist() == t.at(columns).tolist()
    assert u.entries[idx].tolist() == u.at(columns).tolist()


def test_from_array_broadcasts_a_scalar():
    t = TableFn.from_array("z", (("a", 2), ("b", 3)), 3, 2)
    assert t.entries.tolist() == [2] * 6
    assert t(1, 2) == 2


def test_from_array_reads_one_axis_per_input():
    a, b = np.indices((2, 2), sparse=True)
    t = TableFn.from_array("xor", (("a", 2), ("b", 2)), 2, a ^ b)
    assert t.entries.tolist() == [0, 1, 1, 0]
    assert t(1, 1) == 0
    # a length-1 axis is constant along its input: here the table reads b alone
    assert TableFn.from_array("b", (("a", 2), ("b", 3)), 3, [[0, 1, 2]]).entries.tolist() == [
        0, 1, 2, 0, 1, 2]
    assert TableFn.from_array("t", (("a", 2), ("b", 2)), 2, [[0, 1], [1, 1]]) == TableFn(
        "t", (("a", 2), ("b", 2)), 2, (0, 1, 1, 1))


def test_from_array_refuses_a_wrong_shape_naming_both_shapes():
    with pytest.raises(ValueError, match=r"'f'.*\(4,\).*\(2, 2\)"):
        TableFn.from_array("f", (("a", 2), ("b", 2)), 2, [0, 1, 1, 0])
    with pytest.raises(ValueError, match=r"\(3,\).*\(2,\)"):
        TableFn.from_array("f", (("a", 2),), 2, [0, 1, 1])


def test_entries_are_one_read_only_private_array():
    values = np.array([0, 1, 1, 0])
    t = TableFn("f", (("a", 2), ("b", 2)), 2, values)
    assert t.entries.dtype == np.uint8 and not t.entries.flags.writeable
    with pytest.raises(ValueError):
        t.entries[0] = 1
    values[0] = 1  # the table keeps its own copy
    assert t.entries.tolist() == [0, 1, 1, 0]
    assert not TableFn.from_array("g", (("a", 2),), 2, 1).entries.flags.writeable


def test_from_array_text_round_trip():
    x, y = np.indices((3, 4), sparse=True)
    t = TableFn.from_array("sum", (("x", 3), ("y", 4)), 6, x + y)
    (parsed,) = parse_tables(serialize_tables([], [t]))[1].values()
    assert parsed == t
    assert parsed.entries.tolist() == (x + y).ravel().tolist()


def test_non_integer_entries_are_refused():
    with pytest.raises(ValueError, match="table 'f' entries must be 64-bit integers"):
        TableFn("f", (("x", 2),), 2, (0.5, 1))
    with pytest.raises(ValueError, match="table 'g' entries must be 64-bit integers"):
        TableFn.from_array("g", (("x", 2),), 2, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="table 'h' entries must be 64-bit integers"):
        TableFn.from_array("h", (("x", 2),), 2, 0.5)
    # an integer past 64 bits reads as an object array
    with pytest.raises(ValueError, match=r"line 4: table 'f' entries must be 64-bit integers, got object"):
        parse_tables("table f 2\nin x 2\nentries\n0 99999999999999999999\n")


def test_negative_entries_are_refused_not_wrapped():
    # at output_size 256 the entries are stored as uint8, where -1 would be 255
    with pytest.raises(ValueError, match="entry -1 outside"):
        TableFn("f", (("x", 2),), 256, np.array([0, -1], dtype=np.int64))
    with pytest.raises(ValueError, match="entry -1 outside"):
        TableFn.from_array("f", (("x", 2),), 256, np.array([-1, 255]))
    assert TableFn("f", (("x", 2),), 256, np.array([0, 255])).entries.tolist() == [0, 255]


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
    a, b = np.indices((2, 2), sparse=True)
    tables = [
        TableFn.from_array("f", (("a", 2), ("b", 2)), 2, a & b),
        TableFn.from_array("g", (("a", 3),), 5, 4),
    ]
    text = serialize_tables([("kind", "demo"), ("n", "2")], tables)
    preamble, parsed = parse_tables(text)
    assert preamble == {"kind": "demo", "n": "2"}
    assert list(parsed.values()) == tables


@pytest.mark.parametrize("preamble, tables, message", [
    ([("k#1", "v")], [], r"^bad preamble key 'k#1'"),
    ([("two words", "v")], [], r"^bad preamble key 'two words'"),
    ([("name", "run#1")], [], r"^bad preamble value 'run#1' for key 'name'$"),
    ([("name", "two\nlines")], [], r"^bad preamble value 'two\\nlines' for key 'name'$"),
    ([("name", " padded")], [], r"^bad preamble value ' padded' for key 'name'$"),
    ([("name", "padded\t")], [], r"^bad preamble value 'padded\\t' for key 'name'$"),
    ([], [TableFn("f#1", (("x", 2),), 2, [0, 1])], r"^bad table name 'f#1'"),
    ([], [TableFn("f", (("x#", 2),), 2, [0, 1])], r"^bad table 'f' input name 'x#'"),
])
def test_text_that_would_read_back_as_something_else_is_refused_at_write(preamble, tables, message):
    with pytest.raises(ValueError, match=message):
        serialize_tables(preamble, tables)


def test_a_value_may_hold_inner_spaces_and_other_line_separators():
    # the parser ends a line at newline only, so these round-trip
    preamble = [("wiring-order", "rb0 rb1"), ("note", "a\x0bb\u2028c")]
    assert parse_tables(serialize_tables(preamble, [])) == (dict(preamble), {})


def test_long_entry_lists_wrap_and_parse():
    big = TableFn("h", (("x", 64),), 64, tuple(range(64)))
    text = serialize_tables([], [big])
    assert max(len(line) for line in text.splitlines()) < 100
    _, parsed = parse_tables(text)
    assert parsed == {"h": big}


def test_comments_and_blank_lines_ignored():
    text = serialize_tables([("k", "v")], [TableFn("f", (("x", 2),), 2, (0, 1))])
    noisy = "# leading comment\n\n" + text.replace("entries", "# mid comment\nentries")
    preamble, parsed = parse_tables(noisy)
    assert preamble == {"k": "v"}
    assert parsed["f"].entries.tolist() == [0, 1]


def test_parse_errors_carry_line_numbers():
    text = "table f 2\nin x 2\nentries\n0 7\n"
    with pytest.raises(ValueError, match="line"):
        parse_tables(text)


def test_truncated_entries_rejected():
    text = "table f 2\nin x 2\nentries\n0\n"
    with pytest.raises(ValueError):
        parse_tables(text)


def test_repeated_table_name_is_refused_at_its_line():
    text = "table f 2\nin x 2\nentries\n0 1\n\ntable f 2\nin x 2\nentries\n1 0\n"
    with pytest.raises(ValueError, match=r"^line 6: repeated table 'f'$"):
        parse_tables(text)



def test_a_failing_table_is_refused_at_its_own_entries_line():
    text = "table f 2\nin x 4\nentries\n0 1\n1 5\n\ntable g 2\nin x 2\nentries\n0 1\n"
    with pytest.raises(ValueError, match=r"^line 5: table 'f' entry 5 outside output alphabet$"):
        parse_tables(text)
    # a table without entries is refused at its table line
    with pytest.raises(ValueError, match=r"^line 1: table 'f' has entries of shape \(0,\)"):
        parse_tables("table f 2\nin x 2\ntable g 2\nin x 2\nentries\n0 1\n")


@pytest.mark.parametrize("text, message", [
    ("table f two\nin x 2\nentries\n0 1\n", "line 1: table size 'two' is not an integer"),
    ("table f 2\nin x 2.5\nentries\n0 1\n", "line 2: input size '2.5' is not an integer"),
    ("table f 2\nin x 2\nentries 0\n1 y\n", "line 4: expected integers, got '1 y'"),
    ("table f 2\nin x 2\nentries 0 y\n", "line 3: expected integers, got 'entries 0 y'"),
], ids=["table-size", "input-size", "entry", "entries-line"])
def test_a_non_integer_size_or_entry_names_its_line(text, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        parse_tables(text)


def test_a_non_integer_preamble_value_names_its_key():
    with pytest.raises(ValueError, match=r"^preamble line 'n': 'three' is not an integer$"):
        preamble_int({"n": "three"}, "n")

def test_check_tables_names_the_table_it_refuses():
    domains = {"f": ((("x", 2),), 2), "g": ((("x", 2), ("y", 3)), 4)}
    f = TableFn("f", (("x", 2),), 2, (0, 1))
    g = TableFn.from_array("g", (("x", 2), ("y", 3)), 4, 3)
    check_tables({"f": f, "g": g}, domains)
    with pytest.raises(ValueError, match="^missing table 'g'$"):
        check_tables({"f": f}, domains)
    with pytest.raises(ValueError, match="^unexpected table 'h'$"):
        check_tables({"f": f, "g": g, "h": f}, domains)
    with pytest.raises(ValueError, match="^table 'f' is stored under the name 'g'$"):
        check_tables({"f": f, "g": f}, domains)
    with pytest.raises(ValueError, match="^table 'g' has inputs"):
        check_tables({"f": f, "g": TableFn.from_array("g", (("y", 3), ("x", 2)), 4, 3)}, domains)
    with pytest.raises(ValueError, match="^table 'g' has output alphabet 5, expected 4$"):
        check_tables({"f": f, "g": TableFn.from_array("g", (("x", 2), ("y", 3)), 5, 3)}, domains)


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
                         ids=lambda c: hex(ord(c)))
def test_only_newline_ends_a_table_file_line(char):
    # str.splitlines would cut the comment and count one line too many
    table = TableFn("f", (("x", 2),), 2, (0, 1))
    text = f"k v\n# a comment with {char} inside\n" + serialize_tables([], [table])
    assert parse_tables(text) == ({"k": "v"}, {"f": table})
    with pytest.raises(ValueError, match=r"^line 7: expected integers, got '0 y'$"):
        parse_tables(text.replace("0 1", "0 y"))
