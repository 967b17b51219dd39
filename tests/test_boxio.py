"""Box serialization round trips and malformed-input handling."""

import numpy as np
import pytest

from racbox.boxes import check_normalization, make_bn_box, make_bnd_box, make_rb
from racbox.boxio import parse_box, serialize_box


@pytest.mark.parametrize(
    "box",
    [
        make_bn_box(2),
        make_bn_box(3),
        make_bnd_box(2, 3, "minus"),
        make_rb(2, 2, "signalinghalf"),
        make_rb(3, 3, "three"),
    ],
    ids=["b2", "b3", "b23minus", "rb-shalf", "rb3-three"],
)
def test_round_trip(box):
    again = parse_box(serialize_box(box))
    assert again.signature == box.signature
    assert again.denominator == box.denominator
    assert np.array_equal(again.table, box.table)


def test_serialized_form_is_line_stable():
    a = serialize_box(make_bn_box(3))
    b = serialize_box(make_bn_box(3))
    assert a == b
    assert a.endswith("\n")


def test_skewed_probability_parses_but_fails_normalization():
    # per-entry values in [0,1] are a syntax matter; row sums are a box property
    text = serialize_box(make_bn_box(2)).replace("1/2", "2/3", 1)
    assert not check_normalization(parse_box(text))


def test_truncated_table_fails_normalization():
    lines = serialize_box(make_bn_box(2)).rstrip("\n").split("\n")
    box = parse_box("\n".join(lines[:-1]) + "\n")
    assert not check_normalization(box)


def test_parse_rejects_probability_above_one():
    text = serialize_box(make_bn_box(2)).replace("1/2", "3/2", 1)
    with pytest.raises(ValueError):
        parse_box(text)


def test_parse_reports_line_numbers():
    text = serialize_box(make_bn_box(2))
    bad = text.replace("1/2", "not-a-number", 1)
    with pytest.raises(ValueError) as err:
        parse_box(bad)
    assert "line" in str(err.value)


def test_parse_names_the_entry_with_an_output_out_of_range():
    text = serialize_box(make_bn_box(2)).replace(": 1 0 =", ": 1 2 =", 1)
    with pytest.raises(ValueError, match=r"output symbol 2 out of range .* in entry \(1, 2\)"):
        parse_box(text)


def test_parse_names_the_entry_with_the_wrong_output_arity():
    text = serialize_box(make_bn_box(2)).replace(": 1 0 =", ": 1 0 1 =", 1)
    with pytest.raises(ValueError, match=r"3 output values for 2 output wires in entry \(1, 0, 1\)"):
        parse_box(text)


NON_INTEGER_SIZE = "var alice input x two\nvar alice output X 2\n"


def test_parse_names_the_line_of_a_non_integer_wire_size():
    with pytest.raises(ValueError, match=r"^line 1: wire size 'two' is not an integer$"):
        parse_box(NON_INTEGER_SIZE)


HUGE_BOX = (
    "var alice input x 100000000\nvar alice output X 2\n"
    "var bob input y 2\nvar bob output Y 2\n\n0 0 : 0 0 = 1\n"
)


def test_parse_refuses_an_oversized_header_before_densifying():
    with pytest.raises(ValueError, match="800000000 cells .* more than the limit"):
        parse_box(HUGE_BOX)
