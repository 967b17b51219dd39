"""Box serialization round trips and malformed-input handling."""

import random
import re
import tracemalloc
from fractions import Fraction
from math import lcm, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racbox.boxes import (
    Box,
    BoxSignature,
    check_normalization,
    check_table_size,
    make_bn_box,
    make_bnd_box,
    make_rb,
)
from racbox import boxio
from racbox.boxio import parse_box, serialize_box
from racbox.dists import numerator_dtype

GOLDEN = Path(__file__).parent / "golden"


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


@pytest.mark.parametrize("token", ["1e10000000", "1E-10000000", "2.5e+1_000_000"])
def test_huge_exponent_is_refused_before_fraction_runs(token, monkeypatch):
    # Fraction would build 10^(10^7) first, which takes seconds
    seen = []

    def fraction(*args):
        seen.append(args)
        return Fraction(*args)

    monkeypatch.setattr(boxio, "Fraction", fraction)
    lines = serialize_box(make_bn_box(2)).splitlines()
    i = _body_line(lines, 2)
    lines[i] = f"0 1 : 0 1 = {token}"
    with pytest.raises(ValueError, match=rf"^line {i + 1}: probability {re.escape(token)} has an exponent"):
        parse_box("\n".join(lines))
    assert (token,) not in seen


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


def test_parse_refuses_an_oversized_header_before_reading_the_body():
    # the body line is malformed, but the header alone is over the cap
    with pytest.raises(ValueError, match="800000000 cells .* more than the limit"):
        parse_box(HUGE_BOX.replace("0 0 : 0 0 = 1", "not an entry"))


def _parse_lines(text: str) -> Box:
    """Reference parser: one line at a time, every entry checked after the last line.

    Reports entry errors (arity, range, duplicates) without a line number and
    after every syntax error in the file, and checks the size cap after the
    body; otherwise it accepts exactly the language ``parse_box`` does.
    """
    wires = {(p, r): [] for p in ("alice", "bob") for r in ("input", "output")}
    entries = []
    in_header = True
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
            if (party, role) not in wires:
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
            raise ValueError(f"line {lineno}: probability {prob_part.strip()} outside [0, 1]")
        entries.append((invals, outvals, p))

    sig = BoxSignature(*(tuple(wires[key]) for key in wires))
    check_table_size(sig.input_sizes + sig.output_sizes)
    n_out = prod(sig.output_sizes)
    den = lcm(*(p.denominator for _, _, p in entries))
    cells = {}
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
    table = np.zeros(prod(sig.input_sizes) * n_out, dtype=numerator_dtype(den, len(cells)))
    table[list(cells)] = list(cells.values())
    return Box(sig, table.reshape(sig.input_sizes + sig.output_sizes), den)


def _serialize_lines(box: Box) -> str:
    """Reference serializer: one joined string per nonzero cell."""
    sig = box.signature
    lines = [
        f"var {party} {role} {name} {size}"
        for party, role, pairs in (
            ("alice", "input", sig.alice_inputs),
            ("alice", "output", sig.alice_outputs),
            ("bob", "input", sig.bob_inputs),
            ("bob", "output", sig.bob_outputs),
        )
        for name, size in pairs
    ]
    lines.append("")
    n_in = len(sig.input_sizes)
    cells = np.nonzero(box.table)
    for cell, v in zip(zip(*(axis.tolist() for axis in cells)), box.table[cells].tolist()):
        p = Fraction(v, box.denominator)
        lines.append(
            " ".join(map(str, cell[:n_in])) + " : " + " ".join(map(str, cell[n_in:]))
            + f" = {p.numerator}/{p.denominator}"
        )
    return "\n".join(lines) + "\n"


FAMILIES = {
    "bn3": make_bn_box(3),
    "bnd33plus": make_bnd_box(3, 3, "plus"),
    "bnd24minus": make_bnd_box(2, 4, "minus"),
    **{f"rb32{v}": make_rb(3, 2, v) for v in ("nosignaling", "signalinghalf")},
    **{f"rb33{v}": make_rb(3, 3, v) for v in ("plus", "minus", "three")},
}


def _assert_parsers_agree(text):
    box = parse_box(text)
    assert box == _parse_lines(text)
    return box


@pytest.mark.parametrize("name", FAMILIES)
def test_parse_box_matches_the_line_parser_on_round_trips(name):
    box = FAMILIES[name]
    assert _assert_parsers_agree(serialize_box(box)) == box


def test_parse_box_matches_the_line_parser_across_blocks():
    box = make_rb(5, 3, "plus")
    text = serialize_box(box)
    assert text.count("\n") > 8192
    assert _assert_parsers_agree(text) == box


def test_parse_box_matches_the_line_parser_on_the_golden_mixture():
    box = _assert_parsers_agree((GOLDEN / "rb-mixture.box").read_text())
    assert check_normalization(box)


@pytest.mark.parametrize("token", ["2/4", "0.5", "1e-1", "1", " 1/2 ", "0"])
def test_parse_box_reads_every_fraction_token(token):
    text = serialize_box(make_bn_box(2)).replace("1/2", token)
    box = _assert_parsers_agree(text)
    assert box.prob((0, 0), (0, 0)) == Fraction(token)


def test_parse_box_skips_comments_and_blank_lines_between_entries():
    lines = serialize_box(make_rb(2, 2, "plus")).splitlines()
    spaced = []
    for i, line in enumerate(lines):
        spaced += [line, "", "   # note : 1 = 2"] if i % 3 == 0 else ["  " + line + "\t"]
    assert _assert_parsers_agree("\n".join(spaced)) == make_rb(2, 2, "plus")


def _body_line(lines, k):
    """Index of the k-th nonblank line after the header."""
    return [i for i, line in enumerate(lines) if line and not line.startswith("var ")][k]


# (name, box, which body line, replacement); ``{}`` in a replacement is the original line
MUTATIONS = [
    ("not-a-number", make_bn_box(2), 1, "0 0 : 0 0 = not-a-number"),
    ("above-one", make_bn_box(2), 2, "{} + 1"),
    ("zero-denominator", make_bn_box(2), 0, "0 0 : 0 0 = 1/0"),
    ("probability-above-one", make_bn_box(2), 3, "0 1 : 1 0 = 3/2"),
    ("decimal-above-one", make_bn_box(2), 3, "0 1 : 1 0 = 1.5"),
    ("exponent-at-the-digit-limit", make_bn_box(2), 3, "0 1 : 1 0 = 1e4300"),
    ("no-colon", make_bn_box(2), 1, "0 0 0 0 = 1/2"),
    ("equals-before-colon", make_bn_box(2), 1, "0 0 = 1/2 : 0 0"),
    ("two-colons", make_bn_box(2), 2, "0 0 : 0 : 0 = 1/2"),
    ("var-in-body", make_bn_box(2), 2, "var bob input z 2"),
    ("non-integer-symbol", make_bn_box(2), 1, "0 x : 0 0 = 1/2"),
    ("input-arity", make_bn_box(2), 3, "0 0 0 : 0 0 = 1/2"),
    ("input-range", make_bn_box(2), 2, "0 2 : 0 0 = 1/2"),
    ("negative-input", make_bn_box(2), 2, "-1 0 : 0 0 = 1/2"),
    ("huge-input", make_bn_box(2), 2, "99999999999999999999 0 : 0 0 = 1/2"),
    ("output-arity", make_bn_box(2), 4, "1 0 : 1 = 1/2"),
    ("output-range", make_bn_box(2), 4, "1 0 : 1 2 = 1/2"),
    ("duplicate", make_bn_box(2), 5, "0 0 : 0 0 = 1/2"),
    ("duplicate-with-other-spacing", make_bn_box(2), 5, "0  0 :0 0=  0"),
    ("far-into-the-file", make_rb(5, 3, "plus"), 4196, "{} x"),
    ("duplicate-far-into-the-file", make_rb(5, 3, "plus"), 8199,
     "0 0 0 0 0 0 0 : 0 0 = 1/3"),
]


@pytest.mark.parametrize("mutation", MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_parse_box_raises_the_line_parsers_error_and_names_the_line(mutation):
    _, box, k, replacement = mutation
    lines = serialize_box(box).splitlines()
    i = _body_line(lines, k)
    lines[i] = replacement.format(lines[i])
    _assert_same_error("\n".join(lines) + "\n", i)


def _assert_same_error(text, i):
    """``parse_box`` names line ``i`` (0-based) and gives the line parser's error."""
    with pytest.raises(ValueError) as new:
        parse_box(text)
    with pytest.raises(ValueError) as old:
        _parse_lines(text)
    assert str(new.value).startswith(f"line {i + 1}: ")
    old_text = re.sub(r"^line \d+: ", "", str(old.value))
    assert str(new.value).removeprefix(f"line {i + 1}: ") == old_text


THREE_LINES = serialize_box(make_rb(3, 3, "three")).splitlines()
THREE_BODY = [i for i, line in enumerate(THREE_LINES) if line and not line.startswith("var ")]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_any_mutation_on_any_body_line_raises_the_line_parsers_error(data):
    replacement = data.draw(st.sampled_from([m[3] for m in MUTATIONS]))
    # from the second body line on: a var line in place of the first is still header
    i = THREE_BODY[data.draw(st.integers(1, len(THREE_BODY) - 1))]
    lines = list(THREE_LINES)
    lines[i] = replacement.format(lines[i])
    _assert_same_error("\n".join(lines) + "\n", i)


@pytest.mark.parametrize("later", [10, 6144], ids=["close-behind", "far-behind"])
def test_the_first_bad_line_in_file_order_is_reported(later):
    text = serialize_box(make_rb(5, 3, "plus")).splitlines()
    first, second = _body_line(text, 3), _body_line(text, later)
    # a repeated cell before a syntax error
    lines = list(text)
    lines[first], lines[second] = lines[_body_line(text, 0)], "not an entry"
    with pytest.raises(ValueError, match=rf"^line {first + 1}: duplicate entry"):
        parse_box("\n".join(lines))
    # a syntax error before a repeated cell
    lines[first], lines[second] = "0 0 0 0 0 0 0 : 0 0 : 1 = 1/3", lines[first]
    with pytest.raises(ValueError, match=rf"^line {first + 1}: invalid literal for int"):
        parse_box("\n".join(lines))


def test_each_distinct_string_is_read_once(monkeypatch):
    text = serialize_box(make_rb(5, 3, "plus"))
    fractions, parts = [], []

    def fraction(*args):
        fractions.append(args)
        return Fraction(*args)

    def indices(batch, sizes):
        parts.extend(batch)
        return read_indices(batch, sizes)

    read_indices = boxio._indices
    monkeypatch.setattr(boxio, "Fraction", fraction)
    monkeypatch.setattr(boxio, "_indices", indices)
    assert parse_box(text) == make_rb(5, 3, "plus")
    body = [line for line in text.splitlines() if "=" in line]
    ins, _, rests = zip(*(line.partition(":") for line in body))
    outs, _, tokens = zip(*(rest.partition("=") for rest in rests))
    assert sorted(fractions) == sorted((token.strip(),) for token in set(tokens))
    assert sorted(parts) == sorted([*set(ins), *set(outs)])


SPELLED_HEADER = "var alice input x 12\nvar alice output X 2\nvar bob input y 4\nvar bob output Y 2\n"


def _spelled(v, way):
    """Symbol v as ``int`` reads it: canonical, with a leading zero or plus, in
    Arabic-Indic digits, or with an underscore between digits."""
    digits = str(v)
    return (
        digits,
        "0" + digits,
        "+" + digits,
        "".join(chr(0x660 + int(c)) for c in digits),
        "_".join(digits) if len(digits) > 1 else "0_" + digits,
    )[way % 5]


def _spelled_body(respell):
    """Every (x, y) row of the spelled header, two entries each, with the
    odd-numbered lines respelled when ``respell`` is set."""
    lines = []
    for x in range(12):
        for y in range(4):
            for X, p in ((0, "1/3"), (1, "2/3")):
                k = len(lines)
                if respell and k % 2:
                    sep = ("\t", "  ", " \t ")[k % 3]
                    line = (f"{_spelled(x, k // 2 + y)}{sep}{_spelled(y, k // 3)} :{sep}"
                            f"{_spelled(X, k)}{sep}{(x + y) % 2}{sep}={sep}{p}")
                    lines.append(line + ("\r" if k % 4 == 1 else ""))
                else:
                    lines.append(f"{x} {y} : {X} {(x + y) % 2} = {p}")
    return lines


def test_every_spelling_int_reads_parses_as_the_canonical_one():
    spelled = SPELLED_HEADER + "\n".join(_spelled_body(respell=True)) + "\n"
    assert all(tok in spelled for tok in ("01", "+1", "\u0663", "1_0", "\t", "  ", "\r\n"))
    canonical = parse_box(SPELLED_HEADER + "\n".join(_spelled_body(respell=False)))
    assert _assert_parsers_agree(spelled) == canonical
    assert check_normalization(canonical)


@pytest.mark.parametrize("first, later", [
    ("3 1 : 1 0 = 2/3", "03 +1 : 1\t0 = 1/3"),
    ("3  01 :\t1 0 = 2/3", "3 1 : 1 0 = 1/3"),
], ids=["canonical-first", "respelled-first"])
def test_a_cell_respelled_later_is_a_duplicate_at_the_later_line(first, later):
    lines = SPELLED_HEADER.splitlines() + ["", first, "0 0 : 0 0 = 1/3", later, "0 1 : 0 1 = 1"]
    with pytest.raises(ValueError, match=r"^line 8: duplicate entry for \(3, 1\) : \(1, 0\)$"):
        parse_box("\n".join(lines))


@pytest.mark.parametrize("body", ["", "# no entries\n\n   # none\n"], ids=["empty", "comments-only"])
def test_a_body_without_entries_is_an_all_zero_table(body):
    box = _assert_parsers_agree(SPELLED_HEADER + body)
    assert box.denominator == 1
    assert box.table.shape == (12, 4, 2, 2)
    assert not box.table.any()


def test_batched_indices_equal_the_per_part_reader():
    rng = random.Random(26)
    sizes = (3, 12, 2)
    # (spellings, arities, parts) per batch; spelling 5 is canonical with one
    # non-integer symbol, and every batch has out-of-range symbols
    batches = (
        (range(1), (3,), boxio._BATCH),
        (range(6), (3,), boxio._BATCH),
        (range(6), (3, 3, 3, 3, 2, 4), boxio._BATCH),
        (range(1), (3,), 17),
    )
    parts = []
    for ways, arities, count in batches:
        for _ in range(count):
            n, way = rng.choice(arities), rng.choice(ways)
            symbols = [rng.randrange(size) if rng.random() < 0.95 else size for size in (sizes * 2)[:n]]
            words = [_spelled(v, way) for v in symbols]
            if way == 5:
                words[rng.randrange(n)] = "x"
            parts.append(rng.choice((" ", "  ", "\t")).join(words) + rng.choice(("", " ")))
    want = [-1 if (i := boxio._index(part, sizes)) is None else i for part in parts]
    assert boxio._indices(parts, sizes).tolist() == want
    assert sum(i >= 0 for i in want) > len(parts) // 2


def test_parsing_a_large_box_peaks_below_the_block_reader():
    text = serialize_box(make_bn_box(12))
    tracemalloc.start()
    try:
        parse_box(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the block reader this loop replaced peaked at 10.4 to 10.6 MB here
    # (Python 3.11.7, numpy 2.4); the loop peaks at 9.0 MB
    assert peak <= 10_500_000


@pytest.mark.parametrize(
    "box", [make_rb(5, 3, "plus"), make_bn_box(8), make_bnd_box(3, 4, "minus")],
    ids=["rb53plus", "bn8", "bnd34minus"],
)
def test_serialize_matches_the_line_serializer(box):
    assert serialize_box(box) == _serialize_lines(box)


# ``str.splitlines`` also breaks at these; a box file's lines end at "\n" only
OTHER_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", OTHER_LINE_BREAKS, ids=[hex(ord(c)) for c in OTHER_LINE_BREAKS])
def test_a_comment_holding_another_line_break_stays_one_line(char):
    box = make_bn_box(2)
    lines = serialize_box(box).split("\n")
    lines.insert(_body_line(lines, 1), f"# a comment with {char} inside")
    assert _assert_parsers_agree("\n".join(lines)) == box
    # a later fault is named at its newline-counted line
    last = len(lines) - 2
    lines[last] = lines[last].replace("= 1/2", "= not-a-number")
    with pytest.raises(ValueError, match=rf"^line {last + 1}: "):
        parse_box("\n".join(lines))
