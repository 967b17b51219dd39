"""Golden ``--machine`` output: each command's stdout must match its file byte for byte.

The files under ``tests/golden/`` were captured from the CLI before box tables
became integer-numerator arrays, and ``capacity-send-x1-2-2`` before joint
distributions became integer counts: its quantity, 1 - h(1/4), is an
irrational float whose last digits depend on the order of summation.  Any
change to a record, its order or its formatting shows up here.  ``search``
output is compared record for record except ``elapsed=``, which varies from
run to run; the (3,1) and (5,4) files were captured while strategy tables
were still held as positional encoder and decoder lists, and the (4,1) file
while the search's win-count table still held Bob's table index first.  The
``compile`` outputs and the Graphviz file of the 7-bit tree were captured
before the wiring evaluators moved onto one flat form of the tree.  The two
larger ``capacity`` outputs, (6,3) and (8,2), were captured before the
protocol executor became one whole-array pass.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from racbox.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "build-bn-3": ["build", "--family", "bn", "--n", "3"],
    "build-rb-3-3-three": ["build", "--family", "rb", "--n", "3", "--d", "3", "--variant", "three"],
    "build-bnd-2-5-minus": ["build", "--family", "bnd", "--n", "2", "--d", "5", "--sign", "minus"],
    "check-ns-rb-mixture": ["check-ns", "--box", "rb-mixture.box"],
    "simulate-rac-via-bn-4": ["simulate", "--protocol", "rac-via-bn", "--n", "4"],
    "simulate-rac-via-bnd-3-3-minus": [
        "simulate", "--protocol", "rac-via-bnd", "--n", "3", "--d", "3", "--sign", "minus"],
    "simulate-bn-via-rb-5": ["simulate", "--protocol", "bn-via-rb", "--n", "5"],
    "simulate-bnd-via-rb-3-3-plus-three": [
        "simulate", "--protocol", "bnd-via-rb", "--n", "3", "--d", "3", "--variant", "three"],
    "simulate-ri-6-3": ["simulate", "--protocol", "resource-inequality", "--n", "6", "--d", "3"],
    "simulate-ri-3-3-three": [
        "simulate", "--protocol", "resource-inequality", "--n", "3", "--d", "3", "--variant", "three"],
    "capacity-protocol-3-3": ["capacity", "--n", "3", "--d", "3"],
    "capacity-protocol-6-3": ["capacity", "--n", "6", "--d", "3"],
    "capacity-protocol-8-2": ["capacity", "--n", "8", "--d", "2"],
    "capacity-send-x1-2-2": ["capacity", "--n", "2", "--d", "2", "--strategy", "send-x1"],
    "capacity-ignore-rb-2-3": ["capacity", "--n", "2", "--d", "3", "--strategy", "ignore-rb"],
    "table-10": ["table", "--nmax", "10"],
    "compile-7": ["compile", "--n", "7"],
    "compile-16": ["compile", "--n", "16"],
    "feasibility-trit-3": ["feasibility", "--preset", "trit-3"],
}


def machine_stdout(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        main(argv + ["--machine"])
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_machine_output_matches_golden(name, monkeypatch):
    # check-ns names its box file in a record, so it is given relative to GOLDEN
    monkeypatch.chdir(GOLDEN)
    assert machine_stdout(CASES[name]) == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("n, rbs", [(3, 1), (4, 1), (5, 4)])
def test_search_output_matches_golden_but_for_elapsed(n, rbs):
    def records(text):
        # the elapsed record keeps its key and place, not its value
        return [line.partition("=")[0] if line.startswith("elapsed=") else line
                for line in text.splitlines()]

    got = machine_stdout(["search", "--n", str(n), "--rbs", str(rbs)])
    assert records(got) == records((GOLDEN / f"search-{n}-{rbs}.out").read_text())


def test_dot_file_matches_golden(tmp_path):
    out = tmp_path / "tree.dot"
    machine_stdout(["compile", "--n", "7", "--dot", str(out)])
    assert out.read_text() == (GOLDEN / "compile-7.dot").read_text()
