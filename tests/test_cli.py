"""The racbox command: every subcommand, exit codes, machine-output stability."""

import io
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import racbox
from racbox.cli import QUANTUM_P2, build_parser, main
from racbox.search import parse_strategy
from test_boxio import HUGE_BOX, NON_INTEGER_SIZE


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def machine_dict(out):
    pairs = [line.split("=", 1) for line in out.strip().splitlines()]
    return {k: v for k, v in pairs}


def test_simulate_rac_via_bn():
    code, out = run_cli("simulate", "--protocol", "rac-via-bn", "--n", "4", "--machine")
    assert code == 0
    d = machine_dict(out)
    assert d["win"] == "1/1"
    assert d["status"] == "pass"
    assert out.strip().splitlines()[-1] == "status=pass"


def test_simulate_bn_via_rb_runs_the_given_variant():
    code, out = run_cli("simulate", "--protocol", "bn-via-rb", "--n", "3",
                        "--variant", "signalinghalf", "--machine")
    assert code == 1
    d = machine_dict(out)
    assert d["variant"] == "signalinghalf"
    assert d["reproduced"] == "false"
    assert out.strip().splitlines()[-1] == "status=fail"
    code, out = run_cli("simulate", "--protocol", "bn-via-rb", "--n", "3",
                        "--variant", "nosignaling", "--machine")
    assert code == 0 and machine_dict(out)["reproduced"] == "true"


@pytest.mark.parametrize("protocol", ["rac-via-bn", "rac-via-bnd"])
def test_simulate_refuses_a_variant_where_no_box_variant_is_used(protocol, capsys):
    code, out = run_cli("simulate", "--protocol", protocol, "--variant", "three", "--machine")
    assert code == 2
    assert out.strip().splitlines()[-1] == "status=error"
    assert "--variant" in capsys.readouterr().err


@pytest.mark.parametrize("protocol,flag,value", [
    ("rac-via-bn", "--d", "2"),
    ("rac-via-bn", "--sign", "minus"),
    ("bn-via-rb", "--d", "5"),
    ("bn-via-rb", "--sign", "plus"),
    ("resource-inequality", "--sign", "minus"),
])
def test_simulate_refuses_a_flag_its_protocol_does_not_read(protocol, flag, value, capsys):
    # refused even when the value given is the default one
    code, out = run_cli("simulate", "--protocol", protocol, "--n", "3", flag, value, "--machine")
    assert code == 2
    assert out.strip().splitlines() == ["status=error"]
    assert f"{protocol} does not read {flag}" in capsys.readouterr().err


def test_simulate_resource_inequality():
    code, out = run_cli(
        "simulate", "--protocol", "resource-inequality", "--n", "4", "--machine"
    )
    assert code == 0
    d = machine_dict(out)
    assert d["erasure"] == "3/4"
    assert d["capacity"] == "1/4"
    assert d["reproduced"] == "true"


def test_build_then_check_ns_flags_signaling(tmp_path):
    box_file = tmp_path / "shalf.box"
    code, _ = run_cli(
        "build", "--family", "rb", "--variant", "signalinghalf",
        "--out", str(box_file), "--machine",
    )
    assert code == 0
    code, out = run_cli("check-ns", "--box", str(box_file), "--direction", "a2b", "--machine")
    assert code == 1
    d = machine_dict(out)
    assert d["no_signaling.a2b"] == "false"
    assert d["status"] == "fail"
    code, out = run_cli("check-ns", "--box", str(box_file), "--direction", "b2a", "--machine")
    assert code == 0


def test_check_ns_passes_clean_box(tmp_path):
    box_file = tmp_path / "b3.box"
    run_cli("build", "--family", "bn", "--n", "3", "--out", str(box_file))
    code, out = run_cli("check-ns", "--box", str(box_file), "--machine")
    assert code == 0
    d = machine_dict(out)
    assert d["no_signaling.a2b"] == "true"
    assert d["no_signaling.b2a"] == "true"


def test_build_to_stdout_parses():
    code, out = run_cli("build", "--family", "bnd", "--n", "2", "--d", "3", "--sign", "minus")
    assert code == 0
    assert "var alice input" in out


def test_compile_subcommand():
    code, out = run_cli("compile", "--n", "7", "--machine")
    assert code == 0
    d = machine_dict(out)
    assert d["rb_count"] == "6"
    assert d["wins_always"] == "true"


def test_compile_writes_dot(tmp_path):
    dot_file = tmp_path / "tree.dot"
    code, _ = run_cli("compile", "--n", "5", "--dot", str(dot_file), "--machine")
    assert code == 0
    assert dot_file.read_text().startswith("digraph")


def test_table_includes_frozen_row():
    code, out = run_cli("table", "--nmax", "10")
    assert code == 0
    assert "0.687237" in out
    assert "0.750000" in out


def test_table_machine_mode_twelve_decimals():
    code, out = run_cli("table", "--nmax", "7", "--machine")
    assert code == 0
    d = machine_dict(out)
    assert d["n.7.win.1"] == "0.687237167397"
    assert d["n.2.win.0"] == "0.750000000000"


def test_machine_output_is_line_stable():
    _, first = run_cli("table", "--nmax", "6", "--machine")
    _, second = run_cli("table", "--nmax", "6", "--machine")
    assert first == second


def test_capacity_subcommand_builtin():
    code, out = run_cli("capacity", "--n", "2", "--d", "2", "--machine")
    assert code == 0
    d = machine_dict(out)
    assert d["bound"] == "1/2"
    assert d["status"] == "pass"
    assert any(k.startswith("note.") and "premise met" in v for k, v in d.items())


def test_capacity_subcommand_at_four_inputs_of_five_symbols():
    code, out = run_cli("capacity", "--n", "4", "--d", "5", "--machine")
    assert code == 0
    d = machine_dict(out)
    assert d["bound"] == "1/4"
    assert d["status"] == "pass"


def test_capacity_subcommand_failing_strategy():
    code, out = run_cli("capacity", "--strategy", "ignore-rb", "--machine")
    assert code == 1
    assert machine_dict(out)["status"] == "fail"


def test_capacity_strategy_from_file(tmp_path):
    from racbox.capacity import protocol_strategy, serialize_capacity_strategy

    path = tmp_path / "s.strat"
    path.write_text(serialize_capacity_strategy(protocol_strategy(2, 3)))
    code, out = run_cli("capacity", "--n", "2", "--d", "3", "--strategy", str(path), "--machine")
    assert code == 0
    code, _ = run_cli("capacity", "--n", "3", "--d", "3", "--strategy", str(path))
    assert code == 2  # file/flag mismatch is a usage error


@pytest.mark.parametrize("edit", ["repeat-m", "stray"])
def test_capacity_strategy_file_with_a_repeated_or_stray_table_is_a_usage_error(tmp_path, edit):
    from racbox.capacity import protocol_strategy, serialize_capacity_strategy

    text = serialize_capacity_strategy(protocol_strategy(2, 3))
    if edit == "repeat-m":
        block = text[text.index("table m "):text.index("table X ")]
        text = text.replace(block, block + block)
    else:
        text += "\ntable stray 2\nin x 2\nentries\n0 1\n"
    path = tmp_path / "s.strat"
    path.write_text(text)
    code, out = run_cli("capacity", "--n", "2", "--d", "3", "--strategy", str(path), "--machine")
    assert code == 2
    assert out.strip().splitlines()[-1] == "status=error"


def test_capacity_strategy_file_without_its_n_line_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "s.strat"
    path.write_text("strategy-kind capacity\nd 2\n")
    code, out = run_cli("capacity", "--n", "2", "--d", "2", "--strategy", str(path), "--machine")
    assert code == 2
    assert out.strip().splitlines()[-1] == "status=error"
    assert "missing preamble line 'n'" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["40", "100000"])
@pytest.mark.parametrize("strategy", ["protocol", "ignore-rb", "file"])
def test_capacity_past_the_box_table_limit_is_a_usage_error(n, strategy, tmp_path, capsys):
    # refused by the RAC-box size check before any strategy table is built
    # (at n = 40 the protocol's tables alone would need 8 TiB) or read
    if strategy == "file":
        path = tmp_path / "s.strat"
        path.write_text(f"strategy-kind capacity\nn {n}\nd 2\n")
        strategy = str(path)
    t0 = time.monotonic()
    code, out = run_cli("capacity", "--n", n, "--strategy", strategy, "--machine")
    assert time.monotonic() - t0 < 1.0
    assert code == 2
    assert out.strip().splitlines()[-1] == "status=error"
    assert "more than the limit of 10000000" in capsys.readouterr().err


def test_search_subcommand_writes_witness(tmp_path):
    witness = tmp_path / "w.strat"
    code, out = run_cli(
        "search", "--n", "3", "--rbs", "1", "--witness-out", str(witness), "--machine"
    )
    assert code == 0
    d = machine_dict(out)
    assert d["max"] == "5/6"
    assert d["complete"] == "true"
    strat = parse_strategy(witness.read_text())
    assert strat.n == 3


def _usage_error_stdout(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf), pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return buf.getvalue()


def test_search_budget_flag_is_gone():
    # the search stops at its admitted sizes, never at a clock
    out = _usage_error_stdout("search", "--n", "4", "--rbs", "1", "--budget", "0", "--machine")
    assert out == "status=error\n"


def test_search_unsupported_scale_is_usage_error():
    code, _ = run_cli("search", "--n", "6", "--rbs", "1")
    assert code == 2


def test_search_past_the_tree_witness_cap_is_usage_error():
    code, out = run_cli("search", "--n", "10", "--rbs", "9", "--machine")
    assert code == 2
    assert out.strip().splitlines()[-1] == "status=error"


def test_compile_past_the_size_cap_is_usage_error():
    code, out = run_cli("compile", "--n", str(2 ** 16 + 1), "--machine")
    assert code == 2
    assert out.strip().splitlines() == ["status=error"]



def test_table_past_the_size_cap_is_usage_error(capsys):
    code, out = run_cli("table", "--nmax", str(10 ** 6), "--machine")
    assert code == 2
    assert out.strip().splitlines() == ["status=error"]
    assert "exceeds the table cap of 512" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("check-ns", "--box", "{}"),
    ("capacity", "--strategy", "{}"),
    ("build", "--out", "{}"),
    ("compile", "--n", "3", "--dot", "{}"),
    ("search", "--n", "3", "--rbs", "2", "--witness-out", "{}"),
], ids=["check-ns", "capacity", "build", "compile", "search"])
def test_a_directory_in_place_of_a_file_is_usage_error(tmp_path, argv):
    code, out = run_cli(*(arg.format(tmp_path) for arg in argv), "--machine")
    assert code == 2
    assert out.strip().splitlines()[-1] == "status=error"

def test_table_rejects_p2_outside_the_unit_interval():
    code, out = run_cli("table", "--p2", "1.7", "--machine")
    assert code == 2
    assert out.strip().splitlines()[-1] == "status=error"


def test_machine_errors_end_with_a_status_line(tmp_path):
    code, out = run_cli(
        "simulate", "--protocol", "resource-inequality", "--n", "1", "--machine"
    )
    assert code == 2
    assert out.strip().splitlines()[-1] == "status=error"
    bad = tmp_path / "bad.box"
    bad.write_text("var alice input x 2\nvar bob output Y 2\n0 : 5 = 1\n")
    code, out = run_cli("check-ns", "--box", str(bad), "--machine")
    assert code == 2
    assert out.strip().splitlines() == ["status=error"]
    # a header declaring 10^8 inputs is refused before the table is densified
    huge = tmp_path / "huge.box"
    huge.write_text(HUGE_BOX)
    code, out = run_cli("check-ns", "--box", str(huge), "--machine")
    assert code == 2
    assert out.strip().splitlines() == ["status=error"]


@pytest.mark.parametrize("argv", [
    ("build", "--family", "bn"), ("build", "--family", "rb"), ("simulate", "--protocol", "rac-via-bn"),
])
def test_a_huge_box_family_exits_2_with_the_table_size_message(capsys, argv):
    # the exact count would have more digits than Python formats
    code, out = run_cli(*argv, "--n", "100000", "--machine")
    assert code == 2
    assert out.strip().splitlines()[-1] == "status=error"
    assert "cells (input rows x output cells), more than the limit" in capsys.readouterr().err


def test_check_ns_on_a_non_integer_wire_size_names_the_line(tmp_path, capsys):
    box = tmp_path / "words.box"
    box.write_text(NON_INTEGER_SIZE)
    code, out = run_cli("check-ns", "--box", str(box), "--machine")
    assert code == 2
    assert out.strip().splitlines() == ["status=error"]
    assert "error: line 1: wire size 'two' is not an integer" in capsys.readouterr().err


BIT_HEADER = "var alice input x 2\nvar alice output X 2\nvar bob input y 2\nvar bob output Y 2\n\n"


@pytest.mark.parametrize(
    "body, message",
    [
        ("0 0 : 0 0 = 1/2\n0 0 : 0 0 = 1/2\n", "line 7: duplicate entry for (0, 0) : (0, 0)"),
        ("0 0 = 1/2 : 0 0\n", "line 6: not enough values to unpack (expected 2, got 1)"),
    ],
    ids=["duplicate", "equals-first"],
)
def test_check_ns_names_the_line_of_a_bad_entry(tmp_path, capsys, body, message):
    box = tmp_path / "bad.box"
    box.write_text(BIT_HEADER + body)
    code, out = run_cli("check-ns", "--box", str(box), "--machine")
    assert code == 2
    assert out.strip().splitlines()[-1] == "status=error"
    assert capsys.readouterr().err == f"error: {message}\n"


def test_check_ns_refuses_a_huge_exponent_at_once(tmp_path, capsys):
    # Fraction("1e10000000") alone takes seconds; the token is refused unread
    box = tmp_path / "huge-exponent.box"
    box.write_text(BIT_HEADER + "0 0 : 0 0 = 1e10000000\n")
    code, out = run_cli("check-ns", "--box", str(box), "--machine")
    assert code == 2
    assert out.strip().splitlines()[-1] == "status=error"
    assert capsys.readouterr().err.startswith(
        "error: line 6: probability 1e10000000 has an exponent past the digit limit")


def test_feasibility_presets():
    code, out = run_cli("feasibility", "--preset", "bit-c", "--machine")
    assert code == 1
    d = machine_dict(out)
    assert d["witness"] == "P(atilde_0=1,atilde_1=1)=0"
    code, out = run_cli("feasibility", "--preset", "trit-1", "--machine")
    assert code == 0


def test_a_report_prints_its_claim_witness_and_verdict_for_people():
    code, out = run_cli("feasibility", "--preset", "trit-3")
    assert code == 1
    assert out.splitlines() == [
        "claim: a 3-ary message can reveal each promised variable on cue",
        "  quantity 7/9 vs bound 1/1",
        "  witness: P(A=2,x_1=1)=0",
        "  - no choice of guess constants covers the input space",
        "  - best cover reaches 7/9 of it",
        "  - the named cell is uncovered under the canonical constants "
        "(ascending message values guess 0,1,2,... per variable)",
        "FAIL",
    ]


@pytest.mark.parametrize("argv,code,status", [
    (["search", "--n", "3", "--rbs", "1"], 0, "status=pass"),
    (["table", "--nmax", "1"], 2, "status=error"),
], ids=["search", "table-error"])
def test_python_dash_m_runs_the_command(argv, code, status):
    src = str(Path(racbox.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "racbox", *argv, "--machine"], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == code
    assert proc.stdout.splitlines()[-1] == status


def test_feasibility_refuses_an_oversized_exhaustive_search_at_once(capsys):
    # 1,000 cells times 10^6 guess combinations: each factor is under the
    # limit, their product is the work, and would take over an hour
    start = time.monotonic()
    code, out = run_cli(
        "feasibility", "--constraints", "u0:0,u1:1,u2:2,u0:3,u1:4,u2:5",
        "--vars", "u0:10,u1:10,u2:10", "--message-size", "6", "--machine",
    )
    assert time.monotonic() - start < 1
    assert code == 2
    assert out.strip().splitlines()[-1] == "status=error"
    assert "more than the limit" in capsys.readouterr().err


def test_feasibility_custom_instance():
    code, out = run_cli(
        "feasibility", "--constraints", "u:0,v:1", "--vars", "u:2,v:2",
        "--message-size", "2", "--machine",
    )
    assert code == 1
    assert machine_dict(out)["quantity"] == "3/4"


@pytest.mark.parametrize("flag,value,item,form", [
    ("--constraints", "u", "'u'", "var:messagevalue"),
    ("--constraints", "v:1, u:x", "'u:x'", "var:messagevalue"),
    ("--vars", "u", "'u'", "var:alphabetsize"),
    ("--vars", "u:2:3", "'u:2:3'", "var:alphabetsize"),
])
def test_feasibility_names_the_item_it_cannot_read(capsys, flag, value, item, form):
    args = {"--constraints": "u:0", "--vars": "u:2", flag: value}
    code, out = run_cli("feasibility", *(x for kv in args.items() for x in kv), "--machine")
    assert code == 2
    assert out.strip().splitlines()[-1] == "status=error"
    assert capsys.readouterr().err == f"error: {flag} item {item} is not {form}\n"


def test_feasibility_without_arguments_is_usage_error():
    code, _ = run_cli("feasibility")
    assert code == 2


def test_missing_box_file_is_usage_error():
    code, _ = run_cli("check-ns", "--box", "/nonexistent/file.box")
    assert code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["table", "--frobnicate"])
    assert exc.value.code == 2


def test_usage_error_under_machine_ends_in_status_error(capsys):
    assert _usage_error_stdout("build", "--n", "x", "--machine") == "status=error\n"
    assert "invalid int value" in capsys.readouterr().err
    assert _usage_error_stdout("table", "--frobnicate", "--machine") == "status=error\n"
    assert _usage_error_stdout("build", "--n", "x") == ""


def test_usage_error_under_an_abbreviated_machine_flag_ends_in_status_error():
    # argparse accepts --mach for --machine, so the error record must follow it
    assert _usage_error_stdout("build", "--n", "x", "--mach") == "status=error\n"
    assert _usage_error_stdout("search", "--n", "four", "--m") == "status=error\n"


def test_the_one_parser_carries_nothing_from_call_to_call():
    # main reuses one parser per process, so every call must start from its defaults
    assert build_parser() is build_parser()
    code, out = run_cli("table", "--nmax", "3", "--p2", "0.6", "--machine")
    assert code == 0
    assert (machine_dict(out)["p.0"], "p.1" in machine_dict(out)) == ("0.600000000000", False)
    code, out = run_cli("table", "--nmax", "3", "--machine")
    assert code == 0
    d = machine_dict(out)
    assert (d["p.0"], d["p.1"]) == ("0.750000000000", f"{QUANTUM_P2:.12f}")
    # a usage error after a successful call still ends in its status record
    assert _usage_error_stdout("build", "--n", "x", "--mach") == "status=error\n"
    buf = io.StringIO()
    with redirect_stdout(buf), pytest.raises(SystemExit) as exc:
        main(["table", "--help"])
    assert exc.value.code == 0
    assert "--p2" in buf.getvalue()


def test_help_documents_defaults():
    for sub, token in (
        ("simulate", "default 2"),
        ("table", "default 10"),
        ("search", "default 1"),
    ):
        buf = io.StringIO()
        with redirect_stdout(buf), pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        assert token in buf.getvalue()
