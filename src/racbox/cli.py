"""Command-line front end for the box toolkit.

Subcommands: build, check-ns, simulate, compile, table, capacity, search,
feasibility.  Every subcommand supports ``--machine``, which switches the
output to one ``key=value`` record per line, deterministically ordered,
ending with ``status=pass|fail``, or ``status=error`` when the run stops
with exit code 2, a usage error included.

Exit codes: 0 the requested check passed (or the artifact was produced),
1 a verified claim failed, 2 usage error, malformed input file or a size
outside the admitted ones.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from math import prod
from typing import Sequence

from .boxes import (
    BND_SIGNS,
    RB_VARIANTS,
    check_no_signaling,
    check_normalization,
    check_rb_size,
    make_bn_box,
    make_bnd_box,
    make_rb,
)
from .boxio import parse_box, serialize_box
from .capacity import (
    BUILTIN_STRATEGIES,
    parse_capacity_strategy,
    verify_capacity_bound_bits,
    verify_capacity_bound_dits,
)
from .feasibility import BIT_CASES, TRIT_CASES, bit_case, guessing_feasibility, trit_case
from .infotheory import log_exponents, mutual_information, mutual_information_exponents
from .protocols import (
    ProtocolError,
    bn_box_via_rb,
    bnd_box_via_rb,
    channel_joint,
    induced_bbox,
    rac_via_bn_box,
    rac_via_bnd_box,
    rac_win_probability,
    resource_inequality_sim,
)
from .reports import ProbeReport, format_value
from .search import search_rac_with_rbs, serialize_strategy
from .wiring import (
    bound_table,
    check_tree_lemma,
    compile_rac,
    format_bound_table,
    to_dot,
    tree_win_probability_exact,
    tree_wins_always,
)

QUANTUM_P2 = (2 + 2 ** 0.5) / 4


class Emitter:
    """Collects records; prints key=value lines or free text depending on mode."""

    def __init__(self, machine: bool):
        self.machine = machine
        self._status: str | None = None

    def kv(self, key: str, value) -> None:
        if self.machine:
            print(f"{key}={format_value(value)}")

    def text(self, line: str) -> None:
        if not self.machine:
            print(line)

    def report(self, report: ProbeReport) -> None:
        if self.machine:
            for line in report.lines()[:-1]:  # status is emitted once, at the end
                print(line)
        else:
            print(f"claim: {report.claim}")
            if report.quantity is not None:
                print(f"  quantity {format_value(report.quantity)}"
                      + (f" vs bound {format_value(report.bound)}" if report.bound is not None else ""))
            if report.witness is not None:
                print(f"  witness: {report.witness}")
            for note in report.notes:
                print(f"  - {note}")

    def finish(self, passed: bool) -> int:
        if self.machine:
            print(f"status={'pass' if passed else 'fail'}")
        else:
            print("PASS" if passed else "FAIL")
        return 0 if passed else 1


def _build_box(params: dict):
    family = params["family"]
    n, d = params["n"], params["d"]
    if family == "bn":
        return make_bn_box(n)
    if family == "bnd":
        return make_bnd_box(n, d, params["sign"])
    return make_rb(n, d, params["variant"])


def _cmd_build(params: dict, em: Emitter) -> int:
    box = _build_box(params)
    rows = prod(box.signature.input_sizes)
    text = serialize_box(box)
    out = params.get("out")
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        em.text(f"wrote {rows} rows to {out}")
    else:
        print(text, end="")
    em.kv("family", params["family"])
    em.kv("rows", rows)
    if out:
        em.kv("out", out)
    return em.finish(True)


def _cmd_check_ns(params: dict, em: Emitter) -> int:
    with open(params["box"]) as fh:
        box = parse_box(fh.read())
    em.kv("box", params["box"])
    normalized = check_normalization(box)
    em.kv("normalized", normalized)
    directions = ["a2b", "b2a"] if params["direction"] == "both" else [params["direction"]]
    ok = normalized
    for direction in directions:
        good = check_no_signaling(box, direction)
        em.kv(f"no_signaling.{direction}", good)
        em.text(f"no signaling {direction}: {'yes' if good else 'NO'}")
        ok = ok and good
    if not normalized:
        em.text("box is not normalized")
    return em.finish(ok)


# the simulate flags each protocol does not read, refused when given
_UNREAD_FLAGS = {
    "rac-via-bn": ("d", "sign", "variant"),
    "rac-via-bnd": ("variant",),
    "bn-via-rb": ("d", "sign"),
    "bnd-via-rb": (),
    "resource-inequality": ("sign",),
}


def _cmd_simulate(params: dict, em: Emitter) -> int:
    protocol = params["protocol"]
    for flag in _UNREAD_FLAGS[protocol]:
        if params[flag] is not None:
            raise ValueError(f"{protocol} does not read --{flag}")
    # --d and --sign take their defaults here, so that a given flag can be told apart
    n = params["n"]
    d = 2 if params["d"] is None else params["d"]
    sign = params["sign"] or "plus"
    em.kv("protocol", protocol)
    em.kv("n", n)
    if protocol == "rac-via-bn":
        run = rac_via_bn_box(n)
        win = rac_win_probability(run)
        em.kv("win", win)
        em.text(f"{run.name}: wins with probability {win} (message alphabet {run.message_alphabet})")
        return em.finish(win == 1)
    if protocol == "rac-via-bnd":
        em.kv("d", d)
        em.kv("sign", sign)
        run = rac_via_bnd_box(n, d, sign)
        win = rac_win_probability(run)
        em.kv("win", win)
        em.text(f"{run.name}: wins with probability {win}")
        return em.finish(win == 1)
    if protocol == "bn-via-rb":
        if params.get("variant"):
            em.kv("variant", params["variant"])
        run = bn_box_via_rb(n, params.get("variant") or "nosignaling")
        ok = run.result == make_bn_box(n)
        em.kv("reproduced", ok)
        em.text(f"{run.name}: reproduces the target box {'exactly' if ok else 'NOT'}")
        return em.finish(ok)
    if protocol == "bnd-via-rb":
        em.kv("d", d)
        em.kv("sign", sign)
        variant = params.get("variant") or sign
        em.kv("variant", variant)
        run = bnd_box_via_rb(n, d, sign, rb_variant=variant)
        ok = run.result == make_bnd_box(n, d, sign)
        em.kv("reproduced", ok)
        em.text(f"{run.name}: reproduces the target box {'exactly' if ok else 'NOT'}")
        return em.finish(ok)
    # resource-inequality
    em.kv("d", d)
    variant = params.get("variant") or ("nosignaling" if d == 2 else "plus")
    em.kv("variant", variant)
    run, rep = resource_inequality_sim(n, d, variant)
    em.kv("erasure", rep.erasure_probability)
    em.kv("capacity", rep.capacity)
    target = make_bnd_box(n, d, "plus")
    reproduced = all(induced_bbox(run, z) == target for z in range(d))
    em.kv("reproduced", reproduced)
    channel = channel_joint(run)
    mi = mutual_information(channel, ["z"], ["zhat"], (), d)
    em.kv("channel_mi", f"{mi:.12f}")
    # I(z : zhat) = (1/n) log d, checked exactly
    saturated = mutual_information_exponents(channel, ["z"], ["zhat"]) == {
        p: e / n for p, e in log_exponents(d).items()
    }
    ok = rep.erasure_probability == Fraction(n - 1, n) and reproduced and saturated
    em.text(
        f"{run.name}: erasure {rep.erasure_probability}, capacity {rep.capacity}, "
        f"channel information {mi:.6f} (base {d}), box family reproduced: {reproduced}"
    )
    return em.finish(ok)


def _cmd_compile(params: dict, em: Emitter) -> int:
    n = params["n"]
    tree, cost = compile_rac(n)
    lemma = check_tree_lemma(tree)
    wins = tree_wins_always(tree)
    em.kv("n", n)
    em.kv("rb_count", cost.rb_count)
    em.kv("message_bits", cost.message_bits)
    em.kv("concatenation_uses", cost.concatenation_uses)
    em.kv("addition_uses", cost.addition_uses)
    em.kv("wins_always", wins)
    em.kv("tree_lemma", lemma.passed)
    ok = wins and lemma.passed
    if n <= 10:
        exact = tree_win_probability_exact(tree)
        em.kv("win_exhaustive", exact)
        ok = ok and exact == 1
    em.text(
        f"n={n}: {cost.rb_count} boxes, {cost.concatenation_uses} concatenations, "
        f"{cost.addition_uses} additions, 1 message bit; perfect decoding: {wins}"
    )
    dot = params.get("dot")
    if dot:
        with open(dot, "w") as fh:
            fh.write(to_dot(tree) + "\n")
        em.kv("dot", dot)
        em.text(f"wrote tree rendering to {dot}")
    return em.finish(ok)


def _cmd_table(params: dict, em: Emitter) -> int:
    nmax = params["nmax"]
    if nmax < 2:
        raise ValueError(f"need nmax >= 2, got {nmax}")
    p2s = params["p2"] or [0.75, QUANTUM_P2]
    ns = list(range(2, nmax + 1))
    rows = bound_table(ns, p2s)
    if em.machine:
        em.kv("nmax", nmax)
        for i, p in enumerate(p2s):
            em.kv(f"p.{i}", f"{p:.12f}")
        for row in rows:
            em.kv(f"n.{row.n}.boxes", row.rb_count)
            for i, v in enumerate(row.values):
                em.kv(f"n.{row.n}.win.{i}", f"{float(v):.12f}")
    else:
        headers = [f"p2={p:.6f}" for p in p2s]
        print(format_bound_table(rows, headers))
    return em.finish(True)


def _cmd_capacity(params: dict, em: Emitter) -> int:
    n, d = params["n"], params["d"]
    name = params["strategy"]
    # the game's RAC-box must fit before any strategy table is built or read
    check_rb_size(n, d)
    if name in BUILTIN_STRATEGIES:
        strategy = BUILTIN_STRATEGIES[name](n, d)
    else:
        try:
            with open(name) as fh:
                strategy = parse_capacity_strategy(fh.read())
        except FileNotFoundError:
            raise ValueError(
                f"unknown strategy {name!r}: expected a builtin "
                f"({', '.join(sorted(BUILTIN_STRATEGIES))}) or a strategy file"
            ) from None
        if strategy.n != n or strategy.d != d:
            raise ValueError(
                f"strategy file is for (n,d)=({strategy.n},{strategy.d}), "
                f"flags say ({n},{d})"
            )
    em.kv("n", n)
    em.kv("d", d)
    em.kv("strategy", strategy.name)
    report = (
        verify_capacity_bound_bits(n, strategy)
        if d == 2
        else verify_capacity_bound_dits(n, d, strategy)
    )
    em.report(report)
    return em.finish(report.passed)


def _cmd_search(params: dict, em: Emitter) -> int:
    n, k = params["n"], params["rbs"]
    result = search_rac_with_rbs(n, k)
    em.kv("n", n)
    em.kv("rbs", k)
    em.kv("max", result.max_win_probability)
    em.kv("examined", result.strategies_examined)
    em.kv("pruned", result.pruned)
    em.kv("complete", result.complete)
    em.kv("elapsed", f"{result.elapsed_seconds:.3f}")
    em.text(
        f"max win probability {result.max_win_probability} "
        f"({float(result.max_win_probability):.6f}); examined {result.strategies_examined}, "
        f"pruned {result.pruned}, complete: {result.complete}"
    )
    for i, note in enumerate(result.notes):
        em.kv(f"note.{i}", note)
        em.text(f"  - {note}")
    out = params.get("witness_out")
    if out:
        with open(out, "w") as fh:
            fh.write(serialize_strategy(result.witness))
        em.kv("witness", out)
        em.text(f"wrote witness strategy to {out}")
    elif not em.machine:
        print("witness strategy:")
        print(serialize_strategy(result.witness))
    return em.finish(True)


def _var_ints(params: dict, flag: str, what: str) -> list[tuple[str, int]]:
    """The ``var:int`` items of a comma-list flag, naming any item that is not one."""
    pairs = []
    for item in (params.get(flag) or "").split(","):
        item = item.strip()
        if not item:
            continue
        var, _, num = item.partition(":")
        try:
            pairs.append((var, int(num)))
        except ValueError:
            raise ValueError(f"--{flag} item {item!r} is not var:{what}") from None
    return pairs


def _cmd_feasibility(params: dict, em: Emitter) -> int:
    preset = params.get("preset")
    if preset:
        kind, _, which = preset.partition("-")
        if kind == "bit" and which in BIT_CASES:
            em.kv("preset", preset)
            report = bit_case(which)
        elif kind == "trit" and which.isdigit() and int(which) in TRIT_CASES:
            em.kv("preset", preset)
            report = trit_case(int(which))
        else:
            raise ValueError(f"unknown preset {preset!r}")
    else:
        constraints = _var_ints(params, "constraints", "messagevalue")
        independents = _var_ints(params, "vars", "alphabetsize")
        if not constraints or not independents:
            raise ValueError("need --preset, or both --constraints and --vars")
        report = guessing_feasibility(constraints, independents, params["message_size"])
    em.report(report)
    return em.finish(report.passed)


_COMMANDS = {
    "build": _cmd_build,
    "check-ns": _cmd_check_ns,
    "simulate": _cmd_simulate,
    "compile": _cmd_compile,
    "table": _cmd_table,
    "capacity": _cmd_capacity,
    "search": _cmd_search,
    "feasibility": _cmd_feasibility,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="racbox",
        description="Exact simulation and verification of no-signaling boxes, "
        "random access codes, and the protocols connecting them.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--machine", action="store_true",
        help="emit key=value records ending with status=pass|fail|error",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("build", parents=[common], help="construct a box and serialize it")
    p.add_argument("--family", choices=["bn", "bnd", "rb"], default="bn")
    p.add_argument("--n", type=int, default=2, help="number of inputs (default 2)")
    p.add_argument("--d", type=int, default=2, help="alphabet size (default 2)")
    p.add_argument("--sign", choices=list(BND_SIGNS), default="plus")
    p.add_argument("--variant", choices=list(RB_VARIANTS), default="nosignaling")
    p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("check-ns", parents=[common], help="no-signaling check on a box file")
    p.add_argument("--box", required=True, help="serialized box file")
    p.add_argument("--direction", choices=["a2b", "b2a", "both"], default="both")

    p = sub.add_parser("simulate", parents=[common], help="run an exact protocol simulation")
    p.add_argument(
        "--protocol", required=True,
        choices=["rac-via-bn", "rac-via-bnd", "bn-via-rb", "bnd-via-rb", "resource-inequality"],
    )
    p.add_argument("--n", type=int, default=2, help="number of inputs (default 2)")
    p.add_argument("--d", type=int,
                   help="alphabet size (default 2), refused by rac-via-bn and bn-via-rb")
    p.add_argument("--sign", choices=list(BND_SIGNS),
                   help="family sign (default plus), read only by rac-via-bnd and bnd-via-rb")
    p.add_argument("--variant", choices=list(RB_VARIANTS),
                   help="RAC-box variant override (refused by the rac-via-* protocols)")

    p = sub.add_parser("compile", parents=[common], help="compile an n->1 code and verify it")
    p.add_argument("--n", type=int, default=2, help="database size (default 2)")
    p.add_argument("--dot", help="write a graphviz rendering here")

    p = sub.add_parser("table", parents=[common], help="winning-probability table of compiled codes")
    p.add_argument("--nmax", type=int, default=10, help="largest n (default 10)")
    p.add_argument(
        "--p2", type=float, action="append",
        help="box quality, repeatable (default 0.75 and the quantum value (2+sqrt 2)/4)",
    )

    p = sub.add_parser("capacity", parents=[common], help="verify the channel-information bound")
    p.add_argument("--n", type=int, default=2, help="number of inputs (default 2)")
    p.add_argument("--d", type=int, default=2, help="alphabet size (default 2)")
    p.add_argument(
        "--strategy", default="protocol",
        help="builtin name (protocol, send-x1, ignore-rb) or a strategy file (default protocol)",
    )

    p = sub.add_parser("search", parents=[common], help="exhaustive strategy search")
    p.add_argument("--n", type=int, default=2, help="database size (default 2)")
    p.add_argument("--rbs", type=int, default=1, help="number of boxes (default 1)")
    p.add_argument("--witness-out", help="write the witness strategy to this file")

    p = sub.add_parser("feasibility", parents=[common], help="perfect-guess feasibility check")
    p.add_argument(
        "--preset",
        help="bit-a..bit-d or trit-1..trit-8 (the catalogued case families)",
    )
    p.add_argument("--constraints", help="comma list var:messagevalue")
    p.add_argument("--vars", help="comma list var:alphabetsize")
    p.add_argument("--message-size", type=int, default=2, help="message alphabet (default 2)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse takes any unambiguous prefix of --machine for the flag
        if exc.code == 2 and any(len(tok) >= 3 and "--machine".startswith(tok) for tok in argv):
            print("status=error")
        raise
    params = {k: v for k, v in vars(args).items() if k not in ("subcommand", "machine")}
    try:
        return _COMMANDS[args.subcommand](params, Emitter(args.machine))
    except (OSError, ValueError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.machine:
            print("status=error")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
