"""The four workloads: seeded inputs, racbox calls and derived verdicts.

An item is one grid cell together with all of its checks.  ``build(name,
seed, tmp)`` draws every input from ``random.Random(seed)`` before any
timing starts; the item functions then receive only those inputs and call
racbox through ``api`` (see layers.py).  Each check compares a racbox
verdict with a value derived from how the input was built (reference.py),
and each workload carries negative controls that count as correct only
when the check fails.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from typing import Callable

import reference

F = Fraction
QUANTUM = (2 + 2 ** 0.5) / 4
DIRECTIONS = ("a2b", "b2a")


@dataclass(frozen=True)
class Item:
    id: str
    run: Callable  # run(api, ck) -> observation (hashable summary of the verdicts)


@dataclass(frozen=True)
class Workload:
    name: str
    items: tuple[Item, ...]
    reference: str  # id of the reference item


def _item(items: list[Item], item_id: str, fn: Callable, *args) -> None:
    items.append(Item(item_id, partial(fn, *args)))


# --- equivalence-grid --------------------------------------------------------


def _ri_cell(n, d, variant, api, ck):
    run, report = api.resource_inequality_sim(n, d, variant)
    ck.expect(report.erasure_probability == F(n - 1, n), "protocols", "erasure (n-1)/n")
    target = api.make_bnd_box(n, d, "plus")
    for z in range(d):
        ck.expect(api.box_equal(api.induced_bbox(run, z), target), "protocols",
                  f"induced box at z={z}")
    mi = api.mutual_information(api.channel_joint(run), ["z"], ["zhat"], (), d)
    ck.expect(abs(mi - 1.0 / n) <= 1e-9, "infotheory", f"channel information {mi}")
    return report.erasure_probability, round(mi, 12)


def _rac_via_bn(n, api, ck):
    win = api.rac_win_probability(api.rac_via_bn_box(n))
    ck.expect(win == 1, "protocols", f"code via box won {win}")
    return win


def _bn_via_rb(n, api, ck):
    same = api.box_equal(api.bn_box_via_rb(n).result, api.make_bn_box(n))
    ck.expect(same, "protocols", "box via resource")
    return same


def _rac_via_bnd(n, d, sign, api, ck):
    win = api.rac_win_probability(api.rac_via_bnd_box(n, d, sign))
    ck.expect(win == 1, "protocols", f"code via box won {win}")
    return win


def _bnd_via_rb(n, d, sign, variant, api, ck):
    # Only the group-law completion matching the sign extends to the box
    # family; "three" at d >= 3 must not reproduce it.
    same = api.box_equal(api.bnd_box_via_rb(n, d, sign, rb_variant=variant).result,
                         api.make_bnd_box(n, d, sign))
    ck.expect(same == (variant == sign), "protocols", f"box via {variant} resource: {same}")
    return same


def _backward_resource(n, d, text, api, ck):
    resource = api.parse_box(text)
    ck.expect(not api.check_no_signaling(resource, "b2a"), "boxes", "b2a signaling unseen")
    iface = api.BoxSignature(
        alice_inputs=tuple((f"x_{i}", d) for i in range(1, n)),
        alice_outputs=(("X", d),),
        bob_inputs=(("y", n),),
        bob_outputs=(("Y", d),),
    )
    with ck.rejects(api.ProtocolError, "protocols", "backward-signaling resource"):
        api.run_box_protocol(
            "backward", resource, iface,
            alice_box_inputs=lambda x, s: (0,) + tuple(x[f"x_{i}"] for i in range(1, n)),
            bob_box_inputs=lambda tb, m, s: (0, tb["y"]),
            alice_outputs=lambda x, a_out, s: {"X": a_out["A"]},
            bob_outputs=lambda tb, b_out, m, s: {"Y": b_out["B"]},
        )
    return "rejected"


def _cli_simulate(n, d, api, ck):
    code, out = api.cli(["simulate", "--protocol", "resource-inequality",
                         "--n", str(n), "--d", str(d), "--machine"])
    records = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
    ck.expect(code == 0, "cli", f"exit {code}")
    ck.expect(records.get("erasure") == f"{n - 1}/{n}", "cli", "erasure record")
    ck.expect(records.get("reproduced") == "true", "cli", "reproduced record")
    ck.expect(records.get("status") == "pass", "cli", "status record")
    return code, out


def equivalence_grid(rng: random.Random, tmp: str) -> Workload:
    items: list[Item] = []
    for n in range(2, 7):
        for d in (2, 3):
            # every no-signaling completion gives the same channel and box
            completions = ("nosignaling", "plus", "minus", "three") if d == 2 else ("plus", "minus", "three")
            _item(items, f"ri/{n},{d}", _ri_cell, n, d, rng.choice(completions))
    for n in range(2, 9):
        _item(items, f"rac-via-bn/{n}", _rac_via_bn, n)
        _item(items, f"bn-via-rb/{n}", _bn_via_rb, n)
    for n, d in ((2, 3), (3, 3), (2, 5), (3, 5)):
        for sign in ("plus", "minus"):
            _item(items, f"rac-via-bnd/{n},{d},{sign}", _rac_via_bnd, n, d, sign)
            _item(items, f"bnd-via-rb/{n},{d},{sign}", _bnd_via_rb, n, d, sign, sign)
    _item(items, "control/bnd-via-three", _bnd_via_rb, 3, 5, rng.choice(("plus", "minus")), "three")
    _item(items, "control/backward-resource", _backward_resource, 3, 3,
          reference.backward_signaling_text(3, 3, rng.randrange(3)))
    _item(items, "cli/simulate", _cli_simulate, 6, 3)
    return Workload("equivalence-grid", tuple(items), "ri/6,3")


# --- signaling-sweep ---------------------------------------------------------


def _checks(api, ck, box, a2b: bool, what: str) -> tuple[bool, bool, bool]:
    norm = api.check_normalization(box)
    got = tuple(api.check_no_signaling(box, direction) for direction in DIRECTIONS)
    ck.expect(norm, "boxes", f"{what}: normalization")
    ck.expect(got == (a2b, True), "boxes", f"{what}: no-signaling (a2b, b2a) = {got}")
    return (norm,) + got


_MAKERS = {
    "bn": lambda api, n, d, v: api.make_bn_box(n),
    "bnd": lambda api, n, d, v: api.make_bnd_box(n, d, v),
    "rb": lambda api, n, d, v: api.make_rb(n, d, v),
}


def _constructed(family, n, d, variant, api, ck):
    box = _MAKERS[family](api, n, d, variant)
    return _checks(api, ck, box, variant != "signalinghalf", f"{family}({n},{d},{variant})")


def _round_trip(family, n, d, variant, api, ck):
    box = _MAKERS[family](api, n, d, variant)
    text = api.serialize_box(box)
    parsed = api.parse_box(text)
    ck.expect(api.box_equal(parsed, box), "boxio", "parse(serialize(box)) != box")
    return _checks(api, ck, parsed, variant != "signalinghalf", f"parsed {family}({n},{d},{variant})")


def _mixture(weights, text, api, ck):
    # A convex mixture of no-signaling boxes is no-signaling; any positive
    # weight on signalinghalf moves Bob's marginal with a_b (1/2 + w/4).
    box = api.parse_box(text)
    return _checks(api, ck, box, "signalinghalf" not in weights, f"mixture {weights}")


def _cli_build_check(n, d, variant, path, api, ck):
    code, _ = api.cli(["build", "--family", "rb", "--n", str(n), "--d", str(d),
                       "--variant", variant, "--out", path, "--machine"])
    ck.expect(code == 0, "cli", f"build exit {code}")
    code, out = api.cli(["check-ns", "--box", path, "--machine"])
    signals = variant == "signalinghalf"
    ck.expect(code == (1 if signals else 0), "cli", f"check-ns exit {code}")
    ck.expect(f"no_signaling.a2b={'false' if signals else 'true'}" in out.splitlines(),
              "cli", "a2b record")
    return code, out


def signaling_sweep(rng: random.Random, tmp: str) -> Workload:
    items: list[Item] = []
    for n in range(2, 6):
        _item(items, f"bn/{n}", _constructed, "bn", n, 2, "")
        for d in range(2, 6):
            for sign in ("plus", "minus"):
                _item(items, f"bnd/{n},{d},{sign}", _constructed, "bnd", n, d, sign)
            for variant in ("plus", "minus", "three"):
                _item(items, f"rb/{n},{d},{variant}", _constructed, "rb", n, d, variant)
        _item(items, f"rb/{n},2,nosignaling", _constructed, "rb", n, 2, "nosignaling")
        _item(items, f"control/rb/{n},2,signalinghalf", _constructed, "rb", n, 2, "signalinghalf")
    for n, d in ((3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4), (2, 5)):
        # At d = 2 the no-signaling completions coincide, so a d = 2 mixture
        # pairs nosignaling with signalinghalf (a negative control), except
        # the positive control at n = 4.  The seed draws the weights.
        if d > 2:
            names = ("plus", "minus", "three")
        elif n == 4:
            names = ("nosignaling", "plus")
        else:
            names = ("nosignaling", "signalinghalf")
        weights = {name: rng.randint(1, 9) for name in names}
        label = "control/mixture" if "signalinghalf" in weights else "mixture"
        _item(items, f"{label}/{n},{d}", _mixture, weights,
              reference.rb_mixture_text(n, d, weights))
    for family, n, d, variants in (
        ("rb", 5, 3, ("plus", "minus")),
        ("bnd", 5, 3, ("plus", "minus")),
        ("bnd", 4, 5, ("plus", "minus")),
        ("bn", 8, 2, ("",)),
    ):
        _item(items, f"round-trip/{family},{n},{d}", _round_trip, family, n, d, rng.choice(variants))
    _item(items, "control/round-trip/rb,5,2", _round_trip, "rb", 5, 2, "signalinghalf")
    path = os.path.join(tmp, "sweep.box")
    _item(items, "cli/build-check-ns", _cli_build_check, 3, 3, rng.choice(("plus", "minus")), path)
    _item(items, "control/cli/build-check-ns", _cli_build_check, 3, 2,
          "signalinghalf", path)
    return Workload("signaling-sweep", tuple(items), "rb/5,5,three")


# --- strategy-search ---------------------------------------------------------


def _search_one_box(api, ck):
    result = api.search_rac_with_rbs(3, 1)
    ck.expect(result.max_win_probability == F(5, 6), "search", f"maximum {result.max_win_probability}")
    ck.expect(result.complete, "search", "search incomplete")
    witness = api.parse_strategy(api.serialize_strategy(result.witness))
    value = api.evaluate_strategy(witness)
    ck.expect(value == F(5, 6), "search", f"witness re-evaluates to {value}")
    return result.max_win_probability, result.strategies_examined, result.pruned, value


def _observation2(api, ck):
    # with m = A the one-box optimum is 5/6; with m independent of A the box
    # output is noise to Bob and the classical 3 -> 1 value 3/4 remains
    report = api.verify_observation2(3)
    ck.expect(report.passed and report.quantity == F(5, 6) and report.bound == F(3, 4),
              "search", f"observation 2: {report.quantity} vs {report.bound}")
    return report.quantity, report.bound


def _search_tree(n, api, ck):
    result = api.search_rac_with_rbs(n, n - 1)
    ck.expect(result.max_win_probability == 1 and result.complete, "search",
              f"{n - 1} boxes give {result.max_win_probability}")
    return result.max_win_probability


def _random_one_box(parts, want, api, ck):
    value = api.evaluate_strategy(api.strategy_from_parts(3, *parts))
    ck.expect(value == want, "search", f"simulator gives {value}, parts give {want}")
    ck.expect(value <= F(5, 6), "search", f"one-box strategy beats 5/6: {value}")
    return value


def _negate_answers(text: str, query: int, n: int) -> str:
    """Flip Bob's final answer wherever btilde = query (the Btilde table's first input)."""
    lines = text.split("\n")
    start = lines.index("table Btilde 2")
    first = lines.index("entries", start) + 1
    last = first
    while last < len(lines) and lines[last].strip():
        last += 1
    entries = [int(tok) for line in lines[first:last] for tok in line.split()]
    block = len(entries) // n
    for i in range(query * block, (query + 1) * block):
        entries[i] ^= 1
    rows = [" ".join(map(str, entries[i:i + 20])) for i in range(0, len(entries), 20)]
    return "\n".join(lines[:first] + rows + lines[last:])


def _corrupted_tree(n, query, api, ck):
    # the tree wins every world; negating query q's answer loses exactly q's worlds
    text = _negate_answers(api.serialize_strategy(api.tree_strategy(n)), query, n)
    value = api.evaluate_strategy(api.parse_strategy(text))
    ck.expect(value == F(n - 1, n), "search", f"corrupted witness scores {value}")
    return value


def _truncated_file(n, api, ck):
    text = api.serialize_strategy(api.tree_strategy(n)).rstrip("\n")
    with ck.rejects(ValueError, "tables", "strategy file with a missing entry"):
        api.parse_strategy(text[: text.rindex(" ")] + "\n")
    return "rejected"


def _cli_search(path, api, ck):
    code, out = api.cli(["search", "--n", "3", "--rbs", "1", "--witness-out", path, "--machine"])
    lines = out.splitlines()
    ck.expect(code == 0 and "max=5/6" in lines and "complete=true" in lines, "cli",
              f"search exit {code}")
    with open(path) as fh:
        value = api.evaluate_strategy(api.parse_strategy(fh.read()))
    ck.expect(value == F(5, 6), "search", f"written witness scores {value}")
    return code, value


def strategy_search(rng: random.Random, tmp: str) -> Workload:
    items: list[Item] = []
    _item(items, "search/3,1", _search_one_box)
    _item(items, "observation2/3", _observation2)
    for n in range(3, 8):
        _item(items, f"search/{n},{n - 1}", _search_tree, n)
    for k in range(48):
        parts = (
            rng.randrange(256), rng.randrange(256),
            tuple(rng.randrange(2) for _ in range(16)),
            tuple(rng.randrange(6) for _ in range(3)),
            tuple(rng.randrange(6) for _ in range(3)),
        )
        _item(items, f"one-box/{k}", _random_one_box, parts, reference.one_box_value(3, *parts))
    _item(items, "control/corrupted-tree", _corrupted_tree, 5, rng.randrange(5))
    _item(items, "control/truncated-file", _truncated_file, 4)
    _item(items, "cli/search", _cli_search, os.path.join(tmp, "witness.strat"))
    return Workload("strategy-search", tuple(items), "search/3,1")


# --- info-catalog ------------------------------------------------------------

BIT_CASES = {
    "a": (("atilde_0", 0), ("atilde_0", 1)),
    "b": (("atilde_1", 0), ("atilde_1", 1)),
    "c": (("atilde_0", 0), ("atilde_1", 1)),
    "d": (("atilde_1", 0), ("atilde_0", 1)),
}
TRIT_CASES = {
    1: (("A", 0), ("A", 1), ("A", 2)),
    2: (("x_1", 0), ("x_1", 1), ("x_1", 2)),
    3: (("A", 0), ("A", 1), ("x_1", 2)),
    4: (("A", 0), ("x_1", 1), ("A", 2)),
    5: (("x_1", 0), ("A", 1), ("A", 2)),
    6: (("A", 0), ("x_1", 1), ("x_1", 2)),
    7: (("x_1", 0), ("A", 1), ("x_1", 2)),
    8: (("x_1", 0), ("x_1", 1), ("A", 2)),
}
K_CYCLE = (2, 3, 3, 4, 5)  # variables per grouped-information draw
STRATEGIES = {"protocol": "protocol_strategy", "send-x1": "send_x1_strategy",
              "ignore-rb": "ignore_rb_strategy"}


def _lemma4_draw(variables, probs, groups, target, api, ck):
    # strong subadditivity: holds for every distribution
    report = api.check_lemma4(api.joint(variables, probs), groups, target)
    ck.expect(report.passed, "infotheory", f"grouped information {report.quantity} > {report.bound}")
    return report.passed


def _expected_capacity(n: int, d: int, name: str):
    """Channel information of each builtin strategy, in message units.

    protocol saturates the bound at 1/n.  send-x1 feeds z into every slot
    and relays nothing: at d = 2 (off-branch uniform) Bob's B is z flipped
    with probability 1/4, a channel of 1 - h(1/4) bits; at d >= 3 the
    off-branch spreads over the wrong symbols so B is independent of z.
    ignore-rb does not reproduce the box family, so no figure is reported.
    """
    if name == "protocol":
        return 1.0 / n
    if name == "send-x1":
        return 1 - reference.binary_entropy(0.25) if d == 2 else 0.0
    return None


def _capacity(n, d, name, api, ck):
    strategy = getattr(api, STRATEGIES[name])(n, d)
    parsed = api.parse_capacity_strategy(api.serialize_capacity_strategy(strategy))
    ck.expect(api.strategy_equal(parsed, strategy), "tables", "strategy file round trip")
    joint = api.build_capacity_joint(parsed, "signalinghalf" if d == 2 else "three")
    ck.expect(api.total(joint) == 1, "capacity", "capacity joint is not normalized")
    if d == 2:
        report = api.verify_capacity_bound_bits(n, parsed)
    else:
        report = api.verify_capacity_bound_dits(n, d, parsed)
    want = _expected_capacity(n, d, name)
    if want is None:  # negative control: the premise is unmet
        ck.expect(not report.passed and report.notes[0].startswith("premise unmet"),
                  "capacity", "ignore-rb passed the premise")
        return report.passed, None
    ck.expect(report.passed and abs(report.quantity - want) <= 1e-9 and report.bound == F(1, n),
              "capacity", f"information {report.quantity}, expected {want}")
    return report.passed, round(report.quantity, 12)


def _feasibility_case(kind, key, plan, sizes, message_size, api, ck):
    report = api.bit_case(key) if kind == "bit" else api.trit_case(key)
    want = reference.feasibility(plan, sizes, message_size)
    ck.expect((report.passed, report.witness) == want, "feasibility",
              f"{kind} case {key}: {report.passed} {report.witness}")
    return report.passed, report.witness


def _feasibility_plan(plan, sizes, message_size, api, ck):
    report = api.guessing_feasibility(plan, list(sizes.items()), message_size)
    want = reference.feasibility(plan, sizes, message_size)
    ck.expect((report.passed, report.witness) == want, "feasibility",
              f"plan {plan}: {report.passed} {report.witness}")
    return report.passed, report.witness


def _compile_costs(n, api, ck):
    _, cost = api.compile_rac(n)
    terms = bin(n).count("1")  # one perfect tree per set bit, joined by additions
    got = (cost.rb_count, cost.message_bits, cost.concatenation_uses, cost.addition_uses)
    ck.expect(got == (n - 1, 1, terms, terms - 1), "wiring", f"costs of n={n}: {got}")
    return got


def _noisy_win(n, p2, api, ck):
    tree, _ = api.compile_rac(n)
    api.count("wiring.flip_patterns", 2 ** (n - 1))
    fast = api.winning_probability(tree, p2)
    slow = api.winning_probability_oracle(tree, p2)
    want = reference.expected_win(n, p2)
    ck.expect(fast == want, "wiring", f"recursion gives {fast}, expected {want}")
    ck.expect(slow == want, "wiring", f"oracle gives {slow}, expected {want}")
    return fast


def _cli_table(api, ck):
    code, out = api.cli(["table", "--nmax", "10", "--machine"])
    records = dict(line.split("=", 1) for line in out.splitlines())
    ck.expect(code == 0, "cli", f"table exit {code}")
    for n in range(2, 11):
        ck.expect(records.get(f"n.{n}.boxes") == str(n - 1), "cli", f"boxes of n={n}")
        for i, p2 in enumerate((0.75, QUANTUM)):
            got = float(records.get(f"n.{n}.win.{i}", "nan"))
            ck.expect(abs(got - reference.expected_win(n, p2)) < 1e-11, "cli", f"win of n={n} at {p2}")
    return code, out


def _cli_compile(n, api, ck):
    code, out = api.cli(["compile", "--n", str(n), "--machine"])
    lines = out.splitlines()
    ck.expect(code == 0 and f"rb_count={n - 1}" in lines and "wins_always=true" in lines,
              "cli", f"compile exit {code}")
    return code, out


def _cli_capacity(n, d, name, api, ck):
    code, out = api.cli(["capacity", "--n", str(n), "--d", str(d), "--strategy", name, "--machine"])
    ck.expect(code == (1 if name == "ignore-rb" else 0), "cli", f"capacity exit {code}")
    return code, out


def _cli_feasibility(k, api, ck):
    code, out = api.cli(["feasibility", "--preset", f"trit-{k}", "--machine"])
    feasible, witness = reference.feasibility(TRIT_CASES[k], {"A": 3, "x_1": 3}, 3)
    ck.expect(code == (0 if feasible else 1) and f"witness={witness}" in out.splitlines(),
              "cli", f"feasibility trit-{k} exit {code}")
    return code, out


def info_catalog(rng: random.Random, tmp: str) -> Workload:
    items: list[Item] = []
    for draw in range(1000):
        # Sizes are fixed, so the seed moves values and not the work.  Each size
        # forms a cluster of item times; with equal shares the median item falls
        # in the gap between the k = 3 and k = 4 clusters, so k = 3 gets two shares.
        k = K_CYCLE[draw % len(K_CYCLE)]
        weights = [rng.randrange(0, 16) for _ in range(2 ** k)]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        probs = {key: F(w, total) for key, w in zip(product(range(2), repeat=k), weights) if w}
        variables = tuple((f"v{i}", 2) for i in range(k))
        _item(items, f"lemma4/{draw}", _lemma4_draw, variables, probs,
              [[f"v{i}"] for i in range(k - 1)], [f"v{k - 1}"])
    for n, d in ((2, 2), (3, 2), (2, 3), (3, 3)):
        for name in STRATEGIES:
            if name == "send-x1" and n != 2:
                continue  # a two-input construction
            label = "control/capacity" if name == "ignore-rb" else "capacity"
            _item(items, f"{label}/{n},{d},{name}", _capacity, n, d, name)
    for letter, plan in BIT_CASES.items():
        _item(items, f"feasibility/bit-{letter}", _feasibility_case, "bit", letter, plan,
              {"atilde_0": 2, "atilde_1": 2}, 2)
    for k, plan in TRIT_CASES.items():
        label = "feasibility" if k <= 2 else "control/feasibility"
        _item(items, f"{label}/trit-{k}", _feasibility_case, "trit", k, plan,
              {"A": 3, "x_1": 3}, 3)
    for k in range(12):
        sizes = {f"u{i}": rng.choice((2, 3)) for i in range(rng.choice((2, 3)))}
        message_size = rng.randint(2, 4)
        plan = tuple((rng.choice(list(sizes)), mu) for mu in range(message_size))
        _item(items, f"feasibility/plan-{k}", _feasibility_plan, plan, sizes, message_size)
    for n in range(2, 17):
        _item(items, f"compile/{n}", _compile_costs, n)
    for n in range(3, 10):
        _item(items, f"noisy-win/{n}", _noisy_win, n, F(rng.randrange(1, 64, 2), 64))
    _item(items, "noisy-win/7@3/4", _noisy_win, 7, F(3, 4))
    _item(items, "cli/table", _cli_table)
    _item(items, "cli/compile", _cli_compile, rng.randint(11, 16))
    _item(items, "cli/capacity", _cli_capacity, 2, 3, rng.choice(("protocol", "send-x1")))
    _item(items, "cli/feasibility", _cli_feasibility, rng.randint(1, 8))
    return Workload("info-catalog", tuple(items), "capacity/3,3,protocol")


WORKLOADS = {
    "equivalence-grid": equivalence_grid,
    "signaling-sweep": signaling_sweep,
    "strategy-search": strategy_search,
    "info-catalog": info_catalog,
}


def build(name: str, seed: int, tmp: str) -> Workload:
    return WORKLOADS[name](random.Random(f"{name}/{seed}"), tmp)
