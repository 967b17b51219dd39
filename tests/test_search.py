"""Strategy search: the pinned one-box maxima, witnesses, engine soundness."""

import dataclasses
import random
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import racbox.search as search_mod
from racbox.boxes import make_rb
from racbox.protocols import _rac_iface, rac_win_probability, run_box_protocol
from racbox.search import (
    SearchResult,
    Strategy,
    evaluate_strategy,
    parse_strategy,
    search_rac_with_rbs,
    serialize_strategy,
    strategy_domains,
    strategy_from_parts,
    tree_strategy,
    verify_observation2,
)
from racbox.tables import TableFn

F = Fraction


def _walk_strategy(strategy):
    """Reference simulator: one ``TableFn`` call per lookup, round by round.

    Every call checks its arguments' count and ranges, so a lookup outside
    a table's declared domain raises.
    """
    n, names, t = strategy.n, strategy.rb_names, strategy.tables
    k = len(names)
    wins = 0
    for a in product(range(2), repeat=n):
        for a_vec in product(range(2), repeat=k):
            box_inputs = {}
            for j, name in enumerate(names):
                upstream = a_vec[:j]
                box_inputs[name] = (t[f"{name}.a0"](*a, *upstream), t[f"{name}.a1"](*a, *upstream))
            m = t["m"](*a, *a_vec)
            for btilde in range(n):
                outs = []
                for j in reversed(range(k)):  # boxes are queried in reverse wiring order
                    name = names[j]
                    b = t[f"{name}.b"](btilde, m, *outs)
                    aprime = t[f"{name}.aprime"](btilde, m, *outs)
                    outs.append(box_inputs[name][b] ^ a_vec[j] ^ aprime)
                if t["Btilde"](btilde, m, *outs) == a[btilde]:
                    wins += 1
    return Fraction(wins, 2 ** n * 2 ** k * n)


def _replace_table(strat, table):
    return dataclasses.replace(strat, tables={**strat.tables, table.name: table})


def _negate_query(strategy, query):
    """The strategy with Bob's final answer flipped wherever btilde = query."""
    out = strategy.tables["Btilde"]
    block = len(out.entries) // strategy.n
    entries = list(out.entries)
    for i in range(query * block, (query + 1) * block):
        entries[i] ^= 1
    return _replace_table(strategy, dataclasses.replace(out, entries=tuple(entries)))


def _random_parts(rng, n):
    return (rng.randrange(1 << (1 << n)), rng.randrange(1 << (1 << n)),
            [rng.randrange(2) for _ in range(1 << (n + 1))],
            [rng.randrange(search_mod.N_BEHAVIOURS) for _ in range(n)],
            [rng.randrange(search_mod.N_BEHAVIOURS) for _ in range(n)])


def test_simulator_matches_the_walk_on_random_one_box_strategies():
    rng = random.Random(2024)
    for n in (2, 3, 4):
        for _ in range(70):
            strat = strategy_from_parts(n, *_random_parts(rng, n))
            assert evaluate_strategy(strat) == _walk_strategy(strat)


def _random_strategy(rng, n, k):
    """Every table of an n-bit, k-box strategy drawn uniformly from its domain."""
    names = tuple(f"rb{j}" for j in range(k))
    tables = {
        name: TableFn.from_array(name, inputs, size, rng.integers(0, size, [s for _, s in inputs]))
        for name, (inputs, size) in strategy_domains(n, names).items()
    }
    return Strategy(n, names, tables)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_simulator_matches_the_walk_on_random_multi_box_strategies(n, k):
    # unlike the trees, random strategies query boxes at every b, relay
    # through aprime and read every earlier B, so Bob's bits must be
    # appended in query order and each encoder read at its own world shift
    rng = np.random.default_rng(100 * n + k)
    values = set()
    for _ in range(20):
        strat = _random_strategy(rng, n, k)
        value = evaluate_strategy(strat)
        assert value == _walk_strategy(strat)
        values.add(value)
    assert len(values) > 1


def test_simulator_reads_no_table_through_its_index(monkeypatch):
    # every read is a shift of the world number or of Bob's running index
    tree, witness = tree_strategy(6), search_rac_with_rbs(4, 1).witness

    def refuse(*args, **kwargs):
        raise AssertionError("the simulator read a table through TableFn.index or TableFn.at")

    monkeypatch.setattr(TableFn, "index", refuse)
    monkeypatch.setattr(TableFn, "at", refuse)
    assert evaluate_strategy(tree) == 1
    assert evaluate_strategy(witness) == F(13, 16)


def _through_the_executor(strategy):
    """A one-box strategy's win probability from ``run_box_protocol`` on the
    no-signaling RAC-box, every table read with ``TableFn.at``."""
    t = strategy.tables

    def bob(b):
        return {"btilde": b["b"], "m": b["m"]}

    run = run_box_protocol(
        "one-box-strategy", make_rb(2, 2, "nosignaling"), _rac_iface(strategy.n, 2),
        alice_box_inputs=lambda a: (t["rb0.a0"].at(a), t["rb0.a1"].at(a)),
        message=lambda a: t["m"].at({**a, "A_rb0": a["A"]}),
        bob_box_inputs=lambda b: (t["rb0.aprime"].at(bob(b)), t["rb0.b"].at(bob(b))),
        alice_outputs=lambda a: {},
        bob_outputs=lambda b: {"B": t["Btilde"].at({**bob(b), "B_rb0": b["B"]})},
        message_size=2,
    )
    return rac_win_probability(run)


def test_simulator_matches_the_executor_on_random_one_box_strategies():
    # the search keeps its own simulator as the reference for its witnesses: through
    # the executor one such strategy takes about sixteen times as long
    # (15.7-17.5x, minimum of eight alternated rounds over these 20 strategies)
    rng = random.Random(16)
    values = set()
    for _ in range(20):
        strat = strategy_from_parts(3, *_random_parts(rng, 3))
        value = evaluate_strategy(strat)
        assert _through_the_executor(strat) == value
        values.add(value)
    assert len(values) > 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_simulator_matches_the_walk_on_tree_witnesses(n):
    strat = tree_strategy(n)
    assert evaluate_strategy(strat) == _walk_strategy(strat) == 1


@pytest.mark.parametrize("n, value", [(3, F(5, 6)), (4, F(13, 16))])
def test_simulator_matches_the_walk_on_search_witnesses(n, value):
    witness = search_rac_with_rbs(n, 1).witness
    assert evaluate_strategy(witness) == _walk_strategy(witness) == value


@pytest.mark.parametrize("n", [4, 5])
def test_corrupted_trees_lose_exactly_their_query(n):
    # the tree wins every world; negating one query's answer loses exactly
    # that query's worlds
    tree = tree_strategy(n)
    for query in range(n):
        bad = _negate_query(tree, query)
        assert evaluate_strategy(bad) == _walk_strategy(bad) == F(n - 1, n)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9])
def test_tree_strategy_wins_always(n):
    strat = tree_strategy(n)
    assert len(strat.rb_names) == n - 1
    assert evaluate_strategy(strat) == 1


def test_nine_bit_tree_witness_rechecks():
    result = search_rac_with_rbs(9, 8)
    assert result.max_win_probability == 1
    assert evaluate_strategy(result.witness) == 1


def test_tree_witness_cap_names_the_message_table():
    with pytest.raises(ValueError, match=r"2\^\(2n-1\) = 524288 entries"):
        tree_strategy(10)


def test_one_box_two_bits_is_perfect():
    result = search_rac_with_rbs(2, 1)
    assert result.max_win_probability == 1
    assert result.complete
    assert evaluate_strategy(result.witness) == 1


def test_one_box_three_bits_maximum_pinned():
    result = search_rac_with_rbs(3, 1)
    assert result.max_win_probability == F(5, 6)
    assert result.complete
    assert result.strategies_examined == 25024
    assert result.pruned == 21632


def test_one_box_four_bits_maximum_pinned():
    result = search_rac_with_rbs(4, 1)
    assert result.max_win_probability == F(13, 16)
    assert result.complete
    assert evaluate_strategy(result.witness) == F(13, 16)


def test_pinned_witness_reverifies_quickly():
    result = search_rac_with_rbs(3, 1)
    t0 = time.monotonic()
    value = evaluate_strategy(result.witness)
    assert time.monotonic() - t0 < 1.0
    assert value == F(5, 6)


def test_two_boxes_restore_perfection_for_three_bits():
    result = search_rac_with_rbs(3, 2)
    assert result.max_win_probability == 1
    assert result.strategies_examined == 1  # the construction witness itself
    assert evaluate_strategy(result.witness) == 1
    assert len(result.witness.rb_names) == 2


def test_extra_boxes_are_left_idle():
    # the witness wires n-1 boxes whatever k is; the rest stay unused
    result = search_rac_with_rbs(2, 3)
    assert result.max_win_probability == 1
    assert len(result.witness.rb_names) == 1
    assert any("leaves the other 2 idle" in note for note in result.notes)
    assert evaluate_strategy(result.witness) == 1


def test_many_extra_boxes_cost_nothing():
    t0 = time.monotonic()
    result = search_rac_with_rbs(3, 40)
    assert time.monotonic() - t0 < 1.0
    assert result.max_win_probability == 1
    assert len(result.witness.rb_names) == 2


def test_unsupported_scales_are_refused():
    with pytest.raises(ValueError):
        search_rac_with_rbs(5, 1)
    with pytest.raises(ValueError):
        search_rac_with_rbs(4, 2)


def test_strategy_from_parts_refuses_bad_parts():
    good = (0x96, 0x3C, [0, 1] * 8, [2, 3, 4], [5, 0, 1])
    assert evaluate_strategy(strategy_from_parts(3, *good)) == _walk_strategy(
        strategy_from_parts(3, *good))
    # Bob's behaviour tables index constant arrays, where -1 would read behaviour 5
    for bad in (-1, 6):
        with pytest.raises(ValueError, match="behaviour out of range"):
            strategy_from_parts(3, *good[:3], [2, bad, 4], good[4])
    with pytest.raises(ValueError, match="entry 2 outside"):
        strategy_from_parts(3, *good[:2], [0, 2] * 8, *good[3:])
    with pytest.raises(ValueError, match="encoder table out of range"):
        strategy_from_parts(3, 256, *good[1:])


def test_search_result_rejects_nonsense_values():
    with pytest.raises(ValueError):
        SearchResult(
            max_win_probability=F(7, 6),
            witness=tree_strategy(2),
            strategies_examined=1,
            pruned=0,
            complete=True,
            elapsed_seconds=0.0,
        )


def test_constant_decoders_score_a_coin_flip():
    # Bob ignores everything and answers 0: wins exactly when the queried
    # bit is 0
    n = 3
    g = [0] * (1 << (n + 1))
    t_const0 = [0] * n
    strat = strategy_from_parts(n, 0, 0, g, t_const0, t_const0)
    assert evaluate_strategy(strat) == F(1, 2)


def test_relay_strategy_scores_the_pinned_maximum():
    # send m = A, decode bit j as f_j(a) xor A xor A' with f_0 = a_0,
    # f_1 = a_1: bits 0 and 1 always right, bit 2 a coin flip
    n = 3
    f0, f1 = 0xAA, 0xCC
    g = []
    for world in range(1 << (n + 1)):
        g.append(world & 1)  # m = A (worlds are 2*a + A)
    # ``predict f_j`` behaviours answer f_j(a) xor A xor eps, so the flip
    # eps must track the relayed A to cancel it
    t0 = [2, 4, 0]  # m = 0: predict f_0, predict f_1, give up with 0
    t1 = [3, 5, 0]  # m = 1: the same with eps = 1
    strat = strategy_from_parts(n, f0, f1, g, t0, t1)
    assert evaluate_strategy(strat) == F(5, 6)


def test_count_table_agrees_with_the_simulator():
    # the engine's objective for fixed parts, read from its count table,
    # must match the independent exact simulator on the assembled strategy
    n = 3
    counts = search_mod._correct_counts(n)
    rng = random.Random(5)
    shape = (search_mod.N_BEHAVIOURS,) * n
    for _ in range(24):
        f0 = rng.randrange(1 << (1 << n))
        f1 = rng.randrange(1 << (1 << n))
        g = [rng.randrange(2) for _ in range(1 << (n + 1))]
        t0 = [rng.randrange(search_mod.N_BEHAVIOURS) for _ in range(n)]
        t1 = [rng.randrange(search_mod.N_BEHAVIOURS) for _ in range(n)]
        tables = (np.ravel_multi_index(t0, shape), np.ravel_multi_index(t1, shape))
        engine = 0
        for a in range(1 << n):
            fp = ((f0 >> a) & 1) | (((f1 >> a) & 1) << 1)
            for box_out in range(2):
                engine += int(counts[fp, box_out, a, tables[g[2 * a + box_out]]])
        value = evaluate_strategy(strategy_from_parts(n, f0, f1, g, t0, t1))
        assert value == F(engine, (1 << (n + 1)) * n)


def test_best_response_witness_reproduces_the_pair_value():
    # for any pair of Bob tables, Alice's best response assembled as a
    # strategy must score exactly the value the engine assigns the pair
    n = 3
    counts = search_mod._correct_counts(n)
    rng = random.Random(11)
    for _ in range(24):
        i = rng.randrange(counts.shape[-1])
        j = rng.randrange(counts.shape[-1])
        engine = int(search_mod._message_free(counts[..., i], counts[..., j]).max(axis=0).sum())
        witness = search_mod._best_response(n, counts, i, j)
        assert evaluate_strategy(witness) == F(engine, (1 << (n + 1)) * n)


def test_mirror_skip_preserves_the_maximum():
    # relabelling the message swaps Bob's tables, so scanning each unordered
    # pair once must find the same maximum as scanning every ordered pair
    counts = search_mod._correct_counts(3)
    full = search_mod._best_table_pair(counts, search_mod._message_free, False)
    half = search_mod._best_table_pair(counts, search_mod._message_free, True)
    assert full[0] == half[0] == 40
    assert full[3] == counts.shape[-1] ** 2 and full[4] == 0
    assert half[3] + half[4] == counts.shape[-1] ** 2


def _pair_scan_by_loops(counts, objective, symmetric):
    """``_best_table_pair`` by plain loops: each pair's value summed cell by
    cell over (a, fp, A), pairs visited in the kernel's scan order, the first
    strict maximum kept."""
    n_fp, _, n_a, n_tables = counts.shape
    c = counts.tolist()  # c[fp][A][a][t]

    def value(t0, t1):
        total = 0
        for a in range(n_a):
            per_fp = []
            for fp in range(n_fp):
                x = [c[fp][box_out][a][t0] for box_out in range(2)]
                y = [c[fp][box_out][a][t1] for box_out in range(2)]
                if objective == "free":
                    per_fp.append(sum(max(x[box_out], y[box_out]) for box_out in range(2)))
                elif objective == "is_a":
                    per_fp.append(x[0] + y[1])
                else:
                    per_fp.append(max(x[0] + x[1], y[0] + y[1]))
            total += max(per_fp)
        return total

    best, examined, skipped = (-1, 0, 0), 0, 0
    for t0 in range(n_tables):
        first = t0 - t0 % search_mod.CHUNK if symmetric else 0
        skipped += first
        for t1 in range(first, n_tables):
            examined += 1
            v = value(t0, t1)
            if v > best[0]:
                best = (v, t0, t1)
    return (*best, examined, skipped)


@pytest.mark.parametrize("objective", ["free", "is_a", "ignores_a"])
@pytest.mark.parametrize("symmetric", [False, True])
def test_pair_scan_matches_a_plain_loop(objective, symmetric):
    # random slices of 12-20 tables: one block or two, the second one short
    combine = {"free": search_mod._message_free, "is_a": search_mod._message_is_a,
               "ignores_a": search_mod._message_ignores_a}[objective]
    counts = search_mod._correct_counts(3)
    rng = random.Random(f"{objective}-{symmetric}")
    for _ in range(4):
        tables = rng.sample(range(counts.shape[-1]), rng.randint(12, 20))
        part = counts[..., tables]
        assert search_mod._best_table_pair(part, combine, symmetric) == _pair_scan_by_loops(
            part, objective, symmetric)


@pytest.mark.parametrize("n", [3, 4])
def test_search_witness_text_matches_golden(n):
    # the one-box witnesses as the search first chose them, tie-breaking included
    golden = Path(__file__).parent / "golden" / f"search-witness-{n}-1.txt"
    assert serialize_strategy(search_rac_with_rbs(n, 1).witness) == golden.read_text()


@pytest.mark.parametrize("n, witness", [
    (2, "m = A with encoder tables f0=0xa, f1=0xc"),
    (3, "m = A with encoder tables f0=0xcc, f1=0xf0"),
])
def test_observation2_witness_is_pinned(n, witness):
    assert verify_observation2(n).witness == witness


def test_relaying_beats_fixed_messages():
    report = verify_observation2(3)
    assert report.passed
    assert report.quantity == F(5, 6)
    assert report.bound == F(3, 4)


def test_relaying_matches_fixed_at_two_bits():
    report = verify_observation2(2)
    assert report.passed
    assert report.quantity == F(1)
    assert report.bound == F(3, 4)


def test_observation_scope():
    with pytest.raises(ValueError):
        verify_observation2(4)


def test_strategy_serialization_round_trip():
    rng = random.Random(13)
    strategies = [tree_strategy(n) for n in range(2, 10)]
    strategies += [strategy_from_parts(n, *_random_parts(rng, n)) for n in (2, 3, 4) * 16 + (3, 4)]
    strategies.append(search_rac_with_rbs(3, 1).witness)
    for strat in strategies:
        assert parse_strategy(serialize_strategy(strat)) == strat


def test_tree_strategy_text_matches_golden():
    # the witness text of ``racbox search --n 5 --rbs 4``
    golden = Path(__file__).parent / "golden" / "tree-strategy-5.txt"
    assert serialize_strategy(tree_strategy(5)) == golden.read_text()


def test_parse_strategy_rejects_foreign_kind():
    text = serialize_strategy(tree_strategy(2)).replace("rac-with-rbs", "other")
    with pytest.raises(ValueError):
        parse_strategy(text)


def test_stray_table_in_a_strategy_file_is_refused():
    text = serialize_strategy(tree_strategy(3)) + "\ntable stray 2\nin x 2\nentries\n0 1\n"
    with pytest.raises(ValueError, match="^unexpected table 'stray'$"):
        parse_strategy(text)


def test_missing_n_line_is_named():
    text = serialize_strategy(tree_strategy(3))
    text = "\n".join(line for line in text.splitlines() if not line.startswith("n "))
    with pytest.raises(ValueError, match="^missing preamble line 'n'$"):
        parse_strategy(text)


def test_rbs_line_that_is_not_an_integer_is_named():
    text = serialize_strategy(tree_strategy(3))
    assert "\nrbs 2\n" in text
    with pytest.raises(ValueError, match="^preamble line 'rbs': 'two' is not an integer$"):
        parse_strategy(text.replace("\nrbs 2\n", "\nrbs two\n"))
    # the line is optional: without it the wiring order gives the box count
    without = "\n".join(line for line in text.splitlines() if not line.startswith("rbs "))
    assert serialize_strategy(parse_strategy(without)) == text
    with pytest.raises(ValueError, match="^wiring order disagrees with the declared box count$"):
        parse_strategy(text.replace("\nrbs 2\n", "\nrbs 3\n"))


def test_missing_table_is_named():
    strat = tree_strategy(3)
    tables = {name: tab for name, tab in strat.tables.items() if name != "rb0.aprime"}
    with pytest.raises(ValueError, match="^missing table 'rb0.aprime'$"):
        Strategy(strat.n, strat.rb_names, tables)


def test_strategy_table_names_are_validated():
    strat = tree_strategy(2)
    with pytest.raises(ValueError):
        Strategy(n=strat.n, rb_names=("zz",), tables=strat.tables)


def test_strategy_shape_checks_cover_the_simulator_invariant():
    # evaluate_strategy gathers without per-lookup range checks; these are
    # the shapes that would let a gather index or a gathered value run
    # outside its alphabet
    strat = tree_strategy(3)
    out = strat.tables["Btilde"]
    wide = TableFn(out.name, out.inputs, 3, out.entries)
    with pytest.raises(ValueError, match="table 'Btilde' has output alphabet 3"):
        _replace_table(strat, wide)
    first = strat.tables["rb1.b"]  # Bob queries the last box first
    loose = TableFn.from_array(first.name, (("btilde", strat.n + 1),) + first.inputs[1:], 2, 0)
    with pytest.raises(ValueError, match="table 'rb1.b' has inputs"):
        _replace_table(strat, loose)
    enc = strat.tables["rb1.a0"]  # the second box sees the first box's output
    assert enc.inputs[-1] == ("A_rb0", 2)
    short = TableFn.from_array(enc.name, enc.inputs[:-1], 2, 0)
    with pytest.raises(ValueError, match="table 'rb1.a0' has inputs"):
        _replace_table(strat, short)
    # the simulator reads m and the encoders at shifts of the world number,
    # so the right wires in another order must be refused too
    msg = strat.tables["m"]
    swapped = TableFn.from_array(msg.name, msg.inputs[1:] + msg.inputs[:1], 2, 0)
    with pytest.raises(ValueError, match="table 'm' has inputs"):
        _replace_table(strat, swapped)
    upstream_first = TableFn.from_array(enc.name, enc.inputs[-1:] + enc.inputs[:-1], 2, 0)
    assert upstream_first.inputs[:2] == (("A_rb0", 2), ("a_0", 2))
    with pytest.raises(ValueError, match="table 'rb1.a0' has inputs"):
        _replace_table(strat, upstream_first)
