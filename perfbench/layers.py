"""The racbox calls the benchmark makes, each named by layer and span.

``make_api`` returns a namespace whose attributes are racbox's public
functions.  Untraced, they are the functions themselves.  Traced, each is
wrapped in a span named ``<layer>.<function>`` and reports the work counts
of its call; the count hooks read only public attributes.
"""

from __future__ import annotations

import contextlib
import io
import operator
from collections.abc import Mapping
from math import prod
from types import SimpleNamespace

import numpy
from racbox import boxes, boxio, capacity, cli, dists, feasibility, infotheory, protocols, search, wiring

from tracing import Recorder


def _rows(box) -> int:
    return prod(box.signature.input_sizes)


def _cells(box) -> int:
    return _rows(box) * prod(box.signature.output_sizes)


def _nonzero(table) -> int:
    """Support size of a probability table held as a dict or as an array."""
    if isinstance(table, Mapping):
        return sum(1 for p in table.values() if p != 0)
    return int(numpy.count_nonzero(table))


def _distinct_rows(box) -> int:
    # Rows held as shared objects are what the checks' id() caches exploit;
    # a table that is not a mapping of row objects shares none.
    if isinstance(box.table, Mapping):
        return len({id(row) for row in box.table.values()})
    return _rows(box)


def _built(args, box):
    yield "boxes.rows_built", _rows(box)


def _checked(args, result):
    box = args[0]
    yield "boxes.rows_checked", _rows(box)
    yield "boxes.distinct_rows", _distinct_rows(box)


def _serialized(args, text):
    yield "boxio.bytes", len(text)


def _parsed(args, result):
    yield "boxio.bytes", len(args[0])


def _run_cells(args, run):
    yield "protocols.induced_cells", _cells(run.result)


def _ri_cells(args, result):
    yield "protocols.induced_cells", _cells(result[0].result)


def _box_cells(args, box):
    yield "protocols.induced_cells", _cells(box)


def _dist_arg(args, result):
    yield "dists.entries", _nonzero(args[0].probs)


def _lemma4(args, result):
    yield "dists.entries", _nonzero(args[0].probs)
    yield "infotheory.draws", 1


def _joint(args, dist):
    yield "capacity.joint_entries", _nonzero(dist.probs)


def _searched(args, result):
    yield "search.classes_examined", result.strategies_examined
    yield "search.pruned", result.pruned


def _evaluated(args, result):
    strategy = args[0]
    yield "search.world_queries", 2 ** strategy.n * 2 ** len(strategy.rb_names) * strategy.n


def _records(args, result):
    yield "cli.records", sum(1 for line in result[1].splitlines() if line)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """racbox.cli.main in this process; returns the exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# attribute: (span name, function, count hook)
CALLS = {
    "BoxSignature": ("boxes.signature", boxes.BoxSignature, None),
    "make_bn_box": ("boxes.make_bn_box", boxes.make_bn_box, _built),
    "make_bnd_box": ("boxes.make_bnd_box", boxes.make_bnd_box, _built),
    "make_rb": ("boxes.make_rb", boxes.make_rb, _built),
    "check_normalization": ("boxes.check_normalization", boxes.check_normalization, _checked),
    "check_no_signaling": ("boxes.check_no_signaling", boxes.check_no_signaling, _checked),
    "box_equal": ("boxes.equal", operator.eq, None),
    "serialize_box": ("boxio.serialize_box", boxio.serialize_box, _serialized),
    "parse_box": ("boxio.parse_box", boxio.parse_box, _parsed),
    "resource_inequality_sim": (
        "protocols.resource_inequality_sim", protocols.resource_inequality_sim, _ri_cells),
    "rac_via_bn_box": ("protocols.rac_via_box", protocols.rac_via_bn_box, _run_cells),
    "rac_via_bnd_box": ("protocols.rac_via_box", protocols.rac_via_bnd_box, _run_cells),
    "bn_box_via_rb": ("protocols.box_via_rb", protocols.bn_box_via_rb, _run_cells),
    "bnd_box_via_rb": ("protocols.box_via_rb", protocols.bnd_box_via_rb, _run_cells),
    "run_box_protocol": ("protocols.run_box_protocol", protocols.run_box_protocol, _run_cells),
    "induced_bbox": ("protocols.induced_bbox", protocols.induced_bbox, _box_cells),
    "channel_joint": ("protocols.channel_joint", protocols.channel_joint, None),
    "rac_win_probability": ("protocols.rac_win_probability", protocols.rac_win_probability, None),
    "joint": ("dists.joint", dists.JointDistribution, None),
    "total": ("dists.total", dists.JointDistribution.total, None),
    "mutual_information": ("infotheory.mutual_information", infotheory.mutual_information, _dist_arg),
    "check_lemma4": ("infotheory.check_lemma4", infotheory.check_lemma4, _lemma4),
    "protocol_strategy": ("capacity.strategy", capacity.protocol_strategy, None),
    "send_x1_strategy": ("capacity.strategy", capacity.send_x1_strategy, None),
    "ignore_rb_strategy": ("capacity.strategy", capacity.ignore_rb_strategy, None),
    "strategy_equal": ("capacity.equal", operator.eq, None),
    "build_capacity_joint": ("capacity.build_capacity_joint", capacity.build_capacity_joint, _joint),
    "verify_capacity_bound_bits": ("capacity.verify", capacity.verify_capacity_bound_bits, None),
    "verify_capacity_bound_dits": ("capacity.verify", capacity.verify_capacity_bound_dits, None),
    "serialize_capacity_strategy": ("tables.serialize", capacity.serialize_capacity_strategy, None),
    "parse_capacity_strategy": ("tables.parse", capacity.parse_capacity_strategy, None),
    "serialize_strategy": ("tables.serialize", search.serialize_strategy, None),
    "parse_strategy": ("tables.parse", search.parse_strategy, None),
    "search_rac_with_rbs": ("search.search_rac_with_rbs", search.search_rac_with_rbs, _searched),
    "verify_observation2": ("search.verify_observation2", search.verify_observation2, None),
    "evaluate_strategy": ("search.evaluate_strategy", search.evaluate_strategy, _evaluated),
    "strategy_from_parts": ("search.strategy_from_parts", search.strategy_from_parts, None),
    "tree_strategy": ("search.tree_strategy", search.tree_strategy, None),
    "compile_rac": ("wiring.compile_rac", wiring.compile_rac, None),
    "winning_probability": ("wiring.winning_probability", wiring.winning_probability, None),
    "winning_probability_oracle": (
        "wiring.winning_probability_oracle", wiring.winning_probability_oracle, None),
    "bit_case": ("feasibility.case", feasibility.bit_case, None),
    "trit_case": ("feasibility.case", feasibility.trit_case, None),
    "guessing_feasibility": (
        "feasibility.guessing_feasibility", feasibility.guessing_feasibility, None),
    "cli": ("cli.main", run_cli, _records),
}


def make_api(recorder: Recorder | None) -> SimpleNamespace:
    """racbox's calls, traced into `recorder` when one is given."""
    api = SimpleNamespace(ProtocolError=protocols.ProtocolError)
    for attr, (name, func, hook) in CALLS.items():
        setattr(api, attr, func if recorder is None else recorder.wrap(name, func, hook))
    api.count = (lambda counter, amount: None) if recorder is None else recorder.add
    return api
