"""Exact arithmetic toolkit for no-signaling boxes and random access codes.

Everything is computed over exact rational tables: a box and a joint
distribution each hold integer numerators over one denominator, so
equalities in the verification routines are exact, not numerical.
Floating point enters only in the entropy calculations, which carry an
explicit tolerance; information identities are also checked exactly, as
rational combinations of logs of primes.

The pieces:

- ``dists``: finite joint distributions with exact marginalization,
  conditioning, and wires derived from function tables.
- ``boxes``: the box families (the XOR game box and its n-input, d-ary
  relatives, plus the bounded-signaling resource boxes) and the
  no-signaling checks.
- ``protocols``: sequential two-party protocol execution; equivalence
  protocols between boxes and codes; the erasure-channel simulation.
- ``wiring``: box-concatenation trees, compiled n->1 codes, exact and
  noisy winning probabilities.
- ``infotheory``: Shannon quantities on exact distributions and the
  multi-information inequality check.
- ``capacity``: channel-information bound verification for explicit
  strategies against bounded-signaling boxes.
- ``search``: exhaustive strategy search for codes assisted by
  one-input boxes, Bob's tables first with Alice best-responding.
- ``feasibility``: perfect-guess feasibility of message constraints.
- ``cli``: the ``racbox`` command.
"""

from .boxes import (
    Box,
    BoxSignature,
    check_no_signaling,
    check_normalization,
    make_bn_box,
    make_bnd_box,
    make_rb,
)
from .boxio import parse_box, serialize_box
from .capacity import (
    CapacityStrategy,
    build_capacity_joint,
    ignore_rb_strategy,
    parse_capacity_strategy,
    protocol_strategy,
    send_x1_strategy,
    serialize_capacity_strategy,
    verify_capacity_bound_bits,
    verify_capacity_bound_dits,
)
from .dists import JointDistribution, condition, derive, marginalize
from .feasibility import bit_case, guessing_feasibility, trit_case
from .infotheory import (
    check_lemma4,
    entropy,
    mutual_information,
    mutual_information_exponents,
)
from .protocols import (
    ErasureChannelReport,
    ProtocolError,
    ProtocolRun,
    bn_box_via_rb,
    bnd_box_via_rb,
    rac_via_bn_box,
    rac_via_bnd_box,
    rac_win_probability,
    resource_inequality_sim,
    verify_lemma1,
)
from .reports import ProbeReport
from .search import (
    SearchResult,
    Strategy,
    evaluate_strategy,
    parse_strategy,
    search_rac_with_rbs,
    serialize_strategy,
    tree_strategy,
    verify_observation2,
)
from .tables import TableFn
from .wiring import (
    CostReport,
    Leaf,
    MalformedTreeError,
    RBNode,
    add,
    bound_table,
    check_tree_lemma,
    compile_rac,
    concatenate,
    path_success,
    tree_win_probability_exact,
    tree_wins_always,
    winning_probability,
)

__all__ = [
    "Box",
    "BoxSignature",
    "CapacityStrategy",
    "CostReport",
    "ErasureChannelReport",
    "JointDistribution",
    "Leaf",
    "MalformedTreeError",
    "ProbeReport",
    "ProtocolError",
    "ProtocolRun",
    "RBNode",
    "SearchResult",
    "Strategy",
    "TableFn",
    "add",
    "bit_case",
    "bn_box_via_rb",
    "bnd_box_via_rb",
    "bound_table",
    "build_capacity_joint",
    "check_lemma4",
    "check_no_signaling",
    "check_normalization",
    "check_tree_lemma",
    "compile_rac",
    "concatenate",
    "condition",
    "derive",
    "entropy",
    "evaluate_strategy",
    "guessing_feasibility",
    "ignore_rb_strategy",
    "make_bn_box",
    "make_bnd_box",
    "make_rb",
    "marginalize",
    "mutual_information",
    "mutual_information_exponents",
    "parse_box",
    "parse_capacity_strategy",
    "parse_strategy",
    "path_success",
    "protocol_strategy",
    "rac_via_bn_box",
    "rac_via_bnd_box",
    "rac_win_probability",
    "resource_inequality_sim",
    "search_rac_with_rbs",
    "send_x1_strategy",
    "serialize_box",
    "serialize_capacity_strategy",
    "serialize_strategy",
    "tree_strategy",
    "tree_win_probability_exact",
    "tree_wins_always",
    "trit_case",
    "verify_capacity_bound_bits",
    "verify_capacity_bound_dits",
    "verify_lemma1",
    "verify_observation2",
    "winning_probability",
]

__version__ = "0.1.0"
