"""Wiring trees: composing 2->1 boxes into n->1 random access codes.

A wiring tree is a full binary tree whose leaves hold database bits and
whose internal nodes each consume one RAC-box for two bits.  Alice feeds
every internal node the values of its children (a leaf contributes its
database bit, an internal child contributes that box's Alice output) and
sends the root's Alice output as the single message bit.  Bob queries the
boxes along the root-to-leaf path of the bit he wants, always with
A' = 0, and XORs the message with every box output on the path.  The
telescoping cancellation of the Alice outputs leaves exactly the queried
bit, so the construction wins with certainty on perfect boxes.

Trees are built from `Leaf` and `RBNode` objects, and `flatten` is the
only code that walks them.  It numbers the wires once (database bits
first, then box outputs with the boxes in post order), records each
query's root-to-leaf path, and rejects a node object that appears twice
(one physical box fed twice) or a foreign node type.  Every evaluator
here, and the search's tree witness, reads that flat form.

With noisy boxes that answer each query correctly with probability p2
independently, the decoded bit is correct iff an even number of path
boxes err, which the closed-form recursion below tracks per depth.  An
exhaustive flip-pattern oracle is provided to check the recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Iterable, Sequence, Union

from .reports import ProbeReport


class MalformedTreeError(ValueError):
    """The structure fed in is not a resource-respecting full binary tree."""


@dataclass(frozen=True)
class Leaf:
    """Terminal wire carrying one database bit."""


@dataclass(frozen=True)
class RBNode:
    """One 2->1 box consuming the values of its two children."""

    left: "WiringTree"
    right: "WiringTree"


WiringTree = Union[Leaf, RBNode]


@dataclass(frozen=True)
class FlatTree:
    """A wiring tree as numbered wires.

    Wire i < leaves carries database bit i (leaves numbered left to right);
    wire leaves + j carries the Alice output of box j.  Boxes are listed in
    post order, so each box comes after the boxes that feed it.
    """

    leaves: int
    boxes: tuple[tuple[int, int], ...]  # (left wire, right wire) fed to box j
    root: int  # the wire Alice sends as the message
    paths: tuple[tuple[tuple[int, int], ...], ...]  # per query: (box, 0 = left) from the root


def flatten(tree: WiringTree) -> FlatTree:
    """The flat form of `tree`; the one walk over `Leaf`/`RBNode` objects.

    Structural equality is fine (two equal subtrees are still two boxes);
    object identity reuse is not, because it would feed one physical box
    twice.
    """
    seen: set[int] = set()
    order: list[WiringTree] = []
    stack = [tree]
    while stack:  # node, right subtree, left subtree: post order reversed
        node = stack.pop()
        if id(node) in seen:
            raise MalformedTreeError("node object appears twice: a box cannot be reused")
        seen.add(id(node))
        if isinstance(node, RBNode):
            stack += (node.left, node.right)
        elif not isinstance(node, Leaf):
            raise MalformedTreeError(f"foreign node type {type(node).__name__}")
        order.append(node)
    order.reverse()
    leaves = len(order) - sum(isinstance(node, RBNode) for node in order)
    wire: dict[int, int] = {}
    boxes: list[tuple[int, int]] = []
    for node in order:
        if isinstance(node, RBNode):
            boxes.append((wire[id(node.left)], wire[id(node.right)]))
            wire[id(node)] = leaves + len(boxes) - 1
        else:
            wire[id(node)] = len(wire) - len(boxes)
    root = wire[id(tree)]
    paths: list[tuple[tuple[int, int], ...]] = [()] * leaves
    down = [(root, ())]
    while down:
        w, path = down.pop()
        if w < leaves:
            paths[w] = path
            continue
        j = w - leaves
        for step, child in enumerate(boxes[j]):
            down.append((child, path + ((j, step),)))
    return FlatTree(leaves=leaves, boxes=tuple(boxes), root=root, paths=tuple(paths))


@dataclass(frozen=True)
class CostReport:
    """Resource accounting for a compiled n->1 code."""

    n: int
    rb_count: int
    message_bits: int
    concatenation_uses: int
    addition_uses: int


def concatenate(k: int) -> WiringTree:
    """Perfect wiring tree of depth k covering 2^k database bits.

    Fresh node objects are built on every call: the two subtrees of a node
    are equal as values but must be distinct boxes.
    """
    if k < 0:
        raise ValueError("depth must be non-negative")
    if k == 0:
        return Leaf()
    return RBNode(concatenate(k - 1), concatenate(k - 1))


def add(left: WiringTree, right: WiringTree) -> WiringTree:
    """Join two codes under a fresh root box, summing their database sizes."""
    return RBNode(left, right)


# `compile --n 65536` takes about 2 s and 93 MB max RSS on a 2-vCPU VM;
# time and memory grow as n log n
MAX_COMPILE_N = 1 << 16


def compile_rac(n: int) -> tuple[WiringTree, CostReport]:
    """Build an n->1 code from the binary expansion of n.

    One perfect tree per set bit of n, joined smallest-first so the cheap
    early bits sit near the root; n - 1 boxes in total, always one message
    bit.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MAX_COMPILE_N:
        raise ValueError(
            f"n={n} exceeds the compile cap of {MAX_COMPILE_N} bits: "
            "the flat form holds a root-to-leaf path per bit"
        )
    terms = [k for k in range(n.bit_length()) if (n >> k) & 1]
    tree: WiringTree | None = None
    concat_uses = 0
    add_uses = 0
    for k in terms:
        piece = concatenate(k)
        concat_uses += 1
        if tree is None:
            tree = piece
        else:
            tree = add(tree, piece)
            add_uses += 1
    assert tree is not None
    report = CostReport(
        n=n,
        rb_count=len(flatten(tree).boxes),
        message_bits=1,
        concatenation_uses=concat_uses,
        addition_uses=add_uses,
    )
    return tree, report


def check_tree_lemma(tree: WiringTree) -> ProbeReport:
    """Verify leaves = boxes + 1, both counted on the flattened tree."""
    flat = flatten(tree)
    leaves, internals = flat.leaves, len(flat.boxes)
    return ProbeReport(
        claim="wiring tree serves one more bit than it spends boxes",
        passed=leaves == internals + 1,
        quantity=Fraction(leaves),
        bound=Fraction(internals + 1),
    )


# --- perfect-box analysis ---------------------------------------------------


def tree_wins_always(tree: WiringTree) -> bool:
    """Symbolic check that decoding returns the queried bit identically.

    Wire values are tracked as XOR-sets of formal tokens, one per wire:
    leaf i carries token x_i, box j publishes its Alice output token A_j.
    Box j answers Bob with B_j = (the value fed on the queried side) xor A_j,
    and the decoder XORs the message with every B on the path; the protocol
    is perfect iff every query reduces to exactly {x_i}.
    """
    flat = flatten(tree)
    for i, path in enumerate(flat.paths):
        decoded = {flat.root}
        for j, step in path:
            decoded ^= {flat.boxes[j][step], flat.leaves + j}
        if decoded != {i}:
            return False
    return True


def tree_win_probability_exact(tree: WiringTree) -> Fraction:
    """Brute-force win probability with perfect boxes.

    Enumerates every Alice-output pattern and evaluates all 2^N databases
    at once as bitmasks (bit j of a wire's mask is its value on database
    pattern j).  Nothing is assumed about cancellations, which makes this
    the oracle for the symbolic check.
    """
    flat = flatten(tree)
    n_leaves, n_boxes = flat.leaves, len(flat.boxes)
    size = 1 << n_leaves
    full = (1 << size) - 1
    leaf_masks = [sum(1 << j for j in range(size) if (j >> i) & 1) for i in range(n_leaves)]

    wins = 0
    for apat in range(1 << n_boxes):
        value = leaf_masks + [full if (apat >> j) & 1 else 0 for j in range(n_boxes)]
        for i, path in enumerate(flat.paths):
            decoded = value[flat.root]  # the message m = A_root
            for j, step in path:
                decoded ^= value[flat.boxes[j][step]] ^ value[n_leaves + j]
            agree = ~(decoded ^ leaf_masks[i]) & full
            wins += agree.bit_count()
    return Fraction(wins, (1 << n_boxes) * n_leaves * size)


# --- noisy-box analysis -----------------------------------------------------


def path_success(length: int, p2):
    """Probability the XOR of `length` independent box answers is error-free.

    One step keeps a correct running value correct with probability p2 and
    repairs a wrong one with probability 1 - p2.  A negative length or a p2
    outside [0, 1] raises ValueError.
    """
    if length < 0:
        raise ValueError(f"path length {length} is negative")
    if not 0 <= p2 <= 1:
        raise ValueError(f"box winning probability p2={p2} is outside [0, 1]")
    r = p2 * 0 + 1  # one, in the arithmetic of p2's type
    for _ in range(length):
        r = r * p2 + (1 - r) * (1 - p2)
    return r


def _mean_path_success(flat: FlatTree, p2):
    # one call per distinct length; summing leaf by leaf in path order keeps float bits
    success = {length: path_success(length, p2) for length in set(map(len, flat.paths))}
    return sum(success[len(p)] for p in flat.paths) / flat.leaves


def winning_probability(tree: WiringTree, p2):
    """Average success of the compiled code when each box wins with prob p2.

    Exact if p2 is a Fraction; float arithmetic otherwise.  Queries are
    uniform over database positions.  p2 outside [0, 1] raises ValueError.
    """
    return _mean_path_success(flatten(tree), p2)


def winning_probability_oracle(tree: WiringTree, p2):
    """Win probability by brute force over all error patterns.

    Every subset of boxes errs with the product weight; a query succeeds
    iff its path meets the subset an even number of times.  Exponential in
    the box count, so only for small trees.
    """
    flat = flatten(tree)
    path_masks = [sum(1 << j for j, _ in path) for path in flat.paths]
    k = len(flat.boxes)
    total = p2 * 0
    for flips in range(1 << k):
        weight = p2 * 0 + 1
        for i in range(k):
            weight = weight * ((1 - p2) if (flips >> i) & 1 else p2)
        for mask in path_masks:
            if (flips & mask).bit_count() % 2 == 0:
                total = total + weight
    return total / flat.leaves


# --- bound table ------------------------------------------------------------


@dataclass(frozen=True)
class BoundRow:
    """One line of the compiled-code bound table."""

    n: int
    rb_count: int
    values: tuple


# `table --nmax 512` takes about 1 s on a 2-vCPU VM; the table compiles every
# n up to nmax, so time grows as nmax^2 log nmax
MAX_TABLE_N = 1 << 9


def bound_table(ns: Iterable[int], p2s: Sequence) -> list[BoundRow]:
    """Win probabilities of the compiled codes at each box quality in p2s.
    An n above ``MAX_TABLE_N`` is refused before any code is compiled."""
    ns = list(ns)
    if ns and max(ns) > MAX_TABLE_N:
        raise ValueError(f"n={max(ns)} exceeds the table cap of {MAX_TABLE_N}: "
                         "the table compiles a code for every n it lists")
    rows = []
    for n in ns:
        tree, cost = compile_rac(n)
        flat = flatten(tree)
        values = tuple(_mean_path_success(flat, p2) for p2 in p2s)
        rows.append(BoundRow(n=n, rb_count=cost.rb_count, values=values))
    return rows


def format_bound_table(rows: Sequence[BoundRow], headers: Sequence[str]) -> str:
    """Plain-text table; probabilities printed to six decimals."""
    cols = ["n", "boxes"] + list(headers)
    lines = ["  ".join(f"{c:>12}" for c in cols)]
    for row in rows:
        cells = [f"{row.n:>12}", f"{row.rb_count:>12}"]
        for v in row.values:
            cells.append(f"{float(v):>12.6f}")
        lines.append("  ".join(cells))
    return "\n".join(lines)


def to_dot(tree: WiringTree) -> str:
    """Graphviz rendering, leaves labelled with their database index.

    Nodes are numbered in pre order; a node's edge to its parent is written
    once the node's whole subtree is drawn.  An explicit stack does the walk,
    so depth is not bounded by the interpreter's recursion limit.
    """
    flat = flatten(tree)
    lines = ["digraph wiring {", "  node [shape=circle];"]
    names = count()
    stack: list[tuple[int, str | None] | str] = [(flat.root, None)]
    while stack:
        top = stack.pop()
        if isinstance(top, str):  # an edge line, due once its child's subtree is drawn
            lines.append(top)
            continue
        wire, parent = top
        name = f"v{next(names)}"
        if parent is not None:
            stack.append(f"  {parent} -> {name};")
        if wire < flat.leaves:
            lines.append(f'  {name} [shape=box, label="x{wire}"];')
            continue
        lines.append(f'  {name} [label="RB"];')
        left, right = flat.boxes[wire - flat.leaves]
        stack += ((right, name), (left, name))
    lines.append("}")
    return "\n".join(lines)
