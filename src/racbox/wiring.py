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

With noisy boxes that answer each query correctly with probability p2
independently, the decoded bit is correct iff an even number of path
boxes err, which the closed-form recursion below tracks per depth.  An
exhaustive flip-pattern oracle is provided to check the recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def leaf_count(tree: WiringTree) -> int:
    if isinstance(tree, Leaf):
        return 1
    return leaf_count(tree.left) + leaf_count(tree.right)


def internal_count(tree: WiringTree) -> int:
    if isinstance(tree, Leaf):
        return 0
    return 1 + internal_count(tree.left) + internal_count(tree.right)


def leaf_paths(tree: WiringTree) -> tuple[tuple[int, ...], ...]:
    """Root-to-leaf direction words (0 = left), one per leaf, left to right.

    The position of a path in this tuple is the database index its leaf
    serves, so queries route by plain indexing.
    """
    out: list[tuple[int, ...]] = []

    def walk(node: WiringTree, prefix: tuple[int, ...]) -> None:
        if isinstance(node, Leaf):
            out.append(prefix)
            return
        walk(node.left, prefix + (0,))
        walk(node.right, prefix + (1,))

    walk(tree, ())
    return tuple(out)


def compile_rac(n: int) -> tuple[WiringTree, CostReport]:
    """Build an n->1 code from the binary expansion of n.

    One perfect tree per set bit of n, joined smallest-first so the cheap
    early bits sit near the root; n - 1 boxes in total, always one message
    bit.
    """
    if n < 1:
        raise ValueError("need n >= 1")
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
        rb_count=internal_count(tree),
        message_bits=1,
        concatenation_uses=concat_uses,
        addition_uses=add_uses,
    )
    return tree, report


def _check_shape(tree: WiringTree) -> tuple[int, int]:
    """Walk the tree, rejecting reused node objects and foreign types.

    Returns (leaves, internals).  Structural equality is fine (two equal
    subtrees are still two boxes); object identity reuse is not, because it
    would feed one physical box twice.
    """
    seen: set[int] = set()
    leaves = 0
    internals = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            raise MalformedTreeError("node object appears twice: a box cannot be reused")
        seen.add(id(node))
        if isinstance(node, Leaf):
            leaves += 1
        elif isinstance(node, RBNode):
            internals += 1
            stack.append(node.left)
            stack.append(node.right)
        else:
            raise MalformedTreeError(f"foreign node type {type(node).__name__}")
    return leaves, internals


def check_tree_lemma(tree: WiringTree) -> ProbeReport:
    """Verify leaves = boxes + 1 against an independent edge count.

    Every internal node contributes two child edges, and a connected
    acyclic graph on V vertices has V - 1 edges; both counts are taken
    directly from the structure and compared.
    """
    leaves, internals = _check_shape(tree)
    vertices = leaves + internals
    edges = 2 * internals
    handshake_ok = edges == vertices - 1
    lemma_ok = leaves == internals + 1
    return ProbeReport(
        claim="wiring tree serves one more bit than it spends boxes",
        passed=handshake_ok and lemma_ok,
        quantity=Fraction(leaves),
        bound=Fraction(internals + 1),
        notes=(
            f"vertices={vertices}",
            f"edges={edges}",
            "edge count equals vertices - 1" if handshake_ok else "edge count is wrong",
        ),
    )


# --- perfect-box analysis ---------------------------------------------------


def tree_wins_always(tree: WiringTree) -> bool:
    """Symbolic check that decoding returns the queried bit identically.

    Wire values are tracked as XOR-sets of formal tokens: leaf i carries
    token x_i, internal node v publishes its Alice output token A_v.  The
    decoder's XOR accumulates token sets by symmetric difference; the
    protocol is perfect iff every query reduces to exactly {x_i}.
    """
    _check_shape(tree)
    token: dict[int, frozenset] = {}
    index_of_leaf: dict[int, int] = {}

    def assign(node: WiringTree, next_leaf: list[int]) -> None:
        if isinstance(node, Leaf):
            index_of_leaf[id(node)] = next_leaf[0]
            token[id(node)] = frozenset({("x", next_leaf[0])})
            next_leaf[0] += 1
            return
        assign(node.left, next_leaf)
        assign(node.right, next_leaf)
        token[id(node)] = frozenset({("A", id(node))})

    assign(tree, [0])

    def decoded(path: Sequence[int]) -> frozenset:
        acc = token[id(tree)] if isinstance(tree, RBNode) else frozenset()
        node = tree
        for step in path:
            child = node.left if step == 0 else node.right
            # B_v = value(child) xor A_v
            acc = acc ^ token[id(child)] ^ frozenset({("A", id(node))})
            node = child
        return acc

    if isinstance(tree, Leaf):
        return True
    for i, path in enumerate(leaf_paths(tree)):
        if decoded(path) != frozenset({("x", i)}):
            return False
    return True


def tree_win_probability_exact(tree: WiringTree) -> Fraction:
    """Brute-force win probability with perfect boxes.

    Enumerates every Alice-output pattern and evaluates all 2^N databases
    at once as bitmasks (bit j of a wire's mask is its value on database
    pattern j).  Nothing is assumed about cancellations, which makes this
    the oracle for the symbolic check.
    """
    _check_shape(tree)
    paths = leaf_paths(tree)
    n_leaves = len(paths)
    internals: list[int] = []

    def collect(node: WiringTree) -> None:
        if isinstance(node, RBNode):
            internals.append(id(node))
            collect(node.left)
            collect(node.right)

    collect(tree)
    n_int = len(internals)
    pos = {v: i for i, v in enumerate(internals)}
    size = 1 << n_leaves
    full = (1 << size) - 1

    leaf_masks = []
    for i in range(n_leaves):
        m = 0
        for j in range(size):
            if (j >> i) & 1:
                m |= 1 << j
        leaf_masks.append(m)

    leaf_index: dict[int, int] = {}

    def number_leaves(node: WiringTree, next_leaf: list[int]) -> None:
        if isinstance(node, Leaf):
            leaf_index[id(node)] = next_leaf[0]
            next_leaf[0] += 1
            return
        number_leaves(node.left, next_leaf)
        number_leaves(node.right, next_leaf)

    number_leaves(tree, [0])

    wins = 0
    trials = 0
    for apat in range(1 << n_int):
        def wire_value(node: WiringTree) -> int:
            if isinstance(node, Leaf):
                return leaf_masks[leaf_index[id(node)]]
            return full if (apat >> pos[id(node)]) & 1 else 0

        for i, path in enumerate(paths):
            if isinstance(tree, Leaf):
                decoded = leaf_masks[0]
            else:
                decoded = wire_value(tree)  # the message m = A_root
                node = tree
                for step in path:
                    child = node.left if step == 0 else node.right
                    a_v = full if (apat >> pos[id(node)]) & 1 else 0
                    decoded ^= wire_value(child) ^ a_v
                    node = child
            agree = ~(decoded ^ leaf_masks[i]) & full
            wins += agree.bit_count()
            trials += size
    return Fraction(wins, trials)


# --- noisy-box analysis -----------------------------------------------------


def path_success(length: int, p2):
    """Probability the XOR of `length` independent box answers is error-free.

    One step keeps a correct running value correct with probability p2 and
    repairs a wrong one with probability 1 - p2.
    """
    r = p2 * 0 + 1  # one, in the arithmetic of p2's type
    for _ in range(length):
        r = r * p2 + (1 - r) * (1 - p2)
    return r


def winning_probability(tree: WiringTree, p2):
    """Average success of the compiled code when each box wins with prob p2.

    Exact if p2 is a Fraction; float arithmetic otherwise.  Queries are
    uniform over database positions.  p2 outside [0, 1] raises ValueError.
    """
    if not 0 <= p2 <= 1:
        raise ValueError(f"box winning probability p2={p2} is outside [0, 1]")
    _check_shape(tree)
    paths = leaf_paths(tree)
    total = sum(path_success(len(p), p2) for p in paths)
    return total / len(paths)


def winning_probability_oracle(tree: WiringTree, p2):
    """Win probability by brute force over all error patterns.

    Every subset of boxes errs with the product weight; a query succeeds
    iff its path meets the subset an even number of times.  Exponential in
    the box count, so only for small trees.
    """
    paths = leaf_paths(tree)
    internals: list[int] = []

    def collect(node: WiringTree) -> None:
        if isinstance(node, RBNode):
            internals.append(id(node))
            collect(node.left)
            collect(node.right)

    collect(tree)
    pos = {v: i for i, v in enumerate(internals)}
    path_masks = []
    for path in paths:
        mask = 0
        node = tree
        for step in path:
            mask |= 1 << pos[id(node)]
            node = node.left if step == 0 else node.right
        path_masks.append(mask)

    k = len(internals)
    total = p2 * 0
    for flips in range(1 << k):
        weight = p2 * 0 + 1
        for i in range(k):
            weight = weight * ((1 - p2) if (flips >> i) & 1 else p2)
        for mask in path_masks:
            if (flips & mask).bit_count() % 2 == 0:
                total = total + weight
    return total / len(paths)


# --- bound table ------------------------------------------------------------


@dataclass(frozen=True)
class BoundRow:
    """One line of the compiled-code bound table."""

    n: int
    rb_count: int
    depths: tuple[int, ...]
    values: tuple


def bound_table(ns: Iterable[int], p2s: Sequence) -> list[BoundRow]:
    """Win probabilities of the compiled codes at each box quality in p2s."""
    rows = []
    for n in ns:
        tree, cost = compile_rac(n)
        depths = tuple(len(p) for p in leaf_paths(tree))
        values = tuple(winning_probability(tree, p2) for p2 in p2s)
        rows.append(BoundRow(n=n, rb_count=cost.rb_count, depths=depths, values=values))
    return rows


def format_bound_table(rows: Sequence[BoundRow], headers: Sequence[str], digits: int = 6) -> str:
    """Plain-text table; probabilities printed to `digits` decimals."""
    cols = ["n", "boxes"] + list(headers)
    lines = ["  ".join(f"{c:>12}" for c in cols)]
    for row in rows:
        cells = [f"{row.n:>12}", f"{row.rb_count:>12}"]
        for v in row.values:
            cells.append(f"{float(v):>12.{digits}f}")
        lines.append("  ".join(cells))
    return "\n".join(lines)


def to_dot(tree: WiringTree) -> str:
    """Graphviz rendering, leaves labelled with their database index."""
    lines = ["digraph wiring {", "  node [shape=circle];"]
    counter = [0]
    leaf_no = [0]

    def walk(node: WiringTree) -> str:
        name = f"v{counter[0]}"
        counter[0] += 1
        if isinstance(node, Leaf):
            lines.append(f'  {name} [shape=box, label="x{leaf_no[0]}"];')
            leaf_no[0] += 1
            return name
        lines.append(f'  {name} [label="RB"];')
        for child in (node.left, node.right):
            cname = walk(child)
            lines.append(f"  {name} -> {cname};")
        return name

    walk(tree)
    lines.append("}")
    return "\n".join(lines)
