"""Exhaustive strategy search for random access codes built from boxes.

The game: Alice holds n uniform bits a_0..a_{n-1} and k boxes of the
no-signaling kind (query j answers a_j xor A xor A', with A uniform and
independent of everything Alice controls); she may send Bob one classical
bit.  Bob, given a uniform query btilde, must output a_btilde.

For a single box the search is exact and Bob goes first.  In his cell
(btilde, m) a deterministic Bob outputs a constant or queries the box at
some j, and his relay A' and output flip collapse into one sign: six
behaviours per cell, 6^n option tables per message value.  For a pair of
tables (t0, t1) Alice best-responds per input a: she picks her encoder
bits (f_0(a), f_1(a)) and, in each world (a, A), the message naming the
table that answers more queries.  The best pair's response becomes an
explicit witness, re-checked by the independent simulator.  The values
are 5/6 at n = 3 and 13/16 at n = 4: one box and one bit fall short of an
n -> 1 code once n >= 3.

Everything is integer arithmetic: win counts out of 2^(n+1) * n world-query
pairs, reported as exact fractions.  Shared randomness never helps a
maximum over deterministic strategies (the objective is linear in the
mixture), which every result records as a note.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .reports import ProbeReport
from .tables import Domain, TableFn, build_tables, parse_tables, preamble_int, serialize_tables
from .wiring import compile_rac, flatten

__all__ = [
    "Strategy",
    "strategy_domains",
    "SearchResult",
    "search_rac_with_rbs",
    "evaluate_strategy",
    "tree_strategy",
    "strategy_from_parts",
    "verify_observation2",
    "serialize_strategy",
    "parse_strategy",
]

CONVEXITY_NOTE = (
    "shared randomness cannot beat the deterministic maximum: the win "
    "probability is linear in the mixing weights, so some vertex is optimal"
)


def strategy_domains(n: int, rb_names: Sequence[str]) -> Mapping[str, Domain]:
    """The tables of an n-bit strategy with boxes ``rb_names``, in file order,
    as a read-only mapping built once per (n, box names).

    Alice's side evaluates boxes in ``rb_names`` order: box j's encoder
    tables ``<box>.a0`` and ``<box>.a1`` see (a_0..a_{n-1}) plus the outputs
    A of the boxes before it, and the message table ``m`` sees all task
    inputs and all A's.  Bob queries boxes in reverse order; his tables
    ``<box>.b`` (the box input he queries) and ``<box>.aprime`` (his relay)
    see (btilde, m) plus the outputs B of boxes he already queried, and the
    final output table ``Btilde`` sees (btilde, m) and every B in query
    order.  Every input and output is a bit, except btilde, which is n-ary.
    """
    return _strategy_domains(n, tuple(rb_names))


@lru_cache(maxsize=64)
def _strategy_domains(n: int, rb_names: tuple[str, ...]) -> Mapping[str, Domain]:
    task = tuple((f"a_{i}", 2) for i in range(n))
    a_outs = tuple((f"A_{name}", 2) for name in rb_names)
    domains: dict[str, Domain] = {}
    for j, name in enumerate(rb_names):
        domains[f"{name}.a0"] = domains[f"{name}.a1"] = (task + a_outs[:j], 2)
    domains["m"] = (task + a_outs, 2)
    head = (("btilde", n), ("m", 2))
    b_outs = tuple((f"B_{name}", 2) for name in reversed(rb_names))
    for r, name in enumerate(reversed(rb_names)):
        domains[f"{name}.b"] = domains[f"{name}.aprime"] = (head + b_outs[:r], 2)
    domains["Btilde"] = (head + b_outs, 2)
    return MappingProxyType(domains)


@dataclass(frozen=True)
class Strategy:
    """Deterministic strategy, all parts as explicit truth tables by name.

    ``tables`` holds exactly the tables of ``strategy_domains(n, rb_names)``,
    each a TableFn or the values ``TableFn.from_array`` builds it from; they
    are kept as a read-only mapping of TableFns in that order.
    """

    n: int
    rb_names: tuple[str, ...]
    tables: Mapping[str, TableFn]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rb_names", tuple(self.rb_names))
        n, k = self.n, len(self.rb_names)
        if n < 2:
            raise ValueError("need n >= 2")
        if k < 1:
            raise ValueError("need at least one box")
        if len(set(self.rb_names)) != k:
            raise ValueError("box names must be unique")
        object.__setattr__(self, "tables", build_tables(self.tables, strategy_domains(n, self.rb_names)))


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a strategy search, exact and reproducible."""

    max_win_probability: Fraction
    witness: Strategy
    strategies_examined: int
    pruned: int
    complete: bool
    elapsed_seconds: float
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= self.max_win_probability <= 1:
            raise ValueError("win probability out of range")


def evaluate_strategy(strategy: Strategy) -> Fraction:
    """Independent exact simulator: average win over inputs, box outputs, queries.

    Reads nothing but the strategy's tables, so it cross-checks whatever the
    search engine claims for its witnesses.  The worlds (a, A_0..A_{k-1})
    are numbered row-major over those bits, a_0 highest, and every table
    read is a shift of that number or of Bob's running index:

    - ``m`` is declared over exactly the world bits, so its entries array
      is the message per world;
    - box j's encoders read the world's top n + j bits, so per world they
      are their entries repeated 2^(k-j) times, and A_j is the next bit;
    - a task bit a_q is bit n + k - 1 - q of the world number.

    Bob's k rounds run over the (btilde, world) grid with one index per
    cell, which starts at 2 * btilde + m.  Row-major over (btilde, m, the
    B's so far) it is the index every table of his next round reads, and
    each round appends that round's B: a step table over (index, Alice's
    two possible box outputs x_0 x_1 at the world) holds 2 * index + B,
    where B = x_b ^ aprime with b and aprime read at the index.  One gather
    per round, and one from ``Btilde`` at the end; the wins are counted
    exactly.

    The shift reads and the unchecked gathers rely on ``Strategy`` holding
    its tables to ``strategy_domains`` with ``check_tables``: that fixes
    every table's inputs by name, order and alphabet (2 for bits, n for
    btilde) and every output alphabet to 2, and ``TableFn`` checks its
    entries array against the output alphabet once, when the table is
    built.  So a table whose inputs came in another order is refused before
    it can be read at the wrong shift, every index stays inside the table
    it reads, and each gathered value is a bit.
    """
    n, names, t = strategy.n, strategy.rb_names, strategy.tables
    k = len(names)
    idx = 2 * np.arange(n)[:, None] + t["m"].entries  # per (btilde, world)
    pair = np.arange(4)  # Alice's two possible box outputs, x_0 + 2 * x_1
    for j in reversed(range(k)):  # Bob queries the boxes in reverse wiring order
        name = names[j]
        enc = t[f"{name}.a0"].entries | t[f"{name}.a1"].entries << 1
        # per (encoder input, A_j), where A_j flips both outputs; then per world
        alice = np.repeat(enc[:, None] ^ np.array([0, 3], dtype=np.uint8), 1 << (k - 1 - j))
        b, aprime = (t[f"{name}.{part}"].entries[:, None] for part in ("b", "aprime"))
        # step[i, p] = 2 * i + B, read at 4 * i + p
        step = 2 * np.arange(b.size)[:, None] + (((pair >> b) & 1) ^ aprime)
        idx <<= 2
        idx |= alice
        idx = step.take(idx)
    guess = t["Btilde"].entries.take(idx)
    wins = 0
    for q in range(n):
        # the middle axis is a_q; Bob wins where his guess equals it
        g = guess[q].reshape(1 << q, 2, -1)
        wins += g[:, 0].size - int(np.count_nonzero(g[:, 0])) + int(np.count_nonzero(g[:, 1]))
    return Fraction(wins, 2 ** n * 2 ** k * n)


def tree_strategy(n: int) -> Strategy:
    """The compiled wiring tree of n-1 boxes as an explicit Strategy.

    Alice wires each box with its children's values (task bit or child
    output A), sends the root output, and Bob XORs the message with the
    box outputs along his query's root-to-leaf path.  Box j of the flat
    tree is named rb<j>; its wires index Alice's table inputs directly,
    since those are the task bits followed by the upstream box outputs.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n > 9:
        raise ValueError(
            f"tree strategies are built for n <= 9, got n={n}: the witness's "
            f"message table would have 2^(2n-1) = {2 ** (2 * n - 1)} entries"
        )
    tree, _ = compile_rac(n)
    flat = flatten(tree)
    names = tuple(f"rb{j}" for j in range(len(flat.boxes)))
    k = len(names)
    values: dict[str, object] = {}
    for j, (name, wires) in enumerate(zip(names, flat.boxes)):
        bits = np.indices((2,) * (n + j), sparse=True)
        values[f"{name}.a0"], values[f"{name}.a1"] = (bits[w] for w in wires)
    values["m"] = np.indices((2,) * (n + k), sparse=True)[flat.root]

    # per query q and box j: is j on q's path, and the direction taken there
    on_path = np.zeros((n, k), dtype=np.int64)
    turn = np.zeros((n, k), dtype=np.int64)
    for q, path in enumerate(flat.paths):
        for j, direction in path:
            on_path[q, j], turn[q, j] = 1, direction

    for j, name in enumerate(names):
        # Bob queries box j after the k - 1 - j boxes behind it; the direction
        # depends on btilde alone, the first of his k + 1 - j inputs
        values[f"{name}.b"] = turn[:, j].reshape((n,) + (1,) * (k - j))
        values[f"{name}.aprime"] = 0
    btilde, guess, *outs = np.indices((n, 2) + (2,) * k, sparse=True)
    for r, out in enumerate(outs):
        guess = guess ^ (on_path[btilde, k - 1 - r] & out)
    values["Btilde"] = guess
    return Strategy(n, names, values)


# --- the one-box engine -----------------------------------------------------
#
# Behaviour order per Bob cell: 0 = output 0, 1 = output 1, then (query j,
# sign eps) in the order (0,0), (0,1), (1,0), (1,1); prediction f_j(a) ^ A ^ eps.
N_BEHAVIOURS = 6
# per behaviour: the box input Bob queries, and his output for box output B = 0, 1
_QUERY = np.array([0, 0, 0, 0, 1, 1], dtype=np.uint8)
_OUTPUT = np.array([[0, 0], [1, 1], [0, 1], [1, 0], [0, 1], [1, 0]], dtype=np.uint8)
# Bob tables per block of the pair scan; bounds every temporary to
# CHUNK * 6^n * 2^(n+3) one-byte cells (2.7 MB at n = 4), laid out as
# (fp, [A,] a, CHUNK, 6^n) so each step runs along rows of Bob tables
CHUNK = 16


@lru_cache(maxsize=4)
def _correct_counts(n: int) -> np.ndarray:
    """C[fp, A, a, t] = queries option table t answers correctly in world (a, A).

    fp packs Alice's encoder bits at a: bit j of fp is f_j(a).  Entries lie
    in [0, n]; the shape is (4, 2, 2^n, 6^n).  Bob's table index is the last,
    contiguous axis, so the pair scan reduces over leading axes only.  Built
    once per n and read-only.
    """
    dom = 1 << n
    a = np.arange(dom)[:, None]
    fp = np.arange(4)[:, None, None]
    box_out = np.arange(2)[:, None]
    # per (fp, A, behaviour) Bob's prediction; it does not depend on a
    preds = np.empty((4, 2, 1, N_BEHAVIOURS), dtype=np.int8)
    preds[..., 0] = 0
    preds[..., 1] = 1
    for j in range(2):
        for eps in range(2):
            preds[..., 2 + 2 * j + eps] = ((fp >> j) & 1) ^ box_out ^ eps
    tables = np.unravel_index(np.arange(N_BEHAVIOURS ** n), (N_BEHAVIOURS,) * n)
    counts = np.zeros((4, 2, dom, N_BEHAVIOURS ** n), dtype=np.int8)
    for q, behaviour in enumerate(tables):
        counts += (preds == ((a >> q) & 1))[..., behaviour]
    counts.flags.writeable = False
    return counts


def _message_free(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per (fp, a): wins when Alice picks the better table in each world."""
    best = np.maximum(x, y)
    return best[:, 0] + best[:, 1]


def _message_is_a(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per (fp, a): wins when the message is the box output A."""
    return x[:, 0] + y[:, 1]


def _message_ignores_a(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per (fp, a): wins when the message depends on a alone."""
    return np.maximum(_message_is_a(x, x), _message_is_a(y, y))


def _best_table_pair(counts: np.ndarray, combine, symmetric: bool) -> tuple[int, int, int, int, int]:
    """Max over Bob table pairs (t0, t1) of sum_a max_fp combine(C[t0], C[t1]).

    Alice's best response is per a, so each pair costs one array pass.  A
    symmetric objective skips (t0, t1) once its mirror (t1, t0) was scanned.
    Returns (value, t0, t1, pairs examined, pairs skipped).
    """
    n_tables = counts.shape[-1]
    best = (-1, 0, 0)
    examined = skipped = 0
    for i0 in range(0, n_tables, CHUNK):
        j0 = i0 if symmetric else 0
        block = combine(counts[..., i0: i0 + CHUNK, None], counts[..., None, j0:])
        values = block.max(axis=0).sum(axis=0, dtype=np.int32)
        examined += values.size
        skipped += values.shape[0] * j0
        flat = int(values.argmax())
        if values.flat[flat] > best[0]:
            best = (int(values.flat[flat]), i0 + flat // values.shape[1], j0 + flat % values.shape[1])
    return (*best, examined, skipped)


# Bob's behaviours, as the values strategy_from_parts admits
_BEHAVIOURS = frozenset(range(N_BEHAVIOURS))


@lru_cache(maxsize=8)
def _one_box_layout(n: int) -> tuple[Mapping[str, Domain], int, np.ndarray, np.ndarray, TableFn]:
    """What every n-bit one-box strategy shares, built once per n: its
    domains; the bytes per packed encoder; per entry of the two encoder
    tables, row j for f_j, the place of its bit among the unpacked bits of
    f0 then f1; per entry of ``m``, its world 2*a + A; and the all-zero
    ``rb0.aprime`` table.  The arrays are read-only.

    A packed index holds a_0 in its lowest bit and a table index in its
    highest, so the encoder order is the n-bit reversal."""
    domains = strategy_domains(n, ("rb0",))
    width = -(-(1 << n) // 8)
    rev = np.arange(1 << n).reshape((2,) * n).T.ravel()
    bits = rev + np.array([[0], [8 * width]])
    worlds = (2 * rev[:, None] + np.arange(2)).ravel()
    bits.flags.writeable = worlds.flags.writeable = False
    aprime = TableFn("rb0.aprime", *domains["rb0.aprime"], np.zeros(2 * n, dtype=np.uint8))
    return domains, width, bits, worlds, aprime


def strategy_from_parts(
    n: int, f0: int, f1: int, g_bits: Sequence[int], t0: Sequence[int], t1: Sequence[int]
) -> Strategy:
    """Assemble the explicit one-box Strategy from the engine's parts.

    f0, f1 are encoder truth tables packed little-endian over the a-domain;
    g_bits lists the message for each world 2*a + A; t0, t1 are Bob's
    behaviour tables per message value (entries 0..5).  Each table's
    entries are gathered flat, in table order.
    """
    if not (0 <= f0 < (1 << (1 << n)) and 0 <= f1 < (1 << (1 << n))):
        raise ValueError("encoder table out of range")
    if len(g_bits) != (1 << (n + 1)) or len(t0) != n or len(t1) != n:
        raise ValueError("wrong part sizes")
    if not _BEHAVIOURS.issuperset((*t0, *t1)):
        raise ValueError("Bob behaviour out of range")
    domains, width, bits, worlds, aprime = _one_box_layout(n)
    # bit p of f_j is bit p of its little-endian bytes, exact past int64
    packed = operator.index(f0).to_bytes(width, "little") + operator.index(f1).to_bytes(width, "little")
    enc = np.unpackbits(np.frombuffer(packed, np.uint8), bitorder="little")[bits]
    beta = np.empty(2 * n, dtype=np.intp)  # Bob's behaviour per cell (btilde, m), row-major
    beta[0::2], beta[1::2] = t0, t1
    return Strategy(n, ("rb0",), {
        "rb0.a0": TableFn("rb0.a0", *domains["rb0.a0"], enc[0]),
        "rb0.a1": TableFn("rb0.a1", *domains["rb0.a1"], enc[1]),
        "m": TableFn("m", *domains["m"], np.asarray(g_bits)[worlds]),
        "rb0.b": TableFn("rb0.b", *domains["rb0.b"], _QUERY[beta]),
        "rb0.aprime": aprime,
        "Btilde": TableFn("Btilde", *domains["Btilde"], _OUTPUT[beta].ravel()),
    })


def _pack(bits: Sequence[int]) -> int:
    x = 0
    for i, b in enumerate(bits):
        x |= b << i
    return x


def _best_response(n: int, counts: np.ndarray, i: int, j: int) -> Strategy:
    """Alice's best response to Bob's option tables i and j, as a Strategy.

    Her encoder bits at each a maximize the pair's score there; in each
    world her message names the table that answers more queries.
    """
    c0, c1 = counts[..., i], counts[..., j]
    fp = _message_free(c0, c1).argmax(axis=0)
    a = np.arange(1 << n)
    # rows a, columns A: raveled in world order 2*a + A
    g_bits = (c0[fp, :, a] < c1[fp, :, a]).ravel().astype(int).tolist()
    f0, f1 = _pack((fp & 1).tolist()), _pack((fp >> 1).tolist())
    # table number t holds behaviour digit q of t in base 6 at query q
    t0, t1 = np.array(np.unravel_index([i, j], (N_BEHAVIOURS,) * n)).T.tolist()
    return strategy_from_parts(n, f0, f1, g_bits, t0, t1)


def search_rac_with_rbs(n: int, k_rbs: int) -> SearchResult:
    """Maximum winning probability of n->1 with k boxes and one message bit.

    k >= n-1 returns 1 immediately with the compiled-tree witness of n-1
    boxes (any further boxes are left idle); the one-box case runs the
    exact engine to completion (13/16 at n = 4).  These admitted sizes are
    the search's only size policy: anything else is beyond desk scale and
    refused with a ValueError, so every result is exact and complete.
    """
    if n < 2 or k_rbs < 1:
        raise ValueError("need n >= 2 and k_rbs >= 1")
    start = time.monotonic()
    if k_rbs >= n - 1:
        witness, value, examined, skipped = tree_strategy(n), Fraction(1), 1, 0
        notes = [
            "construction witness: the compiled wiring tree wins every input",
            CONVEXITY_NOTE,
        ]
        if k_rbs > n - 1:
            notes.append(
                f"the witness wires n-1 = {n - 1} of the {k_rbs} boxes "
                f"and leaves the other {k_rbs - (n - 1)} idle"
            )
    elif k_rbs != 1 or n not in (3, 4):
        raise ValueError(
            f"(n={n}, k_rbs={k_rbs}) is outside the implemented desk scale: "
            "supported are k_rbs >= n-1 (construction) and k_rbs = 1 with n in {3, 4}"
        )
    else:
        counts = _correct_counts(n)
        best_val, i, j, examined, skipped = _best_table_pair(counts, _message_free, True)
        witness = _best_response(n, counts, i, j)
        denom = (2 << n) * n
        value = Fraction(best_val, denom)
        total = counts.shape[-1] ** 2
        notes = [
            f"objective counts wins over {denom} world-query pairs",
            "witness re-evaluated by the independent simulator: match",
            CONVEXITY_NOTE,
            f"Bob's option table pairs enumerated with Alice best-responding per input; "
            f"{examined} of {total} ordered pairs evaluated, {skipped} skipped as "
            "mirror images under relabelling the message",
        ]
    check = evaluate_strategy(witness)
    if check != value:
        raise AssertionError(f"claimed value {value} disagrees with simulator {check}")
    return SearchResult(
        max_win_probability=value,
        witness=witness,
        strategies_examined=examined,
        pruned=skipped,
        complete=True,
        elapsed_seconds=time.monotonic() - start,
        notes=tuple(notes),
    )


def verify_observation2(n: int) -> ProbeReport:
    """Best strategy with m = A against the best with m independent of A.

    Both restricted maxima run over every pair of Bob option tables with
    Alice's encoder bits best-responding per input; the probe passes iff
    activating the box (relaying its output) does at least as well as any
    fixed-message plan.
    """
    if n not in (2, 3):
        raise ValueError("observation check is implemented for n in {2, 3}")
    counts = _correct_counts(n)
    best_act, i, j, *_ = _best_table_pair(counts, _message_is_a, False)
    best_fixed, *_ = _best_table_pair(counts, _message_ignores_a, True)
    fp = _message_is_a(counts[..., i], counts[..., j]).argmax(axis=0)
    denom = (2 << n) * n
    act_prob = Fraction(best_act, denom)
    fixed_prob = Fraction(best_fixed, denom)
    return ProbeReport(
        claim="relaying the box output beats every fixed-message strategy",
        passed=act_prob >= fixed_prob,
        quantity=act_prob,
        bound=fixed_prob,
        witness=f"m = A with encoder tables f0={_pack((fp & 1).tolist()):#x}, "
        f"f1={_pack((fp >> 1).tolist()):#x}",
        notes=(
            f"best with m = A: {act_prob}",
            f"best with m independent of A: {fixed_prob}",
            "both maxima are exact over all one-box strategies of their family",
            CONVEXITY_NOTE,
        ),
    )


def serialize_strategy(strategy: Strategy) -> str:
    preamble = [
        ("strategy-kind", "rac-with-rbs"),
        ("n", str(strategy.n)),
        ("rbs", str(len(strategy.rb_names))),
        ("wiring-order", " ".join(strategy.rb_names)),
    ]
    return serialize_tables(preamble, strategy.tables.values())


def parse_strategy(text: str) -> Strategy:
    preamble, tables = parse_tables(text)
    if preamble.get("strategy-kind") != "rac-with-rbs":
        raise ValueError("not a box-strategy file")
    names = tuple(preamble.get("wiring-order", "").split())
    if "rbs" in preamble and len(names) != preamble_int(preamble, "rbs"):
        raise ValueError("wiring order disagrees with the declared box count")
    return Strategy(preamble_int(preamble, "n"), names, tables)
