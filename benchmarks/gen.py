"""Seeded input generators for the `options` and `implicature` workloads.

The program under test only ever sees the formula *text* produced here; it
parses that text itself. A batch has two parts:

- the *body*: many small items. The seed fixes their atoms, aspects,
  operators, tree shapes, opinionated or-node ids and order; only the shape
  quotas (how many items of each or-count, kind and atom count) are fixed.
- the *tail*: a few expensive items whose cost depends on fine detail of
  the formula (which `or` options collide, where a belief-model scan first
  succeeds). Their structure comes from a fixed stream, and the seed only
  renames their atoms through an order-preserving map into the seeded pool
  (and, for `options`, picks the aspects). A tail drawn afresh per seed
  made the pass time swing by a fifth between seeds, which would hide any
  change smaller than that; this way the tail costs the same for every seed
  and the body supplies the variety.

The shape quotas below were chosen by hand. No recorded traffic exists to
draw them from: the only real inputs are the package's 16 corpus formulas.
Each run therefore prints, besides the count of items per shape, each
shape's share of the pass time, so a claim can say how much of a workload
it touches.
"""

from __future__ import annotations

import random
import string
from collections import Counter
from dataclasses import dataclass, replace

from coordsem.boolean import ATOM_LIMIT

# The options pool has ATOM_LIMIT names, so any two items together stay
# within the truth-table limit that `report.compare` runs into.
OPTIONS_POOL = ATOM_LIMIT
OPTIONS_ITERABLE = 4  # of the pool; the rest are stative
IMPLICATURE_POOL = 6

# (kind, or-count k, copies per batch). "tree" items are random and/or
# trees; "chain" is X1 or X2 or ... (2^k assignments, k+1 options);
# "conj" is (X1 or Y1) and (X2 or Y2) and ... (up to 2^k options).
# The body is large so that its percentiles move little from seed to seed:
# at half these copies op_ms.p90 read 0.10 of its median apart between seeds.
OPTIONS_BODY = (
    [("tree", k, 120) for k in range(4)]
    + [("tree", k, 32) for k in (4, 5)]
    + [("chain", k, 16) for k in (4, 6)]
    + [("conj", k, 16) for k in (3, 4)]
)
OPTIONS_TAIL = [("chain", k, 1) for k in (8, 10, 12)] + [("conj", k, 1) for k in (6, 8, 10)]

# (or-count k, atom count, copies per batch) for implicature items; the
# other binary nodes are `and`/`xor`, and `not` wraps random subformulas.
# As for options, the body is large so that its percentiles move little from
# seed to seed: at half these copies op_ms.p50 read 0.06 to 0.12 of its
# median apart between seeds.
IMPLICATURE_BODY = (
    [(0, n, 80) for n in (1, 2, 3, 4)]
    + [(1, n, 120) for n in (1, 2, 3, 4)]
    + [(2, n, 120) for n in (1, 2, 3)]
    + [(3, n, 60) for n in (2, 3)]
)
IMPLICATURE_TAIL = [(2, 4, 12), (3, 4, 20)]


@dataclass(frozen=True)
class Item:
    text: str
    kind: str  # tree, chain or conj
    ors: int
    atoms: int
    opinionated: tuple[int, ...] = ()  # soames-mode or-node ids (implicature only)
    part: str = "body"  # or "tail"


def _pool(rng: random.Random, size: int) -> list[str]:
    return sorted(rng.sample(string.ascii_uppercase, size))


def _tree(rng: random.Random, leaves: list[str], ops: list[str]) -> str:
    """Fully parenthesised random binary tree: leaves in order, one op per
    internal node, the split points drawn from rng."""
    if len(leaves) == 1:
        return leaves[0]
    split = rng.randrange(1, len(leaves))
    op_index = split - 1
    left = _tree(rng, leaves[:split], ops[:op_index])
    right = _tree(rng, leaves[split:], ops[op_index + 1:])
    return f"({left} {ops[op_index]} {right})"


def _strip(text: str) -> str:
    """Drop one pair of parentheses around the whole text, if there is one."""
    if text.startswith("(") and _balanced(text[1:-1]):
        return text[1:-1]
    return text


def _balanced(text: str) -> bool:
    depth = 0
    for ch in text:
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if depth < 0:
            return False
    return depth == 0


def _options_item(rng: random.Random, pool: list[str], iterable: set[str],
                  kind: str, k: int, copy: int) -> Item:
    def word(name: str) -> str:
        return f"{name}:iterable" if name in iterable else name

    if kind == "tree":
        n_leaves = k + 1 + copy % 3  # leaf counts by quota, not by chance
        # a small sub-pool makes repeated atoms likely
        names = [rng.choice(rng.sample(pool, 3)) for _ in range(n_leaves)]
        ops = ["or"] * k + ["and"] * (n_leaves - 1 - k)
        rng.shuffle(ops)
        text = _strip(_tree(rng, [word(n) for n in names], ops))
    elif kind == "chain":
        names = [rng.choice(pool) for _ in range(k + 1)]
        text = " or ".join(word(n) for n in names)
    else:
        names = [rng.choice(pool) for _ in range(2 * k)]
        text = " and ".join(f"({word(a)} or {word(b)})"
                            for a, b in zip(names[::2], names[1::2]))
    return Item(text, kind, k, len(set(names)))


def options_batch(seed: int) -> list[Item]:
    """The `options` batch: and/or formulas over stative and iterable atoms,
    with atoms repeated so double images and Hobson nodes occur. The tail
    comes first, in a fixed order, so each tail item is compared with
    another tail item, not with a seeded neighbour."""
    rng = random.Random(f"options:{seed}")
    pool = _pool(rng, OPTIONS_POOL)
    iterable = set(rng.sample(pool, OPTIONS_ITERABLE))
    # Random draws pick positions in the pool, never look at names, so a
    # fixed stream over a sorted pool renames atoms order-preservingly.
    tail_rng = random.Random("options:tail")
    tail = [replace(_options_item(tail_rng, pool, iterable, kind, k, c), part="tail")
            for kind, k, copies in OPTIONS_TAIL for c in range(copies)]
    body = [_options_item(rng, pool, iterable, kind, k, c)
            for kind, k, copies in OPTIONS_BODY for c in range(copies)]
    rng.shuffle(body)
    return tail + body


def _implicature_item(rng: random.Random, pool: list[str], k: int, n_atoms: int,
                      copy: int) -> Item:
    chosen = rng.sample(pool, n_atoms)
    n_leaves = max(n_atoms, k + 1) + copy % 2
    leaves = chosen + [rng.choice(chosen) for _ in range(n_leaves - n_atoms)]
    rng.shuffle(leaves)
    leaves = [f"not {x}" if rng.random() < 0.25 else x for x in leaves]
    ops = ["or"] * k + [rng.choice(("and", "xor")) for _ in range(n_leaves - 1 - k)]
    rng.shuffle(ops)
    text = _strip(_tree(rng, leaves, ops))
    if rng.random() < 0.2:
        text = f"not ({text})"
    opinionated = tuple(i for i in range(k) if rng.random() < 0.5)
    return Item(text, "tree", k, n_atoms, opinionated)


def implicature_batch(seed: int) -> list[Item]:
    """The `implicature` batch: formulas with at most
    implicature.EPISTEMIC_ATOM_LIMIT atoms over and/or/xor/not, each with
    seeded opinionated or-node ids."""
    rng = random.Random(f"implicature:{seed}")
    pool = _pool(rng, IMPLICATURE_POOL)
    tail_rng = random.Random("implicature:tail")
    tail = [replace(_implicature_item(tail_rng, pool, k, n, c), part="tail")
            for k, n, copies in IMPLICATURE_TAIL for c in range(copies)]
    body = [_implicature_item(rng, pool, k, n, c)
            for k, n, copies in IMPLICATURE_BODY for c in range(copies)]
    rng.shuffle(body)
    return tail + body


def shape_histogram(items: list[Item], weights=None) -> dict[str, dict[str, float]]:
    """Items by part (body or tail), kind, or-count, atom count and the
    combination of all four, so a change that helps only some shape can
    report that shape's share of the workload. Without `weights` the
    figures are counts; with one weight per item (its time, say) they are
    each shape's share of the weights' sum."""
    shares = weights is not None
    weights = weights if shares else [1] * len(items)
    total = sum(weights)

    def tally(key) -> dict[str, float]:
        sums: Counter = Counter()
        for item, weight in zip(items, weights):
            sums[key(item)] += weight
        return {k: round(v / total, 4) if shares else v for k, v in sorted(sums.items())}

    return {"part": tally(lambda i: i.part),
            "kind": tally(lambda i: i.kind),
            "ors": tally(lambda i: f"k{i.ors:02d}"),
            "atoms": tally(lambda i: f"n{i.atoms:02d}"),
            "shape": tally(lambda i: f"{i.part} {i.kind} k{i.ors:02d} n{i.atoms:02d}")}
