"""Independent brute-force ground truths.

Two oracles back the whole artifact: an exhaustive minimum-cost cover
search on tagged trees, and a breadth-first search over genome states for
the full distance, circular or linear.  Both are deliberately simple: they
read their inputs through the production tree and genome types, but price
paths, search covers and apply operations with their own code.  Random
instance generators for the fuzz suites live here as well; they build
their trees with the production contraction, since they make inputs, not
answers.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, count, permutations, product
from typing import NamedTuple

from .cli import compute_distance, distance_report
from .components import TaggedTree, contract
from .errors import BudgetExceeded, NotLinear
from .genome import (
    CIRCULAR,
    LINEAR,
    Chromosome,
    GenomePair,
    Marker,
    classify_markers,
    parse_chromosome,
    strict_record,
)


@strict_record
class OracleBudget(NamedTuple):
    """The largest instance each oracle searches, a strict record of its
    four fields."""

    max_tree_nodes: int = 12
    max_common: int = 4
    max_exclusive: int = 2
    max_states: int = 2_000_000


DEFAULT_BUDGET = OracleBudget()


# ---------------------------------------------------------------------------
# Exhaustive tree covers


def _cover_candidates(tree: TaggedTree) -> list[tuple[int, int]]:
    bads = tree.bad_nodes()
    bit = {b: i for i, b in enumerate(bads)}
    ids = tree.node_ids()
    node_bit = {u: (1 << bit[u] if tree.is_bad(u) else 0) for u in ids}
    best_for_mask: dict[int, int] = {}
    for u in ids:
        # masks of bad nodes on every path out of u, by one traversal
        mask_to = {u: node_bit[u]}
        order = [u]
        parent = {u: None}
        for x in order:
            for y in tree.adj[x]:
                if y not in parent:
                    parent[y] = x
                    mask_to[y] = mask_to[x] | node_bit[y]
                    order.append(y)
        for v in ids:
            if v < u:
                continue
            if u == v and not tree.is_bad(u):
                continue
            mask = mask_to[v]
            if not mask:
                continue
            # a cut costs 1; a merge costs 1 when the endpoints share a tag
            cost = 1 if u == v or tree.tags(u) & tree.tags(v) else 2
            if mask not in best_for_mask or cost < best_for_mask[mask]:
                best_for_mask[mask] = cost
    ranked = sorted(best_for_mask.items(), key=lambda mc: (mc[1], -bin(mc[0]).count("1")))
    kept: list[tuple[int, int]] = []
    for mask, cost in ranked:
        # drop candidates whose coverage is contained in a cheaper-or-equal one
        if any(mask & k_mask == mask and k_cost <= cost for k_mask, k_cost in kept):
            continue
        kept.append((mask, cost))
    return kept


def brute_force_tau(tree: TaggedTree, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Exact minimum cover cost by memoized search over uncovered bad sets."""
    if len(tree) > budget.max_tree_nodes:
        raise BudgetExceeded(f"{len(tree)} nodes exceeds {budget.max_tree_nodes}")
    bads = tree.bad_nodes()
    if not bads:
        return 0
    bit = {b: i for i, b in enumerate(bads)}
    leaf_mask = 0
    for u in tree.leaves():
        if tree.is_bad(u):
            leaf_mask |= 1 << bit[u]
    candidates = _cover_candidates(tree)
    by_bit: list[list[tuple[int, int]]] = [[] for _ in bads]
    for mask, cost in candidates:
        for i in range(len(bads)):
            if mask >> i & 1:
                by_bit[i].append((mask, cost))
    memo: dict[int, int] = {0: 0}

    def solve(uncovered: int) -> int:
        got = memo.get(uncovered)
        if got is not None:
            return got
        low = (uncovered & -uncovered).bit_length() - 1
        best = None
        for mask, cost in by_bit[low]:
            sub = solve(uncovered & ~mask)
            total = cost + sub
            if best is None or total < best:
                best = total
        memo[uncovered] = best
        return best

    return solve((1 << len(bads)) - 1)


# ---------------------------------------------------------------------------
# Exhaustive genome distance

_SIGN = "-"


def _flip_token(tok: str) -> str:
    return tok[1:] if tok.startswith(_SIGN) else _SIGN + tok


def _tok_name(tok: str) -> str:
    return tok[1:] if tok.startswith(_SIGN) else tok


def _revflip(seq: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(_flip_token(t) for t in reversed(seq))


def canonical_tokens(seq: tuple[str, ...]) -> tuple[str, ...]:
    """Least rotation over both reading directions of a circular sequence."""
    best = None
    for s in (seq, _revflip(seq)):
        for i in range(len(s)):
            r = s[i:] + s[:i]
            if best is None or r < best:
                best = r
    return best


def _linear_canonical(seq: tuple[str, ...]) -> tuple[str, ...]:
    """Lesser of the two reading directions of a linear sequence."""
    return min(seq, _revflip(seq))


def _neighbors(
    seq: tuple[str, ...], exclusives: tuple[str, ...], b_only: frozenset[str], circular: bool
) -> set[tuple[str, ...]]:
    """States one operation away, walking the sorting relation backwards
    from the target: inversions, re-insertions of absent exclusive blocks
    (reverse deletions), and removals of target-exclusive blocks (reverse
    insertions).  A block goes into any of the n places of a circle or the
    n + 1 of a line."""
    n = len(seq)
    canonical = canonical_tokens if circular else _linear_canonical
    # segments seq[i:j] of each read: a circle is read from each of its
    # cuts, with segments starting the read and never spanning all of it
    if circular:
        reads = [(seq[i:] + seq[:i], 0, n) for i in range(n)]
    else:
        reads = [(seq, i, n + 1) for i in range(n)]
    out: set[tuple[str, ...]] = set()
    for read, i, stop in reads:
        for j in range(i + 1, stop):
            out.add(canonical(read[:i] + _revflip(read[i:j]) + read[j:]))
        for j in range(i + 1, stop):
            if _tok_name(read[j - 1]) not in b_only:
                break
            out.add(canonical(read[:i] + read[j:]))
    present = {_tok_name(t) for t in seq}
    absent = [m for m in exclusives if m not in present]
    places = range(n if circular else n + 1)
    for r in range(1, len(absent) + 1):
        for subset in combinations(absent, r):
            for perm in permutations(subset):
                for signs in product((False, True), repeat=r):
                    block = tuple(
                        (_SIGN + m) if neg else m for m, neg in zip(perm, signs)
                    )
                    for i in places:
                        out.add(canonical(seq[:i] + block + seq[i:]))
    return out


@lru_cache(maxsize=128)
def _target_distances(
    target: tuple[str, ...],
    exclusives: tuple[str, ...],
    b_only: frozenset[str],
    max_states: int,
    circular: bool,
) -> dict[tuple[str, ...], int]:
    dist = {target: 0}
    frontier = [target]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for state in frontier:
            for nb in _neighbors(state, exclusives, b_only, circular):
                if nb not in dist:
                    dist[nb] = d
                    nxt.append(nb)
                    if len(dist) > max_states:
                        raise BudgetExceeded("state budget exhausted")
        frontier = nxt
    return dist


def _search_distance(pair: GenomePair, budget: OracleBudget, circular: bool) -> int:
    if (
        len(pair.common) > budget.max_common
        or len(pair.a_only) + len(pair.b_only) > budget.max_exclusive
    ):
        raise BudgetExceeded("instance above budget")
    canonical = canonical_tokens if circular else _linear_canonical
    table = _target_distances(
        canonical(pair.b.tokens()),
        tuple(sorted(pair.a_only | pair.b_only)),
        frozenset(pair.b_only),
        budget.max_states,
        circular,
    )
    return table[canonical(pair.a.tokens())]


def brute_force_distance(pair: GenomePair, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Exact distance by breadth-first search over canonicalized circular
    states; moves are segment inversions, deletions of common-free blocks,
    and insertions of absent target-exclusive blocks."""
    return _search_distance(pair, budget, circular=True)


def brute_force_linear_distance(
    pair: GenomePair, budget: OracleBudget = DEFAULT_BUDGET
) -> int:
    """Exact distance between two linear chromosomes: the circular search
    without rotations.  A state is kept as the lesser of its two reading
    directions, inversions act on any segment, and blocks are inserted at
    any of the n + 1 places.  It shares no code with the capping."""
    if pair.a.shape != LINEAR:
        raise NotLinear("both chromosomes must be linear")
    return _search_distance(pair, budget, circular=False)


def anchor_invariance_check(pair: GenomePair) -> dict[str, int]:
    """Pipeline distance for every anchor choice; all values should agree."""
    return {g: compute_distance(pair, anchor=g).distance for g in sorted(pair.common)}


def neighbour_checks(pair: GenomePair, rng: random.Random) -> list[str]:
    """The bounds one operation on B puts on the distance, checked on one
    random draw of each operation; returns the bounds that failed.

    An inversion moves the distance by at most one either way.  Inserting
    a block of 1-3 fresh markers never lowers it and raises it by at most
    one; deleting a maximal run of B-only markers never raises it and lowers
    it by at most one.  Each holds because a sorting of one pair, extended
    or trimmed by the operation, sorts the other.  Deleting a common marker
    has no such bound, so it is not checked.  The checks find an
    inconsistent distance, not one that is off by the same amount on every
    pair."""
    a, b = pair.a, pair.b
    ms = list(b.markers)

    def distance(markers: list[Marker]) -> int:
        return distance_report(a, Chromosome(markers, b.shape)).distance

    d = distance_report(a, b).distance
    failed = []
    i, j = sorted(rng.sample(range(len(ms) + 1), 2))
    inverted = distance(ms[:i] + [m.flipped() for m in reversed(ms[i:j])] + ms[j:])
    if abs(inverted - d) > 1:
        failed.append(f"inverting B[{i}:{j}] moves the distance from {d} to {inverted}")

    k = rng.randint(0, len(ms))
    taken = a.names() | b.names()
    names = (name for name in map("new{}".format, count()) if name not in taken)
    fresh = [Marker(next(names), rng.random() < 0.5) for _ in range(rng.randint(1, 3))]
    grown = distance(ms[:k] + fresh + ms[k:])
    if not d <= grown <= d + 1:
        failed.append(
            f"inserting {len(fresh)} fresh markers at B[{k}] moves the distance "
            f"from {d} to {grown}"
        )

    # the maximal runs of B-only markers, read from a common marker around a
    # circular B
    start = 0
    if b.shape == CIRCULAR:
        start = next((i for i, m in enumerate(ms) if m.name in pair.common), 0)
    runs: list[list[int]] = [[]]
    for i in (x % len(ms) for x in range(start, start + len(ms))):
        if ms[i].name in pair.common:
            runs.append([])
        else:
            runs[-1].append(i)
    runs = [run for run in runs if run]
    if runs:
        drop = set(rng.choice(runs))
        shrunk = distance([m for i, m in enumerate(ms) if i not in drop])
        if not shrunk <= d <= shrunk + 1:
            failed.append(
                f"deleting B's markers {sorted(drop)} moves the distance from {d} to {shrunk}"
            )
    return failed


# ---------------------------------------------------------------------------
# Random instance generators (fuzz suites and the verify command)


def random_tagged_tree(
    rng: random.Random, max_nodes: int = 12, max_leaves: int = 8
) -> TaggedTree:
    """Random nonempty contracted tagged tree within the size bounds."""
    while True:
        n = rng.randint(1, max_nodes)
        specs: dict[int, str] = {}
        edges: list[tuple[int, int]] = []
        for i in range(n):
            bad = rng.random() < 0.75
            roll = rng.random()
            if roll < 0.55:
                tags = ""
            elif roll < 0.75:
                tags = "A"
            elif roll < 0.9:
                tags = "B"
            else:
                tags = "AB"
            specs[i] = ("b" if bad else "g") + tags
            if i:
                edges.append((i, rng.randrange(i)))
        tree = contract(TaggedTree.from_spec(specs, edges))
        if tree.is_empty or len(tree) > max_nodes or len(tree.leaves()) > max_leaves:
            continue
        return tree


def _random_tags(rng: random.Random, p_tag: float) -> str:
    if rng.random() >= p_tag:
        return ""
    return rng.choice(["A", "B", "AB"])


# Layouts random_residual_tree draws before it gives up on a composition.
RESIDUAL_TRIES = 4000


def random_residual_tree(composition: tuple[int, int, int, int], rng: random.Random) -> TaggedTree:
    """Random contracted tree whose leaf composition matches exactly.

    Mixes star-like, clustered (per-class subtrees behind bad links) and
    free-form layouts so that co-rooted, separated, mate and solo topology
    cases all occur.
    """
    la, lb, lc, lab = composition
    wanted = ["A"] * la + ["B"] * lb + ["C"] * lc + ["AB"] * lab
    for _ in range(RESIDUAL_TRIES):
        tree = _residual_attempt(wanted, rng)
        if tree is None:
            continue
        if tree.composition() == composition:
            return tree
    raise RuntimeError(f"could not build composition {composition}")


def _residual_attempt(wanted: list[str], rng: random.Random) -> TaggedTree | None:
    specs: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    counter = [0]

    def new_node(spec: str) -> int:
        nid = counter[0]
        counter[0] += 1
        specs[nid] = spec
        return nid

    clustered = rng.random() < 0.5
    classes = sorted(set(wanted))
    hubs: dict[str, int] = {}
    if clustered:
        root = new_node("b" + _random_tags(rng, 0.2))
        for cls in classes:
            hub = new_node("b" + _random_tags(rng, 0.25))
            hubs[cls] = hub
            prev = root
            for _ in range(rng.randint(0, 2)):
                mid = new_node("b" + _random_tags(rng, 0.2))
                edges.append((prev, mid))
                prev = mid
            edges.append((prev, hub))
    else:
        k = rng.randint(1, 3)
        hub_ids = [new_node("b" + _random_tags(rng, 0.25)) for _ in range(k)]
        for i in range(1, k):
            edges.append((hub_ids[i], hub_ids[rng.randrange(i)]))
        for cls in classes:
            hubs[cls] = rng.choice(hub_ids)

    order = list(wanted)
    rng.shuffle(order)
    for cls in order:
        attach = hubs[cls]
        for _ in range(rng.choices((0, 1, 2), weights=(40, 45, 15))[0]):
            mid = new_node("b" + _random_tags(rng, 0.15))
            edges.append((attach, mid))
            attach = mid
        leaf = new_node("b" + ("" if cls == "C" else cls))
        edges.append((attach, leaf))

    # occasionally splice a tagged good node into an edge (a potential mate)
    if edges and rng.random() < 0.4:
        u, v = rng.choice(edges)
        tags = rng.choice(["A", "B", "AB"])
        g = new_node("g" + tags)
        edges.remove((u, v))
        edges.append((u, g))
        edges.append((g, v))

    tree = contract(TaggedTree.from_spec(specs, edges))
    if tree.is_empty or len(tree) > 26:
        return None
    return tree


def random_genome_pair(
    rng: random.Random, g: int, na: int = 0, nb: int = 0
) -> GenomePair:
    """Random circular pair with g common and na/nb exclusive markers."""
    common = [f"g{i}" for i in range(g)]
    a_only = [f"x{i}" for i in range(na)]
    b_only = [f"y{i}" for i in range(nb)]

    def build(names: list[str]) -> Chromosome:
        order = list(names)
        rng.shuffle(order)
        return Chromosome(
            tuple(Marker(nm, rng.random() < 0.5) for nm in order)
        )

    return GenomePair(build(common + a_only), build(common + b_only))


def structured_genome_pair(rng: random.Random, blocks: int) -> GenomePair:
    """Circular pair of ``blocks`` blocks ``w x y z``, each part a single
    marker or, with probability 0.55 while the depth allows, a block of its
    own, to depth three.  A reads each block as ``w y x z`` with probability
    0.5, and each common marker is followed, in each genome, by an
    exclusive marker with probability 0.15.  At 60 blocks a pair holds
    about 1.5k common markers and a tagged tree of about 200 nodes."""
    counter = count()

    def block(depth: int):
        parts = []
        for _ in range(4):
            if depth > 1 and rng.random() < 0.55:
                parts.append(block(depth - 1))
            else:
                name = f"g{next(counter)}"
                parts.append(([name], [name]))
        order = (0, 2, 1, 3) if rng.random() < 0.5 else (0, 1, 2, 3)
        return [m for i in order for m in parts[i][0]], [m for p in parts for m in p[1]]

    a: list[str] = []
    b: list[str] = []
    for _ in range(blocks):
        ba, bb = block(3)
        a += ba
        b += bb

    def scatter(seq: list[str], prefix: str) -> str:
        out = []
        for k, m in enumerate(seq):
            out.append(m)
            if rng.random() < 0.15:
                out.append(f"{prefix}{k}")
        return " ".join(out)

    return classify_markers(parse_chromosome(scatter(a, "x")), parse_chromosome(scatter(b, "y")))
