"""The linear tree layer against the reference one in ``reference_tree.py``.

Contraction, the merge marking, component finding and tree paths must give
the same trees as the straightforward constructions: the same node ids,
tags, ``src`` sets, sorted adjacency and support maps, in the same order.
"""

import itertools
import random

import pytest
import reference_tree

from invindel.cli import tau_star
from invindel.components import (
    BAD,
    GOOD,
    TRIVIAL,
    ChainedTree,
    Component,
    TaggedTree,
    build_chained_tree,
    contract,
    find_components,
    flower_contract,
    mark_costless_merges,
    reduce_by_paths,
)
from invindel.diagram import build_relational_diagram
from invindel.genome import classify_markers, parse_chromosome
from invindel.oracle import random_genome_pair, random_tagged_tree


def _snapshot(tree: TaggedTree, support=None):
    """Everything a contraction returns, order of the dicts included."""
    nodes = [(u, n.bad, n.tags, n.src) for u, n in tree.nodes.items()]
    out = (nodes, list(tree.adj.items()))
    if support is not None:
        out += (list(support.items()),)
    return out


def _tags(rng: random.Random) -> str:
    return rng.choice(["", "", "A", "B", "AB"])


def _random_tree(rng: random.Random, p_good: float, ids: list[int]) -> TaggedTree:
    specs = {u: ("g" if rng.random() < p_good else "b") + _tags(rng) for u in ids}
    edges = [(ids[i], ids[rng.randrange(i)]) for i in range(1, len(ids))]
    return TaggedTree.from_spec(specs, edges)


def _good_star(rng: random.Random, ids: list[int]) -> TaggedTree:
    center, *rays = ids
    specs = {center: "g" + _tags(rng)}
    specs |= {u: rng.choice("bg") + _tags(rng) for u in rays}
    return TaggedTree.from_spec(specs, [(center, u) for u in rays])


def _clean_good_chain(rng: random.Random, ids: list[int]) -> TaggedTree:
    """Bad ends joined by a long chain of clean good nodes; now and then a
    bad or good pendant hangs off the chain."""
    cut = max(2, len(ids) - rng.randint(0, 3))
    (first, *middle, last), pendants = ids[:cut], ids[cut:]
    specs = {first: "b" + _tags(rng), last: "b" + _tags(rng)}
    specs |= {u: "g" for u in middle}
    specs |= {u: rng.choice("bg") + _tags(rng) for u in pendants}
    chain = [first, *middle, last]
    edges = list(itertools.pairwise(chain))
    edges += [(u, rng.choice(chain)) for u in pendants]
    return TaggedTree.from_spec(specs, edges)


def _ids(rng: random.Random, n: int) -> list[int]:
    """Node ids that are neither contiguous nor in increasing order."""
    ids = rng.sample(range(3 * n + 1), n)
    if rng.random() < 0.5:
        ids.sort()
    return ids


def _uncontracted_trees(rng: random.Random, count: int):
    shapes = ["random", "random", "random", "all_good", "star", "chain"]
    for _ in range(count):
        shape = rng.choice(shapes)
        ids = _ids(rng, rng.randint(1, 16))
        if len(ids) == 1:
            yield TaggedTree.from_spec({ids[0]: rng.choice("bg") + _tags(rng)}, [])
        elif shape == "random":
            yield _random_tree(rng, rng.choice([0.2, 0.5, 0.8]), ids)
        elif shape == "all_good":
            yield _random_tree(rng, 1.0, ids)
        elif shape == "star":
            yield _good_star(rng, ids)
        else:
            yield _clean_good_chain(rng, ids)


def test_contract_matches_fixpoint_reference():
    rng = random.Random(71)
    for tree in _uncontracted_trees(rng, 5000):
        got = contract(tree)
        want = reference_tree.contract(tree)
        assert _snapshot(*got) == _snapshot(*want)


def test_contract_edge_shapes():
    single = TaggedTree.from_spec({4: "gA"}, [])
    assert contract(single)[0].is_empty
    all_good = TaggedTree.from_spec({0: "g", 1: "gB", 2: "g"}, [(0, 1), (1, 2)])
    assert contract(all_good)[0].is_empty
    chain = TaggedTree.from_spec(
        {0: "bA", 1: "g", 2: "g", 3: "g", 4: "b"}, [(0, 1), (1, 2), (2, 3), (3, 4)]
    )
    out, support = contract(chain)
    assert out.adj == {0: (4,), 4: (0,)}
    assert support == {0: frozenset({0}), 4: frozenset({4})}


def test_reduce_by_paths_matches_reference():
    rng = random.Random(72)
    for _ in range(600):
        tree = random_tagged_tree(rng, max_nodes=16, max_leaves=8)
        bads = tree.bad_nodes()
        if len(bads) < 2:
            continue
        pairs = [tuple(rng.sample(bads, 2)) for _ in range(rng.randint(1, 3))]
        marked = {x for u, v in pairs for x in reference_tree.path(tree, u, v)}
        nodes = {
            u: (n._replace(bad=False) if u in marked else n) for u, n in tree.nodes.items()
        }
        want = reference_tree.contract(TaggedTree(nodes, tree.adj))
        assert _snapshot(*reduce_by_paths(tree, pairs)) == _snapshot(*want)


def _path_trees(rng: random.Random):
    for tree in _uncontracted_trees(rng, 250):
        yield tree
    for _ in range(250):
        yield random_tagged_tree(rng, max_nodes=14, max_leaves=7)


def test_path_matches_breadth_first_search():
    rng = random.Random(73)
    for tree in _path_trees(rng):
        ids = list(tree.nodes)
        for u in ids:
            for v in ids:
                assert tree.path(u, v) == reference_tree.path(tree, u, v)
        assert tree.leaves() == reference_tree.leaves(tree)
        if ids:
            unknown = max(ids) + 1
            with pytest.raises(KeyError):
                tree.path(ids[0], unknown)
            with pytest.raises(KeyError):
                tree.path(unknown, ids[0])


def test_path_across_a_forest_raises():
    forest = TaggedTree.from_spec({0: "b", 1: "b", 2: "b", 3: "b"}, [(0, 1), (2, 3)])
    assert forest.path(1, 0) == [1, 0]
    for u, v in [(0, 2), (3, 1)]:
        with pytest.raises(KeyError):
            forest.path(u, v)
        with pytest.raises(KeyError):
            reference_tree.path(forest, u, v)


def test_cached_queries_match_fresh_ones_after_reduction():
    rng = random.Random(74)
    checked = 0
    for _ in range(200):
        tree = random_tagged_tree(rng, max_nodes=18, max_leaves=9)
        if not tree.bad_nodes() or len(tree.leaves()) < 3:
            continue
        ids = list(tree.nodes)
        before = {(u, v): tree.path(u, v) for u in ids for v in ids}
        leaves = tree.leaves()
        tau_star(tree)
        u, v = leaves[0], leaves[-1]
        reduced, _ = reduce_by_paths(tree, [(u, v)])
        # the input tree was not changed by either, and its caches still
        # agree with a fresh computation
        assert tree.leaves() == leaves == reference_tree.leaves(tree)
        assert {(a, b): tree.path(a, b) for a in ids for b in ids} == before
        fresh = TaggedTree(dict(reduced.nodes), dict(reduced.adj))
        r_ids = list(reduced.nodes)
        assert reduced.leaves() == fresh.leaves() == reference_tree.leaves(reduced)
        for a in r_ids:
            for b in r_ids:
                assert reduced.path(a, b) == fresh.path(a, b) == reference_tree.path(
                    reduced, a, b
                )
        checked += 1
    assert checked >= 50


def _random_chained_tree(rng: random.Random) -> ChainedTree:
    """Chains of one to three components, each component holding up to two
    nested chains, to depth four; a few components carry both-run cycles."""
    comps: list[Component] = []
    chains: list[list[int]] = []
    chain_parent: list[int | None] = []

    def make_chain(parent: int | None, depth: int) -> None:
        chain: list[int] = []
        chains.append(chain)
        chain_parent.append(parent)
        for _ in range(rng.randint(1, 3)):
            cid = len(comps)
            kind = rng.choice([BAD, BAD, GOOD, TRIVIAL])
            both = rng.choice([0, 0, 0, 0, 1, 1, 2])
            comps.append(Component(cid, (cid,), kind, frozenset(), (cid, cid), both))
            chain.append(cid)
            for _ in range(rng.randint(0, 2) if depth else 0):
                make_chain(cid, depth - 1)

    make_chain(None, 4)
    return ChainedTree(comps, chains, chain_parent, 0)


def _ancestors(parent: list[int], x: int) -> set[int]:
    out = set()
    while parent[x] >= 0:
        x = parent[x]
        out.add(x)
    return out


def test_merge_marking_matches_pruning_reference():
    rng = random.Random(77)
    stems = 0
    for _ in range(1000):
        tree = _random_chained_tree(rng)
        marked = mark_costless_merges(tree)
        assert marked == reference_tree.mark_costless_merges(tree)
        assert _snapshot(flower_contract(marked)) == _snapshot(
            reference_tree.flower_contract(marked)
        )
        # a bad component above the carriers' lowest common ancestor is on
        # no path between two of them, and stays bad
        parent = tree.parent_array()
        carriers = [c.id for c in tree.components if c.both_run_cycles]
        if sum(tree.components[c].both_run_cycles for c in carriers) >= 2:
            common = set.intersection(*(_ancestors(parent, c) | {c} for c in carriers))
            lca = max(common, key=lambda x: len(_ancestors(parent, x)))
            for c in _ancestors(parent, lca):
                if c < len(tree.components) and tree.components[c].kind == BAD:
                    assert marked.components[c].kind == BAD
                    stems += 1
    assert stems >= 50


def test_merge_marking_leaves_the_stem_alone():
    # carriers 1 and 2 sit in a chain nested in the bad component 0, which
    # lies above their spanning subtree and stays bad
    comps = [
        Component(0, (0,), BAD, frozenset(), (0, 5), 0),
        Component(1, (1,), BAD, frozenset({"A", "B"}), (1, 2), 1),
        Component(2, (2,), BAD, frozenset({"A", "B"}), (3, 4), 1),
    ]
    marked = mark_costless_merges(ChainedTree(comps, [[0], [1, 2]], [None, 0], 0))
    assert [c.kind for c in marked.components] == [BAD, GOOD, GOOD]


# ---------------------------------------------------------------------------
# The whole front end


def _structured_pair(rng: random.Random, blocks: int):
    """Blocks ``w x y z`` nested to depth three; A reads some of them as
    ``w y x z``, and each genome holds a few exclusive markers."""
    counter = itertools.count()

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


def _check_front_end(pair) -> None:
    d = build_relational_diagram(pair, min(pair.common))
    comps = find_components(d)
    assert comps == reference_tree.find_components(d)
    chained = build_chained_tree(comps, d)
    marked = mark_costless_merges(chained)
    assert marked == reference_tree.mark_costless_merges(chained)
    assert _snapshot(flower_contract(marked)) == _snapshot(reference_tree.flower_contract(marked))


def test_front_end_matches_reference_on_small_pairs():
    rng = random.Random(75)
    checked = 0
    while checked < 2000:
        pair = random_genome_pair(rng, rng.randint(2, 14), rng.randint(0, 3), rng.randint(0, 3))
        _check_front_end(pair)
        checked += 1


def test_front_end_matches_reference_on_structured_pairs():
    rng = random.Random(76)
    merged = 0
    for blocks in range(1, 21):
        for _ in range(2):
            pair = _structured_pair(rng, blocks)
            _check_front_end(pair)
            d = build_relational_diagram(pair, min(pair.common))
            chained = build_chained_tree(find_components(d), d)
            merged += mark_costless_merges(chained) != chained
    # the structured pairs exercise the merge marking
    assert merged >= 10
