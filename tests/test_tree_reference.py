"""The linear tree layer against the reference one in ``reference_tree.py``.

Contraction, the merge marking, component finding, tree paths and the
subtree spanning a set of nodes must give the same trees as the
straightforward constructions: the same node ids, tags, ``src`` sets,
sorted adjacency, in the same order.
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
    tagged_tree_for_pair,
)
from invindel.diagram import build_relational_diagram
from invindel.oracle import random_genome_pair, random_tagged_tree, structured_genome_pair
from invindel.treecover import induced_subtree, lift_paths, path_cost


def _snapshot(tree: TaggedTree):
    """Everything a contraction returns, order of the dicts included."""
    nodes = [(u, n.bad, n.tags, n.src) for u, n in tree.nodes.items()]
    return nodes, list(tree.adj.items())


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
        want, support = reference_tree.contract(tree)
        assert _snapshot(got) == _snapshot(want)
        # from_spec gives node u the src {u}: src is the support map
        assert {u: n.src for u, n in got.nodes.items()} == support


def test_contract_edge_shapes():
    single = TaggedTree.from_spec({4: "gA"}, [])
    assert contract(single).is_empty
    all_good = TaggedTree.from_spec({0: "g", 1: "gB", 2: "g"}, [(0, 1), (1, 2)])
    assert contract(all_good).is_empty
    chain = TaggedTree.from_spec(
        {0: "bA", 1: "g", 2: "g", 3: "g", 4: "b"}, [(0, 1), (1, 2), (2, 3), (3, 4)]
    )
    out = contract(chain)
    assert out.adj == {0: (4,), 4: (0,)}
    assert {u: n.src for u, n in out.nodes.items()} == {0: {0}, 4: {4}}


def _chained(kinds: str, tags: list[str], chains, chain_parent) -> ChainedTree:
    """A chained tree from one letter per component, ``b`` bad, ``g`` good
    or ``t`` trivial, and its tags."""
    kind = {"b": BAD, "g": GOOD, "t": TRIVIAL}
    comps = [
        Component(c, (c,), kind[k], frozenset(t), (c, c), 0)
        for c, (k, t) in enumerate(zip(kinds, tags))
    ]
    return reference_tree.chained_tree(comps, chains, chain_parent)


def test_flower_contract_edge_shapes():
    def contracted(tree: ChainedTree) -> TaggedTree:
        out = flower_contract(tree)
        assert _snapshot(out) == _snapshot(reference_tree.flower_contract(tree))
        return out

    # an all-good chained tree contracts to nothing
    all_good = _chained("gtg", ["A", "", "B"], [[0, 1], [2]], [None, 0])
    assert contracted(all_good).is_empty
    # a lone bad component absorbs its square
    lone = contracted(_chained("b", ["B"], [[0]], [None]))
    assert lone.nodes == {0: (True, frozenset("B"), frozenset({0}))}
    assert lone.adj == {0: ()}
    # the clean square of a chain of two bad components is spliced out
    pair = contracted(_chained("bb", ["A", ""], [[0, 1]], [None]))
    assert pair.nodes == {
        0: (True, frozenset("A"), frozenset({0})),
        1: (True, frozenset(), frozenset({1})),
    }
    assert pair.adj == {0: (1,), 1: (0,)}
    # a tagged trivial component whose block has one bad neighbour folds
    # its tag and its id into it
    fold = contracted(_chained("bt", ["", "A"], [[0, 1]], [None]))
    assert fold.nodes == {0: (True, frozenset("A"), frozenset({0, 1}))}
    assert fold.adj == {0: ()}
    # a kept block takes its smallest id and its src holds its good
    # components, not the ids of its squares
    kept = contracted(
        _chained("bgbgb", ["", "B", "", "", "A"], [[0, 1, 2], [3], [4]], [None, 1, 3])
    )
    assert kept.adj == {0: (1,), 1: (0, 2, 4), 2: (1,), 4: (1,)}
    assert kept.nodes[1] == (False, frozenset("B"), frozenset({1, 3}))
    # a lone square with three bad neighbours is kept under its own id
    square = contracted(_chained("bbb", ["", "", ""], [[0, 1, 2]], [None]))
    assert list(square.nodes) == [0, 1, 2, 3] and square.adj[3] == (0, 1, 2)
    assert square.nodes[3] == (False, frozenset(), frozenset())


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
        want, _ = reference_tree.contract(TaggedTree(nodes, tree.adj))
        assert _snapshot(reduce_by_paths(tree, pairs)) == _snapshot(want)


def test_src_records_what_a_reduced_node_absorbed():
    # flower-contracted nodes hold several components each; after random
    # reductions, lifting reads the absorbed nodes from src alone and lifts
    # every path as the support map composed along the reductions does
    rng = random.Random(78)
    kept_squares = absorbed_squares = 0
    for _ in range(20):
        base = tagged_tree_for_pair(structured_genome_pair(rng, rng.randint(3, 12)))[3]
        srcs = [n.src for n in base.nodes.values()]
        assert sum(map(len, srcs)) == len(frozenset().union(*srcs))
        work, support = base, {u: frozenset({u}) for u in base.nodes}
        for _ in range(rng.randint(1, 3)):
            if len(work.bad_nodes()) < 2:
                break
            u, v = rng.sample(work.bad_nodes(), 2)
            marked = set(work.path(u, v))
            nodes = {x: n._replace(bad=n.bad and x not in marked) for x, n in work.nodes.items()}
            want, step = reference_tree.contract(TaggedTree(nodes, work.adj))
            work = reduce_by_paths(work, [(u, v)])
            assert _snapshot(work) == _snapshot(want)
            support = reference_tree.compose_support(step, support)
        # src names every absorbed node but the square-only blocks, which
        # are clean and good; a node with no bad member absorbed nothing
        home = {c: x for x, n in base.nodes.items() for c in n.src}
        for r, n in work.nodes.items():
            members = {r, *(home[c] for c in n.src)}
            assert members <= support[r]
            for x in support[r] - members:
                assert base.nodes[x] == (False, frozenset(), frozenset())
                absorbed_squares += 1
            if not any(base.is_bad(x) for x in members):
                assert support[r] == {r}
            kept_squares += not n.src
        paths = [path_cost(work, x, x) for x in work.bad_nodes()]
        if len(work) > 1:
            paths += [path_cost(work, *rng.sample(list(work.nodes), 2)) for _ in range(200)]
        assert lift_paths(base, work, paths) == reference_tree.lift_paths(base, support, paths)
    assert kept_squares and absorbed_squares


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


def test_induced_subtree_matches_pruning_reference():
    rng = random.Random(75)
    for tree in _path_trees(rng):
        ids = list(tree.nodes)
        for _ in range(6):
            nodes = rng.sample(ids, rng.randint(0, min(len(ids), 5)))
            assert induced_subtree(tree, nodes) == reference_tree.induced_subtree(tree, nodes)
        assert induced_subtree(tree, ids) == frozenset(ids)


def test_induced_subtree_on_a_forest():
    # each part keeps the subtree spanning its own nodes; a part holding
    # none of them is dropped
    forest = TaggedTree.from_spec(
        {u: "b" for u in range(8)}, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)]
    )
    for nodes in ([1, 3], [3, 1, 5], [0, 6, 4], [7], [2, 7, 4]):
        assert induced_subtree(forest, nodes) == reference_tree.induced_subtree(forest, nodes)
    assert induced_subtree(forest, [3, 1, 5]) == {1, 2, 3, 5}


def _kept_facts(tree: TaggedTree):
    return (
        tree.leaves(),
        tree.leaf_classes(),
        tree.composition(),
        tree.bad_nodes(),
        tree.component_home(),
    )


def test_cached_queries_match_fresh_ones_after_reduction():
    rng = random.Random(74)
    checked = 0
    for _ in range(200):
        tree = random_tagged_tree(rng, max_nodes=18, max_leaves=9)
        if not tree.bad_nodes() or len(tree.leaves()) < 3:
            continue
        ids = list(tree.nodes)
        before = {(u, v): tree.path(u, v) for u in ids for v in ids}
        leaves = list(tree.leaves())
        tau_star(tree)
        u, v = leaves[0], leaves[-1]
        reduced = reduce_by_paths(tree, [(u, v)])
        tau_star(reduced)
        # the input tree was not changed by either, and its caches still
        # agree with a fresh computation
        assert tree.leaves() == leaves == reference_tree.leaves(tree)
        assert {(a, b): tree.path(a, b) for a in ids for b in ids} == before
        for t in (tree, reduced):
            assert _kept_facts(t) == _kept_facts(TaggedTree(dict(t.nodes), dict(t.adj)))
            assert t.leaf_classes() is t.leaf_classes() and t.bad_nodes() is t.bad_nodes()
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


def test_tau_star_derives_each_kept_fact_once(monkeypatch):
    # every tree tau_star meets, reduced ones included, builds its leaf
    # classes and its component map once: each query returns the same object
    answers: dict[str, dict[int, list]] = {"leaf_classes": {}, "component_home": {}}

    def kept(name):
        query = getattr(TaggedTree, name)

        def wrapper(self):
            got = query(self)
            answers[name].setdefault(id(self), [self]).append(got)
            return got

        return wrapper

    for name in answers:
        monkeypatch.setattr(TaggedTree, name, kept(name))
    rng = random.Random(15)
    solved = 0
    for _ in range(6):
        tree = tagged_tree_for_pair(structured_genome_pair(rng, 12))[3]
        res = tau_star(tree)[2]
        solved += res is not None and bool(res.steps)
    # the reducer lifts every step to the input tree, reads the leaf classes
    # of every tree a step leaves, and asks some trees more than twice
    assert solved >= 3
    assert len(answers["component_home"]) >= solved
    assert len(answers["leaf_classes"]) >= 3 * solved
    for name, per_tree in answers.items():
        for _, first, *rest in per_tree.values():
            assert all(got is first for got in rest), name
    assert sum(len(calls) > 3 for calls in answers["leaf_classes"].values()) >= solved


def _random_chained_tree(rng: random.Random) -> ChainedTree:
    """Chains of one to three components, each component holding up to two
    nested chains, to depth four; components draw random tags, and the few
    that carry both-run cycles are tagged both A and B."""
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
            tags = frozenset("AB" if both else _tags(rng))
            comps.append(Component(cid, (cid,), kind, tags, (cid, cid), both))
            chain.append(cid)
            for _ in range(rng.randint(0, 2) if depth else 0):
                make_chain(cid, depth - 1)

    make_chain(None, 4)
    return reference_tree.chained_tree(comps, chains, chain_parent)


def _ancestors(parent: list[int | None], x: int) -> set[int]:
    out = set()
    while parent[x] is not None:
        x = parent[x]
        out.add(x)
    return out


def test_merge_marking_matches_pruning_reference():
    rng = random.Random(77)
    stems = tagged_kept = tag_folds = 0
    for _ in range(1000):
        tree = _random_chained_tree(rng)
        marked = mark_costless_merges(tree)
        assert marked == reference_tree.mark_costless_merges(tree)
        tagged = flower_contract(marked)
        assert _snapshot(tagged) == _snapshot(reference_tree.flower_contract(marked))
        # the tag rules of contraction are exercised: a tagged block between
        # two bad nodes is kept, a tagged block folds its tags into a bad one
        for u, n in tagged.nodes.items():
            tagged_kept += not n.bad and bool(n.tags) and len(tagged.adj[u]) == 2
            tag_folds += n.bad and n.tags != marked.components[u].tags
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
    assert tagged_kept >= 50 and tag_folds >= 50


def test_merge_marking_leaves_the_stem_alone():
    # carriers 1 and 2 sit in a chain nested in the bad component 0, which
    # lies above their spanning subtree and stays bad
    comps = [
        Component(0, (0,), BAD, frozenset(), (0, 5), 0),
        Component(1, (1,), BAD, frozenset({"A", "B"}), (1, 2), 1),
        Component(2, (2,), BAD, frozenset({"A", "B"}), (3, 4), 1),
    ]
    marked = mark_costless_merges(reference_tree.chained_tree(comps, [[0], [1, 2]], [None, 0]))
    assert [c.kind for c in marked.components] == [BAD, GOOD, GOOD]


# ---------------------------------------------------------------------------
# The whole front end


def _check_front_end(pair) -> None:
    d = build_relational_diagram(pair, min(pair.common))
    comps = find_components(d)
    assert list(comps) == reference_tree.find_components(d)
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
            pair = structured_genome_pair(rng, blocks)
            _check_front_end(pair)
            d = build_relational_diagram(pair, min(pair.common))
            chained = build_chained_tree(find_components(d), d)
            merged += mark_costless_merges(chained) != chained
    # the structured pairs exercise the merge marking
    assert merged >= 10
