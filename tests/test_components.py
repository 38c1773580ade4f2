import random

import reference_tree
from conftest import bt, canon

from invindel.components import (
    TaggedTree,
    build_chained_tree,
    contract,
    find_components,
    reduce_by_paths,
    tagged_tree_for_pair,
)
from invindel.diagram import build_relational_diagram
from invindel.genome import classify_markers, parse_chromosome
from invindel.oracle import brute_force_tau, OracleBudget, random_genome_pair


def figure_pair():
    a = parse_chromosome("a t j b d f e g -c h i u k v o n l m")
    b = parse_chromosome("a w b c d e f g h x i j y k l z m n o")
    return classify_markers(a, b)


def test_figure_components():
    d = build_relational_diagram(figure_pair(), "a")
    comps = find_components(d)
    census = sorted((c.kind, len(c.cycles)) for c in comps)
    assert census == [
        ("bad", 1),
        ("bad", 1),
        ("bad", 2),
        ("good", 1),
        ("trivial", 1),
        ("trivial", 1),
    ]
    tags = sorted("".join(sorted(c.tags)) for c in comps)
    assert tags == ["", "", "A", "AB", "B", "B"]


def test_all_two_cycles_trivial():
    pair = classify_markers(parse_chromosome("a b c d"), parse_chromosome("a b c d"))
    d = build_relational_diagram(pair, "a")
    comps = find_components(d)
    assert all(c.kind == "trivial" for c in comps)
    assert len(comps) == 4


def test_nested_bad_cycles_stay_separate():
    # one bad component nested strictly inside the other's span without
    # interleaving it
    pair = classify_markers(
        parse_chromosome("a c e d f b"), parse_chromosome("a b c d e f")
    )
    d = build_relational_diagram(pair, "a")
    comps = find_components(d)
    bad = [c for c in comps if c.kind == "bad"]
    assert len(bad) == 2
    spans = sorted(c.span for c in bad)
    assert spans[0][0] < spans[1][0] and spans[1][1] < spans[0][1]
    for c1 in bad:
        for c2 in bad:
            if c1.id != c2.id:
                for i in c1.cycles:
                    for j in c2.cycles:
                        assert not reference_tree.cycles_interleave(d.cycles[i], d.cycles[j])


def test_sweep_matches_pairwise_closure():
    # interleaving components equal the transitive closure of the pairwise
    # relation, recomputed independently
    rng = random.Random(11)
    for _ in range(300):
        pair = random_genome_pair(rng, rng.randint(2, 9), rng.randint(0, 2), rng.randint(0, 2))
        d = build_relational_diagram(pair, sorted(pair.common)[0])
        comps = find_components(d)
        # brute closure
        n = d.c
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(n):
            for j in range(i + 1, n):
                if reference_tree.cycles_interleave(d.cycles[i], d.cycles[j]):
                    parent[find(i)] = find(j)
        want = {}
        for i in range(n):
            want.setdefault(find(i), set()).add(i)
        got = {frozenset(c.cycles) for c in comps}
        assert got == {frozenset(v) for v in want.values()}


def test_figure_chained_tree_shape():
    d = build_relational_diagram(figure_pair(), "a")
    comps = find_components(d)
    tree = build_chained_tree(comps, d)
    root = tree.chains[tree.root_chain]
    assert len(root) == 2
    kinds = [comps[c].kind for c in root]
    assert kinds == ["bad", "bad"]
    round_tags = sorted(
        ("".join(sorted(comps[c].tags)), comps[c].kind)
        for chain in tree.chains
        for c in chain
    )
    assert round_tags == [
        ("", "bad"),
        ("", "good"),
        ("A", "bad"),
        ("AB", "bad"),
        ("B", "trivial"),
        ("B", "trivial"),
    ]


def test_figure_contraction():
    _, _, _, tagged = tagged_tree_for_pair(figure_pair())
    tagged.validate()
    expected = bt(
        {0: "b", 1: "gB", 2: "bAB", 3: "bAB"},
        [(0, 1), (1, 2), (2, 3)],
    )
    assert canon(tagged) == canon(expected)


def test_second_contraction_example():
    # chained shape with square nodes encoded as clean good nodes
    raw = TaggedTree.from_spec(
        {
            0: "g",          # root square
            1: "gB", 2: "g",  # chain below the tagged good node
            3: "g", 4: "g", 5: "gB", 6: "gA",
            7: "b",           # v1
            8: "b",           # v2
            9: "g", 10: "b", 11: "g", 12: "b",   # v3 branch
            13: "b", 14: "g", 15: "bA",          # v4 branch
        },
        [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (2, 7),
            (0, 8), (8, 9), (9, 10), (10, 11), (11, 12), (9, 13), (13, 14), (14, 15),
        ],
    )
    contracted, _ = contract(raw)
    contracted.validate()
    expected = bt(
        {0: "b", 1: "gAB", 2: "b", 3: "g", 4: "b", 5: "b", 6: "b", 7: "bA"},
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 7)],
    )
    assert canon(contracted) == canon(expected)


def test_contraction_no_bad_nodes_gives_empty_tree():
    raw = TaggedTree.from_spec({0: "g", 1: "gA", 2: "g"}, [(0, 1), (1, 2)])
    contracted, _ = contract(raw)
    assert contracted.is_empty


def test_contraction_invariants_random():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(1, 14)
        specs = {}
        edges = []
        for i in range(n):
            bad = rng.random() < 0.6
            tags = rng.choice(["", "", "A", "B", "AB"])
            specs[i] = ("b" if bad else "g") + tags
            if i:
                edges.append((i, rng.randrange(i)))
        raw = TaggedTree.from_spec(specs, edges)
        contracted, support = contract(raw)
        contracted.validate()
        # bad nodes survive one-to-one with their tags possibly enriched
        assert len(contracted.bad_nodes()) == len(raw.bad_nodes())
        for u in contracted.bad_nodes():
            bads_in_support = [x for x in support[u] if raw.is_bad(x)]
            assert bads_in_support == [u]
            assert raw.tags(u) <= contracted.tags(u)


def test_chained_cover_cost_equals_contracted_cover_cost():
    # square nodes act as clean good nodes; contraction preserves the
    # minimum cover cost
    rng = random.Random(17)
    budget = OracleBudget(max_tree_nodes=24)
    checked = 0
    while checked < 40:
        pair = random_genome_pair(rng, rng.randint(2, 6), rng.randint(0, 2), rng.randint(0, 2))
        _, _, chained, tagged = tagged_tree_for_pair(pair)
        if tagged.is_empty or len(tagged) > 12:
            continue
        specs = {}
        edges = []
        m = len(chained.components)
        for comp in chained.components:
            specs[comp.id] = ("b" if comp.kind == "bad" else "g") + "".join(sorted(comp.tags))
        for ci, chain in enumerate(chained.chains):
            specs[m + ci] = "g"
            for cid in chain:
                edges.append((m + ci, cid))
            if chained.chain_parent[ci] is not None:
                edges.append((m + ci, chained.chain_parent[ci]))
        raw = TaggedTree.from_spec(specs, edges)
        if len(raw) > budget.max_tree_nodes:
            continue
        checked += 1
        assert brute_force_tau(raw, budget) == brute_force_tau(tagged, budget)


def test_flower_contraction_preserves_separation():
    # bad nodes keep their pairwise betweenness through contraction
    rng = random.Random(23)
    for _ in range(150):
        pair = random_genome_pair(rng, rng.randint(3, 7), rng.randint(0, 2), rng.randint(0, 2))
        _, _, _, tagged = tagged_tree_for_pair(pair)
        bads = tagged.bad_nodes()
        if len(bads) < 3:
            continue
        for a in bads:
            for b in bads:
                for c in bads:
                    if len({a, b, c}) == 3:
                        on_path = b in tagged.path(a, c)
                        # recompute betweenness from scratch by search
                        again = b in reference_tree.path(tagged, a, c)
                        assert on_path == again


def test_reduce_by_paths_support_maps_back():
    tree = bt(
        {0: "bA", 1: "b", 2: "b", 3: "bA", 4: "b", 5: "bB"},
        [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)],
    )
    reduced, support = reduce_by_paths(tree, [(0, 3)])
    reduced.validate()
    assert set(reduced.bad_nodes()) <= {4, 5}
    for new, olds in support.items():
        assert olds <= set(tree.nodes)
