"""Costless-inversion normalization of multi-run cycles.

Cycles with four or more runs, and pairs of both-run cycles, can always be
turned good (and merged) by inversions that add nothing to the distance.
The acceptance enumeration cannot reach such instances (it caps exclusive
markers at two), so they are certified here with a wider search budget.
"""

import itertools

from invindel.cli import compute_distance
from reference_tree import chained_tree

from invindel.components import (
    Component,
    build_chained_tree,
    find_components,
    mark_costless_merges,
)
from invindel.diagram import build_relational_diagram
from invindel.genome import Chromosome, GenomePair, Marker
from invindel.oracle import OracleBudget, brute_force_distance, canonical_tokens

BUDGET = OracleBudget(max_common=3, max_exclusive=4, max_states=9_000_000)


def _canonicals(names):
    seen, out = set(), []
    first, rest = names[0], names[1:]
    for perm in itertools.permutations(rest):
        order = (first,) + perm
        for signs in itertools.product((True, False), repeat=len(order)):
            ch = Chromosome(tuple(Marker(n, s) for n, s in zip(order, signs)))
            key = canonical_tokens(ch.tokens())
            if key in seen:
                continue
            seen.add(key)
            out.append(ch)
    return out


def test_two_common_markers_with_double_exclusives_exact():
    # every arrangement with two exclusive markers on each side: covers both
    # the four-run cycles and the two-both-run-cycle merges
    common = ["g0", "g1"]
    b = Chromosome(tuple(Marker(n) for n in ["g0", "y0", "g1", "y1"]))
    saw_two_carriers = saw_heavy = False
    for a in _canonicals(common + ["x0", "x1"]):
        pair = GenomePair(a, b)
        d = build_relational_diagram(pair, "g0")
        both = sum(1 for c in d.cycles if c.has_both_runs)
        heavy = any(c.runs >= 4 for c in d.cycles)
        saw_two_carriers |= both >= 2
        saw_heavy |= heavy
        assert compute_distance(pair).distance == brute_force_distance(pair, BUDGET)
    assert saw_two_carriers and saw_heavy


def test_bad_four_run_cycle_component_counts_good():
    # cycles with four runs and one-way upper edges leave their components
    # non-bad; frozen distances come from the breadth-first search run at a
    # widened budget on these fixed instances
    frozen = [
        ("-g0 -g1 x0 -g2 x1", "g0 y0 g1 y1 g2", 5),
        ("-g0 -g1 x0 -g2 -x1", "g0 y0 g1 y1 g2", 5),
    ]
    from invindel.genome import classify_markers, parse_chromosome

    for a_text, b_text, expected in frozen:
        pair = classify_markers(parse_chromosome(a_text), parse_chromosome(b_text))
        d = build_relational_diagram(pair, "g0")
        heavy_bad = [c for c in d.cycles if c.runs >= 4 and not c.good]
        assert heavy_bad
        comps = find_components(d)
        owner = {i: comp for comp in comps for i in comp.cycles}
        assert all(owner[c.id].kind != "bad" for c in heavy_bad)
        assert compute_distance(pair).distance == expected


def test_merge_flip_instances_keep_invariants():
    # diagrams where the carrier merge turns separating bad components good
    # need more markers than the exhaustive search can handle; on those the
    # distance must still be anchor-invariant and symmetric in the two roles
    import random

    from invindel.oracle import random_genome_pair

    rng = random.Random(424242)
    tested = 0
    for _ in range(20000):
        pair = random_genome_pair(
            rng, rng.randint(4, 9), rng.randint(2, 3), rng.randint(2, 3)
        )
        d = build_relational_diagram(pair, sorted(pair.common)[0])
        comps = find_components(d)
        if sum(c.both_run_cycles for c in comps) < 2:
            continue
        chained = build_chained_tree(comps, d)
        marked = mark_costless_merges(chained)
        if not any(
            c0.kind != c1.kind for c0, c1 in zip(chained.components, marked.components)
        ):
            continue
        tested += 1
        values = {
            compute_distance(pair, anchor=g).distance for g in sorted(pair.common)
        }
        assert len(values) == 1
        mirrored = GenomePair(pair.b, pair.a)
        assert compute_distance(mirrored).distance == values.pop()
        if tested >= 25:
            break
    assert tested >= 25


def test_merge_marking_turns_separating_nodes_good():
    # two both-run carriers, one nested inside an unrelated bad component:
    # the enclosing component sits on the connecting path and turns good
    comps = [
        Component(0, (0,), "bad", frozenset({"A", "B"}), (0, 1), 1),
        Component(1, (1,), "bad", frozenset(), (2, 7), 0),
        Component(2, (2,), "bad", frozenset({"A", "B"}), (4, 5), 1),
    ]
    tree = chained_tree(comps, [[0, 1], [2]], [None, 1])
    marked = mark_costless_merges(tree)
    assert [c.kind for c in marked.components] == ["good", "good", "good"]

    # carriers side by side in one chain meet at their square node, so a
    # chained bad sibling is not swallowed (the circular scan wraps past it)
    comps = [
        Component(0, (0,), "bad", frozenset({"A", "B"}), (0, 1), 1),
        Component(1, (1,), "bad", frozenset(), (2, 3), 0),
        Component(2, (2,), "bad", frozenset({"A", "B"}), (4, 5), 1),
    ]
    tree = chained_tree(comps, [[0, 1, 2]], [None])
    marked = mark_costless_merges(tree)
    assert [c.kind for c in marked.components] == ["good", "bad", "good"]

    # a single carrier merges nothing
    comps = [
        Component(0, (0,), "bad", frozenset({"A", "B"}), (0, 1), 1),
        Component(1, (1,), "bad", frozenset(), (2, 3), 0),
    ]
    tree = chained_tree(comps, [[0, 1]], [None])
    marked = mark_costless_merges(tree)
    assert [c.kind for c in marked.components] == ["bad", "bad"]


def test_deletion_label_example():
    pair = GenomePair(
        Chromosome((Marker("a"), Marker("b"), Marker("x"))), Chromosome((Marker("a"), Marker("b")))
    )
    d = build_relational_diagram(pair, "a")
    assert d.c == 2
    labeled = [c for c in d.cycles if c.labeled]
    assert len(labeled) == 1 and labeled[0].has_a_run and not labeled[0].has_b_run
    assert brute_force_distance(pair) == 1
