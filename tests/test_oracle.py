import time
from itertools import combinations, permutations, product

import pytest

from conftest import bt

import trees as fig

from invindel.cli import distance_report
from invindel.errors import BudgetExceeded, NotLinear
from invindel.genome import (
    LINEAR,
    Chromosome,
    GenomePair,
    Marker,
    classify_markers,
    parse_chromosome,
)
from invindel.oracle import (
    OracleBudget,
    anchor_invariance_check,
    brute_force_distance,
    brute_force_linear_distance,
    brute_force_tau,
    canonical_tokens,
    random_genome_pair,
    random_tagged_tree,
)


def test_tau_figure_values():
    assert brute_force_tau(fig.L2200_MATE) == 3
    assert brute_force_tau(fig.SOLO_III, OracleBudget(max_tree_nodes=16)) == 5
    lone = bt({0: "b"}, [])
    assert brute_force_tau(lone) == 1


def test_tau_budget():
    with pytest.raises(BudgetExceeded):
        brute_force_tau(fig.REDUCTION3, OracleBudget(max_tree_nodes=10))


def test_tau_invariant_under_relabeling_and_swap(rng):
    for _ in range(60):
        tree = random_tagged_tree(rng, max_nodes=10, max_leaves=6)
        base = brute_force_tau(tree)
        # relabel node ids
        ids = tree.node_ids()
        perm = list(ids)
        rng.shuffle(perm)
        mapping = dict(zip(ids, perm))
        from invindel.components import TaggedTree

        relabeled = TaggedTree(
            {mapping[u]: n for u, n in tree.nodes.items()},
            {mapping[u]: tuple(sorted(mapping[v] for v in vs)) for u, vs in tree.adj.items()},
        )
        assert brute_force_tau(relabeled) == base
        assert brute_force_tau(tree.with_swapped_tags()) == base


def test_distance_identity():
    pair = classify_markers(parse_chromosome("a b c"), parse_chromosome("a b c"))
    assert brute_force_distance(pair) == 0


def test_distance_single_deletion():
    pair = classify_markers(parse_chromosome("a b x"), parse_chromosome("a b"))
    assert brute_force_distance(pair) == 1


def test_distance_symmetric_under_role_exchange(rng):
    budget = OracleBudget(max_common=4, max_exclusive=2)
    for _ in range(30):
        pair = random_genome_pair(rng, rng.randint(2, 4), rng.randint(0, 1), rng.randint(0, 1))
        mirrored = GenomePair(pair.b, pair.a)
        assert brute_force_distance(pair, budget) == brute_force_distance(mirrored, budget)


def test_distance_budget_checks():
    pair = classify_markers(
        parse_chromosome("a b c d e f"), parse_chromosome("a b c d e f")
    )
    with pytest.raises(BudgetExceeded):
        brute_force_distance(pair, OracleBudget(max_common=4))


def test_canonical_tokens():
    assert canonical_tokens(("b", "a")) == canonical_tokens(("a", "b"))
    assert canonical_tokens(("a", "-b")) == canonical_tokens(("b", "-a"))


def test_anchor_invariance_check_figure():
    a = parse_chromosome("a t j b d f e g -c h i u k v o n l m")
    b = parse_chromosome("a w b c d e f g h x i j y k l z m n o")
    values = anchor_invariance_check(classify_markers(a, b))
    assert len(values) == 15
    assert set(values.values()) == {15}


def test_anchor_invariance_tiny():
    pair = classify_markers(parse_chromosome("a b"), parse_chromosome("a b"))
    assert set(anchor_invariance_check(pair).values()) == {0}


def test_linear_distance_reads_no_rotations():
    # as circles the two are equal; as lines b c a needs two inversions
    a, b = parse_chromosome("a b c", LINEAR), parse_chromosome("b c a", LINEAR)
    assert brute_force_linear_distance(classify_markers(a, b)) == 2
    circles = classify_markers(parse_chromosome("a b c"), parse_chromosome("b c a"))
    assert brute_force_distance(circles) == 0
    # a line reads the same in both directions
    flipped = parse_chromosome("-c -b -a", LINEAR)
    assert brute_force_linear_distance(classify_markers(a, flipped)) == 0
    # a block goes in at either end of a line
    ends = parse_chromosome("x a b c", LINEAR)
    assert brute_force_linear_distance(classify_markers(a, ends)) == 1
    with pytest.raises(NotLinear):
        brute_force_linear_distance(circles)


def _linear_chromosomes(names):
    """Every linear chromosome over the names, one of each mirror pair."""
    seen = set()
    for order in permutations(names):
        for signs in product((True, False), repeat=len(order)):
            ch = Chromosome(tuple(map(Marker, order, signs)), LINEAR)
            mirror = ch.reversed_flipped()
            if mirror.tokens() not in seen:
                seen.add(ch.tokens())
                yield ch


def _linear_targets(g, ny):
    """The common markers g0.. forward and in order, with ny exclusive
    markers y0.. forward in every choice of slots, one of each mirror pair.
    Every linear chromosome with g common and ny exclusive markers is one
    of these up to renaming the markers (a name may also stand for its
    reverse)."""
    n = g + ny
    kept = set()
    for slots in combinations(range(n), ny):
        if tuple(sorted(n - 1 - k for k in slots)) in kept:
            continue
        kept.add(slots)
        common, ys = iter(range(g)), iter(range(ny))
        yield Chromosome(
            (Marker(f"y{next(ys)}" if k in slots else f"g{next(common)}") for k in range(n)),
            LINEAR,
        )


def test_linear_distance_report_matches_search():
    # every linear pair of up to 4 common and 2 exclusive markers, up to
    # renaming: the exclusive-free (or, for one exclusive marker a side,
    # the second) chromosome is a fixed target, so one search table serves
    # all its partners, and the distance is checked both ways round
    budget = OracleBudget(max_common=4, max_exclusive=2)
    t0 = time.time()
    checked = mismatches = 0
    for g in (2, 3, 4):
        for nx, ny in [(0, 0), (1, 0), (2, 0), (1, 1)]:
            xs = [f"x{i}" for i in range(nx)]
            sources = list(_linear_chromosomes([f"g{i}" for i in range(g)] + xs))
            for target in _linear_targets(g, ny):
                for source in sources:
                    want = brute_force_linear_distance(GenomePair(source, target), budget)
                    checked += 2
                    mismatches += distance_report(source, target).distance != want
                    mismatches += distance_report(target, source).distance != want
    elapsed = time.time() - t0
    assert mismatches == 0, f"{mismatches} of {checked} linear pairs"
    assert checked == 67_400 and elapsed < 60, (checked, elapsed)
