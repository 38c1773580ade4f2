import pytest

from conftest import bt

import trees as fig

from invindel.errors import BudgetExceeded
from invindel.genome import GenomePair, classify_markers, parse_chromosome
from invindel.oracle import (
    OracleBudget,
    anchor_invariance_check,
    brute_force_distance,
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


def test_tau_bridge_restriction_never_hurts(rng):
    for _ in range(120):
        tree = random_tagged_tree(rng, max_nodes=11, max_leaves=7)
        assert brute_force_tau(tree, allow_bridges=True) == brute_force_tau(
            tree, allow_bridges=False
        )


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
