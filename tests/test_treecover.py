import pickle
import random

import pytest

from conftest import bt

import trees as fig

from invindel.errors import OddLeafCount, PreconditionViolated, ShortPathOnGoodNode
from invindel.oracle import OracleBudget, brute_force_tau, random_residual_tree, random_tagged_tree
from invindel.residual import TABLE
from invindel.treecover import (
    Cover,
    CoverPath,
    analyze_topology,
    branch_is_long,
    cover_floor,
    cover_tree_with_traversals,
    induced_subtree,
    leaf_branch,
    path_cost,
    solo_candidates,
    tau_all_clean,
    tau_shared_tag,
)

A = frozenset({"A"})
B = frozenset({"B"})
C = frozenset({"C"})


def test_path_costs():
    tree = bt(
        {0: "bA", 1: "b", 2: "bAB", 3: "b", 4: "b"},
        [(0, 1), (1, 2), (2, 3), (3, 4)],
    )
    assert path_cost(tree, 0, 2).cost == 1  # share tag A
    assert path_cost(tree, 3, 4).cost == 2  # clean endpoints
    assert path_cost(tree, 0, 0).cost == 1  # cut
    with pytest.raises(ShortPathOnGoodNode):
        good = bt({0: "b", 1: "gA", 2: "b"}, [(0, 1), (1, 2)])
        path_cost(good, 1, 1)


def test_cover_validation_catches_gaps():
    tree = bt({0: "b", 1: "b", 2: "b"}, [(0, 1), (1, 2)])
    cover = Cover([CoverPath(0, 1, 2)])
    with pytest.raises(PreconditionViolated):
        cover.validate(tree)
    Cover([CoverPath(0, 2, 2)]).validate(tree)
    with pytest.raises(PreconditionViolated):
        Cover([CoverPath(0, 2, 1)]).validate(tree)


def test_cover_validation_rejects_an_endpoint_outside_the_tree():
    tree = bt({0: "b", 1: "b", 2: "b"}, [(0, 1), (1, 2)])
    for path in (CoverPath(0, 7, 2), CoverPath(7, 0, 2), CoverPath(7, 7, 1)):
        message = f"^path {path.u}-{path.v} ends outside the tree$"
        with pytest.raises(PreconditionViolated, match=message):
            Cover([path]).validate(tree)
    Cover([CoverPath(0, 2, 2)]).validate(tree)


def test_cover_path_is_a_frozen_record():
    p = CoverPath(0, 7, 2)
    assert p == CoverPath(0, 7, 2) and p != CoverPath(0, 7, 1) and p != CoverPath(7, 0, 2)
    assert p != (0, 7, 2) and not p == (0, 7, 2)
    assert hash(p) == hash((0, 7, 2)) and {CoverPath(0, 7, 2): 1}[p] == 1
    assert repr(p) == "CoverPath(u=0, v=7, cost=2)"
    assert (p.u, p.v, p.cost, p.kind, CoverPath(3, 3, 1).kind) == (0, 7, 2, "long", "short")
    with pytest.raises(AttributeError):
        p.cost = 1
    assert pickle.loads(pickle.dumps(p)) == p


def test_traversals_star():
    star = bt(
        {0: "g", 1: "bA", 2: "bA", 3: "bA", 4: "bA"},
        [(0, 1), (0, 2), (0, 3), (0, 4)],
    )
    pairs = cover_tree_with_traversals(star)
    assert len(pairs) == 2
    covered = set()
    for u, v in pairs:
        covered.update(star.path(u, v))
    assert covered == set(star.nodes)


def test_traversals_path_graph():
    path = bt({0: "bA", 1: "b", 2: "bA"}, [(0, 1), (1, 2)])
    assert cover_tree_with_traversals(path) == [(0, 2)]


def test_traversals_cover_and_intersect_random():
    rng = random.Random(6)
    trials = 0
    while trials < 200:
        tree = random_tagged_tree(rng, max_nodes=14, max_leaves=8)
        leaves = tree.leaves()
        if len(leaves) % 2 or len(leaves) < 2:
            continue
        trials += 1
        pairs = cover_tree_with_traversals(tree)
        covered = set()
        node_sets = []
        for u, v in pairs:
            nodes = set(tree.path(u, v))
            node_sets.append(nodes)
            covered |= nodes
        assert covered == set(tree.nodes)
        # any two paths share a vertex (they all cross a balanced vertex)
        for i in range(len(node_sets)):
            for j in range(i + 1, len(node_sets)):
                assert node_sets[i] & node_sets[j]


def test_traversals_odd_leaf_count_rejected():
    star = bt({0: "g", 1: "bA", 2: "bA", 3: "bA"}, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(OddLeafCount):
        cover_tree_with_traversals(star)


def test_shared_tag_costs():
    star4 = bt(
        {0: "g", 1: "bA", 2: "bA", 3: "bA", 4: "bA"},
        [(0, 1), (0, 2), (0, 3), (0, 4)],
    )
    cover = tau_shared_tag(star4)
    assert cover.total_cost == 2
    cover.validate(star4)

    pair = bt({0: "bA", 1: "b", 2: "bA"}, [(0, 1), (1, 2)])
    cover = tau_shared_tag(pair)
    assert cover.total_cost == 1
    cover.validate(pair)

    five = bt(
        {0: "g", 1: "bA", 2: "bA", 3: "bAB", 4: "bA", 5: "bAB"},
        [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)],
    )
    cover = tau_shared_tag(five)
    assert cover.total_cost == 3
    cover.validate(five)
    assert cover.total_cost == brute_force_tau(five)


def test_shared_tag_precondition():
    mixed = bt({0: "bA", 1: "b", 2: "bB"}, [(0, 1), (1, 2)])
    with pytest.raises(PreconditionViolated):
        tau_shared_tag(mixed)


def test_all_clean_costs():
    star4 = bt(
        {0: "g", 1: "b", 2: "b", 3: "b", 4: "b"},
        [(0, 1), (0, 2), (0, 3), (0, 4)],
    )
    cover = tau_all_clean(star4)
    assert cover.total_cost == 4
    cover.validate(star4)

    fortress = bt(
        {0: "g", 1: "b", 2: "b", 3: "b", 4: "b", 5: "b", 6: "b"},
        [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)],
    )
    cover = tau_all_clean(fortress)
    assert cover.total_cost == 4  # three leaves, all branches long
    cover.validate(fortress)
    assert cover.total_cost == brute_force_tau(fortress)

    one_short = bt(
        {0: "g", 1: "b", 2: "b", 3: "b", 4: "b", 5: "b"},
        [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5)],
    )
    cover = tau_all_clean(one_short)
    assert cover.total_cost == 3
    cover.validate(one_short)
    assert cover.total_cost == brute_force_tau(one_short)


def test_single_node_trees():
    lone_tagged = bt({0: "bA"}, [])
    assert tau_shared_tag(lone_tagged).total_cost == 1
    lone_clean = bt({0: "b"}, [])
    assert tau_all_clean(lone_clean).total_cost == 1


def test_closed_forms_match_search(rng):
    for _ in range(250):
        tree = random_tagged_tree(rng, max_nodes=11, max_leaves=8)
        leaves = tree.leaves()
        shared = frozenset.intersection(*(tree.tags(u) for u in leaves))
        if shared:
            cover = tau_shared_tag(tree)
        elif all(not tree.tags(u) for u in leaves):
            cover = tau_all_clean(tree)
        else:
            continue
        cover.validate(tree)
        assert cover.total_cost == brute_force_tau(tree)


def test_leaf_branches():
    tree = fig.SOLO_I
    assert branch_is_long(tree, 6)  # clean leaf behind one extra bad node
    assert not branch_is_long(tree, 9)  # leaf straight off a branching node
    assert solo_candidates(tree) == [8, 9]
    assert leaf_branch(tree, 6) == [6, 5]


def test_topology_mate_facts():
    report = analyze_topology(fig.MATE_II)
    assert report.composition == (1, 0, 2, 0)
    assert ("A", "A", "C") in report.mates
    assert report.mates[("A", "A", "C")] == 3  # the tagged contracted node
    report = analyze_topology(fig.MATE_IV)
    assert ("A", "A", "C") not in report.mates


def test_topology_mate_through_link_node():
    # the closest bad link node joins the extended subtree
    report = analyze_topology(fig.MATE_III)
    assert report.mates[("A", "A", "C")] == 0


def test_topology_solo_and_isolation():
    report = analyze_topology(fig.SOLO_I)
    assert report.solo_candidates == [8, 9]
    assert report.composition == (1, 1, 3, 0)
    assert not report.fully_corooted

    report = analyze_topology(fig.L2200_COROOTED)
    assert report.fully_corooted
    assert not report.fully_separated

    report = analyze_topology(fig.L2200_LONGLINK)
    assert report.links[("A", "B")] == "long-bad"
    assert report.fully_separated

    report = analyze_topology(fig.L2200_SHORTLINK)
    assert report.links[("A", "B")] == "short-bad"


def test_topology_single_leaf_composition():
    lone = bt({0: "bA"}, [])
    report = analyze_topology(lone)
    assert report.composition == (1, 0, 0, 0)
    assert report.links == {}
    assert report.mates == {}


def test_induced_subtree_minimal():
    tree = fig.L2200_LONGLINK
    sub = induced_subtree(tree, [3, 5])
    assert sub == {3, 2, 1, 4, 5}


def test_report_serializes():
    report = analyze_topology(fig.SOLO_III)
    data = report.to_dict()
    assert data["composition"] == [2, 1, 3, 0]
    assert isinstance(data["leaf_branches"], dict)


def test_cover_cost_bounds_random(rng):
    # every tree's optimum sits between half the bad-leaf count and the
    # leaf count plus one
    for _ in range(300):
        tree = random_tagged_tree(rng, max_nodes=11, max_leaves=8)
        leaves = tree.leaves()
        bad_leaves = [u for u in leaves if tree.is_bad(u)]
        tau = brute_force_tau(tree)
        assert (len(bad_leaves) + 1) // 2 <= tau <= len(leaves) + 1


def test_cover_floor_is_a_lower_bound():
    # no cover beats the leaf bound, and on trees whose leaves share a tag
    # it is the closed form ceil(l/2) of acceptance criterion 5
    rng = random.Random(7)
    tight = 0
    for _ in range(600):
        tree = random_tagged_tree(rng)
        tau, floor = brute_force_tau(tree), cover_floor(tree)
        assert tau >= floor
        tight += tau == floor
        leaves = tree.leaves()
        if frozenset.intersection(*(tree.tags(u) for u in leaves)):
            assert floor == (len(leaves) + 1) // 2
    # tight on 579 of these 600 trees: the bound usually ends the solo search
    assert tight == 579


def test_cover_floor_parity_term_is_sound_and_tight():
    # every table composition with odd A and B classes and no AB leaf: no
    # cover beats lc + ceil((la + lb) / 2) + 1, and some tree of each costs it
    rng = random.Random(0)
    budget = OracleBudget(max_tree_nodes=40)
    parity = [c for c in sorted(TABLE) if c[0] % 2 == c[1] % 2 == 1 and c[3] == 0]
    assert parity == [(1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 2, 0), (1, 1, 3, 0)]
    for comp in parity:
        la, lb, lc, _ = comp
        tight = 0
        for _ in range(50):
            tree = random_residual_tree(comp, rng)
            tau, floor = brute_force_tau(tree, budget), cover_floor(tree)
            assert floor == lc + (la + lb) // 2 + 1
            assert tau >= floor, comp
            tight += tau == floor
        assert tight, comp
