import itertools
import pickle
import random

import pytest

from conftest import bt

import trees as fig

from invindel import reduction, residual
from invindel.cli import tau_star
from invindel.components import reduce_by_paths
from invindel.errors import BudgetExceeded, DegenerateTree, PreconditionViolated
from invindel.oracle import OracleBudget, brute_force_tau, random_tagged_tree
from invindel.reduction import (
    ReductionStep,
    _balanced_pair_plan,
    _Reducer,
    _run_pipeline,
    compute_residual,
    essential_leaf,
    kept_count,
)
from invindel.residual import optimal_cover_of_residual
from invindel.treecover import analyze_topology, cover_floor


def balanced_reduce(tree, leaf_class, keep, solo=None):
    """Spend the planned balanced in-traversals that leave ``keep`` leaves of
    one class; returns the reduced tree and the class leaves that survive."""
    leaves = tree.leaf_classes()[leaf_class]
    reduced = reduce_by_paths(tree, _balanced_pair_plan(tree, leaves, keep, solo))
    return reduced, [u for u in reduced.leaves() if u in leaves]


def three_to_one(tree, leaves):
    """Keep the essential leaf; spend the in-traversal between the others."""
    kept = essential_leaf(tree, leaves)
    others = [u for u in sorted(leaves) if u != kept]
    return reduce_by_paths(tree, [(others[0], others[1])])


def test_reduction_step_is_a_frozen_record():
    s = ReductionStep("three_to_one", (1, 2), 2, "C")
    assert s == ReductionStep("three_to_one", (1, 2), 2, "C")
    assert s != ReductionStep("three_to_one", (1, 2), 1, "C")
    assert s != ("three_to_one", (1, 2), 2, "C") and not s == ("three_to_one", (1, 2), 2, "C")
    assert hash(s) == hash(("three_to_one", (1, 2), 2, "C")) and {s: 1}[s] == 1
    assert repr(s) == "ReductionStep(kind='three_to_one', path=(1, 2), cost=2, leaf_class='C')"
    with pytest.raises(AttributeError):
        s.cost = 1
    assert pickle.loads(pickle.dumps(s)) == s
    res = compute_residual(fig.REDUCTION3)
    assert res.steps and all(step.__class__ is ReductionStep for step in res.steps)


def test_p_reduction_single_bad_node():
    lone = bt({0: "bA"}, [])
    assert reduce_by_paths(lone, [(0, 0)]).is_empty


def test_p_reduction_keeps_other_structure():
    tree = fig.REDUCTION1_II
    reduced = reduce_by_paths(tree, [(3, 5)])  # the two inner B-leaves
    reduced.validate()
    # three leaves remain: two A-leaves and the short-branch B-leaf
    assert reduced.composition() == (2, 1, 0, 0)
    assert 8 in reduced.leaves()


def test_reduction1_safety():
    # spending the clean in-traversal keeps the solo leaf and the total
    # splits additively; spending it on the solo leaf would not
    tree = fig.REDUCTION1_I
    safe = reduce_by_paths(tree, [(3, 5)])
    assert brute_force_tau(tree) == 2 + brute_force_tau(safe)
    unsafe = reduce_by_paths(tree, [(8, 5)])
    assert brute_force_tau(tree) < 2 + brute_force_tau(unsafe)

    tree = fig.REDUCTION1_II
    first = reduce_by_paths(tree, [(3, 5)])
    assert brute_force_tau(tree) == 1 + brute_force_tau(first)
    second = reduce_by_paths(tree, [(5, 8)])
    assert brute_force_tau(tree) == 1 + brute_force_tau(second)


def test_balanced_reduction_counts():
    tree = bt(
        {0: "g", 1: "bA", 2: "bA", 3: "bA", 4: "bA", 5: "b", 6: "bB"},
        [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (5, 6)],
    )
    reduced, remaining = balanced_reduce(tree, "A", 2)
    assert len(remaining) == 2
    assert reduced.composition()[0] == 2
    # the pipeline shrinks the four A-leaves the same way and leaves the
    # lone B-leaf alone: a class below four leaves is never balanced
    res = compute_residual(tree)
    balanced = [s for s in res.steps if s.kind == "balanced_in_traversal"]
    assert [s.leaf_class for s in balanced] == ["A"]
    assert 6 in res.residual.leaves()


def test_balanced_reduction_preserving():
    # topology facts outside the reduced class survive a balanced reduction
    tree = bt(
        {
            0: "b",
            1: "g", 2: "bA", 3: "bA", 4: "bA", 5: "bA", 6: "bA", 7: "bA",
            8: "g", 9: "bB", 10: "bB", 11: "b", 12: "b",
        },
        [
            (0, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
            (0, 8), (8, 9), (8, 10), (8, 11), (11, 12),
        ],
    )
    before = analyze_topology(tree)
    reduced, remaining = balanced_reduce(tree, "A", 2)
    after = analyze_topology(reduced)
    assert len(remaining) == 2
    assert after.composition == (2, 2, 1, 0)
    assert before.isolated["A"] == after.isolated["A"]
    assert before.isolated["B"] == after.isolated["B"]
    assert before.solo_candidates == after.solo_candidates
    assert before.links[("A", "B")] == after.links[("A", "B")]


def test_balanced_reduction_respects_solo():
    tree = bt(
        {
            0: "g", 1: "b", 2: "b", 3: "b", 4: "b", 5: "bA", 6: "b", 7: "bA",
        },
        [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (6, 7)],
    )
    reduced, remaining = balanced_reduce(tree, "C", 2, solo=2)
    assert 2 in remaining and len(remaining) == 2


def test_essential_leaf_destroy_solo():
    wide = OracleBudget(max_tree_nodes=20)
    # keeping any starred leaf keeps the reduction safe; the branch that is
    # also a whole-tree branch never is one here, so the rule falls through
    # to the intersecting-fragments rule
    tree = fig.DESTROY_SOLO_I
    leaves = [5, 9, 13]
    kept = essential_leaf(tree, leaves)
    assert kept in (5, 9)
    reduced = three_to_one(tree, leaves)
    assert brute_force_tau(tree, wide) == 1 + brute_force_tau(reduced, wide)

    tree = fig.DESTROY_SOLO_II
    kept = essential_leaf(tree, leaves)
    assert kept in (5, 9)
    reduced = three_to_one(tree, leaves)
    assert brute_force_tau(tree, wide) == 1 + brute_force_tau(reduced, wide)


def test_essential_leaf_intersecting_fragments():
    wide = OracleBudget(max_tree_nodes=20)
    tree = fig.RED3TO1_III
    leaves = [2, 10, 13]
    kept = essential_leaf(tree, leaves)
    assert kept in (10, 13)
    reduced = three_to_one(tree, leaves)
    assert brute_force_tau(tree, wide) == 1 + brute_force_tau(reduced, wide)


def test_essential_leaf_isolated_star():
    star = bt(
        {0: "b", 1: "bA", 2: "bA", 3: "bA", 4: "b", 5: "bB"},
        [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)],
    )
    reduced = three_to_one(star, [1, 2, 3])
    assert brute_force_tau(star) == 1 + brute_force_tau(reduced)


def test_essential_leaf_requires_three():
    with pytest.raises(PreconditionViolated):
        essential_leaf(fig.SOLO_I, [2, 4])


def _kept_clean(res, leaf) -> bool:
    """Whether the reduction kept a clean leaf for the residual stage: no
    clean step ends at it and it is a leaf of the residual tree."""
    return leaf in res.residual.leaves() and not any(
        leaf in s.path for s in res.steps if s.leaf_class == "C"
    )


def test_compute_residual_worked_example():
    res = compute_residual(fig.REDUCTION3)
    assert sum(s.cost for s in res.steps) == 7
    assert res.residual.composition() == (2, 1, 1, 3)
    assert any(_kept_clean(res, u) for u in (39, 40))
    topo = analyze_topology(res.residual)
    assert topo.isolated["A"] and topo.isolated["B"]
    assert not topo.isolated["C"] and not topo.isolated["AB"]
    # the full certificate re-validates on the input tree, and lifting the
    # lookup cover into it keeps the lookup's cost
    res.full_cover().validate(fig.REDUCTION3)
    assert res.total_cost == 7 + optimal_cover_of_residual(res.residual)[0].total_cost


def test_compute_residual_rejects_degenerate():
    from invindel.components import TaggedTree

    with pytest.raises(DegenerateTree):
        compute_residual(TaggedTree({}, {}))


def test_compute_residual_names_the_closed_form():
    # trees whose leaves all share a tag or are all clean have a closed form,
    # which the reduction does not reach: it refuses them at once
    shared = [
        bt({0: "bA", 1: "bAB", 2: "bA"}, [(0, 1), (1, 2)]),
        bt({0: "b", 1: "bA", 2: "bA", 3: "bA"}, [(0, 1), (0, 2), (0, 3)]),
    ]
    for tree in shared:
        with pytest.raises(DegenerateTree, match="tau_shared_tag"):
            compute_residual(tree)
    clean = bt({0: "b", 1: "b", 2: "b", 3: "b"}, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(DegenerateTree, match="tau_all_clean"):
        compute_residual(clean)


def test_solo_search_prefers_keeping_solo():
    res = compute_residual(fig.SOLO_I)
    assert res.total_cost == 5
    # the winning cover uses a short path on a clean short-branch leaf
    shorts = [p for p in res.full_cover().paths if p.kind == "short"]
    assert any(not fig.SOLO_I.tags(p.u) for p in shorts)

    res = compute_residual(fig.SOLO_III)
    assert res.total_cost == 5
    shorts = [p for p in res.full_cover().paths if p.kind == "short"]
    assert not any(not fig.SOLO_III.tags(p.u) for p in shorts)


def test_solo_clean_reduction_standalone():
    tree = bt(
        {
            0: "g", 1: "bA", 2: "b", 3: "bB", 4: "b", 5: "b", 6: "b", 7: "b",
            8: "b", 9: "b", 10: "b",
        },
        [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (0, 6), (6, 7), (0, 8), (0, 9), (9, 10)],
    )
    # the tagged classes hold one leaf each, so only the clean phase with
    # its solo-leaf search reduces anything
    res = compute_residual(tree)
    assert {s.leaf_class for s in res.steps} == {"C"}
    assert res.total_cost == brute_force_tau(tree)
    res.full_cover().validate(tree)


def test_reduction_safety_random(rng):
    # tau decomposes additively over the performed reduction for every
    # sampled mixed tree
    budget = OracleBudget(max_tree_nodes=14)
    checked = 0
    while checked < 150:
        tree = random_tagged_tree(rng, max_nodes=12, max_leaves=8)
        leaves = tree.leaves()
        shared = frozenset.intersection(*(tree.tags(u) for u in leaves))
        if shared or all(not tree.tags(u) for u in leaves):
            continue
        checked += 1
        res = compute_residual(tree)
        assert sum(s.cost for s in res.steps) + brute_force_tau(
            res.residual, budget
        ) == brute_force_tau(tree, budget)
        cover = res.full_cover()
        cover.validate(tree)
        assert cover.total_cost == res.total_cost == brute_force_tau(tree, budget)


def test_residual_composition_in_tables(rng):
    from invindel.residual import known_compositions, normalize_ab_swap

    table = set(known_compositions())
    checked = 0
    while checked < 200:
        tree = random_tagged_tree(rng, max_nodes=12, max_leaves=8)
        leaves = tree.leaves()
        shared = frozenset.intersection(*(tree.tags(u) for u in leaves))
        if shared or all(not tree.tags(u) for u in leaves):
            continue
        checked += 1
        res = compute_residual(tree)
        la, lb, lc, lab = res.residual.composition()
        normalized = normalize_ab_swap(res.residual)
        assert normalized.composition() == (max(la, lb), min(la, lb), lc, lab)
        assert normalized.composition() in table


def test_clean_class_of_six_with_solo():
    # six clean leaves and a short-branch candidate: two indel-neutral
    # in-traversals reduce the class to two at cost four, keeping the
    # candidate alive for the residual stage
    tree = bt(
        {
            0: "b", 1: "b", 2: "b", 3: "b", 4: "bA", 5: "b", 6: "b", 7: "b",
            8: "b", 9: "b", 10: "bB", 11: "bA", 12: "bA", 13: "b", 14: "b", 15: "b",
        },
        [
            (0, 1), (0, 4), (0, 9), (0, 11), (1, 2), (1, 5), (1, 6), (1, 7),
            (1, 12), (1, 14), (2, 3), (7, 8), (9, 10), (12, 13), (14, 15),
        ],
    )
    assert len([u for u in tree.leaves() if not tree.tags(u)]) == 6
    res = compute_residual(tree)
    clean_steps = [s for s in res.steps if s.leaf_class == "C"]
    assert sum(s.cost for s in clean_steps) == 4
    # keeping the short-branch candidate beats every other hypothesis here
    assert _kept_clean(res, 5)
    wide = OracleBudget(max_tree_nodes=18)
    assert brute_force_tau(tree, wide) == sum(s.cost for s in res.steps) + brute_force_tau(
        res.residual, wide
    )
    assert res.total_cost == brute_force_tau(tree, wide) == 8


def _gates_replaced(la, lb, lc, lab):
    """Reference for the keep rule: the hand-written gates that
    `kept_count` replaced, run on a composition.  A and B shrink to two
    leaves or one by parity; the AB gates read the larger tagged class as
    A; the clean gate keeps three clean leaves only at (1, 1, ., 0)."""
    la, lb = (n if n <= 2 else 2 - n % 2 for n in (la, lb))
    if lab >= 3:
        a, b = max(la, lb), min(la, lb)
        if lc % 2 == 1:
            lcr = 1
        elif lc > 0:
            lcr = 2
        else:
            lcr = 0
        can2 = lab % 2 == 0 and (
            b == 0 or (lcr == 0 and a + b < 4) or (lcr > 0 and a + b + lcr < 5)
        )
        if lab >= 5 or can2:
            lab = 3 if lab % 2 == 1 else 2 if can2 else 4
        if lab == 3 and (
            (b == 0 and a + lcr < 4)
            or (lcr == 0 and a + b < 3)
            or (b > 0 and lcr > 0 and a + b + lcr < 4)
        ):
            lab = 1
    can1 = lc % 2 == 1 and lc >= 3 and not (la == 1 and lb == 1 and lab == 0)
    if lc >= 4:
        lc = 3 if lc % 2 == 1 else 2
    if can1:
        lc = 1
    return la, lb, lc, lab


def test_keep_rule_matches_the_gates_it_replaced():
    # every mixed composition: some leaf tagged, and no tag on every leaf
    mixed = [
        (la, lb, lc, lab)
        for la, lb, lc, lab in itertools.product(range(9), range(9), range(10), range(11))
        if la + lb + lab and (lb or lc) and (la or lc)
    ]
    assert len(mixed) == 8714
    for comp in mixed:
        counts = list(comp)
        for slot, cls in ((0, "A"), (1, "B"), (3, "AB"), (2, "C")):
            counts[slot] = kept_count(tuple(counts), cls)
        assert tuple(counts) == _gates_replaced(*comp), comp
        la, lb, lc, lab = counts
        assert (max(la, lb), min(la, lb), lc, lab) in residual.TABLE, comp


@pytest.mark.parametrize(
    "tree, cls, kept, optimum",
    [
        pytest.param(fig.AB_GATE_2023, "AB", 3, 5, id="AB_GATE_2023"),
        pytest.param(fig.KEEP_AB4_2204, "AB", 4, 4, id="KEEP_AB4_2204"),
        pytest.param(fig.KEEP_C3_1130, "C", 3, 5, id="KEEP_C3_1130"),
    ],
)
def test_kept_count_is_needed(monkeypatch, tree, cls, kept, optimum):
    # the reducer keeps the count the table takes, the pinned tree needs it,
    # and shrinking every class to its fewest leaves costs one more
    assert len(tree.leaf_classes()[cls]) == kept
    assert compute_residual(tree).residual.composition() == tree.composition()
    assert tau_star(tree)[0] == brute_force_tau(tree, OracleBudget(max_tree_nodes=40)) == optimum

    def fewest(comp, c):
        return reduction._fewest(comp[reduction._SLOT[c]])

    monkeypatch.setattr(reduction, "kept_count", fewest)
    assert len(compute_residual(tree).residual.leaf_classes()[cls]) < kept
    assert tau_star(tree)[0] == optimum + 1


def _mixed(tree):
    """Whether tau_star sends the tree to the reduction: its leaves share no
    tag and some leaf is tagged."""
    leaves = tree.leaves()
    shared = frozenset.intersection(*(tree.tags(u) for u in leaves))
    return not shared and any(tree.tags(u) for u in leaves)


def _outcome(tree):
    res = compute_residual(tree)
    return res.total_cost, res.steps, res.case_trace, res.lookup_cover


def test_leaf_bound_exit_matches_full_scan(monkeypatch):
    big = [random_tagged_tree(random.Random(s), 300, 200) for s in range(20)]
    rng = random.Random(33)  # the tree set of acceptance criterion 3
    small = [random_tagged_tree(rng, max_nodes=12, max_leaves=8) for _ in range(10_000)]
    trees = [t for t in big + small if _mixed(t)]
    early = [_outcome(t) for t in trees]
    floors, lookup_floors = [], []

    def no_floor(tree):
        floors.append(tree)
        return -1  # no total reaches it, so every hypothesis is tried

    def no_lookup_floor(tree):
        lookup_floors.append(tree)
        return -1  # no cover reaches it, so every case is walked

    monkeypatch.setattr(reduction, "cover_floor", no_floor)
    monkeypatch.setattr(residual, "cover_floor", no_lookup_floor)
    assert [_outcome(t) for t in trees] == early
    # one floor per compute_residual, shared by forks and nested runs, and
    # one per residual lookup
    assert floors == trees
    assert len(lookup_floors) >= len(trees)


def _count_hypotheses(monkeypatch) -> list:
    """The branches `_result_for` is called on from now on, one per
    solo-leaf hypothesis evaluated (or re-run after a three-to-one)."""
    calls = []
    inner = reduction._result_for

    def counting(branch, depth):
        calls.append(branch)
        return inner(branch, depth)

    monkeypatch.setattr(reduction, "_result_for", counting)
    return calls


def test_clean_phase_stops_at_leaf_bound(monkeypatch):
    # the count form of a scaling gate: a full scan evaluates 28 hypotheses
    tree = random_tagged_tree(random.Random(0), 300, 200)
    assert len(tree) == 161 and tree.composition() == (18, 9, 40, 13)
    calls = _count_hypotheses(monkeypatch)
    assert compute_residual(tree).total_cost == cover_floor(tree)
    assert len(calls) == 1


def test_clean_phase_stops_at_parity_bound(monkeypatch):
    # one A leaf, one B leaf and no AB leaf: the parity term lifts the leaf
    # bound to the optimum, so the first of the six hypotheses a full scan
    # evaluates ends the search
    tree = random_tagged_tree(random.Random(379), 300, 200)
    assert len(tree) == 15 and tree.composition() == (1, 1, 6, 0)
    calls = _count_hypotheses(monkeypatch)
    total = compute_residual(tree).total_cost
    assert total == cover_floor(tree) == 8
    assert total == brute_force_tau(tree, OracleBudget(max_tree_nodes=40))
    assert len(calls) == 1
    monkeypatch.setattr(reduction, "cover_floor", lambda tree: -1)
    assert compute_residual(tree).total_cost == total
    assert len(calls) == 1 + 6


def test_pipeline_depth_guard_raises():
    with pytest.raises(BudgetExceeded):
        _run_pipeline(_Reducer(fig.REDUCTION3), depth=0)


def test_off_table_composition_runs_the_pipeline_again(monkeypatch):
    tree = fig.RERUN_0032
    assert tree.composition() == (0, 0, 3, 2) and cover_floor(tree) == 4
    depths = []
    inner = reduction._run_pipeline

    def counting(r, depth=8):
        depths.append(depth)
        return inner(r, depth)

    monkeypatch.setattr(reduction, "_run_pipeline", counting)
    res = compute_residual(tree)
    assert depths == [8, 7]
    assert res.steps == [ReductionStep("three_to_one", (1, 7), 2, "C")]
    assert res.case_trace == ["(0, 0, 1, 2) W"]
    assert tau_star(tree)[0] == res.total_cost == brute_force_tau(tree) == 5
