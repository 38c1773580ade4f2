import random
from collections import Counter

import pytest

from conftest import bt

import trees as fig

from invindel import residual
from invindel.components import CLASS_TAGS
from invindel.errors import BudgetExceeded, UnknownComposition
from invindel.oracle import OracleBudget, brute_force_tau, random_residual_tree
from invindel.residual import (
    TABLE,
    known_compositions,
    normalize_ab_swap,
    optimal_cover_of_residual,
)
from invindel.treecover import cover_floor


def test_table_holds_all_56_compositions():
    comps = known_compositions()
    assert len(comps) == 56
    # every composition keeps the A count dominant and the printed bounds
    for la, lb, lc, lab in comps:
        assert la >= lb
        assert la <= 2 and lb <= 2
        assert lab <= 4


def test_case_lists_are_sorted_by_cost():
    # the lookup returns the first recipe that binds at the minimum cost,
    # which relies on every list being sorted by cost with reductions last
    for comp, cases in TABLE.items():
        plain = [cs for cs in cases if cs.reduce_class is None]
        assert cases[: len(plain)] == plain, comp
        assert len(cases) - len(plain) <= 1, comp
        costs = [cs.cost for cs in plain]
        assert costs == sorted(costs), comp


def test_table_holds_no_duplicate_case():
    # a case with the cost, recipe and reduce class of an earlier one in its
    # list binds exactly when that one does, so the lookup never reaches it
    for comp, cases in TABLE.items():
        keys = [(cs.cost, cs.recipe, cs.reduce_class) for cs in cases]
        assert len(set(keys)) == len(keys), comp


def test_lookup_2200_topologies():
    assert optimal_cover_of_residual(fig.L2200_COROOTED)[0].total_cost == 2
    assert optimal_cover_of_residual(fig.L2200_SHORTLINK)[0].total_cost == 3
    assert optimal_cover_of_residual(fig.L2200_MATE)[0].total_cost == 3
    assert optimal_cover_of_residual(fig.L2200_LONGLINK)[0].total_cost == 4


def test_lookup_1130_and_reductions():
    cover, labels = optimal_cover_of_residual(fig.L1130_NONREDUCIBLE)
    assert cover.total_cost == 5 and labels[0].endswith("S")
    assert optimal_cover_of_residual(fig.L1130_RED_I)[0].total_cost == 5
    assert optimal_cover_of_residual(fig.L1130_RED_II)[0].total_cost == 5
    assert optimal_cover_of_residual(fig.L1130_RED_III)[0].total_cost == 6


def test_lookup_2223_topologies():
    for tree in (fig.L2223_NR_I, fig.L2223_NR_II, fig.L2223_NR_III):
        assert optimal_cover_of_residual(tree)[0].total_cost == 6
    for tree in (fig.L2223_R_I, fig.L2223_R_II, fig.L2223_R_III, fig.L2223_R_IV):
        cover, labels = optimal_cover_of_residual(tree)
        assert cover.total_cost == 6
    cover, labels = optimal_cover_of_residual(fig.L2223_R_V)
    assert cover.total_cost == 7
    assert any(">>" in lab for lab in labels)


def test_lookup_simple_compositions():
    two = bt({0: "bA", 1: "b", 2: "bB"}, [(0, 1), (1, 2)])
    assert optimal_cover_of_residual(two)[0].total_cost == 2  # any (1,1,0,0) topology

    solo = bt(
        {0: "b", 1: "b", 2: "b", 3: "bAB"},
        [(0, 1), (0, 2), (0, 3)],
    )
    cover, labels = optimal_cover_of_residual(solo)
    assert cover.total_cost == 3  # short clean branch beside a tagged leaf


def test_lookup_rejects_unknown_composition():
    shared = bt({0: "bA", 1: "b", 2: "bA"}, [(0, 1), (1, 2)])
    with pytest.raises(UnknownComposition):
        optimal_cover_of_residual(shared)


def test_normalize_ab_swap():
    tree = bt(
        {0: "g", 1: "bA", 2: "bB", 3: "bB", 4: "b"},
        [(0, 1), (0, 2), (0, 3), (0, 4)],
    )
    assert tree.composition() == (1, 2, 1, 0)
    swapped = normalize_ab_swap(tree)
    assert swapped.composition() == (2, 1, 1, 0)
    assert [swapped.tags(u) for u in (1, 2, 3)] == [{"B"}, {"A"}, {"A"}]
    balanced = bt(
        {0: "g", 1: "bA", 2: "bB", 3: "b", 4: "b"},
        [(0, 1), (0, 2), (0, 3), (0, 4)],
    )
    assert normalize_ab_swap(balanced).tags(1) == {"A"}
    clean = bt({0: "b", 1: "b", 2: "b"}, [(0, 1), (1, 2)])
    assert normalize_ab_swap(clean).composition() == (0, 0, 2, 0)


def test_lookup_agrees_with_search_per_composition(rng):
    budget = OracleBudget(max_tree_nodes=40)
    for comp in known_compositions():
        for _ in range(12):
            tree = random_residual_tree(comp, rng)
            cover, labels = optimal_cover_of_residual(tree)
            cover.validate(tree)
            assert cover.total_cost == brute_force_tau(tree, budget), (comp, labels)


def test_case_order_preserved_in_labels():
    # the first case in table order that binds at the optimum is reported
    cover, labels = optimal_cover_of_residual(fig.L2200_COROOTED)
    assert labels[0] == "(2, 2, 0, 0) I"


def test_witness_paths_respect_costs(rng):
    from invindel.treecover import path_cost

    for comp in [(2, 2, 0, 0), (2, 2, 2, 0), (2, 1, 2, 2), (2, 2, 2, 3)]:
        for _ in range(20):
            tree = random_residual_tree(comp, rng)
            cover, _ = optimal_cover_of_residual(tree)
            for p in cover.paths:
                assert path_cost(tree, p.u, p.v).cost == p.cost


def test_predicate_misses_reach_the_optimum():
    budget = OracleBudget(max_tree_nodes=16)
    for name, tree, cost in fig.PREDICATE_MISSES:
        assert brute_force_tau(tree, budget) == cost, name
        cover, labels = optimal_cover_of_residual(tree)
        cover.validate(tree)
        assert cover.total_cost == cost, name


def test_recipe_budget_raises(monkeypatch):
    monkeypatch.setattr(residual, "INSTANTIATE_BUDGET", 1)
    with pytest.raises(BudgetExceeded):
        optimal_cover_of_residual(fig.L2200_COROOTED)


def test_reduction_depth_guard_raises():
    # no case of composition (2, 2, 2, 3) reaches this tree's leaf bound (6;
    # the optimum is 7), so the lookup tries its reduce case, one level deeper
    with pytest.raises(BudgetExceeded):
        optimal_cover_of_residual(fig.L2223_R_V, _depth=1)


def test_lookup_stops_at_leaf_bound(monkeypatch):
    # case S binds at the leaf bound, parity term included, so the reduce
    # case >> after it spends no pair (a walk without the stop spends some)
    tree = fig.FLOOR_1130
    calls = []
    inner = residual.reduce_by_paths

    def counting(tree, pairs):
        calls.append(pairs)
        return inner(tree, pairs)

    monkeypatch.setattr(residual, "reduce_by_paths", counting)
    cover, labels = optimal_cover_of_residual(tree)
    cover.validate(tree)
    assert labels == ["(1, 1, 3, 0) S"] and calls == []
    assert cover.total_cost == cover_floor(tree) == 5
    assert cover.total_cost == brute_force_tau(tree, OracleBudget(max_tree_nodes=40))


def test_recipe_costs_follow_the_class_tags():
    # a traversal's cost is derived from its end classes' tag sets; what the
    # table still states by hand is that a semi-path leaves a class holding
    # the tag it saves on
    for comp, cases in TABLE.items():
        for cs in cases:
            for spec in cs.recipe or ():
                if spec.kind == "semi":
                    assert spec.tag in CLASS_TAGS[spec.c1], (comp, cs.label, spec)


def test_table_holds_162_rows():
    rows = [cs for cases in TABLE.values() for cs in cases]
    assert len(rows) == 162
    assert sum(cs.reduce_class is not None for cs in rows) == 9


def test_every_row_is_chosen_on_some_tree():
    # criterion 2's trees choose every row but the pinned ones; a lookup is
    # skipped once its composition's rows have all been chosen (the lookup
    # draws nothing from the generator, so the trees stay criterion 2's)
    rng = random.Random(2024)
    unchosen = {f"{comp} {cs.label}" for comp, cases in TABLE.items() for cs in cases}
    for comp in known_compositions():
        own = {f"{comp} {cs.label}" for cs in TABLE[comp]}
        for _ in range(200):
            tree = random_residual_tree(comp, rng)
            if own & unchosen:
                unchosen.difference_update(optimal_cover_of_residual(tree)[1])
    assert unchosen == {f"{comp} {label}" for comp, label, _ in fig.PINNED_ROWS}


@pytest.mark.parametrize(
    "comp, label, tree", fig.PINNED_ROWS, ids=[f"{c}-{lab}" for c, lab, _ in fig.PINNED_ROWS]
)
def test_pinned_row_is_needed(monkeypatch, comp, label, tree):
    cover, labels = optimal_cover_of_residual(tree)
    assert labels == [f"{comp} {label}"]
    assert cover.total_cost == brute_force_tau(tree, OracleBudget(max_tree_nodes=40)) == 4
    monkeypatch.setitem(TABLE, comp, [cs for cs in TABLE[comp] if cs.label != label])
    cover, labels = optimal_cover_of_residual(tree)
    cover.validate(tree)
    assert cover.total_cost == 5


def _connected_full_pairing(comp, recipe) -> bool:
    """Whether the recipe's traversals end at every leaf once, a tcov's
    covered end aside, and any two of them are linked through ends of a
    shared class."""
    if any(spec.kind not in ("in", "out", "tcov") for spec in recipe):
        return False
    ends = [[spec.c1] if spec.kind == "tcov" else [spec.c1, spec.c2] for spec in recipe]
    counts = Counter(c for path in ends for c in path)
    if tuple(counts[c] for c in ("A", "B", "C", "AB")) != comp:
        return False
    reached, grew = set(ends[0]), True
    while grew:
        grew = False
        for path in ends:
            if reached.intersection(path) and not reached.issuperset(path):
                reached.update(path)
                grew = True
    return reached == set(counts)


def test_a_connected_full_pairing_at_the_floor_is_the_only_row():
    # such a row always binds (see the proof at the table), so no later row,
    # reduce cases included, can ever be chosen after it
    rng = random.Random(0)
    alone = set()
    for comp, cases in TABLE.items():
        first = cases[0]
        floor = cover_floor(random_residual_tree(comp, rng))
        if first.recipe and first.cost == floor and _connected_full_pairing(comp, first.recipe):
            assert len(cases) == 1, comp
            alone.add(comp)
    assert {(2, 1, 0, 3), (2, 2, 0, 3), (2, 2, 0, 4), (2, 2, 1, 3)} <= alone
