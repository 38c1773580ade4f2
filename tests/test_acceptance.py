"""Acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts the criterion at its stated tolerance.  All randomness is
seeded, so the suite is reproducible.
"""

import gc
import itertools
import random
import statistics
import time

import trees as fig

from invindel.cli import compute_distance, tau_star
from invindel.components import TaggedTree, contract, find_components, tagged_tree_for_pair
from invindel.diagram import build_relational_diagram, indel_potential
from invindel.genome import Chromosome, GenomePair, Marker
from invindel.oracle import (
    OracleBudget,
    brute_force_distance,
    brute_force_tau,
    canonical_tokens,
    random_genome_pair,
    random_residual_tree,
    random_tagged_tree,
    structured_genome_pair,
)
from invindel.residual import known_compositions, optimal_cover_of_residual
from invindel.treecover import cover_floor


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_figure_regression():
    t0 = time.time()
    failures = []
    for name, tree, expected in fig.FIGURE_TREES:
        got = tau_star(tree)[0]
        if got != expected:
            failures.append((name, expected, got))
    elapsed = time.time() - t0
    _report(
        "1 figure regression",
        not failures and elapsed < 1.0,
        f"({len(fig.FIGURE_TREES)} trees in {elapsed:.2f}s; mismatches: {failures})",
    )


def test_criterion_2_residual_table_fidelity():
    rng = random.Random(2024)
    budget = OracleBudget(max_tree_nodes=40)
    t0 = time.time()
    # each tree goes through the lookup alone and through tau* (the
    # reducer's kept counts first); both must reach the optimum, and the leaf
    # bound that stops both searches must not exceed it
    mismatches = tau_mismatches = above_optimum = 0
    fired: set[str] = set()
    total = 0
    for comp in known_compositions():
        for _ in range(200):
            tree = random_residual_tree(comp, rng)
            cover, labels = optimal_cover_of_residual(tree)
            cover.validate(tree)
            fired.update(labels)
            total += 1
            want = brute_force_tau(tree, budget)
            mismatches += cover.total_cost != want
            tau_mismatches += tau_star(tree)[0] != want
            above_optimum += want < cover_floor(tree)
    elapsed = time.time() - t0
    _report(
        "2 residual-table fidelity",
        mismatches == tau_mismatches == above_optimum == 0 and elapsed < 120,
        f"({total} trees over 56 compositions, {len(fired)} distinct cases fired, "
        f"{mismatches} lookup and {tau_mismatches} tau* mismatches, "
        f"{above_optimum} leaf bounds above the optimum, {elapsed:.0f}s)",
    )


def test_criterion_3_tree_cover_equivalence():
    rng = random.Random(33)
    t0 = time.time()
    mismatches = 0
    for _ in range(10_000):
        tree = random_tagged_tree(rng, max_nodes=12, max_leaves=8)
        if tau_star(tree)[0] != brute_force_tau(tree):
            mismatches += 1
    elapsed = time.time() - t0
    _report(
        "3 end-to-end cover equivalence",
        mismatches == 0 and elapsed < 300,
        f"(10000 trees, {mismatches} mismatches, {elapsed:.0f}s)",
    )


def _all_canonical_circulars(names):
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


def _b_representatives(g: int, nb: int):
    """Second chromosomes up to consistent marker renaming (which neither
    the pipeline nor the search distance depends on, anchor invariance
    being certified separately)."""
    common = [f"g{i}" for i in range(g)]
    mk = lambda names: Chromosome(tuple(Marker(n) for n in names))
    if nb == 0:
        yield mk(common)
    elif nb == 1:
        yield mk(common[:1] + ["y0"] + common[1:])
    else:
        yield mk(common[:1] + ["y0", "y1"] + common[1:])
        yield mk(common[:1] + ["y0"] + common[1:2] + ["y1"] + common[2:])
        if g >= 4:
            yield mk(common[:1] + ["y0"] + common[1:3] + ["y1"] + common[3:])


def test_criterion_4_full_distance_equivalence():
    budget = OracleBudget(max_common=4, max_exclusive=2, max_states=3_000_000)
    t0 = time.time()
    checked = mismatches = 0
    for g in (2, 3, 4):
        common = [f"g{i}" for i in range(g)]
        for na, nb in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
            a_only = [f"x{i}" for i in range(na)]
            if g <= 3 and nb:
                b_side = _all_canonical_circulars(common + [f"y{i}" for i in range(nb)])
            else:
                b_side = list(_b_representatives(g, nb))
            a_side = _all_canonical_circulars(common + a_only)
            for b in b_side:
                for a in a_side:
                    pair = GenomePair(a, b)
                    checked += 1
                    if compute_distance(pair).distance != brute_force_distance(pair, budget):
                        mismatches += 1
    elapsed = time.time() - t0
    _report(
        "4 full-distance equivalence",
        mismatches == 0 and elapsed < 600,
        f"({checked} pairs, {mismatches} mismatches, {elapsed:.0f}s)",
    )


def _random_single_class_tree(rng: random.Random, tagged: bool) -> TaggedTree:
    while True:
        n = rng.randint(2, 12)
        edges = [(i, rng.randrange(i)) for i in range(1, n)]
        degree = {i: 0 for i in range(n)}
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        tag = rng.choice(["A", "B", "AB"]) if tagged else ""
        specs = {}
        for i in range(n):
            if degree[i] <= 1:
                specs[i] = "b" + tag
            else:
                bad = rng.random() < 0.7
                internal_tag = rng.choice(["", "", tag or "A", "B"]) if bad else rng.choice(["", "A", "B"])
                specs[i] = ("b" if bad else "g") + internal_tag
        tree = contract(TaggedTree.from_spec(specs, edges))
        if tree.is_empty or len(tree) > 12:
            continue
        leaves = tree.leaves()
        if tagged:
            if frozenset.intersection(*(tree.tags(u) for u in leaves)):
                return tree
        elif all(not tree.tags(u) for u in leaves):
            return tree


def test_criterion_5_closed_forms():
    from invindel.treecover import branch_is_long, tau_all_clean, tau_shared_tag

    # the paper's closed forms, stated against the cost of the cover each
    # returns: ceil(l/2) when the leaves share a tag; l when they are all
    # clean, plus one exactly for an odd l with every leaf branch long
    rng = random.Random(55)
    mismatches = fortresses = 0
    for _ in range(1000):
        tree = _random_single_class_tree(rng, tagged=True)
        cover = tau_shared_tag(tree)
        cover.validate(tree)
        ell = len(tree.leaves())
        if cover.total_cost != (ell + 1) // 2 or cover.total_cost != brute_force_tau(tree):
            mismatches += 1
    for _ in range(1000):
        tree = _random_single_class_tree(rng, tagged=False)
        cover = tau_all_clean(tree)
        cover.validate(tree)
        leaves = tree.leaves()
        fortress = len(leaves) % 2 == 1 and all(branch_is_long(tree, u) for u in leaves)
        fortresses += fortress
        if cover.total_cost != len(leaves) + fortress or cover.total_cost != brute_force_tau(tree):
            mismatches += 1
    potentials_ok = [indel_potential(k) for k in (0, 1, 2)] == [0, 1, 2] and all(
        indel_potential(k) == k // 2 + 1 for k in range(4, 22, 2)
    )
    _report(
        "5 closed forms",
        mismatches == 0 and potentials_ok,
        f"(2000 single-class trees, {fortresses} fortresses, {mismatches} mismatches)",
    )


def _boundary_component_wraps(pair: GenomePair, anchor: str) -> bool:
    """Whether the cut at ``anchor`` puts the first and the last upper edge
    in one component while the diagram holds two or more components."""
    diagram = build_relational_diagram(pair, anchor)
    comps = find_components(diagram)
    comp_of_cycle = {c: comp.id for comp in comps for c in comp.cycles}
    owner = diagram.owner
    return len(comps) >= 2 and comp_of_cycle[owner[0]] == comp_of_cycle[owner[-1]]


def test_criterion_6_anchor_invariance():
    rng = random.Random(66)
    varying = runs = wrapping = 0
    for _ in range(500):
        pair = random_genome_pair(
            rng, rng.randint(2, 6), rng.randint(0, 2), rng.randint(0, 2)
        )
        values = set()
        for g in sorted(pair.common):
            values.add(compute_distance(pair, anchor=g).distance)
            runs += 1
            wrapping += _boundary_component_wraps(pair, g)
        if len(values) != 1:
            varying += 1
    # cuts whose boundary edges share a component must stay exercised
    _report(
        "6 anchor invariance",
        varying == 0 and wrapping > 0,
        f"(500 pairs, {varying} varying; {wrapping} of {runs} runs cut inside "
        "the boundary component)",
    )


def test_criterion_7_scaling():
    # as in criterion 8, the sizes are timed round-robin and each timing
    # starts after a full collection
    rng = random.Random(77)
    sizes = (1000, 2000, 4000, 8000)
    pairs = {
        n: [random_genome_pair(rng, n, max(1, n // 100), max(1, n // 100)) for _ in range(7)]
        for n in sizes
    }
    times: dict[int, list[float]] = {n: [] for n in sizes}
    for r in range(7):
        for n in sizes:
            gc.collect()
            t0 = time.perf_counter()
            compute_distance(pairs[n][r])
            times[n].append(time.perf_counter() - t0)
    medians = {n: statistics.median(times[n]) for n in sizes}
    ratios = [medians[2 * n] / medians[n] for n in sizes[:-1]]
    ok = all(r <= 4.5 for r in ratios) and medians[8000] < 5.0
    _report(
        "7 scaling",
        ok,
        "(medians "
        + ", ".join(f"n={n}: {medians[n] * 1000:.0f}ms" for n in sorted(medians))
        + f"; ratios {[f'{r:.2f}' for r in ratios]})",
    )


def test_criterion_8_structured_scaling():
    # nested block swaps give tagged trees of hundreds of leaves.  The sizes
    # are timed in turn, round after round, so that a drift in the
    # machine's speed reaches all of them, and each timing starts after a
    # full collection: one falling due mid-call would cost in proportion to
    # everything the test process holds, not to the pair
    rng = random.Random(88)
    sizes = (30, 60, 120, 240)
    pairs = {n: [structured_genome_pair(rng, n) for _ in range(9)] for n in sizes}
    total: dict[int, list[float]] = {n: [] for n in sizes}
    tau: dict[int, list[float]] = {n: [] for n in sizes}
    for r in range(9):
        for n in sizes:
            pair = pairs[n][r]
            gc.collect()
            t0 = time.perf_counter()
            compute_distance(pair)
            total[n].append(time.perf_counter() - t0)
            tagged = tagged_tree_for_pair(pair)[3]
            gc.collect()
            t0 = time.perf_counter()
            tau_star(tagged)
            tau[n].append(time.perf_counter() - t0)
    medians = {n: statistics.median(total[n]) for n in sizes}
    tau_medians = {n: statistics.median(tau[n]) for n in sizes}
    ratios = [medians[2 * n] / medians[n] for n in sizes[:-1]]
    tau_ratio = tau_medians[240] / tau_medians[60]
    _report(
        "8 structured scaling",
        all(r <= 3.0 for r in ratios) and tau_ratio <= 6.25,
        "(medians "
        + ", ".join(f"{n} blocks: {medians[n] * 1000:.0f}ms" for n in sizes)
        + f"; ratios {[f'{r:.2f}' for r in ratios]}; tau* {tau_medians[60] * 1000:.1f}ms"
        + f" -> {tau_medians[240] * 1000:.1f}ms from 60 to 240 blocks, ratio {tau_ratio:.2f})",
    )
