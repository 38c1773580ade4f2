import random

import pytest

import reference_diagram
from invindel.diagram import (
    _line,
    build_relational_diagram,
    classify_cycle,
    indel_potential,
)
from invindel.errors import AnchorNotCommon, OddRunCountAboveOne
from invindel.genome import LINEAR, Chromosome, cap_linear_pair, classify_markers, parse_chromosome
from invindel.oracle import (
    OracleBudget,
    brute_force_distance,
    random_genome_pair,
    structured_genome_pair,
)


def figure_pair():
    a = parse_chromosome("a t j b d f e g -c h i u k v o n l m")
    b = parse_chromosome("a w b c d e f g h x i j y k l z m n o")
    return classify_markers(a, b)


def test_figure_cycle_census():
    d = build_relational_diagram(figure_pair(), "a")
    assert d.c == 7
    labeled = [c for c in d.cycles if c.labeled]
    clean = [c for c in d.cycles if not c.labeled]
    assert len(labeled) == 4 and len(clean) == 3
    two_cycles = [c for c in d.cycles if c.is_two_cycle]
    assert len(two_cycles) == 2  # the two inversion-sorted cycles
    assert all(c.labeled for c in two_cycles)


def test_figure_first_cycle_has_two_runs():
    d = build_relational_diagram(figure_pair(), "a")
    first = next(c for c in d.cycles if 0 in c.a_positions)
    assert first.runs == 2
    assert first.has_a_run and first.has_b_run


def test_figure_indel_potential_sum():
    d = build_relational_diagram(figure_pair(), "a")
    assert d.indel_potential_sum() == 5


def test_run_count_clean_cycle():
    pair = classify_markers(parse_chromosome("a b c"), parse_chromosome("a b c"))
    d = build_relational_diagram(pair, "a")
    assert d.c == 3
    assert all(c.runs == 0 for c in d.cycles)
    assert all(c.is_two_cycle for c in d.cycles)


def test_run_count_alternating_four_runs():
    # one exclusive block per genome per gap, alternating sides along a cycle
    pair = classify_markers(parse_chromosome("a x1 b x2"), parse_chromosome("a y1 b y2"))
    d = build_relational_diagram(pair, "a")
    counts = sorted(c.runs for c in d.cycles)
    assert counts == [2, 2]
    pair = classify_markers(parse_chromosome("a x1 -b x2"), parse_chromosome("a y1 b y2"))
    d = build_relational_diagram(pair, "a")
    four = [c for c in d.cycles if c.runs == 4]
    assert four, "expected an alternating four-run cycle"


def test_indel_potential_values():
    assert [indel_potential(k) for k in (0, 1, 2)] == [0, 1, 2]
    assert indel_potential(4) == 3
    assert indel_potential(6) == 4
    for lam in range(4, 22, 2):
        assert indel_potential(lam) == lam // 2 + 1
    with pytest.raises(OddRunCountAboveOne):
        indel_potential(3)


def test_indel_potential_monotone():
    values = [indel_potential(k) for k in [0, 1, 2] + list(range(4, 30, 2))]
    assert values == sorted(values)


def test_classify_two_cycle_is_sorted():
    pair = classify_markers(parse_chromosome("a b"), parse_chromosome("a b"))
    d = build_relational_diagram(pair, "a")
    for c in d.cycles:
        kind, sortedness, profile = classify_cycle(c)
        assert sortedness == "sorted_2cycle"


def test_classify_constructed_bad_cycle():
    # transposed block: one long cycle whose upper edges all walk one way
    pair = classify_markers(parse_chromosome("a c b"), parse_chromosome("a b c"))
    d = build_relational_diagram(pair, "a")
    long_cycles = [c for c in d.cycles if not c.is_two_cycle]
    assert long_cycles and all(not c.good for c in long_cycles)
    # a signed flip produces opposite walks: good
    pair = classify_markers(parse_chromosome("a -b c"), parse_chromosome("a b c"))
    d = build_relational_diagram(pair, "a")
    long_cycles = [c for c in d.cycles if not c.is_two_cycle]
    assert long_cycles and all(c.good for c in long_cycles)


def test_anchor_must_be_common():
    with pytest.raises(AnchorNotCommon):
        build_relational_diagram(figure_pair(), "t")


def test_dotted_edge_count_invariant():
    rng = random.Random(21)
    for _ in range(100):
        pair = random_genome_pair(rng, rng.randint(2, 7), rng.randint(0, 2), rng.randint(0, 2))
        d = build_relational_diagram(pair, sorted(pair.common)[0])
        # every upper edge lies on exactly one cycle
        assert sorted(p for c in d.cycles for p in c.a_positions) == list(range(d.g_count))
        assert d.c <= d.g_count



def test_owner_matches_positions():
    # the owner array the walk labels equals the one rebuilt from each
    # cycle's sorted upper edges, whose ends are the first and last columns
    rng = random.Random(23)
    pairs = [
        random_genome_pair(rng, rng.randint(2, 60), rng.randint(0, 6), rng.randint(0, 6))
        for _ in range(200)
    ]
    pairs += [structured_genome_pair(rng, rng.randint(1, 8)) for _ in range(20)]
    for pair in pairs:
        d = build_relational_diagram(pair, sorted(pair.common)[0])
        owner = [-1] * d.g_count
        for c in d.cycles:
            assert list(c.a_positions) == sorted(c.a_positions)
            assert (c.a_positions[0], c.a_positions[-1]) == (d.first[c.id], d.last[c.id])
            for p in c.a_positions:
                owner[p] = c.id
        assert d.owner == owner


@pytest.mark.parametrize(
    "text",
    [
        "a b -c d",  # no exclusive marker
        "x1 a b -c d",  # before the first common place
        "a b -c d x1",  # after the last
        "x1 x2 a -b x3 x4 x5 c d x6 x7",  # runs of several, at both ends
        "-a x1 b x2 x3 -c d x4",
        "x1 -a x2",  # one common marker
        "x1 a x2 x3 -b",
    ],
)
def test_line_gap_flags_match_reference(text):
    # the gap flags against the reference line, read from every common
    # marker as the anchor, stored forward or reversed
    ch = parse_chromosome(text)
    common = frozenset(n for n in ch.order if not n.startswith("x"))
    reversed_anchors = 0
    for anchor in sorted(common):
        names, forward, gaps, as_stored = _line(ch, common, anchor)
        ref = reference_diagram._build_line(ch, anchor, common)
        assert list(gaps) == [int(e.labeled) for e in ref]
        assert names == [e.left.marker for e in ref]
        assert [f == as_stored for f in forward] == [e.left.end == "h" for e in ref]
        reversed_anchors += not as_stored
    assert reversed_anchors == sum(n.startswith("-") for n in text.split())

def test_no_bad_component_formula_matches_search():
    # when no bad component exists the distance is common - cycles + potentials
    from invindel.components import find_components
    from invindel.cli import compute_distance

    rng = random.Random(4)
    budget = OracleBudget(max_common=4, max_exclusive=2)
    checked = 0
    while checked < 60:
        pair = random_genome_pair(rng, rng.randint(2, 4), rng.randint(0, 1), rng.randint(0, 1))
        d = build_relational_diagram(pair, sorted(pair.common)[0])
        comps = find_components(d)
        if any(c.kind == "bad" for c in comps):
            continue
        checked += 1
        formula = d.g_count - d.c + d.indel_potential_sum()
        assert brute_force_distance(pair, budget) == formula
        assert compute_distance(pair).distance == formula


def _census(d):
    return [
        (c.id, c.a_positions, c.good, c.runs, c.has_a_run, c.has_b_run, c.is_two_cycle)
        for c in d.cycles
    ]


def test_integer_walk_matches_reference_walk():
    # the integer walk against the named-extremity walk of
    # tests/reference_diagram.py: the same cycles at every anchor
    rng = random.Random(2027)
    reversed_in = {(False, False): 0, (True, False): 0, (False, True): 0, (True, True): 0}
    capped = 0
    for _ in range(2000):
        g = rng.randint(2, 60)
        pair = random_genome_pair(rng, g, rng.randint(0, 6), rng.randint(0, 6))
        pairs = [pair]
        if rng.random() < 0.5:
            linear = classify_markers(
                Chromosome(pair.a.markers, LINEAR), Chromosome(pair.b.markers, LINEAR)
            )
            pairs = cap_linear_pair(linear)
            capped += 1
        for p in pairs:
            fwd_a = {m.name: m.forward for m in p.a.markers}
            fwd_b = {m.name: m.forward for m in p.b.markers}
            for anchor in sorted(p.common):
                d = build_relational_diagram(p, anchor)
                ref = reference_diagram.cycle_steps(p, anchor)
                assert _census(d) == reference_diagram.census(ref)
                reversed_in[not fwd_a[anchor], not fwd_b[anchor]] += 1
    assert capped > 500
    assert min(reversed_in.values()) > 1000


def test_trace_diagram_output_pinned(tmp_path, capsys):
    from invindel.cli import main

    path = tmp_path / "figure.txt"
    path.write_text(
        "a t j b d f e g -c h i u k v o n l m\na w b c d e f g h x i j y k l z m n o\n"
    )
    assert main(["dist", str(path), "--trace", "diagram"]) == 0
    assert capsys.readouterr().out == FIGURE_TRACE


FIGURE_TRACE = """\
== diagram ==
anchor: a  cycles: 7  common: 15
  cycle 0: length 12, a-edges [0, 1, 9], runs 2, potential 2, bad, unsorted, profile AB1
  cycle 1: length 12, a-edges [2, 6, 7], runs 0, potential 0, good, unsorted, profile clean
  cycle 2: length 12, a-edges [3, 4, 5], runs 0, potential 0, bad, unsorted, profile clean
  cycle 3: length 4, a-edges [8], runs 1, potential 1, bad, sorted_2cycle, profile B
  cycle 4: length 8, a-edges [10, 12], runs 1, potential 1, bad, unsorted, profile A
  cycle 5: length 8, a-edges [11, 14], runs 0, potential 0, bad, unsorted, profile clean
  cycle 6: length 4, a-edges [13], runs 1, potential 1, bad, sorted_2cycle, profile B
distance: 15
common: 15  cycles: 7  indel potential: 5  extra cover: 2
anchor: a
"""
