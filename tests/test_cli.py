import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import bt

from invindel import cli, treecover
from invindel.cli import compute_distance, distance_report, main, tau_star
from invindel.commands import build_parser
from invindel.errors import AnchorNotCommon, InvindelError
from invindel.genome import (
    LINEAR,
    GenomePair,
    classify_markers,
    parse_chromosome,
    read_pair_text,
)

FIG_A = "a t j b d f e g -c h i u k v o n l m"
FIG_B = "a w b c d e f g h x i j y k l z m n o"


@pytest.fixture
def genome_file(tmp_path):
    path = tmp_path / "genomes.txt"
    path.write_text(f"{FIG_A}\n{FIG_B}\n")
    return str(path)


def test_figure_distance_report():
    rep = compute_distance(classify_markers(parse_chromosome(FIG_A), parse_chromosome(FIG_B)))
    assert rep.distance == 15
    assert rep.g_count == 15 and rep.cycles == 7
    assert rep.indel_potential_sum == 5 and rep.tau_star == 2
    assert rep.distance == rep.g_count - rep.cycles + rep.indel_potential_sum + rep.tau_star


def test_identity_distance():
    rep = compute_distance(classify_markers(parse_chromosome("a b c"), parse_chromosome("a b c")))
    assert rep.distance == 0 and rep.cycles == 3
    assert rep.indel_potential_sum == 0 and rep.tau_star == 0


def test_single_deletion_distance():
    rep = compute_distance(classify_markers(parse_chromosome("a b x"), parse_chromosome("a b")))
    assert rep.distance == 1
    assert rep.g_count - rep.cycles + rep.indel_potential_sum == 1


def test_trivial_regime():
    rep = distance_report(parse_chromosome("a x"), parse_chromosome("a y"))
    assert rep.distance == 2
    rep = distance_report(parse_chromosome("a x"), parse_chromosome("a"))
    assert rep.distance == 1
    rep = distance_report(parse_chromosome("x y"), parse_chromosome("p q"))
    assert rep.distance == 2


def test_mixed_shapes_rejected_in_both_regimes():
    # at most one common marker (trivial regime) and two or more
    for a_text, b_text in (("a x y", "a z"), ("a b x", "b a")):
        with pytest.raises(InvindelError, match="same shape"):
            distance_report(parse_chromosome(a_text, LINEAR), parse_chromosome(b_text))
        with pytest.raises(InvindelError, match="same shape"):
            distance_report(parse_chromosome(a_text), parse_chromosome(b_text, LINEAR))
    lin = distance_report(parse_chromosome("a x y", LINEAR), parse_chromosome("a z", LINEAR))
    assert lin.distance == 2 and lin.case_trace == ["trivial"]


def test_tau_star_dispatch():
    shared = bt({0: "bA", 1: "b", 2: "bA"}, [(0, 1), (1, 2)])
    cost, cover, res, trace = tau_star(shared)
    assert cost == 1 and res is None and trace == ["shared-tag"]

    clean = bt({0: "b", 1: "b", 2: "b"}, [(0, 1), (1, 2)])
    cost, cover, res, trace = tau_star(clean)
    assert cost == 2 and trace == ["all-clean"]

    mixed = bt({0: "bA", 1: "b", 2: "bB"}, [(0, 1), (1, 2)])
    cost, cover, res, trace = tau_star(mixed)
    assert cost == 2 and res is not None

    from invindel.components import TaggedTree

    assert tau_star(TaggedTree({}, {}))[0] == 0


def test_tau_star_rejects_an_uncontracted_tree():
    # a good leaf survives no contraction; read as it stands, the reduction
    # priced this tree at 2 where one path covers it
    from invindel.components import TaggedTree, contract
    from invindel.oracle import brute_force_tau

    tree = TaggedTree.from_spec({0: "bA", 1: "gAB", 2: "bAB", 3: "bB"}, [(1, 0), (2, 0), (3, 0)])
    assert brute_force_tau(tree) == 1
    with pytest.raises(InvindelError, match="good leaf 1 survived contraction"):
        tau_star(tree)
    assert tau_star(contract(tree))[0] == 1


def test_report_lower_bound_invariant():
    rep = compute_distance(classify_markers(parse_chromosome(FIG_A), parse_chromosome(FIG_B)))
    assert rep.distance >= rep.g_count - rep.cycles + rep.indel_potential_sum


def test_cli_dist_text(genome_file, capsys):
    assert main(["dist", genome_file]) == 0
    out = capsys.readouterr().out
    assert "distance: 15" in out
    assert "anchor: a" in out


def test_cli_dist_json_roundtrip(genome_file, capsys):
    assert main(["dist", genome_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["distance"] == 15
    assert data["g_count"] == 15
    assert data["cycles"] == 7
    assert data["indel_potential_sum"] == 5
    assert data["tau_star"] == 2
    assert data["distance"] == (
        data["g_count"] - data["cycles"] + data["indel_potential_sum"] + data["tau_star"]
    )
    # witness paths carry component ids and costs summing to tau_star
    assert sum(p["cost"] for p in data["cover"]) == data["tau_star"]


# Run in a fresh interpreter: modules loaded by the interpreter's own start-up
# are not charged to the distance.  argv: a pair without bad components, a
# pair with them, then the modules neither distance may load; the second loads
# the tau* modules and no other of them.
COLD_START = """\
import sys
TAU_STAR = {"invindel.reduction", "invindel.residual", "invindel.treecover"}
before = set(sys.modules)
from invindel.cli import distance_report
from invindel.genome import read_pair_text
assert distance_report(*read_pair_text("a -c b d\\nd c -b a\\n")).distance == 2
assert distance_report(*read_pair_text(sys.argv[1])).run.tagged.is_empty
print(sorted((set(sys.modules) - before) & set(sys.argv[3:])))
rep = distance_report(*read_pair_text(sys.argv[2]))
loaded = set(sys.modules) - before
print(sorted(TAU_STAR - loaded), sorted(loaded & set(sys.argv[3:]) - TAU_STAR))
import json
print(json.dumps(rep.to_dict(), sort_keys=True))
import invindel
assert invindel.brute_force_tau is sys.modules["invindel.oracle"].brute_force_tau
names = {}
exec("from invindel import *", names)
assert set(invindel.__all__) <= set(names) and set(invindel.__all__) <= set(dir(invindel))
print("oracle on use")
"""

TAU_STAR_MODULES = ["invindel.reduction", "invindel.residual", "invindel.treecover"]


def _no_bad_components_text() -> str:
    """55 common markers, two blocks of them inverted, and three exclusive
    markers in A and one in B: a pair whose tagged tree is empty."""
    common = [f"m{i}" for i in range(1, 56)]
    a = common[:20] + ["x1"] + common[20:40] + ["x2", "x3"] + common[40:]
    b = list(common)
    b[4:9] = ["-" + m for m in reversed(b[4:9])]
    b[30:34] = ["-" + m for m in reversed(b[30:34])]
    b.insert(45, "y1")
    return f"{' '.join(a)}\n{' '.join(b)}\n"


def test_distance_import_loads_only_the_pipeline(genome_file):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    unwanted = [
        "argparse", "json", "statistics", "dataclasses", "inspect",
        "invindel.oracle", "invindel.commands", *TAU_STAR_MODULES,
    ]
    cold = subprocess.run(
        [sys.executable, "-c", COLD_START, _no_bad_components_text(), f"{FIG_A}\n{FIG_B}\n",
         *unwanted],
        env=env, capture_output=True, text=True, check=True,
    )
    a, b = (parse_chromosome(line) for line in (FIG_A, FIG_B))
    report = json.dumps(distance_report(a, b).to_dict(), sort_keys=True)
    assert json.loads(report)["tau_star"] == 2
    assert cold.stdout.splitlines() == ["[]", "[] []", report, "oracle on use"]

    out = subprocess.run(
        [sys.executable, "-m", "invindel", "dist", genome_file, "--json"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out == report + "\n"


def test_dist_without_bad_components_loads_no_tau_star_module(tmp_path):
    path = tmp_path / "plain.txt"
    path.write_text(_no_bad_components_text())
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "invindel", "dist", str(path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert "extra cover: 0" in run.stdout
    loaded = {
        line.split("|")[-1].strip()
        for line in run.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "invindel.commands" in loaded
    assert loaded.isdisjoint(
        ["invindel.oracle", "statistics", "json", "dataclasses", "inspect", *TAU_STAR_MODULES]
    )


def test_empty_tree_cover_is_a_cover_without_paths():
    import invindel

    a, b = read_pair_text(_no_bad_components_text())
    rep = distance_report(a, b)
    assert rep.run.tagged.is_empty and rep.tau_star == 0
    assert isinstance(rep.run.cover, invindel.Cover) and rep.run.cover.paths == []
    assert invindel.Cover is treecover.Cover and invindel.CoverPath is treecover.CoverPath


def test_lazy_package_names_are_their_modules_objects():
    import importlib

    import invindel

    assert set(invindel._LAZY) <= set(invindel.__all__)
    for name, module in invindel._LAZY.items():
        home = importlib.import_module(f"invindel.{module}")
        assert getattr(invindel, name) is getattr(home, name)


def test_cli_anchor_override(genome_file, capsys):
    assert main(["dist", genome_file, "--anchor", "g", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["anchor"] == "g"
    assert "rotated" not in data
    assert data["distance"] == 15


def test_cli_oracle_flag(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("a b x\na b\n")
    assert main(["dist", str(path), "--oracle"]) == 0
    err = capsys.readouterr().err
    assert "oracle: agree" in err


def test_cli_traces(genome_file, capsys):
    assert main(["dist", genome_file, "--trace", "all"]) == 0
    out = capsys.readouterr().out
    assert "== diagram ==" in out
    assert "== chained tree ==" in out
    assert "== topology ==" in out
    assert "== cover ==" in out
    assert "graph tagged_tree" in out


def test_cli_trace_runs_pipeline_once(genome_file, capsys, monkeypatch):
    import invindel.cli as cli

    calls = {"tagged_tree_for_pair": 0, "tau_star": 0}

    def counted(name):
        inner = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    assert main(["dist", genome_file, "--trace", "all"]) == 0
    assert "== cover ==" in capsys.readouterr().out
    assert calls == {"tagged_tree_for_pair": 1, "tau_star": 1}


# Pair 1405 of the small benchmark pool 0: its tau* reduces class A from
# three leaves to one and class B by a balanced in-traversal, then looks the
# residual up.
RESIDUAL_PAIR = (
    "g0 g2 x0 g1 g3 g5 g4 g6 x1 g17 x2 g19 g18 g20 g21 g22 g23 g7 g9 g8 g10 g12 g11 g13"
    " g15 g14 g16 g24 x3 g26 g25 g27 g28 g29 x4 g30\n"
    "g0 g1 g2 g3 y0 g4 g5 g6 g7 y1 g8 g9 g10 g11 g12 y2 g13 g14 y3 g15 y4 g16 g17 g18"
    " g19 g20 g21 g22 y5 g23 g24 g25 g26 g27 g28 y6 g29 g30\n"
)


def test_cli_trace_reduction_prints_each_step(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(RESIDUAL_PAIR)
    assert main(["dist", str(path), "--trace", "reduction"]) == 0
    out = capsys.readouterr().out
    steps = distance_report(*read_pair_text(RESIDUAL_PAIR)).run.residual.steps
    lines = [line for line in out.splitlines() if ", running " in line]
    assert len(lines) == len(steps) == 2
    running = 0
    for line, step in zip(lines, steps):
        running += step.cost
        assert line == (
            f"  {step.kind} on {step.leaf_class}: path {step.path}, "
            f"cost {step.cost}, running {running}"
        )
    assert "  residual lookup: ['(2, 1, 0, 0) S']" in out


def test_cli_trace_tree_of_a_pair_without_bad_components(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("a b c d\na -c -b d\n")
    assert main(["dist", str(path), "--trace", "tree"]) == 0
    out = capsys.readouterr().out
    assert "== tagged tree ==\n(empty tree)\n" in out
    assert "extra cover: 0" in out


def test_cli_linear(tmp_path, capsys):
    from invindel.genome import LINEAR, cap_linear_pair, classify_markers
    from invindel.oracle import OracleBudget, brute_force_distance

    path = tmp_path / "lin.txt"
    path.write_text(">linear\na b c\nc b a\n")
    assert main(["dist", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["capping"] in ("as-read", "flipped")
    pair = classify_markers(
        parse_chromosome("a b c", LINEAR), parse_chromosome("c b a", LINEAR)
    )
    budget = OracleBudget(max_common=4)
    exact = min(brute_force_distance(cp, budget) for cp in cap_linear_pair(pair))
    assert data["distance"] == exact == 3


def test_compute_distance_rejects_linear():
    # read as circles the two chromosomes are equal, read as lines they are
    # two operations apart; only distance_report caps linear input
    a, b = parse_chromosome("a b c", LINEAR), parse_chromosome("b c a", LINEAR)
    assert distance_report(a, b).distance == 2
    with pytest.raises(InvindelError, match="distance_report"):
        compute_distance(classify_markers(a, b))
    circular = classify_markers(parse_chromosome("a b c"), parse_chromosome("b c a"))
    assert compute_distance(circular).distance == 0


def test_cli_trace_skip_reasons(tmp_path, capsys):
    # linear input is traced: the capping the report chose, then its run
    path = tmp_path / "lin.txt"
    path.write_text(">linear\na b c\nc b a\n")
    assert main(["dist", str(path), "--trace", "all"]) == 0
    captured = capsys.readouterr()
    assert "trace: skipped" not in captured.err
    assert captured.out.startswith("capping: as-read\n== diagram ==\nanchor: __cap ")
    assert "== cover ==" in captured.out
    assert "distance: 3" in captured.out
    assert captured.out.endswith("capping: as-read\n")

    path.write_text("a x\na y\n")
    assert main(["dist", str(path), "--trace", "all"]) == 0
    assert "trace: skipped (at most one common marker)" in capsys.readouterr().err


def test_anchor_not_common_trivial_regime():
    a, b = parse_chromosome("a x"), parse_chromosome("a y")
    assert distance_report(a, b, "a").distance == 2
    for anchor in ("x", "zz"):
        with pytest.raises(AnchorNotCommon, match=f"anchor '{anchor}' is not a marker common"):
            distance_report(a, b, anchor)


def test_trivial_report_names_the_anchor_given(tmp_path, capsys):
    a, b = parse_chromosome("a x"), parse_chromosome("a y")
    assert distance_report(a, b).anchor is None
    assert distance_report(a, b, "a").anchor == "a"
    assert compute_distance(GenomePair(a, b), "a").anchor == "a"
    lin = distance_report(parse_chromosome("a x", LINEAR), parse_chromosome("a y", LINEAR), "a")
    assert lin.anchor == "a" and lin.case_trace == ["trivial"]
    path = tmp_path / "g.txt"
    path.write_text("a x\na y\n")
    assert main(["dist", str(path), "--json", "--anchor", "a"]) == 0
    assert json.loads(capsys.readouterr().out)["anchor"] == "a"


def test_anchor_not_common_circular_regime():
    a, b = parse_chromosome(FIG_A), parse_chromosome(FIG_B)
    for anchor in ("t", "w", "zz"):
        with pytest.raises(AnchorNotCommon, match=f"anchor '{anchor}' is not a marker common"):
            distance_report(a, b, anchor)


def test_anchor_not_common_linear_regime():
    a = parse_chromosome("a -c x b d", LINEAR)
    b = parse_chromosome("d y c -b a e", LINEAR)
    assert distance_report(a, b, "c").anchor == "c"
    # the cap marker is the capping's own, not the input's
    for anchor in ("__cap", "x", "e", "zz"):
        with pytest.raises(AnchorNotCommon, match=f"anchor '{anchor}' is not a marker common"):
            distance_report(a, b, anchor)


def test_linear_report_names_the_anchor_given(tmp_path, capsys):
    # the capped pair is cut at its own cap marker, which no report names
    a, b = parse_chromosome("a b c", LINEAR), parse_chromosome("c b a", LINEAR)
    rep = distance_report(a, b)
    assert rep.anchor is None and rep.run.diagram.anchor == "__cap"
    assert distance_report(a, b, "b").anchor == "b"
    path = tmp_path / "lin.txt"
    path.write_text("a b c\nc b a\n")
    assert main(["dist", str(path), "--linear", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["anchor"] is None
    assert main(["dist", str(path), "--linear"]) == 0
    assert "anchor" not in capsys.readouterr().out
    assert main(["dist", str(path), "--linear", "--anchor", "c"]) == 0
    assert "anchor: c\n" in capsys.readouterr().out


def test_cli_anchor_not_common_exits_with_error(tmp_path, capsys):
    path = tmp_path / "g.txt"
    for text, anchor in [("a x\na y\n", "zz"), ("a b c\nc b a\n", "__cap")]:
        path.write_text(text)
        for extra in ([], ["--linear"]):
            assert main(["dist", str(path), "--anchor", anchor, *extra]) == 1
            assert capsys.readouterr().err == (
                f"error: anchor '{anchor}' is not a marker common to both chromosomes\n"
            )


def test_cli_error_exit(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("a a\nb b\n")
    assert main(["dist", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_missing_file_exits_with_error(tmp_path, capsys):
    path = tmp_path / "missing.txt"
    assert main(["dist", str(path)]) == 1
    assert capsys.readouterr().err == f"error: cannot read {path}: No such file or directory\n"


def test_cli_directory_exits_with_error(tmp_path, capsys):
    assert main(["dist", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: cannot read {tmp_path}: Is a directory\n"


def test_cli_non_utf8_file_exits_with_error(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes("a b \xe9\nb a \xe9\n".encode("latin-1"))
    assert main(["dist", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: not UTF-8 text")


def test_cli_verify_smoke(capsys):
    assert main(["verify", "--trials", "12", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "verify: PASS" in out
    # 12 random trees and one residual tree per table composition
    assert "leaf bound: 68/68 hold" in out
    assert "neighbours: 1/1 hold" in out


def test_cli_verify_counts_a_leaf_bound_above_the_optimum(monkeypatch, capsys):
    monkeypatch.setattr(treecover, "cover_floor", lambda tree: 99)
    assert main(["verify", "--trials", "12", "--seed", "3"]) == 1
    out = capsys.readouterr().out
    assert "leaf bound: 0/68 hold" in out and "verify: FAIL (68)" in out


def test_cli_verify_counts_a_neighbour_violation(monkeypatch, capsys):
    # a distance two too high on every B that holds an inserted marker
    from invindel import oracle

    exact = oracle.distance_report

    def skewed(a, b):
        rep = exact(a, b)
        rep.distance += 2 * any(name.startswith("new") for name in b.names())
        return rep

    monkeypatch.setattr(oracle, "distance_report", skewed)
    assert main(["verify", "--trials", "12", "--seed", "3"]) == 1
    out = capsys.readouterr().out
    assert "neighbours: 0/1 hold" in out and "verify: FAIL (1)" in out


def test_cli_bench_smoke(capsys):
    assert main(["bench", "--sizes", "40,80", "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    assert "n=40" in out and "n=80" in out
    # each size's median total and median parse time, from the same loop
    assert re.search(r"^n=40: median \d+\.\d ms \(parse \d+\.\d ms\)$", out, re.M)
    assert re.search(r"^n=80: median \d+\.\d ms \(parse \d+\.\d ms\)  ratio \d", out, re.M)


def test_parser_rejects_unknown_trace():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["dist", "x", "--trace", "nope"])


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--sizes", "100,abc"],
        ["bench", "--sizes", "100,0"],
        ["bench", "--sizes", "100,"],
        ["bench", "--repeats", "0"],
        ["bench", "--repeats", "x"],
        ["verify", "--trials", "0"],
        ["verify", "--trials", "-3"],
    ],
)
def test_parser_rejects_bad_numbers(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


def test_distance_invariant_under_relabeling():
    # consistent marker renaming never changes the distance (it can change
    # the default anchor, so this also leans on anchor invariance)
    import random

    from invindel.genome import Chromosome, GenomePair, Marker
    from invindel.oracle import random_genome_pair

    rng = random.Random(88)
    for _ in range(150):
        pair = random_genome_pair(rng, rng.randint(2, 7), rng.randint(0, 2), rng.randint(0, 2))
        names = sorted(pair.a.names() | pair.b.names())
        renamed = {n: f"m{rng.random():.12f}" for n in names}

        def rn(ch: Chromosome) -> Chromosome:
            return Chromosome(tuple(Marker(renamed[m.name], m.forward) for m in ch.markers))

        mapped = GenomePair(rn(pair.a), rn(pair.b))
        assert compute_distance(pair).distance == compute_distance(mapped).distance


def test_distance_symmetries_at_size():
    # above about 40 tree nodes no oracle checks an answer; on structured
    # pairs of hundreds of markers the distance must still not change under
    # role exchange, mirroring both genomes, renaming and re-orienting the
    # markers, and (linear only) reading one chromosome backwards
    import random

    from invindel.genome import Chromosome, Marker
    from invindel.oracle import structured_genome_pair

    rng = random.Random(2207)
    pairs = [structured_genome_pair(rng, rng.randint(10, 60)) for _ in range(60)]
    for _ in range(40):
        pair = structured_genome_pair(rng, rng.randint(5, 40))
        pairs.append(GenomePair(*(Chromosome(ch.markers, LINEAR) for ch in (pair.a, pair.b))))
    for pair in pairs:
        a, b = pair.a, pair.b
        names = sorted(a.names() | b.names())
        renamed = dict(zip(names, rng.sample(range(len(names)), len(names))))
        flip = {n: rng.random() < 0.5 for n in names}

        def relabeled(ch: Chromosome) -> Chromosome:
            return Chromosome(
                tuple(Marker(f"r{renamed[m.name]}", m.forward != flip[m.name]) for m in ch.markers),
                ch.shape,
            )

        variants = [
            (b, a),
            (a.reversed_flipped(), b.reversed_flipped()),
            (relabeled(a), relabeled(b)),
        ]
        if a.shape == LINEAR:
            variants.append((a, b.reversed_flipped()))
        want = distance_report(a, b).distance
        assert [distance_report(*v).distance for v in variants] == [want] * len(variants)


def test_distance_neighbours_at_size():
    # one operation on B moves the distance by at most one, in the direction
    # the operation allows (oracle.neighbour_checks)
    import random

    from invindel.oracle import neighbour_checks, structured_genome_pair

    rng = random.Random(2311)
    for n in range(60):
        pair = structured_genome_pair(rng, rng.randint(10, 60))
        assert neighbour_checks(pair, rng) == [], n


def _tau_star_calls(monkeypatch) -> list:
    """Record every call to ``cli.tau_star`` made from now on."""
    calls = []
    inner = cli.tau_star

    def counted(tree):
        calls.append(tree)
        return inner(tree)

    monkeypatch.setattr(cli, "tau_star", counted)
    return calls


def _unpruned_report(a, b):
    """Both cappings run in full, the flipped one kept only when strictly
    smaller: the report that pruning the flipped capping must not change."""
    from invindel.genome import cap_linear_pair

    best = None
    for capping, capped in zip(("as-read", "flipped"), cap_linear_pair(GenomePair(a, b))):
        rep = compute_distance(capped)
        rep.capping = capping
        if best is None or rep.distance < best.distance:
            best = rep
    best.anchor = None
    return best


def test_pruned_flipped_capping_gives_the_unpruned_report(monkeypatch):
    # the flipped capping runs tau* only while g - c + sum(lambda) plus the
    # floor of its tagged tree is below the as-read distance; every report
    # must be the one both full runs give
    import random

    from invindel.components import tagged_tree_for_pair
    from invindel.genome import Chromosome, cap_linear_pair
    from invindel.oracle import random_genome_pair, structured_genome_pair

    rng = random.Random(19)
    pairs = []
    for _ in range(240):
        g = rng.randint(2, 60)
        pairs.append(random_genome_pair(rng, g, rng.randint(0, g // 10), rng.randint(0, g // 10)))
    pairs += [structured_genome_pair(rng, rng.randint(1, 8)) for _ in range(80)]
    calls = _tau_star_calls(monkeypatch)
    outcomes = set()
    for pair in pairs:
        a, b = Chromosome(pair.a.markers, LINEAR), Chromosome(pair.b.markers, LINEAR)
        calls.clear()
        got = distance_report(a, b).to_dict()
        runs = len(calls)
        assert got == _unpruned_report(a, b).to_dict()
        if runs == 1:
            flipped = cap_linear_pair(GenomePair(a, b))[1]
            empty = tagged_tree_for_pair(flipped)[3].is_empty
            outcomes.add("pruned, empty tree" if empty else "pruned at the floor")
        elif got["capping"] == "flipped":
            outcomes.add("flipped wins")
    assert outcomes == {"pruned, empty tree", "pruned at the floor", "flipped wins"}


@pytest.mark.parametrize(
    "a_text, b_text, capping, tau_star_calls",
    [
        ("a b c", "b a c", "as-read", 1),  # flipped: empty tree, bound 3
        ("a b c", "-a -b -c", "as-read", 1),  # flipped: 2 + floor 1 of one node
        ("a b c d", "-d -b -c -a", "flipped", 2),  # flipped bound 3, gives 3 < 4
    ],
)
def test_flipped_capping_runs_tau_star_only_when_it_can_win(
    a_text, b_text, capping, tau_star_calls, monkeypatch
):
    calls = _tau_star_calls(monkeypatch)
    rep = distance_report(parse_chromosome(a_text, LINEAR), parse_chromosome(b_text, LINEAR))
    assert (rep.distance, rep.capping, len(calls)) == (3, capping, tau_star_calls)


def test_cli_oracle_checks_linear_input(tmp_path, capsys):
    path = tmp_path / "lin.txt"
    path.write_text(">linear\na b c\nb c a\n")
    assert main(["dist", str(path), "--oracle"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "oracle: agree\n"
    assert "distance: 2\n" in captured.out


@pytest.mark.parametrize(
    "text, reason",
    [
        # 5 common and 3 exclusive markers: admitted, but the search passes
        # the command's state cap in either shape
        pytest.param(
            ">linear\na -c x e b d y\n-d b z -e a c\n", "state budget exhausted", id="linear"
        ),
        pytest.param("a -c x e b d y\n-d b z -e a c\n", "state budget exhausted", id="circular"),
        pytest.param("a b c d e f\nb a c d e f\n", "instance above budget", id="six-common"),
    ],
)
def test_cli_oracle_skips_with_the_reason(tmp_path, capsys, text, reason):
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert main(["dist", str(path), "--oracle"]) == 0
    assert capsys.readouterr().err == f"oracle: skipped ({reason})\n"
