"""The contracts of the package's record classes: how each is built, what it
holds, whether it can be changed, what it equals, how it hashes and that it
survives pickling.  The contracts are the same whatever idiom a record is
written in."""

import pickle

import pytest

import trees as fig

from invindel.cli import DistanceReport, PipelineRun, distance_report
from invindel.components import ChainedTree, Components, Cover, CoverPath
from invindel.diagram import RelationalDiagram
from invindel.genome import GenomePair, parse_chromosome
from invindel.oracle import OracleBudget
from invindel.reduction import ResidualResult, compute_residual
from invindel.residual import TABLE, Case, PathSpec
from invindel.treecover import TopologyReport, analyze_topology

FIG_A = "a t j b d f e g -c h i u k v o n l m"
FIG_B = "a w b c d e f g h x i j y k l z m n o"

REPORT_KEYS = [
    "distance",
    "g_count",
    "cycles",
    "indel_potential_sum",
    "tau_star",
    "anchor",
    "solo_leaf",
    "cover",
    "reduction_steps",
    "case_trace",
    "capping",
]


def _fig_report() -> DistanceReport:
    return distance_report(parse_chromosome(FIG_A), parse_chromosome(FIG_B))


def _values(n: int) -> list:
    """``n`` distinct values, each equal only to itself."""
    return [object() for _ in range(n)]


# (class, field names in constructor order, number without a default, the
# defaults of the others)
RECORDS = [
    (PipelineRun, ["diagram", "chained", "tagged", "cover", "residual"], 5, []),
    (
        DistanceReport,
        [*REPORT_KEYS, "run"],
        6,
        [None, [], [], [], None, None],
    ),
    (ChainedTree, ["components", "chains", "chain_parent", "root_chain"], 4, []),
    (Components, ["kind", "tags", "left", "right", "both", "of_cycle"], 6, []),
    (Cover, ["paths"], 0, [[]]),
    (
        RelationalDiagram,
        ["anchor", "g_count", "owner", "first", "last", "good", "runs", "tags"],
        8,
        [],
    ),
    (ResidualResult, ["residual", "steps", "lookup_cover", "case_trace"], 4, []),
    (
        PathSpec,
        ["kind", "c1", "c2", "cost", "tag", "host", "covered_src"],
        1,
        [None, None, 1, None, None, False],
    ),
    (Case, ["label", "cost", "recipe", "reduce_class"], 1, [None, None, None]),
    (
        TopologyReport,
        [
            "composition",
            "leaf_classes",
            "canonical_subtrees",
            "isolated",
            "links",
            "mates",
            "solo_candidates",
            "fully_corooted",
            "fully_separated",
            "leaf_branches",
        ],
        10,
        [],
    ),
    (
        OracleBudget,
        ["max_tree_nodes", "max_common", "max_exclusive", "max_states"],
        0,
        [12, 4, 2, 2_000_000],
    ),
]


@pytest.mark.parametrize(
    "cls, names, required, defaults", RECORDS, ids=lambda x: getattr(x, "__name__", "")
)
def test_record_construction(cls, names, required, defaults):
    values = _values(len(names))
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for name, value in zip(names, values):
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value
    assert by_position == by_keyword
    # a record never equals the plain tuple of its fields
    assert by_position != tuple(values) and tuple(values) != by_position
    with pytest.raises(TypeError):
        cls(*values, object())
    with pytest.raises(TypeError):
        cls(**dict(zip(names, values)), unknown=1)

    assert len(defaults) == len(names) - required
    if required:
        with pytest.raises(TypeError):
            cls(*values[: required - 1])
    least = cls(*values[:required])
    for name, default in zip(names[required:], defaults):
        assert getattr(least, name) == default
        if isinstance(default, list):
            # every record gets its own list
            assert getattr(least, name) is not getattr(cls(*values[:required]), name)


def test_genome_pair_contract():
    a, b = parse_chromosome("a b x"), parse_chromosome("b -a y")
    pair = GenomePair(a, b)
    assert pair.a is a and pair.b is b
    assert GenomePair(a=a, b=b) == pair
    assert (pair.common, pair.a_only, pair.b_only) == ({"a", "b"}, {"x"}, {"y"})
    same = GenomePair(parse_chromosome("a b x"), parse_chromosome("b -a y"))
    assert same == pair and hash(same) == hash(pair) and len({pair, same}) == 1
    assert pair != GenomePair(b, a) and pair != (a, b)
    for name in ("a", "b", "common", "a_only", "b_only"):
        with pytest.raises(AttributeError):
            setattr(pair, name, b)
    with pytest.raises(TypeError):
        GenomePair(a)
    back = pickle.loads(pickle.dumps(pair))
    assert back == pair and back.common == pair.common and back.b_only == pair.b_only


def test_frozen_records_refuse_assignment():
    spec = TABLE[(1, 1, 0, 0)][0].recipe[0]
    for record, name in (
        (OracleBudget(), "max_states"),
        (spec, "cost"),
        (TABLE[(1, 1, 0, 0)][0], "label"),
    ):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


def test_oracle_budget_hashes_by_value():
    budget = OracleBudget(max_common=5)
    assert budget == OracleBudget(12, 5) and hash(budget) == hash(OracleBudget(12, 5))
    assert len({budget, OracleBudget(max_common=5), OracleBudget()}) == 2
    assert OracleBudget() != (12, 4, 2, 2_000_000)
    assert pickle.loads(pickle.dumps(budget)) == budget


def test_distance_report_contract():
    rep = _fig_report()
    assert list(rep.to_dict()) == REPORT_KEYS
    assert rep.to_dict()["distance"] == 15 and "run" not in rep.to_dict()
    # capping and anchor stay assignable: linear reports set them
    rep.capping = "flipped"
    rep.anchor = None
    assert rep.capping == "flipped" and rep.to_dict()["capping"] == "flipped"
    # equality ignores the run
    other = _fig_report()
    other.capping, other.anchor = "flipped", None
    assert other == rep and other.run is not rep.run
    other.run = None
    assert other == rep
    other.tau_star += 1
    assert other != rep
    assert rep != tuple(rep.to_dict().values())

    back = pickle.loads(pickle.dumps(rep))
    assert back == rep and back.to_dict() == rep.to_dict()
    assert back.run.diagram == rep.run.diagram
    assert back.run.chained == rep.run.chained
    assert back.run.cover == rep.run.cover
    assert back.run.tagged.nodes == rep.run.tagged.nodes


def test_pipeline_records_compare_and_pickle_by_value():
    run = _fig_report().run
    again = _fig_report().run
    assert run.diagram == again.diagram and run.diagram.cycles == again.diagram.cycles
    assert run.chained == again.chained and run.chained.components == again.chained.components
    assert len(run.chained.components) == len(run.chained.components.kind)
    assert run.cover == again.cover
    for record in (run.diagram, run.chained, run.chained.components, run.cover):
        assert pickle.loads(pickle.dumps(record)) == record


def test_cover_instances_do_not_share_paths():
    one, two = Cover(), Cover()
    one.paths.append(CoverPath(0, 0, 1))
    assert two.paths == [] and one.total_cost == 1
    assert one != two and one == Cover([CoverPath(0, 0, 1)])


def test_residual_records_pickle():
    res = compute_residual(fig.REDUCTION3)
    back = pickle.loads(pickle.dumps(res))
    assert back.steps == res.steps and back.case_trace == res.case_trace
    assert back.lookup_cover == res.lookup_cover
    assert back.residual.nodes == res.residual.nodes
    assert back.total_cost == res.total_cost

    report = analyze_topology(fig.REDUCTION3)
    assert pickle.loads(pickle.dumps(report)) == report
    for cases in TABLE.values():
        for cs in cases:
            assert pickle.loads(pickle.dumps(cs)) == cs
