"""Top-level distance assembly; ``main`` runs the command line."""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, NamedTuple

from .components import ChainedTree, Cover, TaggedTree, tagged_tree_for_pair
from .diagram import RelationalDiagram, check_anchor
from .errors import InvindelError
from .genome import CIRCULAR, LINEAR, Chromosome, GenomePair, cap_linear_pair, strict_record

if TYPE_CHECKING:
    from .reduction import ResidualResult


@strict_record
class PipelineRun(NamedTuple):
    """What one run on a circular or capped pair built on its way to the
    distance, for traces."""

    diagram: RelationalDiagram
    chained: ChainedTree
    tagged: TaggedTree
    cover: Cover
    residual: ResidualResult | None


@strict_record
class DistanceReport:
    """The distance g - c + Σλ + τ* with its terms and τ*'s witness cover.

    For linear input, ``g_count``, ``cycles``, ``indel_potential_sum`` and
    the cover's component ids describe the chosen capped circular pair
    (``capping``), whose cap counts as one more common marker.

    ``__match_args__`` lists, in order, every field but ``run``, the
    pipeline's artifacts: they make up ``to_dict``, equality and the repr.
    A report built without ``cover``, ``reduction_steps`` or ``case_trace``
    gets an empty list of its own."""

    __match_args__ = (
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
    )
    __slots__ = (*__match_args__, "run")

    def __init__(
        self,
        distance: int,
        g_count: int,
        cycles: int,
        indel_potential_sum: int,
        tau_star: int,
        anchor: str | None,
        solo_leaf: list[int] | None = None,
        cover: list[dict] | None = None,
        reduction_steps: list[dict] | None = None,
        case_trace: list[str] | None = None,
        capping: str | None = None,
        run: PipelineRun | None = None,
    ) -> None:
        self.distance = distance
        self.g_count = g_count
        self.cycles = cycles
        self.indel_potential_sum = indel_potential_sum
        self.tau_star = tau_star
        self.anchor = anchor
        self.solo_leaf = solo_leaf
        self.cover = [] if cover is None else cover
        self.reduction_steps = [] if reduction_steps is None else reduction_steps
        self.case_trace = [] if case_trace is None else case_trace
        self.capping = capping
        self.run = run

    def to_dict(self) -> dict:
        """Every field but ``run``, in field order."""
        return {name: getattr(self, name) for name in self.__match_args__}

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.to_dict().items())
        return f"DistanceReport({fields})"


def tau_star(tree: TaggedTree) -> tuple[int, Cover, ResidualResult | None, list[str]]:
    """Minimum cover cost of a contracted tagged tree: the cost of the
    cover it returns, validated against the tree in every regime.  Raises
    InvindelError on a tree that is not contracted.

    An empty tree, the tree of every pair without bad components, costs 0
    (the 2013 result) and loads none of the τ* modules."""
    if tree.is_empty:
        return 0, Cover(), None, []
    from . import reduction, treecover

    tree.validate()
    form = treecover.closed_form(tree)
    if form is not None:
        cover, res, trace = form[0](tree), None, [form[1]]
    else:
        res = reduction.compute_residual(tree)
        cover, trace = res.full_cover(), res.case_trace
    cover.validate(tree)
    return cover.total_cost, cover, res, trace


def _trivial_report(pair: GenomePair, anchor: str | None) -> DistanceReport:
    """At most one common marker: delete the exclusive content of one
    chromosome at once and insert the other's at once."""
    distance = bool(pair.a_only) + bool(pair.b_only)
    return DistanceReport(
        distance=distance,
        g_count=len(pair.common),
        cycles=len(pair.common),
        indel_potential_sum=distance,
        tau_star=0,
        anchor=anchor,
        case_trace=["trivial"],
    )


def compute_distance(
    pair: GenomePair, anchor: str | None = None, *, below: int | None = None
) -> DistanceReport | None:
    """Distance between the two circular chromosomes of a classified pair.

    With ``below``, a run that builds a tagged tree stops before τ* and
    returns None when its lower bound g - c + Σλ + ``cover_floor`` of the
    validated tree is at least ``below``: its distance cannot be smaller."""
    if pair.a.shape == LINEAR:
        raise InvindelError(
            "compute_distance takes circular chromosomes; "
            "use distance_report for linear ones"
        )
    if len(pair.common) <= 1:
        if anchor is not None:
            check_anchor(anchor, pair.common)
        return _trivial_report(pair, anchor)
    diagram, _, chained, tagged = tagged_tree_for_pair(pair, anchor)
    lam = diagram.indel_potential_sum()
    dcj_indel = diagram.g_count - diagram.c + lam
    if below is not None:
        floor = 0
        if not tagged.is_empty:
            from .treecover import cover_floor

            tagged.validate()
            floor = cover_floor(tagged)
        if dcj_indel + floor >= below:
            return None
    tau, cover, res, trace = tau_star(tagged)
    distance = dcj_indel + tau

    def comps_of(node: int) -> list[int]:
        return sorted(tagged.nodes[node].src)

    cover_dicts = [
        {"endpoints": [comps_of(p.u), comps_of(p.v)], "kind": p.kind, "cost": p.cost}
        for p in cover.paths
    ]
    steps = []
    solo = None
    if res is not None:
        steps = [
            {
                "kind": s.kind,
                "path": [comps_of(s.path[0]), comps_of(s.path[1])],
                "cost": s.cost,
                "leaf_class": s.leaf_class,
            }
            for s in res.steps
        ]
        for p in cover.paths:
            if p.kind == "short" and not tagged.tags(p.u):
                solo = comps_of(p.u)
                break
    return DistanceReport(
        distance=distance,
        g_count=diagram.g_count,
        cycles=diagram.c,
        indel_potential_sum=lam,
        tau_star=tau,
        anchor=diagram.anchor,
        solo_leaf=solo,
        cover=cover_dicts,
        reduction_steps=steps,
        case_trace=trace,
        run=PipelineRun(diagram, chained, tagged, cover, res),
    )


def distance_report(
    a: Chromosome, b: Chromosome, anchor: str | None = None
) -> DistanceReport:
    """Distance between two chromosomes, handling the trivial regime and
    linear capping.  An ``anchor`` must be a marker common to ``a`` and
    ``b`` in every regime.  A linear pair's report names the ``anchor``
    given, or none: its circles are cut inside the capped pair.

    The flipped capping is kept only when strictly smaller than the
    as-read one, so it runs τ* only while its lower bound is below the
    as-read distance."""
    pair = GenomePair(a, b)
    if anchor is not None:
        check_anchor(anchor, pair.common)
    if len(pair.common) <= 1:
        return _trivial_report(pair, anchor)
    if a.shape == CIRCULAR:
        return compute_distance(pair, anchor)
    as_read, flipped = cap_linear_pair(pair)
    best = compute_distance(as_read, anchor)
    best.capping = "as-read"
    rep = compute_distance(flipped, anchor, below=best.distance)
    if rep is not None and rep.distance < best.distance:
        best = rep
        best.capping = "flipped"
    best.anchor = anchor
    return best


def main(argv: list[str] | None = None) -> int:
    """The ``invindel`` command line; its module loads on the first call."""
    from .commands import run

    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
