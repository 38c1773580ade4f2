"""The command line: `dist`, `verify` and `bench`, with trace printing.

Kept apart from `cli`, which holds the distance itself, so that importing
a distance loads neither the argument parser nor the oracle.  Each command
imports what only it uses, so a plain `dist` on a pair without bad
components loads neither the oracle, `json` nor the τ* modules."""

from __future__ import annotations

import argparse
import sys

from .cli import DistanceReport, compute_distance, distance_report, tau_star
from .components import ChainedTree, TaggedTree
from .diagram import RelationalDiagram, classify_cycle, indel_potential
from .errors import BudgetExceeded, InvindelError
from .genome import CIRCULAR, LINEAR, Chromosome, GenomePair, read_pair_file, read_pair_text

# ---------------------------------------------------------------------------
# Trace formatters


def format_cycle_table(diagram: RelationalDiagram) -> str:
    """Textual cycle listing for traces."""
    lines = [f"anchor: {diagram.anchor}  cycles: {diagram.c}  common: {diagram.g_count}"]
    for cyc in diagram.cycles:
        kind, sortedness, profile = classify_cycle(cyc)
        runs = cyc.runs
        lam = indel_potential(runs)
        lines.append(
            f"  cycle {cyc.id}: length {4 * len(cyc.a_positions)}, a-edges "
            f"{list(cyc.a_positions)}, runs {runs}, potential {lam}, "
            f"{kind}, {sortedness}, profile {profile}"
        )
    return "\n".join(lines)


def format_chained_tree(tree: ChainedTree) -> str:
    lines = []
    children: dict[int, list[int]] = {}
    for ci, parent in enumerate(tree.chain_parent):
        if parent is not None:
            children.setdefault(parent, []).append(ci)

    def emit_chain(ci: int, depth: int) -> None:
        lines.append("  " * depth + f"chain[{ci}]")
        for comp_id in tree.chains[ci]:
            comp = tree.components[comp_id]
            tags = "".join(sorted(comp.tags)) or "-"
            lines.append(
                "  " * (depth + 1)
                + f"comp {comp.id} ({comp.kind}, tags {tags}, cycles {list(comp.cycles)})"
            )
            for sub in children.get(comp_id, []):
                emit_chain(sub, depth + 2)

    emit_chain(tree.root_chain, 0)
    return "\n".join(lines)


def format_tagged_tree(tree: TaggedTree) -> str:
    if tree.is_empty:
        return "(empty tree)"
    lines = []
    for u in tree.node_ids():
        n = tree.nodes[u]
        tags = "".join(sorted(n.tags)) or "-"
        kind = "bad" if n.bad else "good"
        lines.append(
            f"node {u}: {kind}, tags {tags}, neighbors {list(tree.adj[u])}, "
            f"components {sorted(n.src)}"
        )
    return "\n".join(lines)


def format_tagged_tree_dot(tree: TaggedTree) -> str:
    lines = ["graph tagged_tree {"]
    for u in tree.node_ids():
        n = tree.nodes[u]
        tags = "".join(sorted(n.tags)) or ""
        shape = "circle" if n.bad else "doublecircle"
        lines.append(f'  n{u} [label="{u}:{tags}" shape={shape}];')
    seen = set()
    for u in tree.node_ids():
        for v in tree.adj[u]:
            if (v, u) not in seen:
                seen.add((u, v))
                lines.append(f"  n{u} -- n{v};")
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Commands


def _emit_traces(args, rep: DistanceReport) -> None:
    wanted = set(args.trace or [])
    if "all" in wanted:
        wanted = {"diagram", "tree", "topology", "reduction", "cover"}
    if not wanted:
        return
    run = rep.run
    diagram, chained, tagged = run.diagram, run.chained, run.tagged
    if "diagram" in wanted:
        print("== diagram ==")
        print(format_cycle_table(diagram))
    if "tree" in wanted:
        print("== chained tree ==")
        print(format_chained_tree(chained))
        print("== tagged tree ==")
        print(format_tagged_tree(tagged))
        print(format_tagged_tree_dot(tagged))
    if "topology" in wanted and not tagged.is_empty:
        import json

        from .treecover import analyze_topology

        print("== topology ==")
        report = analyze_topology(tagged)
        print(f"composition: {report.composition}")
        for cls, nodes in sorted(report.leaf_classes.items()):
            iso = "isolated" if report.isolated[cls] else "non-isolated"
            print(f"  class {cls}: leaves {nodes}, {iso}")
        for (x, y), kind in sorted(report.links.items()):
            print(f"  link {x}|{y}: {kind}")
        for (src, tag, host), node in sorted(report.mates.items()):
            print(f"  {tag}-mate for {src} at extended {host}: node {node}")
        print(f"  solo candidates: {report.solo_candidates}")
        print(
            f"  fully co-rooted: {report.fully_corooted}, "
            f"fully separated: {report.fully_separated}"
        )
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    if "reduction" in wanted:
        print("== reduction ==")
        running = 0
        if run.residual is not None:
            for s in run.residual.steps:
                running += s.cost
                print(f"  {s.kind} on {s.leaf_class}: path {s.path}, cost {s.cost}, running {running}")
        print(f"  residual lookup: {rep.case_trace}")
    if "cover" in wanted:
        print("== cover ==")
        print(f"  cases: {rep.case_trace}")
        for p in run.cover.paths:
            print(f"  path {p.u}..{p.v} ({p.kind}), cost {p.cost}")
        print(f"  total: {rep.tau_star}")


def _linear(ch: Chromosome) -> Chromosome:
    return Chromosome.from_columns(ch.order, ch.forward, LINEAR)


def _cmd_dist(args) -> int:
    a, b = read_pair_file(args.file)
    if args.linear:
        a, b = _linear(a), _linear(b)
    rep = distance_report(a, b, args.anchor)
    if args.trace:
        if rep.run is None:
            print("trace: skipped (at most one common marker)", file=sys.stderr)
        else:
            if rep.capping:
                print(f"capping: {rep.capping}")
            _emit_traces(args, rep)
    if args.oracle:
        from .oracle import OracleBudget, brute_force_distance, brute_force_linear_distance

        pair = GenomePair(a, b)
        budget = OracleBudget(max_common=5, max_exclusive=3, max_states=50_000)
        search = brute_force_distance if a.shape == CIRCULAR else brute_force_linear_distance
        try:
            exact = search(pair, budget)
        except BudgetExceeded as exc:
            print(f"oracle: skipped ({exc})", file=sys.stderr)
        else:
            agree = "agree" if exact == rep.distance else f"DISAGREE (exact {exact})"
            print(f"oracle: {agree}", file=sys.stderr)
    if args.json:
        import json

        print(json.dumps(rep.to_dict(), sort_keys=True))
    else:
        print(f"distance: {rep.distance}")
        print(
            f"common: {rep.g_count}  cycles: {rep.cycles}  "
            f"indel potential: {rep.indel_potential_sum}  extra cover: {rep.tau_star}"
        )
        if rep.anchor is not None:
            print(f"anchor: {rep.anchor}")
        if rep.capping:
            print(f"capping: {rep.capping}")
    return 0


def _cmd_verify(args) -> int:
    import random

    from .oracle import (
        OracleBudget,
        anchor_invariance_check,
        brute_force_distance,
        brute_force_linear_distance,
        brute_force_tau,
        neighbour_checks,
        random_genome_pair,
        random_residual_tree,
        random_tagged_tree,
        structured_genome_pair,
    )
    from .residual import known_compositions, optimal_cover_of_residual
    from .treecover import cover_floor

    rng = random.Random(args.seed)
    failures = 0

    # every brute-forced optimum also checks the leaf bound both tau*
    # searches stop at
    bound_ok = bound_total = 0

    trials = args.trials
    ok = 0
    for _ in range(trials):
        tree = random_tagged_tree(rng)
        want = brute_force_tau(tree)
        got = tau_star(tree)[0]
        ok += want == got
        bound_ok += want >= cover_floor(tree)
    bound_total += trials
    print(f"tree covers: {ok}/{trials} agree")
    failures += trials - ok

    comps = known_compositions()
    ok = ok_tau = total = 0
    per_comp = max(1, trials // len(comps))
    budget = OracleBudget(max_tree_nodes=30)
    for comp in comps:
        for _ in range(per_comp):
            tree = random_residual_tree(comp, rng)
            want = brute_force_tau(tree, budget)
            total += 1
            ok += want == optimal_cover_of_residual(tree)[0].total_cost
            ok_tau += want == tau_star(tree)[0]
            bound_ok += want >= cover_floor(tree)
    bound_total += total
    print(f"residual lookups: {ok}/{total} agree")
    print(f"residual trees through tau*: {ok_tau}/{total} agree")
    print(f"leaf bound: {bound_ok}/{bound_total} hold")
    failures += 2 * total - ok - ok_tau + bound_total - bound_ok

    ok = 0
    dist_trials = max(1, trials // 10)
    for _ in range(dist_trials):
        pair = random_genome_pair(rng, rng.randint(2, 4), rng.randint(0, 1), rng.randint(0, 1))
        want = brute_force_distance(pair)
        got = compute_distance(pair).distance
        ok += want == got
    print(f"distances: {ok}/{dist_trials} agree")
    failures += dist_trials - ok

    ok = 0
    anchor_trials = max(1, trials // 20)
    for _ in range(anchor_trials):
        pair = random_genome_pair(rng, rng.randint(2, 6), rng.randint(0, 2), rng.randint(0, 2))
        ok += len(set(anchor_invariance_check(pair).values())) == 1
    print(f"anchor invariance: {ok}/{anchor_trials} agree")
    failures += anchor_trials - ok

    # sections added later run last, so that every earlier section draws the
    # same pairs
    ok = 0
    for _ in range(dist_trials):
        pair = random_genome_pair(rng, rng.randint(2, 4), rng.randint(0, 1), rng.randint(0, 1))
        a, b = _linear(pair.a), _linear(pair.b)
        ok += brute_force_linear_distance(GenomePair(a, b)) == distance_report(a, b).distance
    print(f"linear distances: {ok}/{dist_trials} agree")
    failures += dist_trials - ok

    ok = 0
    neighbour_trials = max(1, trials // 20)
    for _ in range(neighbour_trials):
        pair = structured_genome_pair(rng, rng.randint(10, 40))
        ok += not neighbour_checks(pair, rng)
    print(f"neighbours: {ok}/{neighbour_trials} hold")
    failures += neighbour_trials - ok

    # trees of 13-40 nodes, each answer certified by the leaf bound or by
    # the exhaustive search at 40 nodes
    at_floor = exhaustive = 0
    sweep_trials = 5 * trials
    wide = OracleBudget(max_tree_nodes=40)
    for _ in range(sweep_trials):
        while len(tree := random_tagged_tree(rng, 40, 16)) < 13:
            pass
        got = tau_star(tree)[0]
        if got == cover_floor(tree):
            at_floor += 1
        elif got == brute_force_tau(tree, wide):
            exhaustive += 1
    print(
        f"certified trees: {at_floor + exhaustive}/{sweep_trials} ({at_floor} at the leaf "
        f"bound, {exhaustive} by exhaustive search)"
    )
    failures += sweep_trials - at_floor - exhaustive

    print("verify:", "PASS" if failures == 0 else f"FAIL ({failures})")
    return 0 if failures == 0 else 1


def _cmd_bench(args) -> int:
    import random
    import statistics
    import time

    from .oracle import random_genome_pair

    rng = random.Random(args.seed)
    prev = None
    for n in args.sizes:
        times = []
        parse_times = []
        for _ in range(args.repeats):
            pair = random_genome_pair(rng, n, max(1, n // 100), max(1, n // 100))
            text = f"{pair.a.text()}\n{pair.b.text()}\n"
            t0 = time.perf_counter()
            chromosomes = read_pair_text(text)
            t1 = time.perf_counter()
            distance_report(*chromosomes)
            times.append(time.perf_counter() - t0)
            parse_times.append(t1 - t0)
        med = statistics.median(times)
        parse = statistics.median(parse_times)
        ratio = "" if prev is None else f"  ratio {med / prev:.2f}"
        print(f"n={n}: median {med * 1000:.1f} ms (parse {parse * 1000:.1f} ms){ratio}")
        prev = med
    return 0


def _positive(text: str) -> int:
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _positive_list(text: str) -> list[int]:
    return [_positive(s) for s in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invindel",
        description="Exact inversion-indel distance between two unichromosomal genomes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="compute the distance for a two-line genome file")
    p_dist.add_argument("file")
    p_dist.add_argument("--anchor", help="common marker at which to cut the circles")
    p_dist.add_argument("--linear", action="store_true", help="treat both chromosomes as linear")
    p_dist.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_dist.add_argument(
        "--trace",
        action="append",
        choices=["diagram", "tree", "topology", "reduction", "cover", "all"],
    )
    p_dist.add_argument(
        "--oracle", action="store_true", help="cross-check tiny instances by exhaustive search"
    )
    p_dist.set_defaults(func=_cmd_dist)

    p_verify = sub.add_parser("verify", help="run the randomized oracle-equivalence suites")
    p_verify.add_argument("--trials", type=_positive, default=200)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser(
        "bench", help="time parsing and the pipeline on random genome texts"
    )
    p_bench.add_argument("--sizes", type=_positive_list, default=[1000, 2000, 4000, 8000])
    p_bench.add_argument("--repeats", type=_positive, default=3)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse ``argv`` and run its command; an InvindelError is printed and
    exits with 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvindelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
