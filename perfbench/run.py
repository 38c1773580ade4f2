"""The repository's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {random,structured,small} \\
        --seed N --seconds S --trace {0,1}

Each pair is generated from the seed as input text and goes through
``genome.read_pair_text`` and ``cli.distance_report``: one process, one
pair at a time, closed loop, for ``--seconds`` seconds.  A run cycles
through the pool of pairs of its seed (see ``workloads.py``).  Generating a
pair and checking its answer happen outside the timed region.

Times are scaled to the reference machine's speed: the run times a fixed
gauge (``calibrate.py``) between rounds of about ROUND_SECONDS of pairs and
multiplies each pair's time by ``calibrate.factor`` of the readings just
before and just after the pair's round.  On a shared machine whose
speed drifts by half within minutes, this keeps the drift out of the
figures; a change to the program itself is not gauged.

``--trace 0`` prints the end-to-end metrics:

- ``pairs_per_s``   pairs completed per second of timed work, text to report
- ``pair_ms_p50``   median time per pair
- ``pair_ms_p90``   90th percentile time per pair
- ``setup_s``       median over fresh interpreters of the time to import
                    ``invindel`` and return a first distance on a 4-marker
                    pair, measured apart from the timed loop and scaled by
                    the gauge read before and after each interpreter
- ``peak_rss_mb``   peak resident memory of this process after the loop
- ``failed_share``  pairs that raised or failed a check / pairs attempted;
                    printed, and carried by the result line's ``failed``
                    and ``attempted`` counts

``--trace 1`` runs each pair both untraced and traced, wrapping the public
functions of every pipeline module (see ``spans.py``), and prints the
per-layer metrics.  Times are self times (a span minus its child spans) in
milliseconds per pair, counts are per pair, and the tagged-tree sizes are
per tree built.  ``trace.overhead_share`` is the median over pairs of the
traced time over the untraced time, minus one.  A third of the run traces
pairs of twice the workload's size, for the doubling ratios.  The run
prints each module's share of the traced pair time and writes every span to
``perfbench/out/trace-<workload>.json``.

Checks, outside the timed region; every mismatch fails its pair:

- every answer at the workload's size equals the distance stored for its
  pool pair in ``reference/<workload>.json``;
- circular pairs within the breadth-first-search budget (at most 4 common
  and 2 exclusive markers) equal ``oracle.brute_force_distance``;
- tagged trees of at most 12 nodes give ``tau_star`` equal to
  ``oracle.brute_force_tau`` (on the first TREE_CHECK_PAIRS pairs);
- structured pairs stay within the generator's bound;
- no pair raises, the pairs of twice the size included.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if not (SRC / "invindel" / "__init__.py").is_file():
    sys.exit(f"perfbench: no invindel package under {SRC}")
sys.path[:0] = [str(SRC), str(HERE)]

import invindel  # noqa: E402
from invindel import cli, genome  # noqa: E402
from invindel.components import tagged_tree_for_pair  # noqa: E402
from invindel.genome import (  # noqa: E402
    Chromosome,
    GenomePair,
    Marker,
    cap_linear_pair,
    classify_markers,
)
from invindel.oracle import OracleBudget, brute_force_distance, brute_force_tau  # noqa: E402

from calibrate import factor, gauge  # noqa: E402
from spans import PAIR, Profile, Tracer  # noqa: E402
from workloads import POOL_PAIRS, POOLS, WORKLOADS, Pair, pool_pair  # noqa: E402

if not Path(invindel.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: invindel imported from {invindel.__file__}, not {SRC}")

SETUP_RUNS = 15
SETUP_SNIPPET = """\
import time
t0 = time.perf_counter()
from invindel.cli import distance_report
from invindel.genome import read_pair_text
distance_report(*read_pair_text("a -c b d\\nd c -b a\\n")).distance
print(time.perf_counter() - t0)
"""

# Pair time between two readings of the gauge.
ROUND_SECONDS = 0.5

REFERENCE_DIR = HERE / "reference"

BUDGET = OracleBudget()
# The tree check rebuilds the front end of the pipeline, which costs about
# as much as solving the pair, so it covers the first TREE_CHECK_PAIRS pairs
# of a run, and only pairs of at most TREE_CHECK_MAX_COMMON common markers:
# the larger pairs of these workloads never give a tree within the oracle's
# 12-node budget.
TREE_CHECK_PAIRS = 1500
TREE_CHECK_MAX_COMMON = 200

LAYERS = ("genome", "diagram", "components", "treecover", "reduction", "residual", "cli")


@dataclass(frozen=True)
class Answer:
    """What the checks need from a report."""

    distance: int
    tau_star: int
    capping: str | None
    fallbacks: int  # '*' labels: residual lookups the primary case missed


@dataclass
class Run:
    """One timed batch.  Entry ``i`` of each list belongs to pair ``i``; a
    pair is kept without its text."""

    scale: int
    pairs: list[tuple[int, Pair]] = field(default_factory=list)  # (pool index, pair)
    answers: list[Answer | Exception] = field(default_factory=list)
    times: list[float] = field(default_factory=list)  # seconds, as measured
    traced: list[float] = field(default_factory=list)  # seconds, traced
    factors: list[float] = field(default_factory=list)  # reference speed / speed

    def scaled_ms(self) -> list[float]:
        return [t * f * 1000 for t, f in zip(self.times, self.factors)]


def solve(pair: Pair):
    a, b = genome.read_pair_text(pair.text)
    return cli.distance_report(a, b)


def run_pair(pair: Pair) -> tuple[Answer | Exception, float]:
    """One pair, timed from text to report."""
    t0 = time.perf_counter()
    try:
        rep = solve(pair)
    except Exception as exc:  # a failing pair is counted, not fatal
        return exc, time.perf_counter() - t0
    dt = time.perf_counter() - t0
    return Answer(rep.distance, rep.tau_star, rep.capping, rep.case_trace.count("*")), dt


def timed_loop(
    workload: str, seed: int, seconds: float, scale: int = 1, tracer: Tracer | None = None
) -> Run:
    """Closed loop over the seed's pairs for ``seconds``, in rounds of about
    ROUND_SECONDS of pair time with a reading of the gauge before and after
    each round.  With a tracer, each pair also runs traced right before or
    after, so that drift in the machine's speed cancels out of the tracing
    overhead."""
    run = Run(scale)
    readings = [gauge()]
    rounds: list[int] = []  # the round of each pair
    busy = 0.0
    end = time.perf_counter() + seconds
    while True:
        i = len(run.times)
        k, pair = pool_pair(workload, seed, i, scale)
        if tracer is None:
            out, dt = run_pair(pair)
        else:
            # Alternate which run goes first: the second run of a pair finds
            # warm caches, which would otherwise bias the overhead.
            if i % 2 == 0:
                out, dt = run_pair(pair)
            with tracer.installed(), tracer.span(PAIR, i):
                again, dt_traced = run_pair(pair)
            if i % 2 == 1:
                out, dt = run_pair(pair)
            run.traced.append(dt_traced)
            busy += dt_traced
            if isinstance(out, Answer) and out != again:
                out = RuntimeError(f"traced answer {again} differs from {out}")
        run.pairs.append((k, replace(pair, text="")))
        run.answers.append(out)
        run.times.append(dt)
        rounds.append(len(readings) - 1)
        busy += dt
        done = time.perf_counter() >= end
        if busy >= ROUND_SECONDS or done:
            readings.append(gauge())
            busy = 0.0
        if done:
            break
    run.factors = [factor(readings[r], readings[r + 1]) for r in rounds]
    return run


def measure_setup() -> float:
    """Median over fresh interpreters, each scaled by the gauge read before
    and after it; the first interpreter, which may compile bytecode, is a
    warm-up and not counted."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    samples = []
    for _ in range(SETUP_RUNS + 1):
        before = gauge()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        scale = factor(before, gauge())
        samples.append(float(out.stdout.strip().splitlines()[-1]) * scale)
    return statistics.median(samples[1:])


def _relabeled(a: Chromosome, b: Chromosome) -> GenomePair:
    """The same pair under new marker names and orientations, chosen so that
    B reads ``y0 .. c0 c1 ..`` forward.  The distance does not depend on
    names or on which orientation of a marker counts as forward, and pairs
    of one size then share the oracle's cached search from B."""
    common = a.names() & b.names()
    i = next((k for k, m in enumerate(b.markers) if m.name not in common), 0)
    order = b.markers[i:] + b.markers[:i]
    new = {m.name: (f"c{k}", m.forward) for k, m in enumerate(m for m in order if m.name in common)}
    new |= {
        m.name: (f"y{k}", m.forward) for k, m in enumerate(m for m in order if m.name not in common)
    }
    new |= {
        m.name: (f"x{k}", True) for k, m in enumerate(m for m in a.markers if m.name not in common)
    }

    def relabel(ch: Chromosome) -> Chromosome:
        return Chromosome(
            tuple(Marker(new[m.name][0], m.forward == new[m.name][1]) for m in ch.markers)
        )

    return classify_markers(relabel(a), relabel(b))


def check_oracles(pair: Pair, out: Answer, tree_check: bool) -> str | None:
    """Why the answer disagrees with an exhaustive search, or None.  Needs
    the pair's text."""
    a, b = genome.read_pair_text(pair.text)
    if (
        not pair.linear
        and pair.common <= BUDGET.max_common
        and pair.exclusive <= BUDGET.max_exclusive
    ):
        exact = brute_force_distance(_relabeled(a, b))
        if exact != out.distance:
            return f"distance {out.distance}, breadth-first search {exact}"
    if not tree_check:
        return None
    gp = classify_markers(a, b)
    if out.capping is not None:
        gp = cap_linear_pair(gp)[0 if out.capping == "as-read" else 1]
    tree = tagged_tree_for_pair(gp)[3]
    if len(tree) <= BUDGET.max_tree_nodes:
        exact = brute_force_tau(tree)
        if exact != out.tau_star:
            return f"tau* {out.tau_star}, exhaustive cover search {exact}"
    return None


def check(workload: str, seed: int, run: Run) -> list[str]:
    """One message per failed pair of the run.  The oracles see each pool
    pair once, at its first occurrence; the stored distances apply at the
    workload's own size."""
    expect = None
    if run.scale == 1:
        with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
            stored = json.load(fh)
        if stored["pools"] != POOLS or len(stored["distances"][0]) != POOL_PAIRS[workload]:
            raise SystemExit(f"perfbench: {workload}.json does not match the pools")
        expect = stored["distances"][seed % POOLS]
    failures = []
    for i, ((k, pair), out) in enumerate(zip(run.pairs, run.answers)):
        if isinstance(out, Exception):
            why = f"raised {type(out).__name__}: {out}"
        elif pair.bound is not None and out.distance > pair.bound:
            why = f"distance {out.distance} above the generator bound {pair.bound}"
        elif expect is not None and out.distance != expect[k]:
            why = f"distance {out.distance}, stored reference {expect[k]}"
        elif i == k and pair.common <= TREE_CHECK_MAX_COMMON:
            full = pool_pair(workload, seed, i, run.scale)[1]
            why = check_oracles(full, out, i < TREE_CHECK_PAIRS)
        else:
            why = None
        if why is not None:
            failures.append(f"pair {i} (x{run.scale}): {why}")
    return failures


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list[Run]]:
    setup = measure_setup()
    run = timed_loop(workload, seed, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(run.times)
    ms = run.scaled_ms()
    if n < 100:
        print(f"note: {n} pairs leave fewer than 10 samples above the 90th percentile")
    print(
        f"as measured, before scaling: {n / sum(run.times):.4f} pairs/s; "
        f"median gauge factor {statistics.median(run.factors):.3f}"
    )
    metrics = {
        "pairs_per_s": (n / sum(ms) * 1000, "1/s", n),
        "pair_ms_p50": (statistics.median(ms), "ms", n),
        "pair_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms", n),
        "setup_s": (setup, "s", SETUP_RUNS),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    return metrics, [run]


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, list[Run]]:
    tracer, big = Tracer(), Tracer()
    run = timed_loop(workload, seed, seconds * 2 / 3, tracer=tracer)
    big_run = timed_loop(workload, seed, seconds / 3, scale=2, tracer=big)
    if tracer.missing:
        print(f"note: not found, not traced: {', '.join(tracer.missing)}")
    tracer.write(HERE / "out" / f"trace-{workload}.json")
    n, n_big = len(run.times), len(big_run.times)
    prof, big_prof = Profile(tracer, run.factors), Profile(big, big_run.factors)

    def ms(*names: str) -> float:
        return prof.self_ms(*names) / n

    def calls(name: str) -> float:
        return prof.calls[name] / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    trees = prof.extras["components.flower_contract"]
    solos = prof.extras["reduction.solo_candidates"]
    hypotheses = len(solos) + sum(solos)
    rotated = prof.extras["components.diagram_with_components"]
    fallbacks = sum(out.fallbacks for out in run.answers if isinstance(out, Answer))
    m = {
        "genome.parse_ms": ms("genome.read_pair_text"),
        "genome.cap_calls": calls("genome.cap_linear_pair"),
        "diagram.build_ms": ms("diagram.build_relational_diagram"),
        "diagram.build_calls": calls("diagram.build_relational_diagram"),
        "components.rotation_ms": ms("components.diagram_with_components"),
        "components.rotated_share": ratio(sum(rotated), len(rotated)),
        "components.find_ms": ms("components.find_components"),
        "components.tree_ms": ms(
            "components.build_chained_tree",
            "components.mark_costless_merges",
            "components.flower_contract",
        ),
        "components.tagged_nodes": ratio(sum(len(t) for t in trees), len(trees)),
        "components.tagged_leaves": ratio(sum(len(t.leaves()) for t in trees), len(trees)),
        "components.contract_ms": ms("components.contract"),
        "components.contract_calls": calls("components.contract"),
        "components.path_ms": ms("components.path"),
        "components.path_calls": calls("components.path"),
        "reduction.self_ms": ms("reduction.compute_residual", "reduction.reduce_by_paths"),
        "reduction.reduce_by_paths_calls": calls("reduction.reduce_by_paths"),
        "reduction.hypotheses": hypotheses / n,
        "reduction.hypothesis_yield": ratio(len(solos), hypotheses),
        "residual.lookup_ms": ms("residual.optimal_cover_of_residual"),
        "residual.lookup_calls": calls("residual.optimal_cover_of_residual"),
        "residual.fallbacks": fallbacks / n,
        "treecover.validate_ms": ms("treecover.validate"),
        "treecover.closed_form_ms": ms("treecover.tau_shared_tag", "treecover.tau_all_clean"),
        "cli.tau_star_ms": prof.total_ns["cli.tau_star"] / 1e6 / n,
        "cli.assembly_ms": ms("cli.compute_distance"),
        "diagram.build.doubling_ratio": ratio(
            big_prof.self_ms("diagram.build_relational_diagram") / n_big,
            ms("diagram.build_relational_diagram"),
        ),
        "cli.tau_star.doubling_ratio": ratio(
            big_prof.total_ns["cli.tau_star"] / n_big, prof.total_ns["cli.tau_star"] / n
        ),
        "trace.overhead_share": statistics.median(
            t / u for t, u in zip(run.traced, run.times)
        )
        - 1,
    }
    layers = prof.layer_ns()
    print(
        "self-time shares of traced pair time: "
        + ", ".join(f"{layer} {layers[layer] / prof.total_ns[PAIR]:.3f}" for layer in LAYERS)
    )
    units = {"_ms": "ms", "_share": "ratio", "_ratio": "ratio", "_yield": "ratio"}
    metrics = {}
    for name, value in m.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        metrics[name] = (value, unit, n_big if "doubling" in name else n)
    return metrics, [run, big_run]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    measure = per_layer if args.trace else end_to_end
    metrics, runs = measure(args.workload, args.seed, args.seconds)
    failures = [msg for run in runs for msg in check(args.workload, args.seed, run)]
    attempted = sum(len(run.answers) for run in runs)
    for msg in failures[:20]:
        print(f"FAILED {msg}")
    print(
        f"workload {args.workload}, seed {args.seed} (pool {args.seed % POOLS}): "
        f"{attempted} pairs, all checked"
    )
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:34s} {value:12.4f} {unit:6s} (n={count})")
    print(f"  {'failed_share':34s} {len(failures) / attempted:12.4f} {'ratio':6s} (n={attempted})")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
