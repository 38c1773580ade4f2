"""Digest the reports of every benchmark pool pair, or the tau* results of
fixed random tagged trees.

    python3 tools/report_digest.py --workload structured
    python3 tools/report_digest.py --trees

With ``--workload``, for each of the POOLS pools of the workload (see
``perfbench/workloads.py``) it solves every pair from its text, as
``perfbench/run.py`` does, and prints one line ``pool <k> <pairs> <sha256>``:
the SHA-256 over the pairs' reports, each as its sorted-keys ``to_dict()``
JSON on its own line, or as the class and message of the error it raised.

With ``--trees`` it prints one line ``trees <count> <sha256>``: the SHA-256
over what ``tau_star`` returns on each tree (cost, cover paths, case
trace and, for a reduced tree, its reduction steps and lookup cover), one
JSON line per tree, or the class and message of the error it raised.  The
trees are acceptance criterion 3's 10,000 (seed 33), 60 of up to 300 nodes
(``random_tagged_tree(Random(s), 300, 200)``, s < 60) and 100 residual trees
of each table composition (one ``Random(2024)``).

Run it in two checkouts and compare the output to check that a change left
every report, or every tau* result, byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from invindel.cli import distance_report, tau_star  # noqa: E402
from invindel.errors import InvindelError  # noqa: E402
from invindel.genome import read_pair_text  # noqa: E402
from invindel.oracle import random_residual_tree, random_tagged_tree  # noqa: E402
from invindel.residual import known_compositions  # noqa: E402
from workloads import POOL_PAIRS, POOLS, WORKLOADS, make_pair  # noqa: E402


def report_line(text: str) -> str:
    try:
        rep = distance_report(*read_pair_text(text))
    except InvindelError as exc:
        return f"error {type(exc).__name__}: {exc}"
    return json.dumps(rep.to_dict(), sort_keys=True)


def _trees():
    rng = random.Random(33)
    for _ in range(10_000):
        yield random_tagged_tree(rng, max_nodes=12, max_leaves=8)
    for s in range(60):
        yield random_tagged_tree(random.Random(s), 300, 200)
    rng = random.Random(2024)
    for comp in known_compositions():
        for _ in range(100):
            yield random_residual_tree(comp, rng)


def tau_line(tree) -> str:
    def paths(cover):
        return [(p.u, p.v, p.cost) for p in cover.paths]

    try:
        cost, cover, res, trace = tau_star(tree)
    except InvindelError as exc:
        return f"error {type(exc).__name__}: {exc}"
    out = [cost, paths(cover), trace]
    if res is not None:
        steps = [(s.kind, s.path, s.cost, s.leaf_class) for s in res.steps]
        out += [steps, paths(res.lookup_cover)]
    return json.dumps(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=sorted(WORKLOADS))
    what.add_argument("--trees", action="store_true")
    args = parser.parse_args(argv)
    if args.trees:
        digest, count = hashlib.sha256(), 0
        for tree in _trees():
            digest.update(tau_line(tree).encode() + b"\n")
            count += 1
        print(f"trees {count} {digest.hexdigest()}")
        return 0
    for pool in range(POOLS):
        digest = hashlib.sha256()
        for i in range(POOL_PAIRS[args.workload]):
            line = report_line(make_pair(args.workload, pool, i).text)
            digest.update(line.encode() + b"\n")
        print(f"pool {pool} {POOL_PAIRS[args.workload]} {digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
