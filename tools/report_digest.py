"""Digest the reports of every benchmark pool pair.

    python3 tools/report_digest.py --workload structured

For each of the POOLS pools of the workload (see ``perfbench/workloads.py``)
it solves every pair from its text, as ``perfbench/run.py`` does, and prints
one line ``pool <k> <pairs> <sha256>``: the SHA-256 over the pairs' reports,
each as its sorted-keys ``to_dict()`` JSON on its own line, or as the class
and message of the error it raised.  Run it in two checkouts and compare the
output to check that a change left every report byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from invindel.cli import distance_report  # noqa: E402
from invindel.errors import InvindelError  # noqa: E402
from invindel.genome import read_pair_text  # noqa: E402
from workloads import POOL_PAIRS, POOLS, WORKLOADS, make_pair  # noqa: E402


def report_line(text: str) -> str:
    try:
        rep = distance_report(*read_pair_text(text))
    except InvindelError as exc:
        return f"error {type(exc).__name__}: {exc}"
    return json.dumps(rep.to_dict(), sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    for pool in range(POOLS):
        digest = hashlib.sha256()
        for i in range(POOL_PAIRS[args.workload]):
            line = report_line(make_pair(args.workload, pool, i).text)
            digest.update(line.encode() + b"\n")
        print(f"pool {pool} {POOL_PAIRS[args.workload]} {digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
