"""Write reference/<workload>.json: the distances the current code gives for
every pair of the workload's pools.

    python3 perfbench/make_reference.py [WORKLOAD ...]

run.py compares every answer of a run with these files, so regenerate them
only when the workload generators change, never to absorb a change in the
distances.  With no argument, every workload is written.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE_DIR, solve
from workloads import POOL_PAIRS, POOLS, WORKLOADS, make_pair


def main(workloads: list[str]) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for w in workloads or sorted(WORKLOADS):
        distances = [
            [solve(make_pair(w, pool, k)).distance for k in range(POOL_PAIRS[w])]
            for pool in range(POOLS)
        ]
        with open(REFERENCE_DIR / f"{w}.json", "w", encoding="utf-8") as fh:
            json.dump({"pools": POOLS, "distances": distances}, fh, separators=(",", ":"))
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
