"""Write ``bench/pair_costs.json``: the milliseconds each separation pair took at the
commit that defined the benchmark, which fixes the order the separation sample
is drawn along.

    python3 bench/time_pairs.py

Every pair of the 2,415-pair matrix is graded once, in report order and with
warm caches as ``nilj report`` grades it, and checked against
``bench/reference.json``.  The file is a design input of the separation
workload, like a sampling frame: rerunning this script changes the benchmark,
so a change that only claims a speed-up leaves the file alone.
"""

from __future__ import annotations

import json
import sys
import time
from itertools import combinations
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as W  # noqa: E402


def main():
    reference = json.loads((BENCH / "reference.json").read_text())["separation"]
    instances = W.separation_instances()
    algebras = [W.catalog.instantiate(n, b) for n, b, _ in instances]
    costs = {}
    for i, j in combinations(range(len(instances)), 2):
        (n1, b1, l1), (n2, b2, l2) = instances[i], instances[j]
        item = W.SeparationItem(W.pair_key(l1, l2), n1, b1, l1, algebras[i], n2, b2, l2, algebras[j])
        t = time.perf_counter()
        row = W.run_separation(item)
        costs[item.key] = round(1000 * (time.perf_counter() - t), 1)
        if json.loads(json.dumps(row)) != reference[item.key]:
            raise SystemExit(f"{item.key}: graded {row}, reference {reference[item.key]}")
    lines = ",\n".join(f"{json.dumps(k)}: {v}" for k, v in costs.items())
    (BENCH / "pair_costs.json").write_text("{\n" + lines + "\n}\n")
    print(f"wrote {BENCH / 'pair_costs.json'}: {len(costs)} pairs, {sum(costs.values()) / 1000:.1f} s")


if __name__ == "__main__":
    main()
