"""Record the reference digests the output checks compare against.

Usage: python3 bench/record_refs.py

Writes bench/refs.json: the exact pmf of every statistic on every
exact-table grid, and, at the default seed, the seeded MC nulls of
mc-null and the shared null and power-table JSON of power.  Run it only
on a commit whose outputs are known to be right: the checks then hold
every later commit to these outputs bit for bit.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402


def main() -> None:
    refs = {}
    for cls in (workloads.ExactTable, workloads.McNull, workloads.Power):
        # these three workloads write no inputs, so they need no scratch directory
        workload = cls(DEFAULT_SEED, Path(workloads.BENCH_DIR))
        workload.setup()
        refs[cls.name] = workload.references(workload.run())
        if cls is not workloads.ExactTable:
            refs[cls.name]["seed"] = DEFAULT_SEED
    workloads.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFS_PATH}")


if __name__ == "__main__":
    main()
