#!/usr/bin/env python3
"""Regenerate digests.json: one digest of the full output of every item.

Run from the repository root only at a commit whose outputs are known
good, and only in the change that says the outputs changed:

    PYTHONPATH=src python3 perfbench/make_digests.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import cyclic_pairs as cp  # noqa: E402

from perfbench import workloads  # noqa: E402
from perfbench.worker import DIGESTS  # noqa: E402


def main() -> int:
    table = {}
    for workload in workloads.WORKLOADS:
        table[workload] = {}
        for item in workloads.population(workload):
            out = workloads.run_item(cp, workload, item)
            problems = workloads.check_item(cp, workload, item, out)
            if problems:
                print(f"{workload} {item}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            table[workload][workloads.item_key(item)] = workloads.digest(workload, out)
        print(f"{workload}: {len(table[workload])} items", file=sys.stderr)
    DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
