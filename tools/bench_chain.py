"""Print the chained wall_s index of each workload over the benchmark records.

Usage:
    python3 tools/bench_chain.py [DIR]

DIR holds the ``BENCH_*.json`` records that ``tools/bench_record.py`` writes
(default: the root of this checkout).  For each workload the script
multiplies, over its records, the ratio of the change's ``wall_s`` median to
the parent's, so the product is the workload's level after the last record
as a share of its level before the first.  A/A records (a label with
``-aa``) run one tree against itself and are skipped.  It prints one line
per workload, in name order::

    workload records index first..last

``records`` is the count of records in the product, ``index`` the product
and ``first..last`` the labels of its first and last record, in label order
(numbers compared as numbers).  The records are only read; no gate reads
the index.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path


def _label_key(label: str) -> list:
    """Sort key that compares the digit runs of a label as numbers."""
    return [int(part) if part.isdigit() else part for part in re.split(r"(\d+)", label)]


def chain(records: list[dict]) -> dict[str, tuple[int, float, str, str]]:
    """Per workload: record count, product of change/parent wall_s median
    ratios, and the first and last label, over the records that are not
    A/A records."""
    by_workload: dict[str, list[dict]] = {}
    for record in sorted(records, key=lambda r: _label_key(r["label"])):
        if "-aa" not in record["label"]:
            by_workload.setdefault(record["workload"], []).append(record)
    out = {}
    for workload, chained in sorted(by_workload.items()):
        ratios = [r["metrics"]["wall_s"]["change"]["median"]
                  / r["metrics"]["wall_s"]["parent"]["median"] for r in chained]
        out[workload] = (len(chained), math.prod(ratios), chained[0]["label"],
                         chained[-1]["label"])
    return out


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    paths = sorted(root.glob("BENCH_*.json"))
    if len(argv) > 1 or not paths:
        print(f"no BENCH_*.json records under {root}", file=sys.stderr)
        return 2
    records = [json.loads(path.read_text(encoding="utf-8")) for path in paths]
    print("workload records index first..last")
    for workload, (count, index, first, last) in chain(records).items():
        print(workload, count, f"{index:.3f}", f"{first}..{last}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
