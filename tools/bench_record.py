"""Run the benchmark on two source trees in alternating pairs and record the
result in ``BENCH_<label>.json``.

Usage:
    python3 tools/bench_record.py --label L --parent DIR --change DIR --pairs N
        --workload W [--seed S] [--out DIR]

PARENT and CHANGE are checkouts that each hold ``perfbench/run.py`` and
``src/qsm``.  Pair i runs both trees at seed S + i (default S = 1), the
parent first in even pairs and the change first in odd ones.  Each run is
``python3 perfbench/run.py --workload W --seed S+i --trace 0`` in its own
tree, as a child process, so it lasts the benchmark's own default run
length; its first stdout line is the environment record and its last the
result object.  Each run gets its own empty ``PYTHONPYCACHEPREFIX``
directory, removed after it, so both trees import qsm from source alike,
whatever bytecode either checkout holds.  A run's CPU time is the growth of
``resource.getrusage(RUSAGE_CHILDREN)`` (user + system) across it, so it
includes the fresh set-up interpreters the benchmark starts and waits for.

The record holds the environment of the first run, each tree's digest (the
sha256 over the paths and bytes of its ``src/qsm/*.py``), every run, and per
metric (the benchmark's end-to-end metrics and ``cpu_s``, all lower is
better) each side's median and quartiles, the pairs the change won and lost
(ties count for neither side), and whether the gain rule holds: the change
wins at least nine tenths of the pairs and the medians differ by more than
the parent's interquartile range.  A run that exits non-zero, or whose last
line is not the result object, stops the recording.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def tree_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of the tree's qsm sources."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qsm").glob("*.py")):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(root: Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``root``: its environment record, result object
    and CPU time."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
        before = _children_cpu_s()
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              check=False)
        cpu_s = _children_cpu_s() - before
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit code {proc.returncode}")
        head, result = json.loads(lines[0]), json.loads(lines[-1])
        metrics = {name: float(m["value"]) for name, m in result["metrics"].items()}
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        raise SystemExit(f"benchmark run in {root} at seed {seed} failed ({exc}):\n"
                         f"{proc.stderr[-2000:]}") from exc
    metrics["cpu_s"] = cpu_s
    return {
        "environment": head.get("environment"),
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "pass_walls_s": head.get("pass_walls_s"),
        "metrics": metrics,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict]) -> dict:
    """Per-metric sides and pair wins over runs recorded as ``{"pair",
    "side", "metrics"}``; every metric is lower-is-better."""
    pairs = sorted({r["pair"] for r in runs})
    by = {(r["pair"], r["side"]): r["metrics"] for r in runs}
    names = [name for name in by[(pairs[0], "parent")] if name in by[(pairs[0], "change")]]
    out = {}
    for name in names:
        values = {side: [by[(p, side)][name] for p in pairs] for side in SIDES}
        sides = {}
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            sides[side] = {"median": median, "q1": q1, "q3": q3}
        won = sum(c < p for p, c in zip(values["parent"], values["change"]))
        lost = sum(c > p for p, c in zip(values["parent"], values["change"]))
        gap = sides["parent"]["median"] - sides["change"]["median"]
        spread = sides["parent"]["q3"] - sides["parent"]["q1"]
        out[name] = {
            **sides,
            "change_vs_parent": sides["change"]["median"] / sides["parent"]["median"] - 1.0,
            "pairs_won": won,
            "pairs_lost": lost,
            "gain_rule_met": won >= 0.9 * len(pairs) and gap > spread,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="directory of BENCH_<label>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in trees.items():
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {root} holds no perfbench/run.py")

    runs, environment = [], None
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            record = run_once(trees[side], args.workload, seed)
            env = record.pop("environment")
            environment = environment or env
            runs.append({"pair": pair, "seed": seed, "side": side, **record})
            print(f"pair {pair} seed {seed} {side}: "
                  + " ".join(f"{k}={v:.4g}" for k, v in record["metrics"].items()),
                  file=sys.stderr, flush=True)

    report = {
        "label": args.label,
        "workload": args.workload,
        "pairs": args.pairs,
        "seeds": [args.seed, args.seed + args.pairs - 1],
        "environment": environment,
        "trees": {side: tree_digest(root) for side, root in trees.items()},
        "all_correct": all(r["correct"] for r in runs),
        "metrics": summarize(runs),
        "runs": runs,
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
