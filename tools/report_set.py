"""Run the fixed set of 85 qsm reports and print one line per report:
``sha256 verdict exit-code args``.

Usage:
    python3 tools/report_set.py [SRC_DIR]

SRC_DIR is the directory that holds the ``qsm`` package to run (default: the
``src`` directory of this checkout), so the same script runs against another
checkout and a byte-identity claim comes down to a ``diff`` of two outputs.
Every report runs in-process through ``qsm.cli.main`` with the console
script's exit codes; the hash covers the report written to stdout.

The verdict column is the sha256 of the same report with every float value
replaced by null: booleans, ints, strings, keys and list lengths stay in, so
it moves only when a verdict, a counter or the report's shape moves (a
report that is not JSON is hashed as it is).  A change that moves bytes at
roundoff but no verdict shows as a clean ``diff`` of columns 2 and 3::

    diff <(cut -d' ' -f2- a.txt) <(cut -d' ' -f2- b.txt)

The set: every suite at ``--dims 1``; ``lemma1`` and ``ortho-eq`` at seeds 0
and 7; ``lemma1 --dims 32 --samples 40 --seed 1``, whose nonzero centers
take two draw blocks; ``lemma3 --seed 3``, ``lemma3 --dims 2..6 --budget
10000 --samples 20 --seed 0``, ``lemma3 --tol slack=1e-6 --seed 2`` and
``lemma3 --dims 7,8 --budget 2000 --seed 1``; each theorem suite at its
defaults, at ``--dims 2..8 --samples 200 --seed 0``, ``--dims 1,2,3 --seed
5`` and ``--dims 48 --samples 10 --seed 1``; the seven pairings of the
benchmark's ``roundtrip-small`` workload (``THEOREMS[i % 4]`` at d = 2..8,
``--samples 200 --seed 0``); ``qsm metric`` on a seeded pair of Wishart
densities at n = 8 and at n = 64; ``reconstruct --builtin`` for six maps at
n = 1, 2, 4, 9, 16, 33, 64; and a dim-5 antiunitary map file with and
without ``--dim 5``.

The input files are generated with numpy alone from fixed seeds and written
to INPUT_DIR.  Map-file reports echo the file's path, so that directory is
the same for every checkout compared.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

INPUT_DIR = Path(tempfile.gettempdir()) / "qsm-report-set"

SUITES = ("lemma1", "lemma3", "ortho-eq", "thm-bures-D", "thm-bures-S", "thm-trace-D",
          "thm-trace-S")
THEOREMS = SUITES[3:]
BUILTINS = ("haar", "transpose", "pinching", "depolarizing:0.5", "trace-rescale:2", "identity")
RECONSTRUCT_DIMS = (1, 2, 4, 9, 16, 33, 64)


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _wishart(rng: np.random.Generator, n: int) -> np.ndarray:
    """Full-rank trace-1 Wishart density, exactly Hermitian."""
    g = _ginibre(rng, n)
    a = g @ g.conj().T
    a = a / float(np.trace(a).real)
    return (a + a.conj().T) / 2.0


def _matrix_json(a: np.ndarray) -> dict:
    return {"dim": a.shape[0],
            "entries": [[[float(z.real), float(z.imag)] for z in row] for row in a]}


def _write(path: Path, obj: dict) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def write_inputs(directory: Path) -> dict[str, str]:
    """The seeded input files, by name."""
    directory.mkdir(parents=True, exist_ok=True)
    files = {}
    for n in (8, 64):
        rng = np.random.default_rng([n, 1])
        for side in "ab":
            files[f"{side}{n}"] = _write(directory / f"wishart{n}-{side}.json",
                                         _matrix_json(_wishart(rng, n)))
    u, _ = np.linalg.qr(_ginibre(np.random.default_rng([5, 2]), 5))
    files["map5"] = _write(directory / "antiunitary5.json",
                           {"kind": "antiunitary", "dim": 5, "U": _matrix_json(u)})
    return files


def report_args(files: dict[str, str]) -> list[list[str]]:
    """The arguments of each report of the set, in order."""
    runs = [["verify", s, "--dims", "1"] for s in SUITES]
    runs += [["verify", s, "--seed", seed] for s in ("lemma1", "ortho-eq") for seed in "07"]
    runs += [["verify", "lemma1", "--dims", "32", "--samples", "40", "--seed", "1"]]
    runs += [["verify", "lemma3", "--seed", "3"],
             ["verify", "lemma3", "--dims", "2..6", "--budget", "10000", "--samples", "20",
              "--seed", "0"],
             ["verify", "lemma3", "--tol", "slack=1e-6", "--seed", "2"],
             ["verify", "lemma3", "--dims", "7,8", "--budget", "2000", "--seed", "1"]]
    for s in THEOREMS:
        runs += [["verify", s],
                 ["verify", s, "--dims", "2..8", "--samples", "200", "--seed", "0"],
                 ["verify", s, "--dims", "1,2,3", "--seed", "5"],
                 ["verify", s, "--dims", "48", "--samples", "10", "--seed", "1"]]
    runs += [["verify", THEOREMS[i % len(THEOREMS)], "--dims", str(d), "--samples", "200",
              "--seed", "0"] for i, d in enumerate(range(2, 9))]
    runs += [["metric", files[f"a{n}"], files[f"b{n}"]] for n in (8, 64)]
    runs += [["reconstruct", "--builtin", b, "--dim", str(n)]
             for b in BUILTINS for n in RECONSTRUCT_DIMS]
    runs += [["reconstruct", "--map-file", files["map5"]],
             ["reconstruct", "--map-file", files["map5"], "--dim", "5"]]
    return runs


def _floats_dropped(value):
    """A parsed JSON value with every float replaced by None."""
    if isinstance(value, float):
        return None
    if isinstance(value, dict):
        return {k: _floats_dropped(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_floats_dropped(v) for v in value]
    return value


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verdict_digest(report: str) -> str:
    """sha256 of the report's JSON with its floats dropped (of the raw text
    if it is not JSON)."""
    try:
        parsed = json.loads(report)
    except ValueError:
        return _sha256(report)
    return _sha256(json.dumps(_floats_dropped(parsed), sort_keys=True))


def run(entry, args: list[str]) -> tuple[str, str, str]:
    """sha256 and verdict digest of the report written to stdout, and the
    exit code, as the console script would exit (an exception's name if the
    command raised)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            returned = entry(args, standalone_mode=False)
        code = str(returned if isinstance(returned, int) else 0)
    except SystemExit as exc:
        code = str(0 if exc.code is None else exc.code)
    except Exception as exc:  # a report that crashes is recorded, the set goes on
        code = type(exc).__name__
    report = buf.getvalue()
    return _sha256(report), verdict_digest(report), code


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    if not (src / "qsm" / "__init__.py").is_file():
        print(f"no qsm package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.resolve()))
    os.environ.pop("QSM_DIM_CAP", None)
    from qsm.cli import main as cli

    for args in report_args(write_inputs(INPUT_DIR)):
        print(*run(cli.main, args), " ".join(args), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
