"""Command-line front end.

Three commands: `metric` (distances between two matrix files), `verify`
(lemma/theorem suites), and `reconstruct` (recover the implementing operator
of a map).  All reports are deterministic JSON: same config, same bytes; no
timestamps are written.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from .errors import InvalidParameter, NotImplementable, QsmError
from .maps import (
    PHASE_CONVENTION,
    VALIDATION_SAMPLES,
    MapDomain,
    MapKind,
    _conjugation,
    named_nonisometry,
    probe_count,
    reconstruct_implementer,
    statemap_from_json,
)
from .metrics import _bures_and_fidelities, _pair, are_orthogonal, trace_distance
from .serialize import canonical_dumps, load_density, matrix_to_json
from .states import DEFAULT_DIM_CAP, RngStream, random_unitary
from .suites import SUITE_IDS, TOLERANCE_NAMES, check_tolerances, run_suite

SCHEMA = "qsm-report/1"


def dim_cap() -> int:
    raw = os.environ.get("QSM_DIM_CAP")
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise click.UsageError(f"QSM_DIM_CAP must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise click.UsageError("QSM_DIM_CAP must be >= 1")
    return cap


def parse_dims(text: str) -> list[int]:
    """Parse '1,2,4..6' style dimension lists (ranges inclusive).  Each range
    is checked against the cap before it is expanded."""
    cap = dim_cap()
    dims: set[int] = set()
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        lo, dots, hi = token.partition("..")
        try:
            first, last = int(lo), int(hi if dots else lo)
        except ValueError as exc:
            raise click.UsageError(f"bad dimension {token!r} in --dims") from exc
        if first <= last and (first < 1 or last > cap):
            raise click.UsageError(f"dimension {token!r} outside [1, {cap}]")
        dims.update(range(first, last + 1))
    if not dims:
        raise click.UsageError("no dimensions given")
    return sorted(dims)


def parse_tolerances(entries: tuple[str, ...]) -> dict[str, float]:
    overrides = {}
    for entry in entries:
        name, sep, value = entry.partition("=")
        if not sep:
            raise click.UsageError(f"--tol expects name=value, got {entry!r}")
        name = name.strip()
        if name not in TOLERANCE_NAMES:
            raise click.UsageError(
                f"unknown tolerance {name!r}; choose from {', '.join(TOLERANCE_NAMES)}"
            )
        try:
            number = float(value)
        except ValueError as exc:
            raise click.UsageError(f"--tol value for {name!r} is not a number") from exc
        if not (math.isfinite(number) and number > 0.0):
            raise click.UsageError(f"--tol {name} must be finite and positive, got {value!r}")
        overrides[name] = number
    try:
        check_tolerances(overrides)
    except InvalidParameter as exc:
        raise click.UsageError(f"--tol {exc}") from exc
    return overrides


def _emit(payload: dict, output_path: str | None) -> None:
    text = canonical_dumps(payload)
    if output_path:
        Path(output_path).write_text(text, encoding="utf-8")
    click.echo(text, nl=False, file=sys.stdout)


@click.group()
def main():
    """Quantum state metric geometry: distances, lemma/theorem verification,
    and isometry reconstruction."""


@main.command("metric")
@click.argument("file_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("file_b", type=click.Path(exists=True, dir_okay=False))
@click.option("--metric", "which", type=click.Choice(["both", "bures", "trace-norm"]),
              default="both", show_default=True, help="Which distance(s) to report.")
@click.option("--out", "output_path", type=click.Path(dir_okay=False), default=None)
def cmd_metric(file_a, file_b, which, output_path):
    """Fidelity, distances, and orthogonality verdict for two density files."""
    try:
        a = load_density(file_a)
        b = load_density(file_b)
    except (ValueError, QsmError, json.JSONDecodeError, OSError) as exc:
        raise click.UsageError(f"could not load density operator: {exc}") from exc
    if a.dim != b.dim:
        raise click.UsageError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.dim > dim_cap():
        raise click.UsageError(f"dimension {a.dim} exceeds cap {dim_cap()}")
    bures, fid = (float(v[0]) for v in _bures_and_fidelities(*_pair(a, b)))
    payload = {
        "schema": SCHEMA,
        "command": "metric",
        "dim": a.dim,
        "trace_a": a.trace,
        "trace_b": b.trace,
        "fidelity": fid,
        "orthogonal": are_orthogonal(a, b),
    }
    if which in ("both", "bures"):
        payload["bures_distance"] = bures
    if which in ("both", "trace-norm"):
        payload["trace_distance"] = trace_distance(a, b)
    _emit(payload, output_path)


@main.command("verify")
@click.argument("suite_id")
@click.option("--dims", default="1,2,3,4,6", show_default=True,
              help="Dimensions, e.g. '1,2,4' or '2..6'.")
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--samples", default=200, show_default=True, type=int,
              help="Pairs per check (lemma3: max(2, samples // 10) pinch "
                   "configurations per dim).")
@click.option("--budget", default=2000, show_default=True, type=click.IntRange(min=1),
              help="Proposals per uniqueness search.")
@click.option("--tol", "tol_entries", multiple=True, metavar="NAME=VALUE",
              help="Tolerance overrides (repeatable).")
@click.option("--out", "output_path", type=click.Path(dir_okay=False), default=None)
def cmd_verify(suite_id, dims, seed, samples, budget, tol_entries, output_path):
    """Run a verification suite; exit 0 iff every dimension passes."""
    if suite_id not in SUITE_IDS:
        raise click.UsageError(
            f"unknown suite {suite_id!r}; choose from {', '.join(SUITE_IDS)}"
        )
    if samples < 1:
        raise click.UsageError("--samples must be >= 1")
    # everything needed to replay the run
    config = {
        "dims": parse_dims(dims),
        "seed": seed,
        "samples": samples,
        "budget": budget,
        "tolerances": parse_tolerances(tol_entries),
    }
    reports = run_suite(suite_id, config["dims"], seed, samples, budget, config["tolerances"])
    passed = all(r.passed for r in reports)
    payload = {
        "schema": SCHEMA,
        "command": "verify",
        "suite": suite_id,
        "config": config,
        "pass": passed,
        "reports": [r.to_json() for r in reports],
    }
    _emit(payload, output_path)
    sys.exit(0 if passed else 1)


_BUILTIN_HELP = "identity | transpose | haar | depolarizing:<p> | pinching | trace-rescale:<c>"


def _builtin_map(spec_text: str, dim: int, seed: int):
    name, sep, arg = spec_text.partition(":")
    if sep and name in ("identity", "transpose", "haar", "pinching"):
        raise click.UsageError(f"builtin {name!r} takes no parameter, got {spec_text!r}")
    # qsm builds these unitaries itself (random_unitary holds its sample's
    # defect), so they skip the check a map file's U gets
    eye = np.eye(dim, dtype=np.complex128)
    full = MapDomain.FULL_DENSITY
    if name == "identity":
        return _conjugation(eye, full, MapKind.UNITARY_CONJ)
    if name == "transpose":
        return _conjugation(eye, full, MapKind.ANTIUNITARY_CONJ)
    if name == "haar":
        return _conjugation(random_unitary(dim, RngStream(seed, 999)), full, MapKind.UNITARY_CONJ)
    if name == "depolarizing":
        return named_nonisometry(name, dim, p=float(arg) if arg else 0.5)
    if name == "pinching":
        return named_nonisometry(name, dim)
    if name == "trace-rescale":
        return named_nonisometry(name, dim, c=float(arg) if arg else 2.0)
    raise click.UsageError(f"unknown builtin {spec_text!r}; choose from {_BUILTIN_HELP}")


@main.command("reconstruct")
@click.option("--builtin", "builtin_id", default=None, help=_BUILTIN_HELP)
@click.option("--map-file", "map_file", type=click.Path(exists=True, dir_okay=False),
              default=None, help="StateMap JSON file.")
@click.option("--dim", default=3, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--out", "output_path", type=click.Path(dir_okay=False), default=None)
def cmd_reconstruct(builtin_id, map_file, dim, seed, output_path):
    """Recover the implementing unitary/antiunitary of a map; exit 1 if the
    map is rejected as not implementable."""
    if (builtin_id is None) == (map_file is None):
        raise click.UsageError("give exactly one of --builtin or --map-file")
    if not 1 <= dim <= dim_cap():
        raise click.UsageError(f"dimension {dim} outside [1, {dim_cap()}]")
    if builtin_id is not None:
        source = builtin_id
        try:
            state_map = _builtin_map(builtin_id, dim, seed)
        except (ValueError, QsmError) as exc:
            raise click.UsageError(f"bad builtin {builtin_id!r}: {exc}") from exc
    else:
        source = map_file
        try:
            with open(map_file, "r", encoding="utf-8") as fh:
                state_map = statemap_from_json(json.load(fh))
        except (ValueError, KeyError, QsmError, json.JSONDecodeError) as exc:
            raise click.UsageError(f"could not load map file: {exc}") from exc
        if state_map.dim != dim:
            given = click.get_current_context().get_parameter_source("dim")
            if given is not ParameterSource.DEFAULT:
                raise click.UsageError(
                    f"--dim {dim} disagrees with the map file's dim {state_map.dim}"
                )
            dim = state_map.dim
            if dim > dim_cap():
                raise click.UsageError(f"map dimension {dim} exceeds cap {dim_cap()}")
    payload = {
        "schema": SCHEMA,
        "command": "reconstruct",
        "map": source,
        "dim": dim,
        "probes": probe_count(dim),
    }
    try:
        result = reconstruct_implementer(state_map, RngStream(seed, 7))
    except NotImplementable as exc:
        payload.update({"pass": False, "error": str(exc), "probe": exc.probe, **exc.evidence})
        _emit(payload, output_path)
        sys.exit(1)
    payload.update(
        {
            "pass": True,
            "kind": result.kind.value,
            "residual": result.residual,
            "validation_samples": VALIDATION_SAMPLES,
            "phase_convention": PHASE_CONVENTION,
            "unitary": matrix_to_json(result.unitary),
        }
    )
    _emit(payload, output_path)


if __name__ == "__main__":
    main()
