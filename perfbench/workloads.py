"""Request streams, generated inputs and the correctness gate of the qsm benchmark.

A workload is an endless stream of `qsm` CLI requests cut into passes. Pass
``p`` of a workload is drawn from ``numpy.random.default_rng([seed, p])``, so
the same seed always gives the same requests, however many passes a run
manages. Every request carries the verdict it must produce; ``judge`` holds
the report against it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("lemma3-search", "roundtrip-small", "large-n")

THEOREMS = ("thm-bures-D", "thm-bures-S", "thm-trace-D", "thm-trace-S")

#: relative tolerance when a `qsm metric` report is held to the reference values
METRIC_RTOL = 1e-7


@dataclass(frozen=True)
class Profile:
    """Request sizes. ``FULL`` is the benchmark; ``TINY`` keeps every request
    path but runs in well under a second a pass, for the benchmark's own tests."""

    lemma3_dims: tuple[int, ...] = (2, 3, 4, 5, 6)
    lemma3_budget: int = 10000
    lemma3_samples: int = 20
    small_dims: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8)
    small_samples: int = 200
    #: the theorem suites run at the first, every reconstruction and metric
    #: request at the second
    large_dims: tuple[int, int] = (48, 64)
    large_samples: int = 10


FULL = Profile()
TINY = Profile(
    lemma3_dims=(2, 3),
    lemma3_budget=200,
    lemma3_samples=10,
    small_dims=(2, 3),
    small_samples=10,
    large_dims=(3, 4),
)


@dataclass(frozen=True)
class Request:
    """One CLI request and the outcome it must produce."""

    args: tuple[str, ...]
    exit_code: int = 0
    #: expected top-level "pass" of the report; None for `qsm metric`
    passed: bool | None = True
    #: expected "kind" of a reconstruction
    kind: str | None = None
    #: expected values of a `qsm metric` report, computed here with numpy
    reference: dict = field(default_factory=dict)
    #: non-isometry controls the request must see rejected by reconstruction
    controls: int = 0

    @property
    def label(self) -> str:
        return " ".join(Path(a).name if a.endswith(".json") else a for a in self.args)


#: (file a, file b, what `qsm metric a b` must report) for each metric request
MetricPairs = list[tuple[str, str, dict]]


def _request_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31)))


def _lemma3(dim: int, budget: int, samples: int, seed: str) -> Request:
    return Request(
        ("verify", "lemma3", "--dims", str(dim), "--budget", str(budget),
         "--samples", str(samples), "--seed", seed)
    )


def _theorem(suite: str, dim: int, samples: int, seed: str) -> Request:
    """A theorem suite; from n = 2 on it also rejects one depolarizing control."""
    return Request(("verify", suite, "--dims", str(dim), "--samples", str(samples), "--seed", seed),
                   controls=int(dim >= 2))


def _reconstruct(builtin: str, dim: int, seed: str) -> Request:
    if builtin == "depolarizing:0.5":
        return Request(("reconstruct", "--builtin", builtin, "--dim", str(dim), "--seed", seed),
                       exit_code=1, passed=False, controls=1)
    kind = "antiunitary" if builtin == "transpose" else "unitary"
    return Request(("reconstruct", "--builtin", builtin, "--dim", str(dim), "--seed", seed),
                   kind=kind)


def build_pass(workload: str, seed: int, index: int, metric_pairs: MetricPairs,
               profile: Profile = FULL) -> list[Request]:
    """Requests of pass ``index``. Passes of one workload differ only in the
    seeds handed to qsm, so every pass does the same kind and amount of work."""
    rng = np.random.default_rng([seed, index])
    if workload == "lemma3-search":
        return [
            _lemma3(d, profile.lemma3_budget, profile.lemma3_samples, _request_seed(rng))
            for d in profile.lemma3_dims
        ]
    if workload == "roundtrip-small":
        return [
            _theorem(THEOREMS[i % len(THEOREMS)], d, profile.small_samples, _request_seed(rng))
            for i, d in enumerate(profile.small_dims)
        ]
    if workload == "large-n":
        mid, top = profile.large_dims
        requests = [
            _reconstruct("haar", top, _request_seed(rng)),
            _reconstruct("transpose", top, _request_seed(rng)),
            _reconstruct("depolarizing:0.5", top, _request_seed(rng)),
            _theorem("thm-trace-D", mid, profile.large_samples, _request_seed(rng)),
            _theorem("thm-bures-S", mid, profile.large_samples, _request_seed(rng)),
        ]
        requests += [
            Request(("metric", a, b), passed=None, reference=ref)
            for a, b, ref in metric_pairs
        ]
        return requests
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def warmup_requests(workload: str, metric_pairs: MetricPairs) -> list[Request]:
    """One cheap request down each command path the workload takes."""
    if workload == "lemma3-search":
        return [_lemma3(2, 100, 10, "0")]
    if workload == "roundtrip-small":
        return [_theorem(suite, 2, 10, "0") for suite in THEOREMS]
    if workload == "large-n":
        a, b, ref = metric_pairs[0]
        return [
            _reconstruct("haar", 2, "0"),
            _reconstruct("depolarizing:0.5", 2, "0"),
            _theorem("thm-trace-D", 2, 10, "0"),
            _theorem("thm-bures-S", 2, 10, "0"),
            Request(("metric", a, b), passed=None, reference=ref),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def kernel_dims(workload: str, profile: Profile = FULL) -> tuple[int, ...]:
    if workload == "lemma3-search":
        return profile.lemma3_dims
    if workload == "roundtrip-small":
        return profile.small_dims
    return profile.large_dims


# --- generated inputs -------------------------------------------------------


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _density(frame: np.ndarray, trace: float, rng: np.random.Generator) -> np.ndarray:
    """Full-rank Wishart density on the span of ``frame``'s columns, made
    exactly Hermitian so the file passes qsm's symmetry check."""
    g = frame @ _ginibre(rng, frame.shape[1], frame.shape[1])
    a = g @ g.conj().T
    a = a * (trace / float(np.trace(a).real))
    return (a + a.conj().T) / 2.0


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    lam, vec = np.linalg.eigh(a)
    return (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.conj().T


def reference_metrics(a: np.ndarray, b: np.ndarray) -> dict:
    """What `qsm metric a b` must report, computed without qsm."""
    tr_a, tr_b = float(np.trace(a).real), float(np.trace(b).real)
    fid = float(np.sum(np.linalg.svd(_psd_sqrt(a) @ _psd_sqrt(b), compute_uv=False)))
    return {
        "dim": a.shape[0],
        "trace_a": tr_a,
        "trace_b": tr_b,
        "fidelity": fid,
        "bures_distance": math.sqrt(max(tr_a + tr_b - 2.0 * fid, 0.0)),
        "trace_distance": float(np.sum(np.abs(np.linalg.eigvalsh(a - b)))),
    }


def _write_matrix(path: Path, a: np.ndarray) -> None:
    entries = [[[float(z.real), float(z.imag)] for z in row] for row in a]
    path.write_text(json.dumps({"dim": a.shape[0], "entries": entries}), encoding="utf-8")


def prepare_inputs(workload: str, seed: int, workdir: Path, profile: Profile = FULL
                   ) -> MetricPairs:
    """Write the matrix files a workload reads. Only ``large-n`` reads files:
    two pairs of overlapping full-rank densities, held to an independent
    numpy computation, and two pairs supported on complementary halves of a
    random frame, with known answers (fidelity 0, trace distance tr A + tr B,
    orthogonal). Each pair is asked for in both orders."""
    metric_pairs: MetricPairs = []
    if workload != "large-n":
        return metric_pairs
    rng = np.random.default_rng([seed, 2**20])
    n = profile.large_dims[1]
    half = n // 2
    for k in range(2):
        frame, _ = np.linalg.qr(_ginibre(rng, n, n))
        pairs = {
            "overlap": (_density(np.eye(n), 1.0, rng),
                        _density(np.eye(n), float(rng.uniform(0.5, 2.0)), rng)),
            "orthogonal": (_density(frame[:, :half], 1.0, rng),
                           _density(frame[:, half:], float(rng.uniform(0.5, 2.0)), rng)),
        }
        for name, (a, b) in pairs.items():
            path_a, path_b = workdir / f"{name}{k}-a.json", workdir / f"{name}{k}-b.json"
            _write_matrix(path_a, a)
            _write_matrix(path_b, b)
            ref = reference_metrics(a, b)
            if name == "orthogonal":
                total = ref["trace_a"] + ref["trace_b"]
                ref.update(fidelity=0.0, bures_distance=math.sqrt(total), trace_distance=total,
                           orthogonal=True)
            else:
                ref["orthogonal"] = False
            swapped = dict(ref, trace_a=ref["trace_b"], trace_b=ref["trace_a"])
            metric_pairs += [(str(path_a), str(path_b), ref),
                                    (str(path_b), str(path_a), swapped)]
    return metric_pairs


# --- the gate ---------------------------------------------------------------


def judge(request: Request, exit_code: int | None, output: str) -> str | None:
    """Why the request's outcome is wrong, or None when it is right."""
    if exit_code != request.exit_code:
        return f"exit code {exit_code}, expected {request.exit_code}"
    try:
        report = json.loads(output)
    except ValueError:
        return "report is not JSON"
    if report.get("schema") != "qsm-report/1":
        return f"schema {report.get('schema')!r}"
    if report.get("command") != request.args[0]:
        return f"command {report.get('command')!r}"
    if request.passed is not None and report.get("pass") is not request.passed:
        return f"pass is {report.get('pass')!r}, expected {request.passed}"
    if request.kind is not None and report.get("kind") != request.kind:
        return f"kind {report.get('kind')!r}, expected {request.kind!r}"
    for key, want in request.reference.items():
        got = report.get(key)
        if isinstance(want, (bool, int)):
            ok = got == want
        else:
            ok = isinstance(got, float) and abs(got - want) <= METRIC_RTOL * (1.0 + abs(want))
        if not ok:
            return f"{key} is {got!r}, expected {want!r}"
    return None
