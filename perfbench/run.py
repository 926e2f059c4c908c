#!/usr/bin/env python3
"""Benchmark of the qsm CLI: one client sends a workload's requests serially.

    python3 perfbench/run.py --workload lemma3-search --seed 1 --seconds 25 --trace 0

Requests go in-process through ``qsm.cli.main.main(args, standalone_mode=False)``
with stdout captured, each request on the next allowed CPU in turn. Whole
passes of the workload's request stream run until ``--seconds`` of pass time
have been spent (at least one pass). Every request is held to the verdict it
must produce, and one request is replayed to check that its report's bytes
repeat.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced run of each pass and prints the per-layer metrics from
the traced ones. Its spans are written to ``.perfbench_out/``. The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. See perfbench/README.md.
"""

from __future__ import annotations

import time

# setup_s counts from here: nothing heavier than the standard library is
# imported before it, and numpy and qsm are imported by the timed set-up.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

#: set-ups timed in fresh interpreters, taken in turns on every CPU; setup_s
#: is their median. An even count keeps the CPUs' shares equal, so when one
#: CPU is slower the median falls between the two and not on either.
FRESH_SETUPS = 6
FRESH_SETUP_TIMEOUT_S = 120

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("request_s.p50", "s"), ("peak_rss_mb", "MB"))

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> None:
    """One BLAS thread. The client is pinned to one CPU at a time (see
    ``pin``), so a second thread would only share that CPU. Must run before
    numpy is first imported; fresh set-up interpreters inherit the setting."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    with contextlib.suppress(Exception):  # show_config's layout differs across numpy versions
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "nproc": nproc(),
        "cpu": cpu,
    }


@dataclass
class Outcome:
    latency: float
    exit_code: int | None
    output: str
    error: str | None = None


def execute(entry, request) -> Outcome:
    """Run one CLI request as the `qsm` console script would, in-process."""
    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            returned = entry(list(request.args), standalone_mode=False)
        code = returned if isinstance(returned, int) else 0
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    except Exception as exc:  # a crashed request fails; the stream goes on
        code, error = None, f"{type(exc).__name__}: {exc}"
    return Outcome(time.perf_counter() - start, code, buf.getvalue(), error)


class Session:
    """Everything set up before the first timed request: qsm imported, the
    workload's inputs written, and each kernel and command path run once."""

    def __init__(self, workload: str, seed: int, workdir: Path, profile):
        if str(ROOT / "src") not in sys.path:
            sys.path.insert(0, str(ROOT / "src"))
        import numpy as np
        import workloads
        from qsm.cli import main as cli

        self.cli = cli
        self.metric_pairs = workloads.prepare_inputs(workload, seed, workdir, profile)
        rng = np.random.default_rng(0)
        for n in workloads.kernel_dims(workload, profile):
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = z + z.conj().T
            np.linalg.eigh(h), np.linalg.eigvalsh(h), np.linalg.svd(z), np.linalg.qr(z)
        for request in workloads.warmup_requests(workload, self.metric_pairs):
            outcome = execute(cli.main, request)
            problem = outcome.error or workloads.judge(request, outcome.exit_code, outcome.output)
            if problem:
                raise RuntimeError(f"warm-up request `{request.label}` failed: {problem}")


def fresh_setup_time(workload: str, seed: int) -> float:
    """setup_s of a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=FRESH_SETUP_TIMEOUT_S, check=True, cwd=ROOT,
    )
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure whole passes until this much pass time is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None, profile=None, started: float | None = None) -> int:
    """Run the benchmark; ``profile`` defaults to the full request sizes."""
    started = time.perf_counter() if started is None else started
    if not (ROOT / "src" / "qsm" / "__init__.py").is_file():
        print(f"no qsm sources at {ROOT / 'src' / 'qsm'}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        import workloads

        profile = profile or workloads.FULL
        session = Session(args.workload, args.seed, workdir, profile)
        if args.setup_only:
            print(json.dumps({"setup_s": time.perf_counter() - started}))
            return 0
        return measure(args, session, profile)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def measure(args, session: Session, profile) -> int:
    import workloads
    from tracer import PER_LAYER, Tracer, summarize

    tracer = Tracer() if args.trace else None
    traced_cli = tracer.wrap("cli.request", session.cli.main) if tracer else None
    walls, traced_walls, latencies = [], [], []
    attempted = failed = 0
    replayed = None

    cpus = sorted(os.sched_getaffinity(0))
    turn = 0

    def pin(k: int) -> None:
        """Move this process to the k-th allowed CPU, cyclically; see
        README.md. On a shared machine each CPU is slowed by its own
        neighbours, in spells of tens of seconds, so requests and set-ups
        taken in turns on every CPU average over them instead of riding out
        one CPU's spell."""
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})

    def run_pass(requests, entry):
        start = time.perf_counter()
        outcomes = []
        for request in requests:
            if tracer is not None:
                tracer.current_request += 1
            nonlocal turn
            pin(turn)
            turn += 1
            outcomes.append(execute(entry, request))
        return outcomes, time.perf_counter() - start

    def failures(requests, outcomes, replays=None) -> list[int]:
        """Indices of the requests whose outcome is wrong; with ``replays``,
        also of those whose report bytes differ from the replay's."""
        bad = []
        for i, (request, outcome) in enumerate(zip(requests, outcomes)):
            problem = outcome.error or workloads.judge(request, outcome.exit_code, outcome.output)
            if problem is None and replays is not None and replays[i].output != outcome.output:
                problem = "report bytes differ from its replay"
            if problem:
                bad.append(i)
                print(f"FAILED `{request.label}`: {problem}", file=sys.stderr)
        return bad

    setups = []
    index = controls = 0
    spent = 0.0
    # Whole passes, until --seconds of pass time have been spent. Set-ups
    # timed between passes, checks and replays do not count against it.
    while spent < args.seconds:
        requests = workloads.build_pass(args.workload, args.seed, index, session.metric_pairs,
                                        profile)
        outcomes, wall = run_pass(requests, session.cli.main)
        walls.append(wall)
        latencies += [o.latency for o in outcomes]
        attempted += len(requests)
        bad = failures(requests, outcomes)
        failed += len(bad)
        spent += wall
        if tracer is not None:
            with tracer:
                traced, traced_wall = run_pass(requests, traced_cli)
            traced_walls.append(traced_wall)
            attempted += len(requests)
            failed += len(failures(requests, traced, replays=outcomes))
            controls += sum(r.controls for r in requests)
            spent += traced_wall
        else:
            if index == 0:
                replayed = (requests[0], outcomes[0], 0 in bad)
            # spread over the run, so one slow spell of a shared machine
            # does not set every sample
            if len(setups) < FRESH_SETUPS:
                pin(len(setups))
                setups.append(fresh_setup_time(args.workload, args.seed))
        index += 1
    if replayed is not None:
        request, first, already_failed = replayed
        if execute(session.cli.main, request).output != first.output and not already_failed:
            failed += 1
            print(f"FAILED `{request.label}`: report bytes differ from its replay", file=sys.stderr)

    consistent = True
    if tracer is not None:
        values = summarize(tracer, traced_walls, walls)
        units = dict(PER_LAYER)
        tracer.save(OUT / f"spans-{args.workload}.npz")
        rejected = round(values["maps.reconstruct.rejected"] * len(traced_walls))
        if rejected != controls:
            consistent = False
            print(f"{rejected} reconstructions were rejected, but the traced passes hold "
                  f"{controls} non-isometry controls", file=sys.stderr)
    else:
        while len(setups) < FRESH_SETUPS:
            pin(len(setups))
            setups.append(fresh_setup_time(args.workload, args.seed))
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "request_s.p50": statistics.median(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    os.sched_setaffinity(0, cpus)

    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "requests": attempted, "pass_walls_s": walls,
                      "traced_pass_walls_s": traced_walls, "setups_s": setups}))
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {failed / attempted:.6g} 1 ({failed} of {attempted} requests)")
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    limit_blas_threads()
    sys.exit(main(sys.argv[1:], started=STARTED))
