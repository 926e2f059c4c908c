"""Span tracer for the benchmark's traced run.

The tracer times calls into qsm's layers from outside: it swaps each public
function of the layer modules for a timing wrapper at every name a caller
looks it up by. ``from .geometry import intersection_uniqueness_search``
binds a second name in ``qsm.suites``, so both names are replaced. It also
wraps ``DensityOperator.__init__`` (which ``QuantumState`` runs too) and the
``numpy.linalg`` kernels qsm calls as ``np.linalg.<fn>`` at call time.
Nothing in qsm is edited; ``uninstall`` puts every original back.

Spans stay in typed arrays (about 33 bytes each) and are summarised or
written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

#: the span has no enclosing span of the same name
OUTERMOST = 1
#: the call raised
RAISED = 2

LAYERS = ("geometry", "states", "maps", "metrics", "linalg", "serialize", "suites")
KERNELS = ("eigh", "eigvalsh", "svd", "qr")

#: span names that are not "<layer>.<function>"; `linalg.psd_clamp` names the
#: array clamp every caller uses, so the operator-level wrapper gets another name
ALIASES = {
    "intersection_uniqueness_search": "search",
    "pinch_configuration": "pinch",
    "reconstruct_implementer": "reconstruct",
    "isometry_roundtrip": "roundtrip",
    "psd_clamp_entries": "psd_clamp",
    "psd_clamp": "psd_clamp_op",
}

#: dimensions of the per-dimension breakdown, and the spans it covers
BREAKDOWN_DIMS = (2, 8, 64)
BREAKDOWN_SPANS = ("states.density_init", "metrics.fidelity", "metrics.trace_distance",
                   "maps.apply_map")


def _dim_of_first(args, kwargs, result):
    return args[0].dim


def _dim_of_entries(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["entries"])


def _result_length(args, kwargs, result):
    return len(result)


def _argument(fn, name):
    signature = inspect.signature(fn)

    def size_of(args, kwargs, result):
        return int(signature.bind(*args, **kwargs).arguments[name])

    return size_of


#: what a span's size records, for the spans that record one
SIZES = {
    "metrics.fidelity": _dim_of_first,
    "metrics.trace_distance": _dim_of_first,
    "maps.apply_map": _dim_of_first,
    "serialize.canonical_dumps": _result_length,
}


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span,
    request id, flags, and a size (the matrix dimension n, the search budget,
    or the bytes of a serialised report, depending on the span)."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.size = array("q")
        self.flags = array("b")
        self.start = array("d")
        self.end = array("d")
        self.current_request = -1
        self._stack = [-1]
        self._depth: list[int] = []
        self._wrappers: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, span_name: str, fn, size_of=None):
        """A callable that runs ``fn`` inside a span named ``span_name``."""
        if span_name not in self.names:
            self.names.append(span_name)
            self._depth.append(0)
        nid = self.names.index(span_name)
        names, parents, requests, sizes = self.name, self.parent, self.request, self.size
        flags, starts, ends = self.flags, self.start, self.end
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(self.current_request)
            sizes.append(0)
            level = depth[nid]
            depth[nid] = level + 1
            flags.append(0 if level else OUTERMOST)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                flags[sid] |= RAISED
                raise
            finally:
                ends[sid] = perf_counter()
                stack.pop()
                depth[nid] = level
            if size_of is not None:
                sizes[sid] = size_of(args, kwargs, result)
            return result

        return traced

    # --- installing the wrappers ------------------------------------------

    def _targets(self):
        """(original, span name, size extractor) for every traced qsm callable."""
        import qsm.states

        targets = [(qsm.states.DensityOperator.__init__, "states.density_init", _dim_of_entries)]
        for layer in LAYERS:
            module = sys.modules[f"qsm.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{ALIASES.get(attr, attr)}"
                    size_of = (_argument(obj, "budget") if name == "geometry.search"
                               else SIZES.get(name))
                    targets.append((obj, name, size_of))
        return targets

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Swap the wrappers in; ``uninstall`` undoes it."""
        import qsm.states

        if not self._wrappers:
            for obj, name, size_of in self._targets():
                self._wrappers[id(obj)] = self.wrap(name, obj, size_of)
            for kernel in KERNELS:
                fn = getattr(np.linalg, kernel)
                self._wrappers[id(fn)] = self.wrap(f"kernel.{kernel}", fn)
        for module in [m for n, m in sys.modules.items() if n == "qsm" or n.startswith("qsm.")]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in self._wrappers and inspect.isfunction(obj):
                    self._patch(module, attr, self._wrappers[id(obj)])
        init = qsm.states.DensityOperator.__init__
        self._patch(qsm.states.DensityOperator, "__init__", self._wrappers[id(init)])
        for kernel in KERNELS:
            fn = getattr(np.linalg, kernel)
            self._patch(np.linalg, kernel, self._wrappers[id(fn)])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- results -----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
            "flags": np.frombuffer(self.flags, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.spans())


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the time its direct child spans cover.
    Calls nest on one thread, so children never overlap each other."""
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    return duration - covered


def _within(spans: dict[str, np.ndarray], ids: list[int]) -> np.ndarray:
    """Whether each span is one of ``ids`` or runs inside one."""
    inside = np.isin(spans["name"], ids)
    parent = spans["parent"]
    nested = parent >= 0
    while True:
        grown = inside.copy()
        grown[nested] |= inside[parent[nested]]
        if np.array_equal(grown, inside):
            return inside
        inside = grown


#: every per-layer metric, in print order, with its unit
PER_LAYER = (
    [("geometry.search.calls", "count"), ("geometry.search.proposals", "count"),
     ("geometry.search.busy_s", "s"), ("geometry.search.us_per_proposal", "us"),
     ("geometry.pinch.calls", "count"), ("geometry.self_s", "s"),
     ("states.density_init.calls", "count"), ("states.density_init.busy_s", "s"),
     ("states.density_init.rejected", "count"), ("states.density_init.per_roundtrip", "1"),
     ("states.random_density.calls", "count"), ("states.random_unitary.calls", "count"),
     ("states.self_s", "s")]
    + [(f"maps.{fn}.{stat}", unit)
       for fn in ("apply_map", "check_isometry", "preservation_suite", "reconstruct", "roundtrip")
       for stat, unit in (("calls", "count"), ("busy_s", "s"))]
    + [("maps.reconstruct.rejected", "count"), ("maps.self_s", "s")]
    + [(f"metrics.{fn}.{stat}", unit)
       for fn in ("fidelity", "trace_distance", "are_orthogonal")
       for stat, unit in (("calls", "count"), ("busy_s", "s"))]
    + [("metrics.self_s", "s"), ("linalg.psd_clamp.calls", "count"),
       ("linalg.psd_clamp.busy_s", "s")]
    + [(f"kernel.{k}.calls", "count") for k in KERNELS]
    + [("kernel.busy_s", "s"), ("kernel.share", "1"), ("kernel.decomp_per_proposal", "1"),
       ("kernel.decomp_per_apply_map", "1"),
       ("suites.self_s", "s"), ("cli.requests", "count"), ("cli.self_s", "s"),
       ("serialize.calls", "count"), ("serialize.self_s", "s"), ("serialize.bytes_out", "B"),
       ("trace.overhead_s", "s")]
    + [(f"{span}.us.n{n}", "us") for span in BREAKDOWN_SPANS for n in BREAKDOWN_DIMS]
)


def summarize(tracer: Tracer, traced_walls: list[float], untraced_walls: list[float]) -> dict:
    """Per-layer metrics from the recorded spans, in ``PER_LAYER`` order.

    Counts, bytes and times are per traced pass, like ``wall_s``, so they
    compare across runs that fit different numbers of passes. ``calls``
    counts every span of a name; ``busy_s`` sums only the outermost ones, so
    a call nested in a call of the same function (an oracle's ``apply_map``
    running the hidden map's) is not counted twice. A layer's ``self_s`` sums
    the self time of its spans."""
    spans = tracer.spans()
    names = tracer.names
    ids = {name: i for i, name in enumerate(names)}
    layer_of = np.array([name.split(".")[0] for name in names] or [""])
    name = spans["name"]
    duration = spans["end"] - spans["start"]
    own = self_times(spans)
    span_layer = layer_of[name] if len(name) else np.array([], dtype=layer_of.dtype)
    outermost = (spans["flags"] & OUTERMOST) > 0
    raised = (spans["flags"] & RAISED) > 0

    def of(span_name):
        return name == ids.get(span_name, -1)

    def calls(span_name):
        return int(np.count_nonzero(of(span_name)))

    def busy(span_name):
        return float(duration[of(span_name) & outermost].sum())

    def ratio(a, b):
        return a / b if b else 0.0

    traced_wall = sum(traced_walls)
    kernel = span_layer == "kernel"
    kernel_busy = float(duration[kernel].sum())
    proposals = int(spans["size"][of("geometry.search")].sum())
    parent = spans["parent"]
    nested = parent >= 0
    from_outside = np.ones(len(name), dtype=bool)
    from_outside[nested] = span_layer[parent[nested]] != span_layer[nested]

    m = {
        "geometry.search.calls": calls("geometry.search"),
        "geometry.search.proposals": proposals,
        "geometry.search.busy_s": busy("geometry.search"),
        "geometry.search.us_per_proposal": 1e6 * ratio(busy("geometry.search"), proposals),
        "geometry.pinch.calls": calls("geometry.pinch"),
        "states.density_init.calls": calls("states.density_init"),
        "states.density_init.busy_s": busy("states.density_init"),
        "states.density_init.rejected": int(np.count_nonzero(of("states.density_init") & raised)),
        "states.density_init.per_roundtrip": ratio(calls("states.density_init"),
                                                   calls("maps.roundtrip")),
        "states.random_density.calls": calls("states.random_density"),
        "states.random_unitary.calls": calls("states.random_unitary"),
        "maps.reconstruct.rejected": int(np.count_nonzero(of("maps.reconstruct") & raised)),
        "linalg.psd_clamp.calls": calls("linalg.psd_clamp"),
        "linalg.psd_clamp.busy_s": busy("linalg.psd_clamp"),
        "kernel.busy_s": kernel_busy,
        "kernel.share": ratio(kernel_busy, traced_wall),
        "kernel.decomp_per_proposal": ratio(
            int(np.count_nonzero(kernel & _within(spans, [ids.get("geometry.search", -1)]))),
            proposals),
        "kernel.decomp_per_apply_map": ratio(
            int(np.count_nonzero(kernel & _within(spans, [ids.get("maps.apply_map", -1)]))),
            calls("maps.apply_map")),
        "cli.requests": calls("cli.request"),
        "serialize.calls": int(np.count_nonzero((span_layer == "serialize") & from_outside)),
        "serialize.bytes_out": int(spans["size"][of("serialize.canonical_dumps")].sum()),
        "trace.overhead_s": (statistics.median(traced_walls) - statistics.median(untraced_walls)
                             if traced_walls and untraced_walls else 0.0),
    }
    for fn in ("apply_map", "check_isometry", "preservation_suite", "reconstruct", "roundtrip"):
        m[f"maps.{fn}.calls"] = calls(f"maps.{fn}")
        m[f"maps.{fn}.busy_s"] = busy(f"maps.{fn}")
    for fn in ("fidelity", "trace_distance", "are_orthogonal"):
        m[f"metrics.{fn}.calls"] = calls(f"metrics.{fn}")
        m[f"metrics.{fn}.busy_s"] = busy(f"metrics.{fn}")
    for kernel_name in KERNELS:
        m[f"kernel.{kernel_name}.calls"] = calls(f"kernel.{kernel_name}")
    for layer in ("geometry", "states", "maps", "metrics", "suites", "cli", "serialize"):
        m[f"{layer}.self_s"] = float(own[span_layer == layer].sum())
    for span_name in BREAKDOWN_SPANS:
        for n in BREAKDOWN_DIMS:
            sample = duration[of(span_name) & (spans["size"] == n)]
            m[f"{span_name}.us.n{n}"] = 1e6 * float(sample.mean()) if len(sample) else 0.0
    passes = max(len(traced_walls), 1)
    for metric, unit in PER_LAYER:
        if unit in ("count", "s", "B") and metric != "trace.overhead_s":
            m[metric] /= passes
    return {metric: m[metric] for metric, _ in PER_LAYER}
