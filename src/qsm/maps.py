"""Transformations of the density cone and state space.

A StateMap is its block evaluator: a function from the entry stack of a
block of operators (qsm.states) to their images, as n x n matrices, in
order, together with the dimension and the domain (the density cone or the
state space) it is declared on.  Unitary and antiunitary conjugations (the
latter composed with entrywise conjugation in the computational basis) and
the named non-isometry controls act on the stack directly; an opaque oracle
(oracle_map) is handed the block's operators one at a time.  Every check
sees a map only through what it returns.  This module checks maps for
isometry and for the preservation of orthogonality, rank and affinity, and
reconstructs the implementing operator from a black-box isometry via a
fixed probe schedule, once the map on the density cone has passed its zero
and trace checks.

The sample loops (check_isometry, preservation_suite and the trace check
and validation of a reconstruction) run in blocks of samples.  A block
makes its random draws in bulk: its scalars (ranks, traces, splits,
weights) as arrays first, then one Gaussian stack per kind of draw,
through the stacked samplers of qsm.states.  Its operators are entry
stacks, mapped and measured with batched kernels, group by group: all
first members of the block's pairs, then all second members, and so on; no
loop builds an operator object.  A map is handed each block's stack, in
that group order, in one call, and its images are checked as one stack.  The
spectra a block reads are decomposed as one stack too: Bures fidelities by
one batched ``eigh``, preservation ranks by one ``eigvalsh``.  A probe image
is first tested for purity without a decomposition (_pure_columns), and only
the images that test leaves open are decomposed, as one stack.  A maximum of
trace norms (validation residual, affinity violation, unitarity defect)
decomposes only the matrices whose Frobenius bound exceeds the value read so
far (_max_trace_norm in qsm.linalg).  A block holds as many
samples as keep each stacked operand within _BLOCK_ENTRIES (qsm.linalg)
matrix entries: 50 pairs at n = 8, one sample at n = 64.  The block sizes
fix the draw order, so a new cap changes the samples drawn, and so the
report bytes, but not what the checks mean.  A failing sample raises once
its whole block has been drawn.  The probes of a reconstruction are mapped
in blocks of the same size.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    InvalidParameter,
    NotImplementable,
    NotPositiveSemidefinite,
)
from .linalg import _blocks, _max_trace_norm, _symmetrized
from .metrics import MetricKind, distance, distances, orthogonality
from .serialize import _decode_dim, matrix_from_json
from .states import (
    UNITARITY_TOL,
    UNIT_TRACE_TOL,
    DensityOperator,
    QuantumState,
    RngStream,
    _orthogonal_pairs,
    _projection,
    _random_stack,
    _ranks,
    _spectra,
    _traces,
    _unitarity_defect,
    generator_of,
    random_unitary,
    zero_density,
)

#: residual above which a reconstruction is rejected as not implementable.
TOL_ACCEPT = 1e-6

#: largest second eigenvalue of a pure probe image in a reconstruction.
_PURITY_TOL = 1e-8

#: largest distance of the image of 0 from 0 that counts as fixing 0.
_ZERO_TOL = 1e-8

#: largest affinity violation a preservation suite counts as preserved.
_AFFINITY_TOL = 1e-8

#: random states on which a reconstruction, and a roundtrip's recovered map,
#: are validated.
VALIDATION_SAMPLES = 100

#: human-readable statement of the output gauge fixing.
PHASE_CONVENTION = (
    "largest-modulus component of the first column made real positive, "
    "ties broken by lowest index"
)


class MapKind(Enum):
    """The kinds of conjugation a reconstruction recovers."""

    UNITARY_CONJ = "unitary"
    ANTIUNITARY_CONJ = "antiunitary"


class MapDomain(Enum):
    FULL_DENSITY = "density"
    STATES_ONLY = "states"


@dataclass(frozen=True)
class StateMap:
    """A transformation of the density cone or the state space, seen only
    through its block evaluator, which takes the ``(k, n, n)`` entry stack of
    a block of operators of its domain and returns their k images."""

    dim: int
    domain: MapDomain
    #: the images of an entry stack's operators, as n x n matrices, in order
    evaluate: Callable[[np.ndarray], Sequence[np.ndarray]]


def _checked_unitary(u) -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise InvalidParameter(f"unitary must be square, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise InvalidParameter("unitary entries must be finite")
    defect = _unitarity_defect(u, UNITARITY_TOL * u.shape[0])
    if defect > UNITARITY_TOL * u.shape[0]:
        raise InvalidParameter(f"matrix is not unitary: defect {defect:.3e}")
    return u


def _conjugate(u: np.ndarray, kind: MapKind, arr: np.ndarray) -> np.ndarray:
    """U A U* of each matrix A of a stack, or U conj(A) U* (antiunitary)."""
    if kind is MapKind.ANTIUNITARY_CONJ:
        arr = arr.conj()
    return u @ arr @ u.conj().T


def _conjugation(u: np.ndarray, domain: MapDomain, kind: MapKind) -> StateMap:
    """The conjugation of ``kind`` by ``u``, a unitary its caller has checked."""
    return StateMap(u.shape[0], domain, lambda arr: _conjugate(u, kind, arr))


def unitary_conjugation(u, domain: MapDomain = MapDomain.FULL_DENSITY) -> StateMap:
    """The map A -> U A U*."""
    return _conjugation(_checked_unitary(u), domain, MapKind.UNITARY_CONJ)


def antiunitary_conjugation(u, domain: MapDomain = MapDomain.FULL_DENSITY) -> StateMap:
    """The map A -> U conj(A) U*, conj taken in the computational basis."""
    return _conjugation(_checked_unitary(u), domain, MapKind.ANTIUNITARY_CONJ)


def oracle_map(
    evaluate: Callable[[DensityOperator], DensityOperator],
    dim: int,
    domain: MapDomain = MapDomain.FULL_DENSITY,
) -> StateMap:
    """Wrap an opaque per-operator evaluation as a StateMap.  Each block of
    operators is handed to ``evaluate`` one operator at a time, in order, as
    operators of the domain's class.  They are built from the block's entry
    stack without checking it (its samples are PSD by construction, its
    probes were checked when built), on a read-only view of it, so
    ``evaluate`` cannot write into the samples that the checks read after
    it."""
    cls = _domain_type(domain)

    def evaluate_block(arr):
        arr = arr.view()
        arr.setflags(write=False)
        return [evaluate(a).entries for a in cls._wrapped(arr)]

    return StateMap(dim, domain, evaluate_block)


def named_nonisometry(
    name: str,
    dim: int,
    *,
    p: float | None = None,
    c: float | None = None,
    basis=None,
    domain: MapDomain = MapDomain.FULL_DENSITY,
) -> StateMap:
    """Named non-isometry controls: depolarizing(p), pinching(basis),
    trace-rescale(c)."""
    if name == "depolarizing":
        if p is None or not 0.0 <= p <= 1.0:
            raise InvalidParameter("depolarizing needs p in [0, 1]")
        p = float(p)

        def depolarize(arr):
            return (1.0 - p) * arr + (p * _traces(arr))[:, None, None] * np.eye(dim) / dim

        return StateMap(dim, domain, depolarize)
    if name == "pinching":
        if basis is None:
            v = np.eye(dim, dtype=np.complex128)
        else:
            v = _checked_unitary(basis)
            if v.shape[0] != dim:
                raise InvalidParameter("pinching basis has the wrong dimension")

        def pinch(arr):
            rotated = v.conj().T @ arr @ v
            diagonal = np.zeros_like(rotated)
            idx = np.arange(dim)
            diagonal[:, idx, idx] = rotated[:, idx, idx]
            return v @ diagonal @ v.conj().T

        return StateMap(dim, domain, pinch)
    if name == "trace-rescale":
        if c is None or not 0.0 < c < np.inf:
            raise InvalidParameter("trace-rescale needs a finite c > 0")
        if domain is MapDomain.STATES_ONLY and c != 1.0:
            raise InvalidParameter("trace-rescale with c != 1 leaves the state space")
        c = float(c)
        return StateMap(dim, domain, lambda arr: c * arr)
    raise InvalidParameter(f"unknown non-isometry id {name!r}")


def _domain_type(domain: MapDomain) -> type[DensityOperator]:
    return QuantumState if domain is MapDomain.STATES_ONLY else DensityOperator


def _map_block(m: StateMap, arr: np.ndarray) -> np.ndarray:
    """apply_map of each operator of an entry stack, in order: the inputs
    are checked, the map is evaluated once on the whole stack, and its images
    are checked as one stack and returned as the entry stack of the domain's
    class."""
    if arr.shape[-1] != m.dim:
        raise DimensionMismatch(f"map dim {m.dim}, operator dim {arr.shape[-1]}")
    if m.domain is MapDomain.STATES_ONLY and (np.abs(_traces(arr) - 1.0) > UNIT_TRACE_TOL).any():
        raise DomainError("map is declared on states only; input has trace != 1")
    images = m.evaluate(arr)
    try:
        out = np.asarray(images, dtype=np.complex128)
    except ValueError as exc:
        raise DomainError(f"map images are not one stack of matrices: {exc}") from exc
    if out.shape != arr.shape:
        raise DomainError(
            f"map returned images of shape {out.shape} for {len(arr)} operators, "
            f"declared dim {m.dim}"
        )
    try:
        return _domain_type(m.domain)._validated(out)
    except (ValueError, NotPositiveSemidefinite) as exc:
        raise DomainError(f"map output left its declared domain: {exc}") from exc


def apply_map(m: StateMap, a: DensityOperator) -> DensityOperator:
    """Evaluate a StateMap.

    The output is built as a DensityOperator (a QuantumState on the states
    domain), whose constructor symmetrizes it and rejects an eigenvalue
    below -1e-9*(1+trace) without decomposing it.  Inputs and
    outputs must respect the declared dimension and domain (states stay
    trace-1 within 1e-10); an output that does not raises DomainError."""
    return _domain_type(m.domain)._wrapped(_map_block(m, a.entries[None]))[0]


def _sample_block(n: int, gen: np.random.Generator, domain: MapDomain, count: int):
    """Entry stack of ``count`` random operators of the domain
    (states._random_stack): traces in [0.2, 2] on the density cone, 1 on
    states."""
    return _random_stack(n, gen, count, (0.2, 2.0) if domain is MapDomain.FULL_DENSITY else None)


def check_isometry(
    m: StateMap,
    metric: MetricKind,
    rng: RngStream | np.random.Generator,
    pairs: int,
) -> float:
    """Max |d(phi(A), phi(B)) - d(A, B)| over sampled pairs from the map's
    domain.  A block of k pairs draws 2k operators and pairs the first k
    with the last k."""
    if pairs < 1:
        raise InvalidParameter("need at least one pair")
    gen = generator_of(rng)
    worst = 0.0
    for count in _blocks(pairs, m.dim, 2):
        arr = _sample_block(m.dim, gen, m.domain, 2 * count)
        a, b = np.split(arr, 2)
        fa, fb = np.split(_map_block(m, arr), 2)
        deviation = np.abs(distances(metric, fa, fb) - distances(metric, a, b))
        worst = max(worst, float(deviation.max()))
    return worst


def _zero_residual(m: StateMap) -> float:
    """Trace distance of the map's image of the zero operator from zero."""
    zero = zero_density(m.dim)
    return distance(MetricKind.TRACE_NORM, apply_map(m, zero), zero)


def _trace_defect(m: StateMap, rng: RngStream | np.random.Generator, samples: int) -> float:
    """Worst |tr phi(A) - tr A| over sampled densities."""
    gen = generator_of(rng)
    worst = 0.0
    for count in _blocks(samples, m.dim, 1):
        arr = _sample_block(m.dim, gen, m.domain, count)
        defect = np.abs(_traces(_map_block(m, arr)) - _traces(arr))
        worst = max(worst, float(defect.max()))
    return worst


@dataclass(frozen=True)
class PreservationReport:
    """Per-property violation summary over sampled instances.

    Orthogonality is tested in both directions: orthogonal input pairs must
    stay orthogonal (forward) and overlapping pairs must stay overlapping
    (backward)."""

    forward_orthogonality_violations: int
    backward_orthogonality_violations: int
    rank_mismatches: int
    affinity_max_violation: float

    def all_preserved(self) -> bool:
        return (
            self.forward_orthogonality_violations == 0
            and self.backward_orthogonality_violations == 0
            and self.rank_mismatches == 0
            and self.affinity_max_violation <= _AFFINITY_TOL
        )


def preservation_suite(
    m: StateMap,
    rng: RngStream | np.random.Generator,
    samples: int = 100,
) -> PreservationReport:
    """Check orthogonality (both directions), rank, and affinity preservation.

    A sample is an orthogonal pair x, y and an overlapping pair a, (a+b)/2
    (from n = 2 on), a rank probe, and a mixture lam*c + (1-lam)*d with its
    ends c and d.  A block of k samples draws its k orthogonal pairs (traces
    in [0.2, 2] on the density cone, 1 on states), then a, b, probe, c and d
    as one stack of 5k operators (3k at n = 1), then the k weights lam.  It
    maps the groups x, y, a, (a+b)/2, probe, mixture, c, d in that order.
    The ranks of the probes and their images are counted on one batched
    ``eigvalsh`` of the 2k stack, and the affinity maximum is kept by
    _max_trace_norm, which decomposes only the violations whose Frobenius
    bound exceeds it."""
    if samples < 1:
        raise InvalidParameter("need at least one sample")
    gen = generator_of(rng)
    n = m.dim
    pairs = n >= 2
    fwd_bad = bwd_bad = rank_bad = 0
    affinity_max = 0.0
    for count in _blocks(samples, n, 8 if pairs else 4):
        if pairs:
            if m.domain is MapDomain.FULL_DENSITY:
                traces = gen.uniform(0.2, 2.0, size=(2, count))
            else:
                traces = np.ones((2, count))
            x, y = _orthogonal_pairs(n, gen, *traces)
            a, b, probe, c, d = np.split(_sample_block(n, gen, m.domain, 5 * count), 5)
        else:
            probe, c, d = np.split(_sample_block(n, gen, m.domain, 3 * count), 3)
        lam = gen.uniform(size=count)[:, None, None]
        groups = [x, y, a, (a + b) / 2.0] if pairs else []
        groups += [probe, lam * c + (1.0 - lam) * d, c, d]
        images = np.split(_map_block(m, np.concatenate(groups)), len(groups))
        if pairs:
            fwd_bad += int(np.count_nonzero(~orthogonality(images[0], images[1])))
            bwd_bad += int(np.count_nonzero(orthogonality(images[2], images[3])))
        f_probe, f_mixture, f_c, f_d = images[-4:]
        both = np.concatenate([probe, f_probe])
        ranks = _ranks(np.linalg.eigvalsh(both), _traces(both))
        rank_bad += int(np.count_nonzero(ranks[:count] != ranks[count:]))
        mix_of_images = lam * f_c + (1.0 - lam) * f_d
        affinity_max = _max_trace_norm(f_mixture - mix_of_images, affinity_max)
    return PreservationReport(
        forward_orthogonality_violations=fwd_bad,
        backward_orthogonality_violations=bwd_bad,
        rank_mismatches=rank_bad,
        affinity_max_violation=affinity_max,
    )


@dataclass(frozen=True)
class ReconstructionResult:
    """Operator recovered from a black-box isometry, with residual evidence."""

    unitary: np.ndarray
    kind: MapKind
    residual: float


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(vec)))
    phase = vec[idx] / abs(vec[idx])
    return vec * phase.conjugate()


def _probe(n: int, j: int) -> tuple[str, np.ndarray]:
    """Label and entries of probe j of the reconstruction schedule."""
    vec = np.zeros(n, dtype=np.complex128)
    if j < n:
        vec[j] = 1.0
        return f"basis:{j}", _projection(vec)
    if j < 2 * n - 1:
        i = j - n + 1
        vec[0] = vec[i] = 1.0 / np.sqrt(2.0)
        return f"superposition:{i}", _projection(vec)
    vec[0], vec[1] = 1.0 / np.sqrt(2.0), 1j / np.sqrt(2.0)
    return "imaginary", _projection(vec)


def probe_count(n: int) -> int:
    """Number of probes in the reconstruction schedule at dimension n."""
    return 2 * n if n >= 2 else 1


def _pure_columns(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Purity certificates of a ``(k, n, n)`` stack of images: for each
    image rho, v is its column at its largest diagonal entry, normalized,
    and rho is certified pure when r = |rho - lam v v*|_F <= _PURITY_TOL/2,
    lam = v* rho v.  Weyl's inequality gives lambda_2(rho) <= |rho - lam v
    v*|_2 <= r, so a certified image is one whose ``eigh`` second eigenvalue,
    computed to O(n*eps*|rho|), is within _PURITY_TOL; v is then its top
    eigenvector up to phase, to within r.  Returns the vectors and the mask of
    certified images; an image whose column is zero is never certified."""
    k, n = arr.shape[:2]
    cols = arr[np.arange(k), :, np.argmax(arr.diagonal(axis1=1, axis2=2).real, axis=1)]
    norms = np.linalg.norm(cols, axis=1)
    vecs = cols / np.where(norms > 0.0, norms, 1.0)[:, None]
    lam = np.sum(vecs.conj() * (arr @ vecs[:, :, None])[:, :, 0], axis=1).real
    residual = arr - lam[:, None, None] * (vecs[:, :, None] * vecs.conj()[:, None, :])
    r = np.linalg.norm(residual.reshape(k, n * n), axis=1)
    return vecs, (norms > 0.0) & (r <= _PURITY_TOL / 2.0)


def _probe_vectors(oracle: StateMap, n: int):
    """Top eigenvector of each probe image, in schedule order.  Probes are
    symmetrized and mapped one block at a time, each block as one entry
    stack; only their images are checked.
    An image certified pure by _pure_columns yields its column v; only the
    others are decomposed, as one stack, and one whose second eigenvalue
    exceeds _PURITY_TOL raises NotImplementable naming its probe (the rest
    yield their top eigenvector).  Every image that ``eigh`` would reject is
    rejected, with the same defect."""
    start = 0
    for count in _blocks(probe_count(n), n, 1):
        labels, probes = zip(*(_probe(n, j) for j in range(start, start + count)))
        start += count
        # a unit vector's v v* is PSD with unit trace by construction, so a
        # probe gets no construction check; it keeps the symmetrization,
        # since v v* is not bit-exact Hermitian where the multiply fuses
        probes = _symmetrized(np.array(probes))
        probes.setflags(write=False)
        images = _map_block(oracle, probes)
        vecs, certified = _pure_columns(images)
        spectra = zip(*_spectra(images[~certified]))
        for label, vec, ok in zip(labels, vecs, certified):
            if ok:
                yield vec
                continue
            lam, eigenvectors = next(spectra)
            defect = float(lam[-2]) if n >= 2 else 0.0
            if defect > _PURITY_TOL:
                raise NotImplementable(
                    f"probe {label} has purity defect {defect:.3e} > {_PURITY_TOL:.1e}",
                    purity_defect=defect,
                    probe=label,
                )
            # a copy, so the column does not keep the block's eigenvectors alive
            yield eigenvectors[:, -1].copy()


def _validation_residual(
    oracle: StateMap, u: np.ndarray, kind: MapKind, n: int, gen: np.random.Generator, samples: int
) -> float:
    """Largest trace distance between the oracle's images of ``samples``
    random states and their conjugation of ``kind`` by the unitary ``u``.
    The conjugation is applied to the states' entries and symmetrized as the
    operator constructor symmetrizes, so each image is bit for bit the
    entries apply_map would build, without a domain check: u was checked
    unitary at assembly.  Each block's differences go to _max_trace_norm
    with the running maximum as floor, so only a difference whose Frobenius
    bound exceeds it is decomposed; the result is bit for bit the maximum
    over every sample."""
    residual = 0.0
    for count in _blocks(samples, n, 1):
        states = _sample_block(n, gen, MapDomain.STATES_ONLY, count)
        images = _symmetrized(_conjugate(u, kind, states))
        residual = _max_trace_norm(_map_block(oracle, states) - images, residual)
    return residual


def reconstruct_implementer(
    oracle: StateMap,
    rng: RngStream | np.random.Generator,
) -> ReconstructionResult:
    """Recover the unitary/antiunitary conjugation implementing an isometry.

    Probe schedule (fixed up front; probe_count(n) probes, plus the
    VALIDATION_SAMPLES validation states):
      1. the n computational basis projections — images must be pure; their
         top eigenvectors are the candidate columns up to phase;
      2. the n-1 real superpositions (e_1 + e_i)/sqrt(2) — image overlaps fix
         each column's phase relative to the first (whose own global phase is
         set by the documented convention);
      3. the imaginary superposition (e_1 + i e_2)/sqrt(2) — its image decides
         unitary versus antiunitary.
    The probes are mapped in blocks of the sample loops' size (one probe a
    block at large n) and each image is checked in schedule order, so the
    first failing probe raises; an oracle sees a whole block before any of its
    images is checked.  An image rho is pure when its second eigenvalue is
    within _PURITY_TOL.  Its column v at its largest diagonal entry,
    normalized, certifies that without ``eigh``: with lam = v* rho v, Weyl's
    inequality bounds lambda_2(rho) by |rho - lam v v*|_F, and a bound
    within _PURITY_TOL/2 leaves room for eigh's own O(n*eps) error.  Such an
    image gives v as its column; any other image is decomposed and judged
    by eigh's second eigenvalue, as the defect a rejection reports.  The
    assembled U is checked unitary, once, and the conjugation it implements
    is validated on random states (_validation_residual); a residual above
    TOL_ACCEPT (or a non-pure probe image) rejects the oracle.  On the
    density cone the oracle must first fix 0 (within _ZERO_TOL in
    trace norm) and preserve the trace.
    """
    n = oracle.dim
    gen = generator_of(rng)
    if oracle.domain is MapDomain.FULL_DENSITY:
        zero_residual = _zero_residual(oracle)
        if zero_residual > _ZERO_TOL:
            raise NotImplementable(
                "map does not fix the zero operator", residual=zero_residual, probe="zero"
            )
        trace_defect = _trace_defect(oracle, gen, samples=25)
        if trace_defect > 1e-8:
            raise NotImplementable(
                "map does not preserve the trace", residual=trace_defect, probe="trace"
            )

    columns, assembled = [], []
    kind = MapKind.UNITARY_CONJ
    for j, w in enumerate(_probe_vectors(oracle, n)):
        if j < n:
            columns.append(w)
            if j == 0:
                assembled.append(_fix_phase(w))
        elif j < 2 * n - 1:
            i = j - n + 1
            a = np.vdot(assembled[0], w)
            b = np.vdot(columns[i], w)
            if min(abs(a), abs(b)) < 1e-3:
                raise NotImplementable(
                    f"superposition probe {i} overlaps are incompatible with an isometry",
                    residual=min(abs(a), abs(b)),
                    probe=f"superposition:{i}",
                )
            phase = b / a
            assembled.append(columns[i] * (phase / abs(phase)))
        else:
            plus = (assembled[0] + 1j * assembled[1]) / np.sqrt(2.0)
            minus = (assembled[0] - 1j * assembled[1]) / np.sqrt(2.0)
            if abs(np.vdot(minus, w)) > abs(np.vdot(plus, w)):
                kind = MapKind.ANTIUNITARY_CONJ

    u = np.column_stack(assembled)
    defect = _unitarity_defect(u, UNITARITY_TOL * n)
    if defect > UNITARITY_TOL * n:
        raise NotImplementable(
            f"assembled columns are not unitary (defect {defect:.3e})",
            residual=defect,
            probe="assembly",
        )
    residual = _validation_residual(oracle, u, kind, n, gen, VALIDATION_SAMPLES)
    if residual > TOL_ACCEPT:
        raise NotImplementable(
            f"validation residual {residual:.3e} exceeds {TOL_ACCEPT:.1e}",
            residual=residual,
            probe="validation",
        )
    return ReconstructionResult(u, kind, residual)


@dataclass(frozen=True)
class RoundtripReport:
    """Outcome of checking a hidden conjugation and recovering it."""

    kind_recovered: MapKind
    #: the largest isometry deviation under each metric the roundtrip measured
    deviations: dict[MetricKind, float]
    overlap: float
    residual: float
    validation_max: float
    passed: bool


def isometry_roundtrip(
    kind: MapKind,
    n: int,
    rng: RngStream | np.random.Generator,
    pairs: int = 300,
    domain: MapDomain = MapDomain.FULL_DENSITY,
    preservation_samples: int = 100,
    metrics: tuple[MetricKind, ...] = (MetricKind.BURES, MetricKind.TRACE_NORM),
    isometry_tol: float = 1e-8,
) -> RoundtripReport:
    """Sample a Haar conjugation of the given kind, hand it to the checks,
    which see it only through its evaluator, and verify: isometry within
    ``isometry_tol`` under each of ``metrics``, in that order, the
    preservation suite, and reconstruction of the kind and of the induced
    map on fresh validation states."""
    if not isinstance(kind, MapKind):
        raise InvalidParameter("roundtrip needs a conjugation kind")
    gen = generator_of(rng)
    # random_unitary has held u_true to the unitarity bound already
    u_true = random_unitary(n, gen)
    hidden = _conjugation(u_true, domain, kind)
    deviations = {metric: check_isometry(hidden, metric, gen, pairs) for metric in metrics}
    preserved = preservation_suite(hidden, gen, samples=preservation_samples).all_preserved()
    recon = reconstruct_implementer(hidden, gen)
    overlap = abs(np.trace(recon.unitary.conj().T @ u_true)) / n
    validation_max = _validation_residual(
        hidden, recon.unitary, recon.kind, n, gen, VALIDATION_SAMPLES
    )
    expected_kind = kind if n >= 2 else MapKind.UNITARY_CONJ
    passed = (
        recon.kind is expected_kind
        and all(dev <= isometry_tol for dev in deviations.values())
        and overlap >= 1.0 - 1e-8
        and validation_max <= TOL_ACCEPT
        and preserved
    )
    return RoundtripReport(
        kind_recovered=recon.kind,
        deviations=deviations,
        overlap=overlap,
        residual=recon.residual,
        validation_max=validation_max,
        passed=passed,
    )


#: the one parameter each named map reads from a map file
_NAMED_PARAM = {"depolarizing": "p", "pinching": "basis", "trace-rescale": "c"}


def statemap_from_json(obj: dict, domain: MapDomain = MapDomain.FULL_DENSITY) -> StateMap:
    """Decode a map file.  Every map needs an integer "dim" >= 1, which a
    conjugation's "U" must match.  A named map takes only its own parameter:
    a number, or a matrix for the pinching basis."""
    if not isinstance(obj, dict):
        raise InvalidParameter("map JSON must be an object")
    kind = obj.get("kind")
    if kind in ("unitary", "antiunitary"):
        dim = _decode_dim(obj.get("dim"))
        u = matrix_from_json(obj["U"])
        if u.shape[0] != dim:
            raise InvalidParameter(f"map dim {dim} disagrees with U of size {u.shape[0]}")
        return _conjugation(_checked_unitary(u), domain, MapKind(kind))
    if kind == "named":
        params = obj.get("params")
        name = params.get("id") if isinstance(params, dict) else None
        if name not in _NAMED_PARAM:
            raise InvalidParameter(f"unknown non-isometry id {name!r}")
        key = _NAMED_PARAM[name]
        extra = sorted(set(params) - {"id", key})
        if extra:
            raise InvalidParameter(f"{name} takes no parameter {extra[0]!r}")
        value = params.get(key)
        if key == "basis":
            value = None if value is None else matrix_from_json(value)
        elif value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise InvalidParameter(f"{name} parameter {key!r} must be a number, got {value!r}")
        return named_nonisometry(name, _decode_dim(obj.get("dim")), domain=domain, **{key: value})
    raise InvalidParameter(f"unknown map kind {kind!r}")
