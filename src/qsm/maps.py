"""Transformations of the density cone and state space.

A StateMap is a unitary conjugation, an antiunitary conjugation (unitary
composed with entrywise conjugation in the computational basis), a named
non-isometry control, or an opaque oracle.  This module checks maps for
isometry and for the preservation properties (trace, orthogonality, rank,
affinity, fixing 0) and reconstructs the implementing operator from a
black-box isometry oracle via a fixed probe schedule.

The sample loops (check_isometry, trace_preservation_check,
preservation_suite and the validation of a reconstruction) run in blocks of
samples.  A block first makes all of its random draws, one sample after
another in the order a one-sample-at-a-time loop makes them, so the
generator stream, and with it every report, is that loop's.  The block's
operators are then built, mapped and measured as ``(k, n, n)`` stacks with
batched kernels.  An oracle stays a black box, called once per operator in
that same order.  A block holds as many samples as keep each stacked operand
within _BLOCK_ENTRIES matrix entries, so at n = 48 or 64 it is one sample.
A failing sample raises once its whole block has been drawn.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    InvalidParameter,
    NotImplementable,
    NotIsometryEvidence,
    NotPositiveSemidefinite,
)
from .linalg import trace_norm_entries
from .metrics import MetricKind, distance, distances, orthogonality
from .serialize import _decode_dim, matrix_to_json, unitary_from_json
from .states import (
    DensityOperator,
    PureState,
    QuantumState,
    RngStream,
    _sampled_stack,
    _unitarity_defect,
    _wishart_entries,
    basis_projection,
    generator_of,
    random_density,
    random_unitary,
    zero_density,
)

#: residual above which a reconstruction is rejected as not implementable.
TOL_ACCEPT = 1e-6

#: cap on the matrix entries of one stacked operand in a sample loop: a block
#: holds as many samples as fit, at least one.  Larger blocks gained no speed
#: and raised peak memory at large n.
_BLOCK_ENTRIES = 800

#: human-readable statement of the output gauge fixing.
PHASE_CONVENTION = (
    "largest-modulus component of the first column made real positive, "
    "ties broken by lowest index"
)


class MapKind(Enum):
    UNITARY_CONJ = "unitary"
    ANTIUNITARY_CONJ = "antiunitary"
    NAMED = "named"
    ORACLE = "oracle"


class MapDomain(Enum):
    FULL_DENSITY = "density"
    STATES_ONLY = "states"


@dataclass(frozen=True)
class StateMap:
    """Tagged transformation of the density cone or the state space."""

    kind: MapKind
    dim: int
    domain: MapDomain
    unitary: np.ndarray | None = None
    name: str | None = None
    params: dict | None = None
    evaluate: Callable[[DensityOperator], DensityOperator] | None = None


def _checked_unitary(u) -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise InvalidParameter(f"unitary must be square, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise InvalidParameter("unitary entries must be finite")
    defect = _unitarity_defect(u)
    if defect > 1e-10 * u.shape[0]:
        raise InvalidParameter(f"matrix is not unitary: defect {defect:.3e}")
    return u


def unitary_conjugation(u, domain: MapDomain = MapDomain.FULL_DENSITY) -> StateMap:
    """The map A -> U A U*."""
    u = _checked_unitary(u)
    return StateMap(MapKind.UNITARY_CONJ, u.shape[0], domain, unitary=u)


def antiunitary_conjugation(u, domain: MapDomain = MapDomain.FULL_DENSITY) -> StateMap:
    """The map A -> U conj(A) U*, conj taken in the computational basis."""
    u = _checked_unitary(u)
    return StateMap(MapKind.ANTIUNITARY_CONJ, u.shape[0], domain, unitary=u)


def oracle_map(
    evaluate: Callable[[DensityOperator], DensityOperator],
    dim: int,
    domain: MapDomain = MapDomain.FULL_DENSITY,
) -> StateMap:
    """Wrap an opaque evaluation as a StateMap."""
    return StateMap(MapKind.ORACLE, dim, domain, evaluate=evaluate)


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
        return StateMap(MapKind.NAMED, dim, domain, name=name, params={"p": float(p)})
    if name == "pinching":
        if basis is None:
            basis_arr = np.eye(dim, dtype=np.complex128)
        else:
            basis_arr = _checked_unitary(basis)
            if basis_arr.shape[0] != dim:
                raise InvalidParameter("pinching basis has the wrong dimension")
        return StateMap(
            MapKind.NAMED, dim, domain, name=name, params={"basis": basis_arr}
        )
    if name == "trace-rescale":
        if c is None or not 0.0 < c < np.inf:
            raise InvalidParameter("trace-rescale needs a finite c > 0")
        if domain is MapDomain.STATES_ONLY and c != 1.0:
            raise InvalidParameter("trace-rescale with c != 1 leaves the state space")
        return StateMap(MapKind.NAMED, dim, domain, name=name, params={"c": float(c)})
    raise InvalidParameter(f"unknown non-isometry id {name!r}")


def _named_action(m: StateMap, arr: np.ndarray) -> np.ndarray:
    """A named map on a ``(k, n, n)`` stack."""
    if m.name == "depolarizing":
        p = m.params["p"]
        tr = np.trace(arr, axis1=1, axis2=2).real
        return (1.0 - p) * arr + (p * tr)[:, None, None] * np.eye(m.dim) / m.dim
    if m.name == "pinching":
        v = m.params["basis"]
        rotated = v.conj().T @ arr @ v
        diagonal = np.zeros_like(rotated)
        idx = np.arange(m.dim)
        diagonal[:, idx, idx] = rotated[:, idx, idx]
        return v @ diagonal @ v.conj().T
    if m.name == "trace-rescale":
        return m.params["c"] * arr
    raise InvalidParameter(f"unknown non-isometry id {m.name!r}")


def _domain_type(domain: MapDomain) -> type[DensityOperator]:
    return QuantumState if domain is MapDomain.STATES_ONLY else DensityOperator


def _map_block(m: StateMap, ops: list[DensityOperator]) -> list[DensityOperator]:
    """apply_map of each operator in order: inputs are checked first, an
    oracle is then evaluated once per operator, and the outputs are checked
    and built as one stack."""
    for a in ops:
        if a.dim != m.dim:
            raise DimensionMismatch(f"map dim {m.dim}, operator dim {a.dim}")
        if m.domain is MapDomain.STATES_ONLY and abs(a.trace - 1.0) > 1e-10:
            raise DomainError("map is declared on states only; input has trace != 1")
    if m.kind is MapKind.ORACLE:
        outs = [m.evaluate(a).entries for a in ops]
        for out in outs:
            if out.shape != (m.dim, m.dim):
                raise DomainError(f"map output has shape {out.shape}, declared dim {m.dim}")
        out = np.array(outs)
    else:
        arr = _entries(ops, 0, 1)
        if m.kind is MapKind.UNITARY_CONJ:
            out = m.unitary @ arr @ m.unitary.conj().T
        elif m.kind is MapKind.ANTIUNITARY_CONJ:
            out = m.unitary @ arr.conj() @ m.unitary.conj().T
        else:
            out = _named_action(m, arr)
    try:
        return _domain_type(m.domain).from_stack(out)
    except (ValueError, NotPositiveSemidefinite) as exc:
        raise DomainError(f"map output left its declared domain: {exc}") from exc


def apply_map(m: StateMap, a: DensityOperator) -> DensityOperator:
    """Evaluate a StateMap.

    The output is built as a DensityOperator (a QuantumState on the states
    domain), whose constructor symmetrizes it and clamps eigenvalues within
    -1e-9*(1+trace) of zero; one decomposition serves both.  Inputs and
    outputs must respect the declared dimension and domain (states stay
    trace-1 within 1e-10); an output that does not raises DomainError."""
    return _map_block(m, [a])[0]


@dataclass(frozen=True)
class IsometryReport:
    metric: MetricKind
    pairs_tested: int
    max_deviation: float
    worst_pair: tuple[DensityOperator, DensityOperator]
    seed: int


def _blocks(total: int, n: int, per_sample: int):
    """Sample counts of the consecutive blocks that cover ``total`` samples
    when each sample stacks ``per_sample`` n x n operators."""
    size = max(1, _BLOCK_ENTRIES // (per_sample * n * n))
    for start in range(0, total, size):
        yield min(size, total - start)


def _draw_sample(n: int, gen: np.random.Generator, domain: MapDomain):
    """The draws of one random operator of the domain, in the order
    random_density and random_state make them: rank, the trace (density cone
    only), then the Ginibre matrix.  Returns (entries, rank, trace), with
    trace None for a state, which random_state builds unchecked."""
    rank = int(gen.integers(1, n + 1))
    if domain is MapDomain.STATES_ONLY:
        return _wishart_entries(n, rank, 1.0, gen), rank, None
    trace = float(gen.uniform(0.2, 2.0))
    return _wishart_entries(n, rank, trace, gen), rank, trace


def _entries(ops: list[DensityOperator], start: int, step: int) -> np.ndarray:
    """Entries of ops[start::step] as one stack."""
    return np.array([op.entries for op in ops[start::step]])


def _sample_block(n: int, gen: np.random.Generator, domain: MapDomain, count: int):
    draws = [_draw_sample(n, gen, domain) for _ in range(count)]
    return _sampled_stack(_domain_type(domain), draws)


def check_isometry(
    m: StateMap,
    metric: MetricKind,
    rng: RngStream | np.random.Generator,
    pairs: int,
) -> IsometryReport:
    """Max |d(phi(A), phi(B)) - d(A, B)| over sampled pairs from the map's
    domain; the worst pair is the first to reach the maximum."""
    if pairs < 1:
        raise InvalidParameter("need at least one pair")
    seed = rng.seed if isinstance(rng, RngStream) else 0
    gen = generator_of(rng)
    worst = 0.0
    worst_pair = None
    for count in _blocks(pairs, m.dim, 2):
        ops = _sample_block(m.dim, gen, m.domain, 2 * count)
        images = _map_block(m, ops)
        deviation = np.abs(
            distances(metric, images[0::2], images[1::2]) - distances(metric, ops[0::2], ops[1::2])
        )
        i = int(np.argmax(deviation))
        if worst_pair is None or deviation[i] > worst:
            worst, worst_pair = float(deviation[i]), (ops[2 * i], ops[2 * i + 1])
    return IsometryReport(metric, pairs, worst, worst_pair, seed)


def zero_fixed_check(
    m: StateMap, metric: MetricKind = MetricKind.TRACE_NORM, tol: float = 1e-8
) -> bool:
    """Whether the map sends the zero operator to (metrically) zero."""
    if m.domain is not MapDomain.FULL_DENSITY:
        raise DomainError("zero_fixed_check needs a map on the full density cone")
    image = apply_map(m, zero_density(m.dim))
    return distance(metric, image, zero_density(m.dim)) <= tol


def trace_preservation_check(
    m: StateMap,
    rng: RngStream | np.random.Generator,
    samples: int = 100,
    tol: float = 1e-9,
) -> bool:
    """Whether tr phi(A) = tr A over sampled densities."""
    if m.domain is not MapDomain.FULL_DENSITY:
        raise DomainError("trace_preservation_check needs the full density cone")
    gen = generator_of(rng)
    worst = 0.0
    for count in _blocks(samples, m.dim, 1):
        ops = _sample_block(m.dim, gen, m.domain, count)
        images = _map_block(m, ops)
        worst = max(worst, max(abs(image.trace - a.trace) for image, a in zip(images, ops)))
    return worst <= tol


@dataclass(frozen=True)
class PreservationReport:
    """Per-property violation summary over sampled instances.

    Orthogonality is tested in both directions: orthogonal input pairs must
    stay orthogonal (forward) and overlapping pairs must stay overlapping
    (backward)."""

    samples: int
    orthogonal_pairs_max_product: float
    forward_orthogonality_violations: int
    overlapping_pairs_min_product: float
    backward_orthogonality_violations: int
    rank_mismatches: int
    affinity_max_violation: float

    def all_preserved(self, affinity_tol: float = 1e-8) -> bool:
        return (
            self.forward_orthogonality_violations == 0
            and self.backward_orthogonality_violations == 0
            and self.rank_mismatches == 0
            and self.affinity_max_violation <= affinity_tol
        )


def _orthogonal_pair_entries(
    n: int, gen: np.random.Generator, domain: MapDomain
) -> tuple[np.ndarray, np.ndarray]:
    """Entries of two random operators supported on complementary subspaces
    of a random frame."""
    v = random_unitary(n, gen)
    k = int(gen.integers(1, n))
    left, right = v[:, :k], v[:, k:]
    tr_x = 1.0 if domain is MapDomain.STATES_ONLY else float(gen.uniform(0.2, 2.0))
    tr_y = 1.0 if domain is MapDomain.STATES_ONLY else float(gen.uniform(0.2, 2.0))
    x = random_density(k, int(gen.integers(1, k + 1)), tr_x, gen)
    y = random_density(n - k, int(gen.integers(1, n - k + 1)), tr_y, gen)
    return left @ x.entries @ left.conj().T, right @ y.entries @ right.conj().T


def preservation_suite(
    m: StateMap,
    rng: RngStream | np.random.Generator,
    samples: int = 100,
) -> PreservationReport:
    """Check orthogonality (both directions), rank, and affinity preservation.

    Each sample maps, in this order: an orthogonal pair x, y and an
    overlapping pair a, (a+b)/2 (from n = 2 on), a rank probe, then a
    mixture lam*c + (1-lam)*d and its ends c and d."""
    gen = generator_of(rng)
    n = m.dim
    pairs = n >= 2
    # drawn per sample: [x, y, a, b,] probe, c, d
    drawn_per, mapped_per = (7, 8) if pairs else (3, 4)
    probe = mapped_per - 4
    fwd_max, fwd_bad = 0.0, 0
    bwd_min, bwd_bad = np.inf, 0
    rank_bad = 0
    affinity_max = 0.0
    for count in _blocks(samples, n, mapped_per):
        draws, lams = [], []
        for _ in range(count):
            if pairs:
                x, y = _orthogonal_pair_entries(n, gen, m.domain)
                draws += [(x, 0, None), (y, 0, None)]
                draws += [_draw_sample(n, gen, m.domain), _draw_sample(n, gen, m.domain)]
            draws.append(_draw_sample(n, gen, m.domain))
            lams.append(float(gen.uniform()))
            draws += [_draw_sample(n, gen, m.domain), _draw_sample(n, gen, m.domain)]
        drawn = _sampled_stack(_domain_type(m.domain), draws)
        lam = np.array(lams)[:, None, None]
        derived = (
            lam * _entries(drawn, drawn_per - 2, drawn_per)
            + (1.0 - lam) * _entries(drawn, drawn_per - 1, drawn_per)
        )
        if pairs:
            overlaps = (_entries(drawn, 2, drawn_per) + _entries(drawn, 3, drawn_per)) / 2.0
            derived = np.concatenate([overlaps, derived])
        derived = _domain_type(m.domain).from_stack(derived)
        mapped = []
        for i in range(count):
            own = drawn[i * drawn_per:(i + 1) * drawn_per]
            if pairs:
                mapped += own[:3] + [derived[i]]
            mapped += [own[-3], derived[i - count], own[-2], own[-1]]
        images = _map_block(m, mapped)
        if pairs:
            norms, orthogonal = orthogonality(images[0::mapped_per], images[1::mapped_per])
            fwd_max = max(fwd_max, float(norms.max()))
            fwd_bad += int(np.count_nonzero(~orthogonal))
            norms, orthogonal = orthogonality(images[2::mapped_per], images[3::mapped_per])
            bwd_min = min(bwd_min, float(norms.min()))
            bwd_bad += int(np.count_nonzero(orthogonal))
        for a, image in zip(mapped[probe::mapped_per], images[probe::mapped_per]):
            if image.rank() != a.rank():
                rank_bad += 1
        mix_of_images = (
            lam * _entries(images, probe + 2, mapped_per)
            + (1.0 - lam) * _entries(images, probe + 3, mapped_per)
        )
        violation = trace_norm_entries(_entries(images, probe + 1, mapped_per) - mix_of_images)
        affinity_max = max(affinity_max, float(violation.max()))
    if not np.isfinite(bwd_min):
        bwd_min = 0.0
    return PreservationReport(
        samples=samples,
        orthogonal_pairs_max_product=fwd_max,
        forward_orthogonality_violations=fwd_bad,
        overlapping_pairs_min_product=float(bwd_min),
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
    phase_convention: str
    validation_samples: int

    def as_map(self, domain: MapDomain = MapDomain.FULL_DENSITY) -> StateMap:
        if self.kind is MapKind.ANTIUNITARY_CONJ:
            return antiunitary_conjugation(self.unitary, domain)
        return unitary_conjugation(self.unitary, domain)


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(vec)))
    phase = vec[idx] / abs(vec[idx])
    return vec * phase.conjugate()


def _pure_image_vector(
    oracle: StateMap, probe: QuantumState, tol: float, label: str
) -> np.ndarray:
    image = apply_map(oracle, probe)
    lam = image.eigenvalues
    defect = float(lam[-2]) if image.dim >= 2 else 0.0
    if defect > tol:
        raise NotIsometryEvidence(
            f"probe {label} has purity defect {defect:.3e} > {tol:.1e}",
            purity_defect=defect,
            probe=label,
        )
    return image.eigenvectors[:, -1]


def _validation_residual(
    oracle: StateMap, recon: StateMap, n: int, gen: np.random.Generator, samples: int
) -> float:
    """Largest trace distance between the oracle's and the reconstruction's
    images of ``samples`` random states."""
    residual = 0.0
    for count in _blocks(samples, n, 1):
        states = _sample_block(n, gen, MapDomain.STATES_ONLY, count)
        found = distances(MetricKind.TRACE_NORM, _map_block(oracle, states), _map_block(recon, states))
        residual = max(residual, float(found.max()))
    return residual


def reconstruct_implementer(
    oracle: StateMap,
    n: int,
    rng: RngStream | np.random.Generator,
    tol: float = 1e-8,
    validation_samples: int = 100,
) -> ReconstructionResult:
    """Recover the unitary/antiunitary conjugation implementing an isometry.

    Probe schedule (fixed up front; 2n probes plus the validation set):
      1. the n computational basis projections — images must be pure; their
         top eigenvectors are the candidate columns up to phase;
      2. the n-1 real superpositions (e_1 + e_i)/sqrt(2) — image overlaps fix
         each column's phase relative to the first (whose own global phase is
         set by the documented convention);
      3. the imaginary superposition (e_1 + i e_2)/sqrt(2) — its image decides
         unitary versus antiunitary.
    The assembled map is validated on random states; a residual above
    TOL_ACCEPT (or a non-pure probe image) rejects the oracle.
    """
    if n != oracle.dim:
        raise DimensionMismatch(f"oracle dim {oracle.dim}, requested {n}")
    gen = generator_of(rng)
    if oracle.domain is MapDomain.FULL_DENSITY:
        zero_image = apply_map(oracle, zero_density(n))
        if zero_image.trace > 1e-8:
            raise NotImplementable(
                "map does not fix the zero operator",
                residual=zero_image.trace,
                probe="zero",
            )
        if not trace_preservation_check(oracle, gen, samples=25, tol=1e-8):
            raise NotImplementable(
                "map does not preserve the trace", residual=np.inf, probe="trace"
            )

    columns = [
        _pure_image_vector(oracle, basis_projection(n, i), tol, f"basis:{i}")
        for i in range(n)
    ]
    first = _fix_phase(columns[0])
    assembled = [first]
    for i in range(1, n):
        vec = np.zeros(n, dtype=np.complex128)
        vec[0] = vec[i] = 1.0 / np.sqrt(2.0)
        w = _pure_image_vector(
            oracle, PureState(vec).as_projection(), tol, f"superposition:{i}"
        )
        a = np.vdot(first, w)
        b = np.vdot(columns[i], w)
        if min(abs(a), abs(b)) < 1e-3:
            raise NotImplementable(
                f"superposition probe {i} overlaps are incompatible with an isometry",
                residual=float(min(abs(a), abs(b))),
                probe=f"superposition:{i}",
            )
        phase = b / a
        assembled.append(columns[i] * (phase / abs(phase)))

    kind = MapKind.UNITARY_CONJ
    if n >= 2:
        vec = np.zeros(n, dtype=np.complex128)
        vec[0], vec[1] = 1.0 / np.sqrt(2.0), 1j / np.sqrt(2.0)
        z = _pure_image_vector(oracle, PureState(vec).as_projection(), tol, "imaginary")
        plus = (assembled[0] + 1j * assembled[1]) / np.sqrt(2.0)
        minus = (assembled[0] - 1j * assembled[1]) / np.sqrt(2.0)
        if abs(np.vdot(minus, z)) > abs(np.vdot(plus, z)):
            kind = MapKind.ANTIUNITARY_CONJ

    u = np.column_stack(assembled)
    defect = _unitarity_defect(u)
    if defect > 1e-10 * n:
        raise NotImplementable(
            f"assembled columns are not unitary (defect {defect:.3e})",
            residual=defect,
            probe="assembly",
        )
    recon = (
        antiunitary_conjugation(u) if kind is MapKind.ANTIUNITARY_CONJ else unitary_conjugation(u)
    )
    residual = _validation_residual(oracle, recon, n, gen, validation_samples)
    if residual > TOL_ACCEPT:
        raise NotImplementable(
            f"validation residual {residual:.3e} exceeds {TOL_ACCEPT:.1e}",
            residual=residual,
            probe="validation",
        )
    return ReconstructionResult(u, kind, residual, PHASE_CONVENTION, validation_samples)


@dataclass(frozen=True)
class RoundtripReport:
    """Outcome of hiding a conjugation behind an oracle and recovering it."""

    dim: int
    kind_requested: MapKind
    kind_recovered: MapKind
    bures_deviation: float
    trace_deviation: float
    overlap: float
    residual: float
    validation_max: float
    properties_preserved: bool
    passed: bool


def isometry_roundtrip(
    kind: MapKind,
    n: int,
    rng: RngStream | np.random.Generator,
    pairs: int = 300,
    validation_samples: int = 100,
    domain: MapDomain = MapDomain.FULL_DENSITY,
    preservation_samples: int = 100,
) -> RoundtripReport:
    """Sample a Haar conjugation of the given kind, wrap it as an opaque
    oracle, and verify: isometry under both metrics, the preservation suite,
    and reconstruction of the kind and of the induced map on fresh
    validation states."""
    if kind not in (MapKind.UNITARY_CONJ, MapKind.ANTIUNITARY_CONJ):
        raise InvalidParameter("roundtrip needs a conjugation kind")
    gen = generator_of(rng)
    u_true = random_unitary(n, gen)
    hidden = (
        unitary_conjugation(u_true, domain)
        if kind is MapKind.UNITARY_CONJ
        else antiunitary_conjugation(u_true, domain)
    )
    oracle = oracle_map(lambda a: apply_map(hidden, a), n, domain)
    bures_dev = check_isometry(oracle, MetricKind.BURES, gen, pairs).max_deviation
    trace_dev = check_isometry(oracle, MetricKind.TRACE_NORM, gen, pairs).max_deviation
    preserved = preservation_suite(oracle, gen, samples=preservation_samples).all_preserved()
    recon = reconstruct_implementer(oracle, n, gen, validation_samples=validation_samples)
    overlap = abs(np.trace(recon.unitary.conj().T @ u_true)) / n
    validation_max = _validation_residual(oracle, recon.as_map(domain), n, gen, validation_samples)
    expected_kind = kind if n >= 2 else MapKind.UNITARY_CONJ
    passed = (
        recon.kind is expected_kind
        and bures_dev <= 1e-8
        and trace_dev <= 1e-8
        and overlap >= 1.0 - 1e-8
        and validation_max <= TOL_ACCEPT
        and preserved
    )
    return RoundtripReport(
        dim=n,
        kind_requested=kind,
        kind_recovered=recon.kind,
        bures_deviation=bures_dev,
        trace_deviation=trace_dev,
        overlap=overlap,
        residual=recon.residual,
        validation_max=validation_max,
        properties_preserved=preserved,
        passed=passed,
    )


def statemap_to_json(m: StateMap) -> dict:
    """Serialize conjugations and named maps (oracles are in-process only)."""
    if m.kind in (MapKind.UNITARY_CONJ, MapKind.ANTIUNITARY_CONJ):
        return {"kind": m.kind.value, "dim": m.dim, "U": matrix_to_json(m.unitary)}
    if m.kind is MapKind.NAMED:
        params = {"id": m.name}
        for key, value in m.params.items():
            params[key] = matrix_to_json(value) if isinstance(value, np.ndarray) else value
        return {"kind": "named", "dim": m.dim, "params": params}
    raise InvalidParameter("oracle maps have no wire format")


#: the one parameter each named map reads from a map file
_NAMED_PARAM = {"depolarizing": "p", "pinching": "basis", "trace-rescale": "c"}


def statemap_from_json(obj: dict, domain: MapDomain = MapDomain.FULL_DENSITY) -> StateMap:
    """Decode a map file.  A named map needs an integer "dim" >= 1 and takes
    only its own parameter: a number, or a matrix for the pinching basis."""
    if not isinstance(obj, dict):
        raise InvalidParameter("map JSON must be an object")
    kind = obj.get("kind")
    if kind == "unitary":
        return unitary_conjugation(unitary_from_json(obj["U"]), domain)
    if kind == "antiunitary":
        return antiunitary_conjugation(unitary_from_json(obj["U"]), domain)
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
            value = None if value is None else unitary_from_json(value)
        elif value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise InvalidParameter(f"{name} parameter {key!r} must be a number, got {value!r}")
        return named_nonisometry(name, _decode_dim(obj.get("dim")), domain=domain, **{key: value})
    raise InvalidParameter(f"unknown map kind {kind!r}")
