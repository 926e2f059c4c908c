"""The blocked sample loops of qsm.maps against one-item-at-a-time
references: each reference draws every block exactly as the library does,
then maps and measures its items one at a time with apply_map and the
per-pair metrics.  Same reports, same reconstructions, the same operators
handed to an oracle in the same order, and the same generator state, bit for
bit."""

import numpy as np
import pytest

import qsm.linalg
import qsm.maps

from qsm.errors import InvalidParameter, NotImplementable
from qsm.linalg import trace_norm_entries
from qsm.maps import (
    TOL_ACCEPT,
    MapDomain,
    MapKind,
    PreservationReport,
    ReconstructionResult,
    RoundtripReport,
    StateMap,
    _conjugation,
    _fix_phase,
    _pure_columns,
    antiunitary_conjugation,
    apply_map,
    check_isometry,
    isometry_roundtrip,
    named_nonisometry,
    oracle_map,
    preservation_suite,
    reconstruct_implementer,
    unitary_conjugation,
)
from qsm.metrics import MetricKind, are_orthogonal, distance, trace_distance
from qsm.states import (
    DensityOperator,
    QuantumState,
    RngStream,
    _orthogonal_pairs,
    _projection,
    _sampled_stack,
    generator_of,
    random_unitary,
    zero_density,
)

# --- reference oracles: the library's block draws, one item at a time -------


def _block_sizes(total, n, per_sample):
    """Sample counts of the library's blocks under the current entry cap."""
    size = max(1, qsm.linalg._BLOCK_ENTRIES // (per_sample * n * n))
    return [min(size, total - start) for start in range(0, total, size)]


def _draw(n, gen, domain, count):
    """A block's random operators: all ranks, then all traces (density cone
    only), then one Wishart stack."""
    ranks = gen.integers(1, n + 1, size=count)
    if domain is MapDomain.STATES_ONLY:
        return QuantumState.from_stack(_sampled_stack(n, gen, ranks, None))
    traces = gen.uniform(0.2, 2.0, size=count)
    return DensityOperator.from_stack(_sampled_stack(n, gen, ranks, traces))


def serial_check_isometry(m, metric, rng, pairs):
    if pairs < 1:
        raise InvalidParameter("need at least one pair")
    gen = generator_of(rng)
    worst = 0.0
    for count in _block_sizes(pairs, m.dim, 2):
        ops = _draw(m.dim, gen, m.domain, 2 * count)
        images = [apply_map(m, a) for a in ops]
        for i in range(count):
            j = count + i
            deviation = abs(
                distance(metric, images[i], images[j]) - distance(metric, ops[i], ops[j])
            )
            worst = max(worst, deviation)
    return worst


def serial_trace_defect(m, rng, samples):
    gen = generator_of(rng)
    worst = 0.0
    for count in _block_sizes(samples, m.dim, 1):
        for a in _draw(m.dim, gen, m.domain, count):
            worst = max(worst, abs(apply_map(m, a).trace - a.trace))
    return worst


def serial_preservation_suite(m, rng, samples=100):
    gen = generator_of(rng)
    n = m.dim
    build = QuantumState if m.domain is MapDomain.STATES_ONLY else DensityOperator
    fwd_bad = bwd_bad = rank_bad = 0
    affinity_max = 0.0
    for count in _block_sizes(samples, n, 8 if n >= 2 else 4):
        groups = []
        if n >= 2:
            if build is QuantumState:
                traces = np.ones((2, count))
            else:
                traces = gen.uniform(0.2, 2.0, size=(2, count))
            groups += [build.from_stack(xs) for xs in _orthogonal_pairs(n, gen, *traces)]
        drawn = _draw(n, gen, m.domain, (5 if n >= 2 else 3) * count)
        drawn = [drawn[i:i + count] for i in range(0, len(drawn), count)]
        lams = gen.uniform(size=count)
        probes, c, d = drawn[-3:]
        if n >= 2:
            a, b = drawn[:2]
            groups += [a, [build((x.entries + y.entries) / 2.0) for x, y in zip(a, b)]]
        mixtures = [
            build(lam * x.entries + (1.0 - lam) * y.entries) for lam, x, y in zip(lams, c, d)
        ]
        groups += [probes, mixtures, c, d]
        images = [[apply_map(m, op) for op in group] for group in groups]
        for i in range(count):
            if n >= 2:
                fx, fy, fa, fo = (group[i] for group in images[:4])
                if not are_orthogonal(fx, fy):
                    fwd_bad += 1
                if are_orthogonal(fa, fo):
                    bwd_bad += 1
            f_probe, f_mix, fc, fd = (group[i] for group in images[-4:])
            if f_probe.rank() != probes[i].rank():
                rank_bad += 1
            mix_of_images = lams[i] * fc.entries + (1.0 - lams[i]) * fd.entries
            affinity_max = max(
                affinity_max,
                float(trace_norm_entries(f_mix.entries - mix_of_images)),
            )
    return PreservationReport(
        forward_orthogonality_violations=fwd_bad,
        backward_orthogonality_violations=bwd_bad,
        rank_mismatches=rank_bad,
        affinity_max_violation=affinity_max,
    )


def serial_validation_residual(oracle, recon, n, gen, samples):
    residual = 0.0
    for count in _block_sizes(samples, n, 1):
        for state in _draw(n, gen, MapDomain.STATES_ONLY, count):
            residual = max(
                residual, trace_distance(apply_map(oracle, state), apply_map(recon, state))
            )
    return residual


def _pure_image_vector(oracle, probe, tol, label):
    image = apply_map(oracle, probe)
    vecs, certified = _pure_columns(image.entries[None])
    if certified[0]:
        return vecs[0]
    (lam,), (vec,) = image.spectrum()
    defect = float(lam[-2]) if image.dim >= 2 else 0.0
    if defect > tol:
        raise NotImplementable(
            f"probe {label} has purity defect {defect:.3e} > {tol:.1e}",
            purity_defect=defect,
            probe=label,
        )
    return vec[:, -1].copy()


def serial_reconstruct_implementer(oracle, rng, validation_samples=100, tol=1e-8):
    n = oracle.dim
    gen = generator_of(rng)
    if oracle.domain is MapDomain.FULL_DENSITY:
        zero = zero_density(n)
        zero_residual = distance(MetricKind.TRACE_NORM, apply_map(oracle, zero), zero)
        if zero_residual > 1e-8:
            raise NotImplementable(
                "map does not fix the zero operator",
                residual=zero_residual,
                probe="zero",
            )
        trace_defect = serial_trace_defect(oracle, gen, samples=25)
        if trace_defect > 1e-8:
            raise NotImplementable(
                "map does not preserve the trace", residual=trace_defect, probe="trace"
            )

    columns = [
        _pure_image_vector(oracle, QuantumState(_projection(np.eye(n)[i])), tol, f"basis:{i}")
        for i in range(n)
    ]
    first = _fix_phase(columns[0])
    assembled = [first]
    for i in range(1, n):
        vec = np.zeros(n, dtype=np.complex128)
        vec[0] = vec[i] = 1.0 / np.sqrt(2.0)
        w = _pure_image_vector(oracle, QuantumState(_projection(vec)), tol, f"superposition:{i}")
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
        z = _pure_image_vector(oracle, QuantumState(_projection(vec)), tol, "imaginary")
        plus = (assembled[0] + 1j * assembled[1]) / np.sqrt(2.0)
        minus = (assembled[0] - 1j * assembled[1]) / np.sqrt(2.0)
        if abs(np.vdot(minus, z)) > abs(np.vdot(plus, z)):
            kind = MapKind.ANTIUNITARY_CONJ

    u = np.column_stack(assembled)
    defect = float(trace_norm_entries(u @ u.conj().T - np.eye(n)))
    if defect > 1e-10 * n:
        raise NotImplementable(
            f"assembled columns are not unitary (defect {defect:.3e})",
            residual=defect,
            probe="assembly",
        )
    recon = (
        antiunitary_conjugation(u) if kind is MapKind.ANTIUNITARY_CONJ else unitary_conjugation(u)
    )
    residual = serial_validation_residual(oracle, recon, n, gen, validation_samples)
    if residual > TOL_ACCEPT:
        raise NotImplementable(
            f"validation residual {residual:.3e} exceeds {TOL_ACCEPT:.1e}",
            residual=residual,
            probe="validation",
        )
    return ReconstructionResult(u, kind, residual)


def serial_isometry_roundtrip(kind, n, rng, pairs, validation_samples, domain,
                              preservation_samples, seen=None,
                              metrics=(MetricKind.BURES, MetricKind.TRACE_NORM)):
    """The serial roundtrip, which maps one operator at a time through the
    hidden conjugation itself and measures the deviation of each of
    ``metrics``; ``seen``, if given, collects every operator the hidden map
    is handed."""
    gen = generator_of(rng)
    u_true = random_unitary(n, gen)
    hidden = (
        unitary_conjugation(u_true, domain)
        if kind is MapKind.UNITARY_CONJ
        else antiunitary_conjugation(u_true, domain)
    )

    def evaluate(arr):
        if seen is not None:
            seen.extend(x.copy() for x in arr)
        return hidden.evaluate(arr)

    oracle = StateMap(n, domain, evaluate)
    deviations = {}
    for metric in metrics:
        deviations[metric] = serial_check_isometry(oracle, metric, gen, pairs)
    preserved = serial_preservation_suite(
        oracle, gen, samples=preservation_samples
    ).all_preserved()
    recon = serial_reconstruct_implementer(oracle, gen, validation_samples=validation_samples)
    overlap = abs(np.trace(recon.unitary.conj().T @ u_true)) / n
    validation_max = serial_validation_residual(
        oracle, _conjugation(recon.unitary, domain, recon.kind), n, gen, validation_samples
    )
    expected_kind = kind if n >= 2 else MapKind.UNITARY_CONJ
    passed = (
        recon.kind is expected_kind
        and max(deviations.values(), default=0.0) <= 1e-8
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


# --- the comparisons -----------------------------------------------------------

#: n = 12 and 16 are where the entry cap shrinks a block to a few samples
DIMS = [1, 2, 3, 4, 5, 6, 7, 8, 12, 16]
DOMAINS = [MapDomain.FULL_DENSITY, MapDomain.STATES_ONLY]
MAP_NAMES = ["unitary", "antiunitary", "oracle", "depolarizing", "pinching"]

#: a smaller entry cap for the per-loop tests, so that every dimension runs
#: several blocks in few samples; the roundtrip test keeps the real cap
SMALL_CAP = 100


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(qsm.linalg, "_BLOCK_ENTRIES", SMALL_CAP)


def _count(n, per_sample):
    """Two full blocks plus one sample: never a multiple of the block."""
    return 2 * max(1, SMALL_CAP // (per_sample * n * n)) + 1


class RecordingOracle:
    """An oracle hiding an antiunitary conjugation that keeps every input."""

    def __init__(self, n, domain):
        self.hidden = antiunitary_conjugation(random_unitary(n, RngStream(98, n)), domain)
        self.seen = []

    def __call__(self, a):
        self.seen.append(a.entries.copy())
        return apply_map(self.hidden, a)


class BlockRecordingOracle(RecordingOracle):
    """The same oracle as a block evaluator: it is handed whole blocks,
    keeps every input and the size of each block, and returns the entries of
    the operators the hidden conjugation builds, as the per-operator oracle
    does."""

    def __init__(self, n, domain):
        super().__init__(n, domain)
        self.blocks = []

    def __call__(self, arr):
        self.blocks.append(len(arr))
        self.seen += [x.copy() for x in arr]
        return qsm.maps._map_block(self.hidden, arr)


class OffBasisSwapOracle:
    """U A U* on diagonal inputs, U P A P U* on all others, with P swapping
    e_1 and e_n: every probe image is pure and the trace is kept, but the
    first superposition image is orthogonal to the first column (n >= 3)."""

    def __init__(self, n):
        self.u = random_unitary(n, RngStream(97, n))
        self.swap = np.eye(n)[[n - 1] + list(range(1, n - 1)) + [0]]

    def __call__(self, a):
        x = a.entries
        if np.count_nonzero(x - np.diag(np.diag(x))):
            x = self.swap @ x @ self.swap
        return type(a)(self.u @ x @ self.u.conj().T)


def _sharpened(u, delta=1e-5):
    """rho -> U((1 - d) rho + d tr(rho) rho^2 / tr(rho^2)) U*: it fixes 0,
    the trace and every pure probe, so only the validation rejects it (the
    oracle of test_maps' test_sharpened_conjugation_rejected_at_validation)."""

    def sharpen(a):
        if a.trace == 0.0:
            return a
        square = a.entries @ a.entries
        mixed = (1.0 - delta) * a.entries + delta * a.trace * square / np.trace(square).real
        return DensityOperator(u @ mixed @ u.conj().T)

    return sharpen


def _map(name, n, domain):
    """The map under test and, for an oracle, the recorder behind it."""
    u = random_unitary(n, RngStream(99, n))
    if name == "unitary":
        return unitary_conjugation(u, domain), None
    if name == "antiunitary":
        return antiunitary_conjugation(u, domain), None
    if name == "oracle":
        recorder = RecordingOracle(n, domain)
        return oracle_map(recorder, n, domain), recorder
    if name == "depolarizing":
        return named_nonisometry("depolarizing", n, p=0.3, domain=domain), None
    if name == "pinching":
        return named_nonisometry("pinching", n, basis=u, domain=domain), None
    if name == "trace-rescale":
        return named_nonisometry("trace-rescale", n, c=2.0, domain=domain), None
    # the controls as `qsm reconstruct --builtin` builds them
    if name == "pinching:builtin":
        return named_nonisometry("pinching", n, domain=domain), None
    if name == "depolarizing:0.5":
        return named_nonisometry("depolarizing", n, p=0.5, domain=domain), None
    if name == "sharpened":
        return oracle_map(_sharpened(u), n, domain), None
    if name == "off-basis-swap":
        recorder = RecordingOracle(n, domain)
        recorder.hidden = oracle_map(OffBasisSwapOracle(n), n, domain)
        return oracle_map(recorder, n, domain), recorder
    raise ValueError(name)


def _run_both(name, n, domain, call):
    """Run ``call(map, generator)`` on the serial reference's side and the
    blocked side with twin generators; hand back both results after checking
    the generators and what any oracle saw."""
    results, gens, seen = [], [], []
    for side in (0, 1):
        m, recorder = _map(name, n, domain)
        gen = RngStream(7, 100 + n).generator()
        try:
            results.append(call(side, m, gen))
        except NotImplementable as exc:
            results.append((type(exc), str(exc), vars(exc)))
        gens.append(gen)
        seen.append(recorder.seen if recorder else [])
    assert gens[1].bit_generator.state == gens[0].bit_generator.state
    if isinstance(results[0], tuple):
        # a rejection stops the serial side at the failing operator; the
        # blocked side has mapped the rest of that block too
        assert len(seen[1]) >= len(seen[0])
    else:
        assert len(seen[1]) == len(seen[0])
    assert all(np.array_equal(x, y) for x, y in zip(seen[0], seen[1]))
    return results


@pytest.mark.parametrize("metric", [MetricKind.BURES, MetricKind.TRACE_NORM])
@pytest.mark.parametrize("name", MAP_NAMES)
@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("n", DIMS)
@pytest.mark.usefixtures("small_blocks")
def test_check_isometry_matches_serial_loop(n, domain, name, metric):
    pairs = _count(n, 2)
    serial, blocked = _run_both(
        name, n, domain,
        lambda side, m, gen: (check_isometry if side else serial_check_isometry)(
            m, metric, gen, pairs),
    )
    assert blocked == serial


@pytest.mark.parametrize("name", MAP_NAMES + ["trace-rescale"])
@pytest.mark.parametrize("n", DIMS)
@pytest.mark.usefixtures("small_blocks")
def test_trace_preservation_matches_serial_loop(n, name):
    samples = _count(n, 1)
    serial, blocked = _run_both(
        name, n, MapDomain.FULL_DENSITY,
        lambda side, m, gen: (qsm.maps._trace_defect if side else serial_trace_defect)(
            m, gen, samples),
    )
    assert blocked == serial
    assert (blocked <= 1e-9) is (name != "trace-rescale")


@pytest.mark.parametrize("name", MAP_NAMES)
@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("n", DIMS)
@pytest.mark.usefixtures("small_blocks")
def test_preservation_suite_matches_serial_loop(n, domain, name):
    samples = _count(n, 8 if n >= 2 else 4)
    serial, blocked = _run_both(
        name, n, domain,
        lambda side, m, gen: (preservation_suite if side else serial_preservation_suite)(
            m, gen, samples),
    )
    assert blocked == serial


@pytest.mark.parametrize("name", MAP_NAMES)
@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("n", DIMS)
@pytest.mark.usefixtures("small_blocks")
def test_reconstruction_matches_serial_loop(n, domain, name, monkeypatch):
    samples = _count(n, 1)
    monkeypatch.setattr(qsm.maps, "VALIDATION_SAMPLES", samples)
    serial, blocked = _run_both(
        name, n, domain,
        lambda side, m, gen: (reconstruct_implementer(m, gen) if side
                              else serial_reconstruct_implementer(m, gen, samples)),
    )
    if isinstance(serial, tuple):
        assert blocked == serial
        return
    assert np.array_equal(blocked.unitary, serial.unitary)
    assert blocked.kind is serial.kind
    assert blocked.residual == serial.residual


@pytest.mark.parametrize("kind", [MapKind.UNITARY_CONJ, MapKind.ANTIUNITARY_CONJ])
@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("n", DIMS)
def test_roundtrip_matches_serial_loop(n, domain, kind, monkeypatch):
    monkeypatch.setattr(qsm.maps, "VALIDATION_SAMPLES", 9)
    settings = dict(pairs=13, domain=domain, preservation_samples=5)
    serial_gen = RngStream(11, n).generator()
    blocked_gen = RngStream(11, n).generator()
    serial = serial_isometry_roundtrip(kind, n, serial_gen, validation_samples=9, **settings)
    blocked = isometry_roundtrip(kind, n, blocked_gen, **settings)
    assert blocked == serial
    assert blocked.passed
    assert blocked_gen.bit_generator.state == serial_gen.bit_generator.state


@pytest.mark.parametrize("metric", [MetricKind.BURES, MetricKind.TRACE_NORM])
@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_one_metric_roundtrip_matches_serial_loop(n, metric, monkeypatch):
    # a theorem suite's roundtrip: only its own metric is measured or reported
    monkeypatch.setattr(qsm.maps, "VALIDATION_SAMPLES", 9)
    settings = dict(pairs=13, domain=MapDomain.FULL_DENSITY, preservation_samples=5)
    serial_gen = RngStream(12, n).generator()
    blocked_gen = RngStream(12, n).generator()
    serial = serial_isometry_roundtrip(MapKind.UNITARY_CONJ, n, serial_gen, validation_samples=9,
                                       metrics=(metric,), **settings)
    blocked = isometry_roundtrip(MapKind.UNITARY_CONJ, n, blocked_gen, metrics=(metric,),
                                 **settings)
    assert blocked == serial
    assert blocked.passed
    assert list(blocked.deviations) == [metric]
    assert blocked_gen.bit_generator.state == serial_gen.bit_generator.state


# --- block oracles against per-operator oracles ------------------------------

#: probes per block in the lowered-cap runs: blocks end inside the basis
#: probes and inside the superpositions
PER_BLOCK = 3


def _assert_same_reconstruction(got, want):
    assert np.array_equal(got.unitary, want.unitary)
    assert got.kind is want.kind
    assert got.residual == want.residual


@pytest.mark.parametrize("lowered", [False, True], ids=["cap", "lowered-cap"])
@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_block_oracle_reconstruction_matches_per_operator_oracle(n, domain, lowered, monkeypatch):
    if lowered:
        monkeypatch.setattr(qsm.linalg, "_BLOCK_ENTRIES", PER_BLOCK * n * n)
    monkeypatch.setattr(qsm.maps, "VALIDATION_SAMPLES", 7)
    single, block = RecordingOracle(n, domain), BlockRecordingOracle(n, domain)
    gens = [RngStream(5, n).generator() for _ in range(2)]
    want = reconstruct_implementer(oracle_map(single, n, domain), gens[0])
    got = reconstruct_implementer(StateMap(n, domain, block), gens[1])
    _assert_same_reconstruction(got, want)
    assert gens[1].bit_generator.state == gens[0].bit_generator.state
    assert len(block.seen) == len(single.seen)
    assert all(np.array_equal(x, y) for x, y in zip(block.seen, single.seen))
    if lowered and domain is MapDomain.STATES_ONLY:
        # nothing comes before the probes on the states domain
        probes = 2 * n if n >= 2 else 1
        chunks = [min(PER_BLOCK, probes - start) for start in range(0, probes, PER_BLOCK)]
        assert block.blocks[:len(chunks)] == chunks


@pytest.mark.parametrize("lowered", [False, True], ids=["cap", "lowered-cap"])
@pytest.mark.parametrize("kind", [MapKind.UNITARY_CONJ, MapKind.ANTIUNITARY_CONJ])
@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_roundtrip_block_oracle_sees_per_operator_sequence(n, domain, kind, lowered,
                                                           monkeypatch):
    if lowered:
        monkeypatch.setattr(qsm.linalg, "_BLOCK_ENTRIES", PER_BLOCK * n * n)
    monkeypatch.setattr(qsm.maps, "VALIDATION_SAMPLES", 5)
    settings = dict(pairs=7, domain=domain, preservation_samples=3)
    serial_gen, blocked_gen = RngStream(13, n).generator(), RngStream(13, n).generator()
    per_operator = []
    serial = serial_isometry_roundtrip(kind, n, serial_gen, validation_samples=5,
                                       seen=per_operator, **settings)

    # the roundtrip's first map is its hidden conjugation; pick it out by identity
    built, blocks = [], []
    conjugation, map_block = qsm.maps._conjugation, qsm.maps._map_block

    def building(*args):
        built.append(conjugation(*args))
        return built[-1]

    def recording(m, arr):
        if m is built[0]:
            blocks.append([x.copy() for x in arr])
        return map_block(m, arr)

    monkeypatch.setattr(qsm.maps, "_conjugation", building)
    monkeypatch.setattr(qsm.maps, "_map_block", recording)
    blocked = isometry_roundtrip(kind, n, blocked_gen, **settings)
    seen = [x for block in blocks for x in block]
    assert blocked == serial
    assert blocked.passed
    assert blocked_gen.bit_generator.state == serial_gen.bit_generator.state
    assert len(seen) == len(per_operator)
    assert all(np.array_equal(x, y) for x, y in zip(seen, per_operator))
    assert len(blocks) < len(seen)


#: (control, domain, dims): trace-rescale with c != 1 is no map of the state
#: space, and at n = 2 every pure image overlaps one of two orthogonal columns
REJECTED = [
    (name, domain, n)
    for name, domains, dims in [
        ("pinching:builtin", DOMAINS, range(2, 10)),
        ("depolarizing:0.5", DOMAINS, range(2, 10)),
        ("trace-rescale", [MapDomain.FULL_DENSITY], range(2, 10)),
        ("off-basis-swap", DOMAINS, range(3, 10)),
    ]
    for domain in domains
    for n in dims
]


@pytest.mark.parametrize("lowered", [False, True], ids=["cap", "lowered-cap"])
@pytest.mark.parametrize("name, domain, n", REJECTED)
def test_rejection_matches_serial_loop(n, name, domain, lowered, monkeypatch):
    if lowered:
        monkeypatch.setattr(qsm.linalg, "_BLOCK_ENTRIES", PER_BLOCK * n * n)
    monkeypatch.setattr(qsm.maps, "VALIDATION_SAMPLES", 5)
    serial, blocked = _run_both(
        name, n, domain,
        lambda side, m, gen: (reconstruct_implementer(m, gen) if side
                              else serial_reconstruct_implementer(m, gen, 5)),
    )
    assert isinstance(serial, tuple)
    assert blocked == serial
    if name == "off-basis-swap":
        assert serial[2]["probe"] == "superposition:1"


def test_sharpened_rejection_matches_serial_loop_at_large_n():
    """At n = 48 the validation states come in blocks of two and the
    Frobenius certificate leaves most of them undecomposed; the rejection
    still reports the residual of the serial loop over every state."""
    n = 48
    assert _block_sizes(qsm.maps.VALIDATION_SAMPLES, n, 1)[0] == 2
    serial, blocked = _run_both(
        "sharpened", n, MapDomain.FULL_DENSITY,
        lambda side, m, gen: (reconstruct_implementer if side
                              else serial_reconstruct_implementer)(m, gen),
    )
    assert blocked == serial
    assert serial[2]["probe"] == "validation"
    assert TOL_ACCEPT < serial[2]["evidence"]["residual"] < 1e-5
