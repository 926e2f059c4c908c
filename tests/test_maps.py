"""StateMap tests: conjugations, named controls, isometry checks,
preservation suite, reconstruction, roundtrips, serialization."""

import numpy as np
import pytest

import qsm.geometry
import qsm.linalg
import qsm.maps
import qsm.states
import qsm.suites
from qsm.errors import (
    DimensionMismatch,
    DomainError,
    InvalidParameter,
    NotImplementable,
)
from qsm.maps import (
    TOL_ACCEPT,
    VALIDATION_SAMPLES,
    MapDomain,
    MapKind,
    StateMap,
    antiunitary_conjugation,
    apply_map,
    check_isometry,
    isometry_roundtrip,
    named_nonisometry,
    oracle_map,
    preservation_suite,
    reconstruct_implementer,
    statemap_from_json,
    trace_preservation_check,
    unitary_conjugation,
    zero_fixed_check,
)
from qsm.metrics import MetricKind, trace_distance
from qsm.serialize import matrix_to_json
from qsm.states import (
    DensityOperator,
    RngStream,
    basis_projection,
    random_density,
    random_state,
    random_unitary,
    zero_density,
)

COHERENT = DensityOperator(np.full((2, 2), 0.5))


class TestApplyMap:
    def test_identity(self):
        m = unitary_conjugation(np.eye(3))
        a = random_density(3, 2, 1.2, RngStream(1))
        assert np.allclose(apply_map(m, a).entries, a.entries, atol=1e-14)

    def test_antiunitary_identity_is_transpose(self):
        m = antiunitary_conjugation(np.eye(2))
        a = random_density(2, 2, 1.0, RngStream(2))
        assert np.allclose(apply_map(m, a).entries, a.entries.T, atol=1e-14)

    def test_unitary_preserves_eigenvalues(self):
        u = random_unitary(4, RngStream(3))
        m = unitary_conjugation(u)
        a = random_density(4, 3, 1.5, RngStream(4))
        assert np.allclose(apply_map(m, a).spectrum()[0], a.spectrum()[0], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_map(unitary_conjugation(np.eye(2)), zero_density(3))

    def test_states_domain_rejects_non_state(self):
        m = unitary_conjugation(np.eye(2), MapDomain.STATES_ONLY)
        with pytest.raises(DomainError):
            apply_map(m, DensityOperator(np.diag([0.4, 0.4])))

    def test_non_unitary_rejected(self):
        with pytest.raises(InvalidParameter):
            unitary_conjugation(np.diag([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_unitary_rejected(self, bad):
        # a NaN defect compares False against the unitarity tolerance
        u = np.eye(2, dtype=complex)
        u[0, 0] = bad
        with pytest.raises(InvalidParameter):
            unitary_conjugation(u)
        with pytest.raises(InvalidParameter):
            antiunitary_conjugation(u)
        with pytest.raises(InvalidParameter):
            named_nonisometry("pinching", 2, basis=u)

    def test_oracle_output_of_wrong_dimension_rejected(self):
        m = oracle_map(lambda a: zero_density(3), 2)
        with pytest.raises(DomainError):
            apply_map(m, random_density(2, 1, 1.0, RngStream(6)))

    @pytest.mark.parametrize("surplus", [-1, 1])
    def test_block_oracle_image_count_must_match(self, surplus):
        hidden = unitary_conjugation(random_unitary(2, RngStream(7)))

        def evaluate(arr):
            images = list(hidden.evaluate(arr))
            return images[:surplus] if surplus < 0 else images + images[:surplus]

        m = StateMap(2, MapDomain.FULL_DENSITY, evaluate)
        with pytest.raises(DomainError):
            apply_map(m, random_density(2, 1, 1.0, RngStream(8)))
        with pytest.raises(DomainError):
            check_isometry(m, MetricKind.TRACE_NORM, RngStream(9), 5)


    def test_block_images_of_mixed_shapes_rejected(self):
        m = StateMap(2, MapDomain.FULL_DENSITY, lambda arr: [np.eye(2), np.eye(3)])
        ops = [random_density(2, 1, 1.0, RngStream(10)) for _ in range(2)]
        with pytest.raises(DomainError):
            qsm.maps._map_block(m, np.array([a.entries for a in ops]))


class TestNamedMaps:
    def test_depolarizing_zero_is_identity(self):
        m = named_nonisometry("depolarizing", 2, p=0.0)
        a = random_density(2, 1, 1.0, RngStream(5))
        assert np.allclose(apply_map(m, a).entries, a.entries, atol=1e-14)

    def test_depolarizing_halves_pure_distance(self):
        m = named_nonisometry("depolarizing", 2, p=0.5)
        p, q = basis_projection(2, 0), basis_projection(2, 1)
        # Phi(P) - Phi(Q) = (P - Q) / 2, so the distance halves: deviation 1
        assert trace_distance(apply_map(m, p), apply_map(m, q)) == pytest.approx(1.0, abs=1e-12)

    def test_pinching_flattens_coherences(self):
        m = named_nonisometry("pinching", 2)
        out = apply_map(m, COHERENT)
        assert np.allclose(out.entries, np.diag([0.5, 0.5]), atol=1e-14)

    def test_trace_rescale(self):
        m = named_nonisometry("trace-rescale", 2, c=2.0)
        a = random_density(2, 2, 0.7, RngStream(6))
        assert apply_map(m, a).trace == pytest.approx(1.4, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            named_nonisometry("depolarizing", 2, p=1.5)
        with pytest.raises(InvalidParameter):
            named_nonisometry("trace-rescale", 2, c=0.0)
        with pytest.raises(InvalidParameter):
            named_nonisometry("trace-rescale", 2, c=np.inf)
        with pytest.raises(InvalidParameter):
            named_nonisometry("trace-rescale", 2, c=2.0, domain=MapDomain.STATES_ONLY)
        with pytest.raises(InvalidParameter):
            named_nonisometry("unknown-map", 2)


class TestCheckIsometry:
    @pytest.mark.parametrize("metric", [MetricKind.BURES, MetricKind.TRACE_NORM])
    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_conjugations_are_isometries(self, metric, n):
        gen = RngStream(10, n).generator()
        u = random_unitary(n, gen)
        for build in (unitary_conjugation, antiunitary_conjugation):
            assert check_isometry(build(u), metric, gen, 1000) <= 1e-8

    def test_depolarizing_deviates_strongly(self):
        m = named_nonisometry("depolarizing", 2, p=0.5)
        assert check_isometry(m, MetricKind.TRACE_NORM, RngStream(11), 1000) >= 0.5

    def test_deterministic_given_stream(self):
        m = unitary_conjugation(random_unitary(3, RngStream(12)))
        r1 = check_isometry(m, MetricKind.BURES, RngStream(13), 50)
        r2 = check_isometry(m, MetricKind.BURES, RngStream(13), 50)
        assert r1 == r2


class TestReductionChecks:
    def test_conjugations_fix_zero(self):
        u = random_unitary(3, RngStream(14))
        assert zero_fixed_check(unitary_conjugation(u))
        assert zero_fixed_check(antiunitary_conjugation(u), MetricKind.BURES)

    def test_shifted_map_moves_zero(self):
        shift = random_state(2, 2, RngStream(15))
        m = oracle_map(
            lambda a: DensityOperator(2.0 * a.entries + shift.entries), 2
        )
        assert not zero_fixed_check(m)

    def test_trace_preservation(self):
        u = random_unitary(3, RngStream(16))
        assert trace_preservation_check(unitary_conjugation(u), RngStream(17))
        rescale = named_nonisometry("trace-rescale", 3, c=2.0)
        assert not trace_preservation_check(rescale, RngStream(18))
        # depolarizing preserves the trace yet is not an isometry
        depol = named_nonisometry("depolarizing", 3, p=0.5)
        assert trace_preservation_check(depol, RngStream(19))

    @pytest.mark.parametrize("samples", [0, -3])
    def test_trace_preservation_needs_a_sample(self, samples):
        # no sample would pass any map, trace-rescale by 2 included
        rescale = named_nonisometry("trace-rescale", 3, c=2.0)
        with pytest.raises(InvalidParameter):
            trace_preservation_check(rescale, RngStream(18), samples=samples)

    def test_states_domain_rejected(self):
        m = unitary_conjugation(np.eye(2), MapDomain.STATES_ONLY)
        with pytest.raises(DomainError):
            zero_fixed_check(m)


class TestPreservationSuite:
    @pytest.mark.parametrize("domain", [MapDomain.FULL_DENSITY, MapDomain.STATES_ONLY])
    def test_conjugation_preserves_everything(self, domain):
        u = random_unitary(3, RngStream(20))
        report = preservation_suite(antiunitary_conjugation(u, domain), RngStream(21), samples=60)
        assert report.all_preserved(1e-8)

    def test_pinching_breaks_orthogonality_or_rank(self):
        report = preservation_suite(named_nonisometry("pinching", 2), RngStream(22), samples=60)
        assert report.forward_orthogonality_violations > 0 or report.rank_mismatches > 0
        # direct rank oracle: the coherent pure state pinches to full rank
        assert apply_map(named_nonisometry("pinching", 2), COHERENT).rank() == 2

    def test_depolarizing_breaks_rank(self):
        report = preservation_suite(
            named_nonisometry("depolarizing", 3, p=0.5), RngStream(23), samples=60
        )
        assert report.rank_mismatches > 0
        assert report.affinity_max_violation <= 1e-10  # the channel is affine

    @pytest.mark.parametrize("samples", [0, -3])
    def test_needs_a_sample(self, samples):
        # no sample would report every property of depolarizing preserved
        depol = named_nonisometry("depolarizing", 3, p=0.5)
        with pytest.raises(InvalidParameter):
            preservation_suite(depol, RngStream(23), samples=samples)


class TestReconstruction:
    def test_identity_oracle(self):
        result = reconstruct_implementer(unitary_conjugation(np.eye(3)), RngStream(30))
        assert result.kind is MapKind.UNITARY_CONJ
        assert result.residual <= 1e-10
        assert np.allclose(np.abs(result.unitary), np.eye(3), atol=1e-10)

    def test_transpose_oracle(self):
        result = reconstruct_implementer(antiunitary_conjugation(np.eye(3)), RngStream(31))
        assert result.kind is MapKind.ANTIUNITARY_CONJ
        assert np.allclose(np.abs(result.unitary), np.eye(3), atol=1e-10)

    def test_haar_roundtrip_overlap(self):
        u = random_unitary(4, RngStream(32))
        result = reconstruct_implementer(unitary_conjugation(u), RngStream(33))
        assert result.kind is MapKind.UNITARY_CONJ
        assert abs(np.trace(result.unitary.conj().T @ u)) / 4 >= 1.0 - 1e-8
        assert result.residual <= 1e-8

    def test_phase_gauge_invariance(self):
        u = random_unitary(3, RngStream(34))
        base = reconstruct_implementer(unitary_conjugation(u), RngStream(35))
        rotated = reconstruct_implementer(unitary_conjugation(np.exp(0.7j) * u), RngStream(35))
        assert rotated.kind is base.kind
        assert rotated.residual == pytest.approx(base.residual, abs=1e-12)
        # identical induced maps even though the matrices may differ by phase
        probe = random_state(3, 2, RngStream(36))
        induced = [
            qsm.maps._conjugation(result.unitary, MapDomain.FULL_DENSITY, result.kind)
            for result in (base, rotated)
        ]
        assert np.allclose(
            apply_map(induced[0], probe).entries,
            apply_map(induced[1], probe).entries,
            atol=1e-10,
        )

    def test_dim_one(self):
        result = reconstruct_implementer(unitary_conjugation(np.eye(1)), RngStream(37))
        assert result.kind is MapKind.UNITARY_CONJ
        assert result.residual <= 1e-12

    def test_depolarizing_rejected(self):
        with pytest.raises(NotImplementable) as info:
            reconstruct_implementer(named_nonisometry("depolarizing", 3, p=0.5), RngStream(38))
        # every non-top eigenvalue of a depolarized pure state equals p/n
        assert info.value.probe == "basis:0"
        assert info.value.evidence == {"purity_defect": pytest.approx(0.5 / 3, abs=1e-9)}

    def test_purity_defect_just_above_tolerance_rejected(self):
        """Depolarizing at p = 3e-8, n = 2: each pure probe's image has
        second eigenvalue p/2 = 1.5e-8, just above _PURITY_TOL, and a
        certificate residual of p/2 too, above the certified bound
        _PURITY_TOL/2.  So it is decomposed and rejected at its first probe,
        which certifying up to 2*_PURITY_TOL would let through."""
        with pytest.raises(NotImplementable) as info:
            reconstruct_implementer(named_nonisometry("depolarizing", 2, p=3e-8), RngStream(38))
        assert info.value.probe == "basis:0"
        assert info.value.evidence == {"purity_defect": pytest.approx(1.5e-8, rel=1e-6)}

    @pytest.mark.parametrize("n", [2, 9, 33])
    @pytest.mark.parametrize("build", [unitary_conjugation, antiunitary_conjugation])
    def test_conjugation_probes_certified_without_eigh(self, monkeypatch, build, n):
        """Every probe image of a conjugation is certified pure, so a
        reconstruction decomposes none of them; its trace and validation
        samples decompose nothing either."""
        calls = []
        eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        result = reconstruct_implementer(build(random_unitary(n, RngStream(n))), RngStream(43))
        assert result.residual <= 1e-12
        assert calls == []

    def test_pinching_rejected_on_superposition_probe(self):
        with pytest.raises(NotImplementable) as info:
            reconstruct_implementer(named_nonisometry("pinching", 3), RngStream(39))
        assert info.value.probe.startswith("superposition")

    def test_trace_rescale_rejected(self):
        with pytest.raises(NotImplementable) as info:
            reconstruct_implementer(named_nonisometry("trace-rescale", 3, c=2.0), RngStream(40))
        assert info.value.probe == "trace"
        # the worst |tr 2A - tr A| = tr A over samples with traces in [0.2, 2]
        assert 0.2 < info.value.evidence["residual"] <= 2.0

    def test_shifted_map_rejected(self):
        shift = random_state(2, 2, RngStream(41))
        seen = []

        def shifted(a):
            seen.append(a)
            return DensityOperator(a.entries + shift.entries)

        with pytest.raises(NotImplementable) as info:
            reconstruct_implementer(oracle_map(shifted, 2), RngStream(42))
        assert info.value.probe == "zero"
        # one evaluation of 0, rejected with the image's trace distance from 0
        assert len(seen) == 1 and not seen[0].entries.any()
        assert info.value.evidence == {
            "residual": pytest.approx(trace_distance(shift, zero_density(2)))
        }

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_zero_shifted_conjugation_rejected_at_zero(self, n):
        """rho -> U rho U* + d exp(-tr(rho)/tau) 1/n moves only 0 and operators
        of tiny trace: the trace samples (traces >= 0.2) and the trace-1
        probes and validation states see a shift below 1e-80.  Only the
        zero check sees 0 sent to d/n times the identity, at trace distance
        d = 5e-8 from 0; a zero tolerance far above d would accept it."""
        delta, tau = 5e-8, 1e-3
        u = random_unitary(n, RngStream(n))

        def shifted(a):
            shift = delta * np.exp(-a.trace / tau) * np.eye(n) / n
            return DensityOperator(u @ a.entries @ u.conj().T + shift)

        with pytest.raises(NotImplementable) as info:
            reconstruct_implementer(oracle_map(shifted, n), RngStream(2))
        assert info.value.probe == "zero"
        assert info.value.evidence == {"residual": delta}

    def test_sharpened_conjugation_rejected_at_validation(self):
        """rho -> U((1 - d) rho + d tr(rho) rho^2 / tr(rho^2)) U* fixes 0, the
        trace, the rank, orthogonality and every pure probe.  At d = 1e-5 only
        the validation residual, about 4.8e-6, rejects it: an acceptance
        threshold much looser than TOL_ACCEPT would let it through."""
        delta = 1e-5
        u = random_unitary(4, RngStream(1))

        def sharpen(a):
            if a.trace == 0.0:
                return a
            square = a.entries @ a.entries
            mixed = (1.0 - delta) * a.entries + delta * a.trace * square / np.trace(square).real
            return DensityOperator(u @ mixed @ u.conj().T)

        with pytest.raises(NotImplementable) as info:
            reconstruct_implementer(oracle_map(sharpen, 4), RngStream(2))
        assert info.value.probe == "validation"
        assert TOL_ACCEPT < info.value.evidence["residual"] < 1e-5

    def test_validation_decomposes_few_samples(self, monkeypatch):
        """At n = 48 a validation block holds two states; once a residual is
        found, the Frobenius certificate of _max_trace_norm proves most later
        differences cannot exceed it, and eigvalsh never sees them."""
        n = 48
        hidden = unitary_conjugation(random_unitary(n, RngStream(44)))
        recon = reconstruct_implementer(hidden, RngStream(45))
        matrices = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            matrices.append(len(a) if np.ndim(a) == 3 else 1)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        gen = RngStream(46).generator()
        residual = qsm.maps._validation_residual(
            hidden, recon.unitary, recon.kind, n, gen, VALIDATION_SAMPLES
        )
        assert 0.0 < residual <= 1e-12
        assert 0 < sum(matrices) < VALIDATION_SAMPLES / 2

    @pytest.mark.parametrize("oracle", ["conjugation", "depolarizing"])
    @pytest.mark.parametrize("domain", [MapDomain.FULL_DENSITY, MapDomain.STATES_ONLY])
    @pytest.mark.parametrize("kind", [MapKind.UNITARY_CONJ, MapKind.ANTIUNITARY_CONJ])
    @pytest.mark.parametrize("n", [1, 2, 5, 12, 48])
    def test_validation_residual_matches_built_images(self, n, kind, domain, oracle):
        """The validation conjugates the states' entries and symmetrizes
        them, building no operator; its residual is bit for bit the one of
        images built as operators of the oracle's domain."""
        u = random_unitary(n, RngStream(60, n))
        if oracle == "conjugation":
            m = qsm.maps._conjugation(u, domain, kind)
        else:
            m = named_nonisometry("depolarizing", n, p=0.3, domain=domain)
        gens = [RngStream(61, n).generator() for _ in range(2)]
        got = qsm.maps._validation_residual(m, u, kind, n, gens[0], VALIDATION_SAMPLES)
        want = 0.0
        for count in qsm.linalg._blocks(VALIDATION_SAMPLES, n, 1):
            arr = qsm.maps._sample_block(n, gens[1], MapDomain.STATES_ONLY, count)
            conjugated = u @ (arr.conj() if kind is MapKind.ANTIUNITARY_CONJ else arr) @ u.conj().T
            images = qsm.maps._domain_type(domain).from_stack(conjugated)
            built = qsm.maps._domain_type(domain).from_stack(qsm.maps._map_block(m, arr))
            diff = np.array([a.entries for a in built]) - np.array([a.entries for a in images])
            want = qsm.linalg._max_trace_norm(diff, want)
        assert got == want
        assert gens[0].bit_generator.state == gens[1].bit_generator.state
        if oracle == "conjugation" or n == 1:
            # at n = 1 depolarizing fixes every state
            assert got <= 1e-12
        else:
            assert got > TOL_ACCEPT

    def test_haar_reconstruction_builds_only_samples_and_oracle_images(self, monkeypatch):
        """At n = 64 a Haar reconstruction hands cholesky (the PSD floor of
        every construction) the zero operator, 25 trace samples, 128 probes
        and 100 validation states, and the oracle's image of each: 508
        matrices.  The recovered conjugation's images are not built."""
        n = 64
        oracle = unitary_conjugation(random_unitary(n, RngStream(5, 999)))
        matrices = []
        cholesky = np.linalg.cholesky

        def counting(a, *args, **kwargs):
            matrices.append(len(a) if np.ndim(a) == 3 else 1)
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        result = reconstruct_implementer(oracle, RngStream(5, 7))
        assert result.residual <= 1e-12
        inputs = 1 + 25 + qsm.maps.probe_count(n) + VALIDATION_SAMPLES
        assert sum(matrices) == 2 * inputs == 508

    def test_oracle_map_does_not_check_its_inputs_again(self, monkeypatch):
        """At n = 8 a reconstruction hands cholesky 142 inputs and their 142
        images; a conjugation behind oracle_map adds only the inner map's
        check of each image, 142 more, and no second check of the inputs."""
        hidden = unitary_conjugation(random_unitary(8, RngStream(3)))
        matrices = []
        cholesky = np.linalg.cholesky

        def counting(a, *args, **kwargs):
            matrices.append(len(a) if np.ndim(a) == 3 else 1)
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        oracle = oracle_map(lambda a: apply_map(hidden, a), 8)
        result = reconstruct_implementer(oracle, RngStream(2))
        assert result.residual <= 1e-12
        assert sum(matrices) == 426

    def test_oracle_map_hands_read_only_operators(self):
        """An oracle cannot write into the samples a check reads after it."""

        def scribble(a):
            a.entries[0, 0] = 0.0
            return a

        with pytest.raises(ValueError, match="read-only"):
            check_isometry(oracle_map(scribble, 2), MetricKind.TRACE_NORM, RngStream(4), 3)


class TestRoundtrip:
    def test_unitary_roundtrip(self):
        report = isometry_roundtrip(MapKind.UNITARY_CONJ, 2, RngStream(7), pairs=100)
        assert report.passed

    def test_antiunitary_roundtrip(self):
        report = isometry_roundtrip(MapKind.ANTIUNITARY_CONJ, 5, RngStream(11), pairs=100)
        assert report.passed
        assert report.kind_recovered is MapKind.ANTIUNITARY_CONJ

    def test_states_only_roundtrip(self):
        report = isometry_roundtrip(
            MapKind.UNITARY_CONJ, 3, RngStream(12), pairs=100, domain=MapDomain.STATES_ONLY
        )
        assert report.passed

    def test_metric_verdicts_agree(self):
        # conjugations accepted and the depolarizing control rejected under
        # both metrics alike
        u = random_unitary(2, RngStream(13))
        gen = RngStream(14).generator()
        for build in (unitary_conjugation, antiunitary_conjugation):
            for metric in (MetricKind.BURES, MetricKind.TRACE_NORM):
                assert check_isometry(build(u), metric, gen, 200) <= 1e-8
        control = named_nonisometry("depolarizing", 2, p=0.5)
        for metric in (MetricKind.BURES, MetricKind.TRACE_NORM):
            assert check_isometry(control, metric, gen, 200) >= 1e-5

    def test_roundtrip_builds_each_image_once(self, monkeypatch):
        # every operator a map is handed is built into an image exactly once
        handed, built, depth = [], [], [0]
        map_block, validated = qsm.maps._map_block, DensityOperator._validated.__func__

        def counting_map_block(m, arr):
            if not depth[0]:
                handed.append(len(arr))
            depth[0] += 1
            try:
                return map_block(m, arr)
            finally:
                depth[0] -= 1

        def counting_validated(cls, entries):
            if depth[0]:
                built.append(len(entries))
            return validated(cls, entries)

        monkeypatch.setattr(qsm.maps, "_map_block", counting_map_block)
        monkeypatch.setattr(DensityOperator, "_validated", classmethod(counting_validated))
        monkeypatch.setattr(qsm.maps, "VALIDATION_SAMPLES", 10)
        report = isometry_roundtrip(MapKind.UNITARY_CONJ, 2, RngStream(8), pairs=20,
                                    preservation_samples=10)
        assert report.passed
        assert sum(built) == sum(handed) > 0

    #: matrices the roundtrip below hands to np.linalg.eigh: the spectra of
    #: its Bures fidelities; sampled densities are rank-checked from their
    #: Gram spectrum, preservation ranks counted from eigvalsh and the probe
    #: images certified pure, so none of those is decomposed with vectors
    ROUNDTRIP_EIGH_MATRICES = 1200

    def test_roundtrip_decomposes_block_spectra_together(self, monkeypatch):
        calls, matrices = [], []
        eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(1)
            matrices.append(int(np.prod(np.shape(a)[:-2])))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        report = isometry_roundtrip(MapKind.UNITARY_CONJ, 4, RngStream(21), pairs=300)
        assert report.passed
        assert len(calls) < sum(matrices) / 4
        assert sum(matrices) <= self.ROUNDTRIP_EIGH_MATRICES

    def test_hidden_unitary_is_checked_once(self, monkeypatch):
        # the Haar sample, the preservation suite's frames and the assembled
        # reconstruction; the hidden map reuses the sample's check
        shapes = []
        defect = qsm.states._unitarity_defect

        def counting(u, floor):
            shapes.append(np.shape(u))
            return defect(u, floor)

        monkeypatch.setattr(qsm.states, "_unitarity_defect", counting)
        monkeypatch.setattr(qsm.maps, "_unitarity_defect", counting)
        report = isometry_roundtrip(MapKind.UNITARY_CONJ, 4, RngStream(1), pairs=20,
                                    preservation_samples=10)
        assert report.passed
        assert shapes == [(1, 4, 4), (10, 4, 4), (4, 4)]

    def test_depolarizing_cannot_roundtrip(self):
        control = named_nonisometry("depolarizing", 2, p=0.5)
        with pytest.raises(NotImplementable):
            reconstruct_implementer(control, RngStream(15))


class TestSerialization:
    def _images(self, m, n, seed):
        a = random_density(n, 2, 1.0, RngStream(seed))
        return apply_map(m, a).entries

    @pytest.mark.parametrize("kind", ["unitary", "antiunitary"])
    def test_conjugation_map_file(self, kind):
        u = random_unitary(3, RngStream(50))
        loaded = statemap_from_json({"kind": kind, "dim": 3, "U": matrix_to_json(u)})
        build = unitary_conjugation if kind == "unitary" else antiunitary_conjugation
        assert loaded.dim == 3
        assert np.array_equal(self._images(loaded, 3, 51), self._images(build(u), 3, 51))

    def test_named_map_file(self):
        obj = {"kind": "named", "dim": 4, "params": {"id": "depolarizing", "p": 0.25}}
        loaded = statemap_from_json(obj)
        m = named_nonisometry("depolarizing", 4, p=0.25)
        assert np.array_equal(self._images(loaded, 4, 51), self._images(m, 4, 51))

    def test_conjugation_dim_must_match_unitary(self):
        u = random_unitary(3, RngStream(52))
        obj = {"kind": "antiunitary", "dim": 3, "U": matrix_to_json(u)}
        for dim in (5, 2.5, True, None):
            with pytest.raises((InvalidParameter, ValueError)):
                statemap_from_json(dict(obj, dim=dim))
        assert statemap_from_json(obj).dim == 3

    def test_oracles_have_no_wire_format(self):
        with pytest.raises(InvalidParameter):
            statemap_from_json({"kind": "oracle", "dim": 2})


class TestBlocks:
    @pytest.mark.parametrize("per_sample", [1, 2, 8])
    @pytest.mark.parametrize("n", range(1, 65))
    def test_blocks_cover_total_within_cap(self, n, per_sample):
        size = max(1, qsm.linalg._BLOCK_ENTRIES // (per_sample * n * n))
        for total in (0, 1, 7, 100, 201):
            blocks = list(qsm.linalg._blocks(total, n, per_sample))
            assert sum(blocks) == total
            assert all(1 <= count <= size for count in blocks)
            assert all(count == size for count in blocks[:-1])
            if n == 64:
                assert set(blocks) <= {1}

    def test_maps_and_geometry_share_one_cap(self):
        assert qsm.geometry._BLOCK_ENTRIES == qsm.linalg._BLOCK_ENTRIES
        for module in (qsm.maps, qsm.geometry, qsm.suites):
            assert module._blocks is qsm.linalg._blocks
