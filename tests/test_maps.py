"""StateMap tests: conjugations, named controls, isometry checks,
preservation suite, reconstruction, roundtrips, serialization."""

import numpy as np
import pytest

from qsm.errors import (
    DimensionMismatch,
    DomainError,
    InvalidParameter,
    NotImplementable,
    NotIsometryEvidence,
)
from qsm.maps import (
    MapDomain,
    MapKind,
    antiunitary_conjugation,
    apply_map,
    check_isometry,
    isometry_roundtrip,
    named_nonisometry,
    oracle_map,
    preservation_suite,
    reconstruct_implementer,
    statemap_from_json,
    statemap_to_json,
    trace_preservation_check,
    unitary_conjugation,
    zero_fixed_check,
)
from qsm.metrics import MetricKind, trace_distance
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
        assert np.allclose(apply_map(m, a).eigenvalues, a.eigenvalues, atol=1e-12)

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
            report = check_isometry(build(u), metric, gen, 1000)
            assert report.max_deviation <= 1e-8
            assert report.pairs_tested == 1000

    def test_depolarizing_deviates_strongly(self):
        m = named_nonisometry("depolarizing", 2, p=0.5)
        report = check_isometry(m, MetricKind.TRACE_NORM, RngStream(11), 1000)
        assert report.max_deviation >= 0.5

    def test_deterministic_given_stream(self):
        m = unitary_conjugation(random_unitary(3, RngStream(12)))
        r1 = check_isometry(m, MetricKind.BURES, RngStream(13), 50)
        r2 = check_isometry(m, MetricKind.BURES, RngStream(13), 50)
        assert r1.max_deviation == r2.max_deviation
        assert r1.seed == 13


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
        assert report.orthogonal_pairs_max_product <= 1e-8

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


class TestReconstruction:
    def test_identity_oracle(self):
        result = reconstruct_implementer(unitary_conjugation(np.eye(3)), 3, RngStream(30))
        assert result.kind is MapKind.UNITARY_CONJ
        assert result.residual <= 1e-10
        assert np.allclose(np.abs(result.unitary), np.eye(3), atol=1e-10)

    def test_transpose_oracle(self):
        result = reconstruct_implementer(antiunitary_conjugation(np.eye(3)), 3, RngStream(31))
        assert result.kind is MapKind.ANTIUNITARY_CONJ
        assert np.allclose(np.abs(result.unitary), np.eye(3), atol=1e-10)

    def test_haar_roundtrip_overlap(self):
        u = random_unitary(4, RngStream(32))
        result = reconstruct_implementer(unitary_conjugation(u), 4, RngStream(33))
        assert result.kind is MapKind.UNITARY_CONJ
        assert abs(np.trace(result.unitary.conj().T @ u)) / 4 >= 1.0 - 1e-8
        assert result.residual <= 1e-8

    def test_phase_gauge_invariance(self):
        u = random_unitary(3, RngStream(34))
        base = reconstruct_implementer(unitary_conjugation(u), 3, RngStream(35))
        rotated = reconstruct_implementer(
            unitary_conjugation(np.exp(0.7j) * u), 3, RngStream(35)
        )
        assert rotated.kind is base.kind
        assert rotated.residual == pytest.approx(base.residual, abs=1e-12)
        # identical induced maps even though the matrices may differ by phase
        probe = random_state(3, 2, RngStream(36))
        assert np.allclose(
            apply_map(base.as_map(), probe).entries,
            apply_map(rotated.as_map(), probe).entries,
            atol=1e-10,
        )

    def test_dim_one(self):
        result = reconstruct_implementer(unitary_conjugation(np.eye(1)), 1, RngStream(37))
        assert result.kind is MapKind.UNITARY_CONJ
        assert result.residual <= 1e-12

    def test_depolarizing_rejected(self):
        with pytest.raises(NotIsometryEvidence) as info:
            reconstruct_implementer(named_nonisometry("depolarizing", 3, p=0.5), 3, RngStream(38))
        # every non-top eigenvalue of a depolarized pure state equals p/n
        assert info.value.purity_defect == pytest.approx(0.5 / 3, abs=1e-9)

    def test_pinching_rejected_on_superposition_probe(self):
        with pytest.raises(NotIsometryEvidence) as info:
            reconstruct_implementer(named_nonisometry("pinching", 3), 3, RngStream(39))
        assert info.value.probe.startswith("superposition")

    def test_trace_rescale_rejected(self):
        with pytest.raises(NotImplementable) as info:
            reconstruct_implementer(named_nonisometry("trace-rescale", 3, c=2.0), 3, RngStream(40))
        assert info.value.probe == "trace"

    def test_shifted_map_rejected(self):
        shift = random_state(2, 2, RngStream(41))
        m = oracle_map(lambda a: DensityOperator(a.entries + shift.entries), 2)
        with pytest.raises(NotImplementable) as info:
            reconstruct_implementer(m, 2, RngStream(42))
        assert info.value.probe == "zero"

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            reconstruct_implementer(unitary_conjugation(np.eye(2)), 3, RngStream(0))


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
                assert check_isometry(build(u), metric, gen, 200).max_deviation <= 1e-8
        control = named_nonisometry("depolarizing", 2, p=0.5)
        for metric in (MetricKind.BURES, MetricKind.TRACE_NORM):
            assert check_isometry(control, metric, gen, 200).max_deviation >= 1e-5

    def test_depolarizing_cannot_roundtrip(self):
        control = named_nonisometry("depolarizing", 2, p=0.5)
        with pytest.raises((NotIsometryEvidence, NotImplementable)):
            reconstruct_implementer(control, 2, RngStream(15))


class TestSerialization:
    def test_unitary_map_roundtrip(self):
        u = random_unitary(3, RngStream(50))
        m = unitary_conjugation(u)
        loaded = statemap_from_json(statemap_to_json(m))
        assert loaded.kind is MapKind.UNITARY_CONJ
        assert np.allclose(loaded.unitary, u)

    def test_named_map_roundtrip(self):
        m = named_nonisometry("depolarizing", 4, p=0.25)
        loaded = statemap_from_json(statemap_to_json(m))
        assert loaded.name == "depolarizing"
        assert loaded.params["p"] == 0.25
        a = random_density(4, 2, 1.0, RngStream(51))
        assert np.allclose(apply_map(loaded, a).entries, apply_map(m, a).entries)

    def test_oracles_have_no_wire_format(self):
        m = oracle_map(lambda a: a, 2)
        with pytest.raises(InvalidParameter):
            statemap_to_json(m)
