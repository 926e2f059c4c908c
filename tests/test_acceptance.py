"""Acceptance criteria, one test per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines.  Counts and tolerances are the contract values; sampling is
seeded, so every run is reproducible.
"""

import numpy as np
from click.testing import CliRunner

from qsm.cli import main as cli_main
from qsm.errors import NotImplementable
from qsm.geometry import (
    _roundoff_slack,
    bures_ball_diameter,
    double_orthocomplement_rank,
    intersection_uniqueness_search,
    midpoint_witness,
    nonzero_center_witnesses,
    orthocomplement_pool,
    pinch_configuration,
)
from qsm.maps import (
    MapDomain,
    MapKind,
    check_isometry,
    isometry_roundtrip,
    named_nonisometry,
    oracle_map,
    preservation_suite,
    reconstruct_implementer,
    trace_preservation_check,
    zero_fixed_check,
)
from qsm.metrics import (
    MetricKind,
    are_orthogonal,
    bures_distance,
    fidelity,
    norm_identity_gap,
    product_trace_norm,
    trace_distance,
)
from qsm.serialize import canonical_dumps
from qsm.states import (
    DensityOperator,
    RngStream,
    _orthogonal_pairs,
    random_density,
    random_state,
    zero_density,
)
from qsm.suites import run_suite

SQRT2 = np.sqrt(2.0)


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {verdict} — {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _sample(n, gen, trace_hi=2.0):
    rank = int(gen.integers(1, n + 1))
    return random_density(n, rank, float(gen.uniform(0.2, trace_hi)), gen)


def test_criterion_1_metric_definitions():
    worst_identity = 0.0
    worst_trace_norm = 0.0
    for n in range(1, 9):
        gen = RngStream(101, n).generator()
        for _ in range(1000):
            a, b = _sample(n, gen), _sample(n, gen)
            lhs = bures_distance(a, b) ** 2 + 2.0 * fidelity(a, b)
            rhs = a.trace + b.trace
            worst_identity = max(worst_identity, abs(lhs - rhs) / (1.0 + rhs))
            oracle = float(np.sum(np.linalg.svd(a.entries - b.entries, compute_uv=False)))
            worst_trace_norm = max(worst_trace_norm, abs(trace_distance(a, b) - oracle))
    ok = worst_identity <= 1e-9 and worst_trace_norm <= 1e-10
    _report(
        1,
        "metric definitions",
        ok,
        f"8000 pairs, identity defect {worst_identity:.2e} (tol 1e-9), "
        f"trace-norm vs singular-value oracle {worst_trace_norm:.2e} (tol 1e-10)",
    )


def test_criterion_2_lemma1_suite():
    dims = (1, 2, 3, 4, 6)
    worst_over = -np.inf
    worst_sharp = np.inf
    ok = True
    for dim in dims:
        gen = RngStream(102, dim).generator()
        for eps in (0.5, 1.0, 2.0):
            estimate = bures_ball_diameter(dim, eps, gen, 334)
            bound = (SQRT2 if dim >= 2 else 1.0) * eps
            worst_over = max(worst_over, estimate.lower_bound - bound)
            ok &= estimate.lower_bound <= bound + 1e-9
            if dim >= 2:
                worst_sharp = min(worst_sharp, estimate.lower_bound - (SQRT2 * eps - 1e-9))
                ok &= estimate.lower_bound >= SQRT2 * eps - 1e-9
            else:
                ok &= abs(estimate.lower_bound - eps) <= 1e-9
        radii, _, _, pair, held = nonzero_center_witnesses(
            np.array([_sample(dim, gen, trace_hi=3.0).entries for _ in range(20)])
        )
        ok &= bool(held.all() and (pair >= 2.0 * radii - 1e-9).all())
    _report(
        2,
        "Bures characterization of zero",
        ok,
        f"upper-bound slack {worst_over:.2e} (<= 1e-9), sharpness margin {worst_sharp:.2e}, "
        f"100 nonzero-center witnesses certified >= 2*sqrt(tr) - 1e-9",
    )


def test_criterion_3_orthogonality_equivalence():
    misclassified = 0
    state_gap = 0.0
    ok = True
    pairs = 0
    for dim in (2, 3, 4, 5, 6):
        gen = RngStream(103, dim).generator()
        for k in range(200):
            pairs += 1
            if k % 2 == 0:
                (x,), (y,) = map(DensityOperator.from_stack, _orthogonal_pairs(
                    DensityOperator, dim, gen, [gen.uniform(0.3, 2.0)], [gen.uniform(0.3, 2.0)]
                ))
            else:
                x = _sample(dim, gen)
                y = DensityOperator((x.entries + _sample(dim, gen).entries) / 2.0)
            threshold = 1e-8 * (1.0 + x.trace * y.trace)
            product_side = product_trace_norm(x, y) <= threshold
            gap_side = norm_identity_gap(x, y) <= threshold
            if product_side != gap_side or product_side != (k % 2 == 0):
                misclassified += 1
        for _ in range(20):
            pair = _orthogonal_pairs(DensityOperator, dim, gen, [1.0], [1.0])
            (xs,), (ys,) = map(DensityOperator.from_stack, pair)
            state_gap = max(state_gap, abs(trace_distance(xs, ys) - 2.0))
            ok &= are_orthogonal(xs, ys)
            a = random_state(dim, int(gen.integers(1, dim + 1)), gen)
            b = DensityOperator((a.entries + random_state(dim, dim, gen).entries) / 2.0)
            ok &= (not are_orthogonal(a, b)) and trace_distance(a, b) < 2.0 - 1e-9
    ok &= misclassified == 0 and state_gap <= 1e-9
    _report(
        3,
        "orthogonality equivalence",
        ok,
        f"{pairs} mixed pairs, {misclassified} misclassified; "
        f"state distance-2 gap {state_gap:.2e} (tol 1e-9)",
    )


def test_criterion_4_lemma3_suite():
    worst_ratio = 0.0
    midpoint_ok = True
    containment_ok = True
    configs = 0
    for dim in (2, 3, 4, 5, 6):
        gen = RngStream(104, dim).generator()
        for k in range(20):
            eps = float(gen.uniform(0.5, 1.5))
            pair = _orthogonal_pairs(DensityOperator, dim, gen, [eps], [eps])
            (x,), (y,) = map(DensityOperator.from_stack, pair)
            mid, _ = midpoint_witness(x, y)
            midpoint_ok &= (
                trace_distance(x, mid) <= eps + 1e-9
                and trace_distance(y, mid) <= eps + 1e-9
                and mid.trace >= eps / 2.0
            )
            if k == 0:
                # strict containment at 0: the midpoint is in both balls up
                # to the searches' roundoff slack and at trace norm >= eps/2
                slack = _roundoff_slack(x, y, eps)
                containment_ok &= (
                    max(trace_distance(x, mid), trace_distance(y, mid)) - eps <= slack
                    and mid.trace >= eps / 2.0
                )
        for _ in range(20):
            configs += 1
            center = random_state(dim, int(gen.integers(1, dim + 1)), gen)
            pinch = pinch_configuration(center, gen)
            result = intersection_uniqueness_search(
                pinch.upper, pinch.lower, center, pinch.epsilon, gen, 10000
            )
            worst_ratio = max(worst_ratio, result.separation_from_center / pinch.epsilon)
    ok = midpoint_ok and containment_ok and worst_ratio <= 1e-5
    _report(
        4,
        "trace-norm characterization of zero",
        ok,
        f"100 midpoint configs in-ball and nonzero: {midpoint_ok}; strict containment at 0 "
        f"(midpoints within the roundoff slack): {containment_ok}; {configs} uniqueness searches (budget 10^4), "
        f"worst separation/eps {worst_ratio:.2e} (tol 1e-5)",
    )


def test_criterion_5_theorem_roundtrips():
    worst_bures = worst_trace = 0.0
    worst_overlap = 1.0
    worst_residual = 0.0
    kinds_ok = True
    for k in range(50):
        n = 2 + k % 7
        kind = MapKind.UNITARY_CONJ if k % 2 == 0 else MapKind.ANTIUNITARY_CONJ
        domain = MapDomain.FULL_DENSITY if k % 4 < 2 else MapDomain.STATES_ONLY
        trip = isometry_roundtrip(
            kind, n, RngStream(105, k), pairs=300, domain=domain, preservation_samples=40
        )
        worst_bures = max(worst_bures, trip.deviations[MetricKind.BURES])
        worst_trace = max(worst_trace, trip.deviations[MetricKind.TRACE_NORM])
        worst_overlap = min(worst_overlap, trip.overlap)
        worst_residual = max(worst_residual, trip.validation_max)
        kinds_ok &= trip.kind_recovered is kind and trip.passed
    ok = (
        kinds_ok
        and worst_bures <= 1e-8
        and worst_trace <= 1e-8
        and worst_overlap >= 1.0 - 1e-8
        and worst_residual <= 1e-6
    )
    _report(
        5,
        "theorem roundtrips",
        ok,
        f"50 oracles (n in 2..8): worst deviations bures {worst_bures:.2e} / trace "
        f"{worst_trace:.2e} (tol 1e-8), worst overlap {worst_overlap:.12f} "
        f"(>= 1-1e-8), worst induced-map residual {worst_residual:.2e} (tol 1e-6), "
        f"kinds exact: {kinds_ok}",
    )


def test_criterion_6_negative_controls():
    gen = RngStream(106).generator()
    depol2 = named_nonisometry("depolarizing", 2, p=0.5)
    dev_trace = check_isometry(depol2, MetricKind.TRACE_NORM, gen, 1000)
    dev_bures = check_isometry(depol2, MetricKind.BURES, gen, 1000)
    deviation_ok = dev_trace >= 0.5 and dev_bures >= 0.5

    depol3 = named_nonisometry("depolarizing", 3, p=0.5)
    pinch3 = named_nonisometry("pinching", 3)
    rank_ok = (
        preservation_suite(depol3, gen, samples=60).rank_mismatches > 0
        and preservation_suite(pinch3, gen, samples=60).rank_mismatches > 0
    )

    rescale = named_nonisometry("trace-rescale", 2, c=2.0)
    shift = random_state(2, 2, gen)
    shifted = oracle_map(
        lambda a: DensityOperator(2.0 * a.entries + shift.entries), 2
    )
    reduction_ok = (
        not trace_preservation_check(rescale, gen)
        and zero_fixed_check(rescale)
        and not zero_fixed_check(shifted)
    )

    rejected = 0
    for control in (depol2, pinch3, rescale, shifted):
        try:
            reconstruct_implementer(control, gen)
        except NotImplementable:
            rejected += 1
    ok = deviation_ok and rank_ok and reduction_ok and rejected == 4
    _report(
        6,
        "negative controls",
        ok,
        f"depolarizing deviation trace {dev_trace:.3f} / bures {dev_bures:.3f} (>= 0.5); "
        f"rank non-preservation: {rank_ok}; trace/zero reductions: {reduction_ok}; "
        f"reconstruction rejected {rejected}/4 controls",
    )


def test_criterion_7_orthocomplement_rank():
    checked = 0
    agreed = 0
    for dim in range(1, 7):
        gen = RngStream(107, dim).generator()
        for k in range(17):
            rank = k % (dim + 1)
            if rank == 0:
                center = zero_density(dim)
            else:
                center = random_density(dim, rank, float(gen.uniform(0.5, 2.0)), gen)
            pool = orthocomplement_pool(center, gen)
            checked += 1
            agreed += double_orthocomplement_rank(center, pool) == center.rank()
    ok = checked >= 100 and agreed == checked
    _report(
        7,
        "rank via double orthocomplement",
        ok,
        f"{agreed}/{checked} densities agree with spectral rank (ranks 0..dim, dims 1..6)",
    )


def test_criterion_8_determinism(tmp_path):
    suite_texts = []
    for _ in range(2):
        reports = run_suite("lemma1", [1, 2, 3], seed=11, samples=40, budget=0)
        suite_texts.append(canonical_dumps([r.to_json() for r in reports]))
    suite_ok = suite_texts[0] == suite_texts[1]

    runner = CliRunner()
    outputs = []
    for name in ("a.json", "b.json"):
        result = runner.invoke(
            cli_main,
            ["verify", "thm-trace-S", "--dims", "2,3", "--seed", "11",
             "--samples", "30", "--out", str(tmp_path / name)],
        )
        assert result.exit_code == 0
        outputs.append((tmp_path / name).read_bytes())
    verify_ok = outputs[0] == outputs[1]

    recon = []
    for name in ("r1.json", "r2.json"):
        result = runner.invoke(
            cli_main,
            ["reconstruct", "--builtin", "haar", "--dim", "4", "--seed", "11",
             "--out", str(tmp_path / name)],
        )
        assert result.exit_code == 0
        recon.append((tmp_path / name).read_bytes())
    recon_ok = recon[0] == recon[1]

    ok = suite_ok and verify_ok and recon_ok
    _report(
        8,
        "determinism",
        ok,
        f"suite reports byte-identical: {suite_ok}; CLI verify byte-identical: {verify_ok}; "
        f"CLI reconstruct byte-identical: {recon_ok}",
    )
