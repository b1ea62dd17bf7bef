"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

Covers the analytic sampling-domain boundaries, the anchor-AR sweep rows,
oracle equivalence between the ladder and closed-form max-IoU routes, WARM's
behavioral guarantees, the threshold function's shape, crop-simulation
convergence, the RFD block's structural numbers, and the annotation parser's
golden round-trip. The final criterion needs the real annotation corpus and
is skipped unless ANCHORKIT_WIDER_ANNOTATIONS points at it.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from anchorkit.ams import analytic_max_iou, boundary_ar, ideal_max_iou, run_ams
from anchorkit.anchors import (
    AnchorDesign,
    PyramidLevel,
    ams_design,
    detector_design,
    generate_anchor_boxes,
)
from anchorkit.corpus import ar_coverage, parse_wider, serialize_wider
from anchorkit.cropsim import CropParams, simulate
from anchorkit.matching import MatchConfig, Strategy, assign_labels_xywh, warm_threshold
from anchorkit.reports import emit_reports
from anchorkit.rfd import rfd_output_shape, rfd_param_count, rfd_receptive_fields, rfd_spec
from builders import corpus, record
from oracles import naive_warm_threshold, rfd_forward_naive, zero_weights

FIXTURE = Path(__file__).parent / "data" / "wider_50.txt"
WIDER_ENV = "ANCHORKIT_WIDER_ANNOTATIONS"


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def aligned_width(rung: float, face_ar: float, anchor_ar: float) -> float:
    return rung * math.sqrt(anchor_ar / face_ar)


def face_record(path, specs):
    return record(path, [(10.0, 10.0, w, w * ar) for ar, w in specs])


def random_scene(seed, n_faces=6, canvas=128.0):
    design = AnchorDesign(
        levels=(PyramidLevel("A", 16, (12.0, 24.0)), PyramidLevel("B", 32, (48.0,))),
    )
    anchors = generate_anchor_boxes(design, canvas, canvas)
    rng = np.random.default_rng(seed)
    w = np.exp(rng.uniform(np.log(6), np.log(70), n_faces))
    ar = np.exp(rng.uniform(np.log(0.25), np.log(4.0), n_faces))
    x = rng.uniform(-10, canvas - 10, n_faces)
    y = rng.uniform(-10, canvas - 10, n_faces)
    return anchors, np.column_stack([x, y, w, w * ar])


def test_criterion_1_arsd_boundaries():
    """Analytic sampling-domain radii at the reference thresholds."""
    t0 = time.perf_counter()
    checks = {0.50: 2.25, 0.45: 2.59, 0.40: 3.06}
    ok = all(abs(boundary_ar(t, 1.0) - v) <= 0.01 for t, v in checks.items())
    # At 0.35 the analytic radius (3.7194) exceeds the corpus-limited 3.67:
    # the corpus's widest face caps the observable range below the analytic
    # boundary there, so only the one-sided comparison is meaningful.
    b35 = boundary_ar(0.35, 1.0)
    ok = ok and b35 >= 3.67 and abs(b35 - 3.719388) < 1e-4
    elapsed = time.perf_counter() - t0
    _criterion(1, ok and elapsed < 1.0,
               f"radii {[round(boundary_ar(t, 1.0), 4) for t in checks]}, "
               f"analytic@0.35={b35:.4f} >= 3.67 ({elapsed * 1e3:.1f} ms)")


def test_criterion_2_anchor_ar_rows():
    """Fitted domain radius for anchor ARs 1.25 and 1.5 at threshold 0.5."""
    t0 = time.perf_counter()
    ok = True
    details = []
    for ra in (1.25, 1.5):
        design = ams_design(ra)
        inner = [ra * 2.249, ra / 2.249]
        outer = [ra * 2.251, ra / 2.251]
        images = [
            face_record(
                f"ra{ra}.jpg",
                [(ar, aligned_width(32.0, ar, ra)) for ar in inner + [ra] + outer],
            )
        ]
        report, faces = run_ams(corpus(images), design, 0.5)
        matched = {round(ar, 9) for ar in faces.ar[faces.matched].tolist()}
        expected = {round(ar, 9) for ar in inner + [ra]}
        ok &= matched == expected
        ok &= report.fitted_eta is not None and abs(report.fitted_eta - 2.25) <= 0.01
        details.append(f"ra={ra}: eta={report.fitted_eta:.4f}")
    elapsed = time.perf_counter() - t0
    _criterion(2, ok and elapsed < 1.0, ", ".join(details) + f" ({elapsed:.2f}s)")


def test_criterion_3_oracle_equivalence():
    """Ladder and closed-form oracles agree.

    The 0.97 sandwich factor is the worst-phase scale-quantization loss while
    the anchor stays wider-but-shorter than the face, which requires the AR
    mismatch rho to be at least sqrt(2) (below that the boxes nest and the
    floor drops continuously toward 1/sqrt(2) at rho = 1); widths are drawn
    so the optimal scale stays inside the ladder span. The full-domain
    behavior is covered by the exact-floor property test in test_ams.py.
    """
    t0 = time.perf_counter()
    design = ams_design(1.0)
    rng = np.random.default_rng(2024)
    n = 10_000
    rho = np.exp(rng.uniform(np.log(math.sqrt(2.0)), np.log(5.0), n))
    side = rng.integers(0, 2, n)
    ar = np.where(side == 0, rho, 1.0 / rho)
    # The optimal anchor scale for a face (w, w*ar) is w*sqrt(ar); keep it
    # inside the ladder span [4, 512].
    scale_ratio = np.sqrt(ar)
    w = np.exp(rng.uniform(np.log(4.0 / scale_ratio), np.log(512.0 / scale_ratio)))

    ok = True
    worst = 1.0
    for i in range(n):
        ideal = ideal_max_iou(float(w[i]), float(ar[i]), design)
        analytic = analytic_max_iou(float(ar[i]), 1.0)
        ratio = ideal / analytic
        worst = min(worst, ratio)
        if not (ideal <= analytic + 1e-12 and ratio >= 0.97):
            ok = False
            break

    # Closed form vs dense numeric scale sweep (10001 points per sweep).
    sweep_err = 0.0
    for i in range(0, n, 100):
        r, wd = float(ar[i]), float(w[i])
        analytic = analytic_max_iou(r, 1.0)
        s_opt = wd * math.sqrt(r)
        s = np.logspace(np.log10(s_opt) - 0.15, np.log10(s_opt) + 0.15, 10001)
        inter = np.minimum(wd, s) * np.minimum(wd * r, s)
        fine = (inter / (wd * wd * r + s * s - inter)).max()
        lo, hi = wd * min(1.0, r), wd * max(1.0, r)
        s = np.logspace(np.log10(lo) - 0.5, np.log10(hi) + 0.5, 10001)
        inter = np.minimum(wd, s) * np.minimum(wd * r, s)
        wide = (inter / (wd * wd * r + s * s - inter)).max()
        sweep_err = max(sweep_err, abs(fine - analytic), max(0.0, wide - analytic))
    ok = ok and sweep_err < 1e-4

    elapsed = time.perf_counter() - t0
    _criterion(3, ok and elapsed < 5.0,
               f"worst sandwich ratio {worst:.4f} >= 0.97, "
               f"sweep err {sweep_err:.2e} < 1e-4 ({elapsed:.2f}s)")


def test_criterion_4_warm_behaviour():
    """WARM degeneracy, superset guarantee, and the extreme-AR grid case."""
    t0 = time.perf_counter()
    sam = MatchConfig(strategy=Strategy.SAM)
    warm0 = MatchConfig(strategy=Strategy.WARM, delta=0.0)
    warm = MatchConfig()

    degenerate_ok = True
    superset_ok = True
    for seed in range(100):
        anchors, faces = random_scene(seed)
        res_sam = assign_labels_xywh(anchors, faces, sam)
        res_w0 = assign_labels_xywh(anchors, faces, warm0)
        res_warm = assign_labels_xywh(anchors, faces, warm)
        degenerate_ok &= np.array_equal(res_sam.labels, res_w0.labels)
        degenerate_ok &= np.array_equal(res_sam.compensated, res_w0.compensated)
        sam_pos = set(np.flatnonzero(res_sam.labels >= 0))
        warm_pos = set(np.flatnonzero(res_warm.labels >= 0))
        superset_ok &= sam_pos <= warm_pos

    # The AR-2.4 face whose best anchor scale sits exactly on the 64 rung.
    anchors = generate_anchor_boxes(detector_design(), 640, 640)
    w = 64.0 / math.sqrt(2.4)
    face = [328.0 - w / 2.0, 328.0 - w * 2.4 / 2.0, w, w * 2.4]
    expected = 1.0 / (2.0 * math.sqrt(2.4) - 1.0)
    res_sam = assign_labels_xywh(anchors, [face], sam)
    res_warm = assign_labels_xywh(anchors, [face], warm)
    grid_ok = (
        abs(res_sam.max_iou[0] - expected) < 1e-9
        and res_sam.positive_count[0] == 0
        and res_warm.positive_count[0] >= 1
        and abs(res_warm.effective_tp[0] - 0.46) < 1e-12
    )

    elapsed = time.perf_counter() - t0
    ok = degenerate_ok and superset_ok and grid_ok
    _criterion(4, ok and elapsed < 10.0,
               f"delta=0 bitwise SAM on 100 scenes: {degenerate_ok}, "
               f"superset: {superset_ok}, AR-2.4 grid max {res_sam.max_iou[0]:.4f} "
               f"(SAM 0 / WARM {res_warm.positive_count[0]} positives) "
               f"({elapsed:.2f}s)")


def test_criterion_5_threshold_function():
    """Shape of the WARM positive threshold over aspect ratio."""
    t0 = time.perf_counter()
    cfg = MatchConfig()
    eps = 1e-9

    at_anchor = warm_threshold(1.0, cfg) == 0.5
    inner_edges = all(
        abs(warm_threshold(edge * (1 + s * eps), cfg) - 0.5) < 1e-6
        for edge in (2.0, 0.5)
        for s in (-1, 1)
    )
    outer_limits = (
        abs(warm_threshold(3.0 * (1 - eps), cfg) - 0.4) < 1e-6
        and abs(warm_threshold((1 / 3) * (1 + eps), cfg) - 0.4) < 1e-6
    )
    sweep = np.exp(np.linspace(np.log(0.02), np.log(50.0), 10_000))
    values = warm_threshold(sweep, cfg)
    banded = bool(np.all(values >= 0.4 - 1e-12) and np.all(values <= 0.5 + 1e-12))
    expected = np.array([naive_warm_threshold(float(r), cfg) for r in sweep])
    exact = values.view(np.int64).tolist() == expected.view(np.int64).tolist()

    elapsed = time.perf_counter() - t0
    ok = at_anchor and inner_edges and outer_limits and banded and exact
    _criterion(5, ok and elapsed < 1.0,
               f"T0 at anchor AR: {at_anchor}, continuous at eta0 edges: {inner_edges}, "
               f"limits T0-delta at eta1 edges: {outer_limits}, "
               f"band [0.4, 0.5] on 10^4-point sweep: {banded}, "
               f"bitwise equal to the scalar definition: {exact} ({elapsed * 1e3:.0f} ms)")


def test_criterion_6_crop_convergence():
    """Random crops drive the observed grid IoU to the ideal bound.

    Grid-representable corpus: ladder widths, square faces on each size's
    anchor-row lattice, in wide images so the patch position randomizes the
    horizontal phase. 200 crops must close the observed/ideal gap to 0.05
    for every face at least 16 px wide.
    """
    t0 = time.perf_counter()
    faces = [
        (392.0, 300.0, 16.0, 16.0),  # stride-8 level, row center 308
        (684.0, 296.0, 32.0, 32.0),  # stride-16 level, row center 312
        (518.0, 296.0, 64.0, 64.0),  # stride-16 level, row center 328
        (456.0, 298.0, 8.0, 8.0),    # below the 16 px reporting cutoff
    ]
    records = [record("synthetic/wide.jpg", faces, 1280.0, 640.0)]
    params = CropParams(scale_options=(1.0,))
    design = detector_design()
    outcome = simulate(corpus(records), design, MatchConfig(), 200, seed=7, params=params)
    again = simulate(corpus(records), design, MatchConfig(), 200, seed=7, params=params)

    byte_identical = emit_reports(outcome, "json") == emit_reports(again, "json")
    table = outcome.per_face
    bounded = bool(np.all(table.best_observed_iou <= table.best_ideal_iou + 1e-9))
    gaps = {
        i: ideal - observed
        for i, observed, ideal in zip(table.face.tolist(), table.best_observed_iou.tolist(),
                                      table.best_ideal_iou.tolist())
        if faces[i][2] >= 16.0
    }
    converged = all(g <= 0.05 for g in gaps.values())
    seen = bool(np.all(table.crops_seen > 0))

    elapsed = time.perf_counter() - t0
    ok = byte_identical and bounded and converged and seen
    _criterion(6, ok and elapsed < 30.0,
               f"gaps {'/'.join(f'{g:.4f}' for g in gaps.values())} <= 0.05, "
               f"bounded: {bounded}, byte-identical reruns: {byte_identical} "
               f"({elapsed:.1f}s)")


def test_criterion_7_rfd_structure():
    """Parameter count, shape preservation, identity shortcut, RF table."""
    t0 = time.perf_counter()
    count_ok = rfd_param_count(64, include_bias=False) == 14336

    rng = np.random.default_rng(77)
    shapes_ok = True
    for _ in range(20):
        c = 4 * int(rng.integers(1, 17))
        h = int(rng.integers(5, 21))
        w = int(rng.integers(5, 21))
        shapes_ok &= rfd_output_shape(rfd_spec(c), h, w) == (c, h, w)

    spec = rfd_spec(8)
    x = rng.normal(size=(8, 6, 9))
    identity_ok = np.array_equal(rfd_forward_naive(spec, x, zero_weights(spec)), x)
    rf_ok = rfd_receptive_fields(rfd_spec(64)) == [(3, 1), (1, 3), (3, 3), (5, 5), (1, 1)]

    elapsed = time.perf_counter() - t0
    ok = count_ok and shapes_ok and identity_ok and rf_ok
    _criterion(7, ok and elapsed < 5.0,
               f"params(64)=14336: {count_ok}, 20 shapes preserved: {shapes_ok}, "
               f"zero-weight identity: {identity_ok}, RF table: {rf_ok} ({elapsed:.2f}s)")


def test_criterion_8_parser_round_trip():
    """Golden-file round-trip plus line-numbered failures on malformed input."""
    t0 = time.perf_counter()
    text = FIXTURE.read_text(encoding="utf-8")
    records = parse_wider(text)
    round_trip = serialize_wider(records) == text
    has_quirk = any(len(r.faces) == 0 for r in records)
    fifty = len(records) == 50

    malformed = {
        "a.jpg\n2\n10 20 30 40 0 0 0 0 0 0\n": 4,          # truncated block
        "a.jpg\nnope\n": 2,                                  # bad count
        "a.jpg\n1\n10 20 x 40 0 0 0 0 0 0\n": 3,            # non-integer field
        "a.jpg\n1\n10 20 30 40 9 0 0 0 0 0\n": 3,           # attribute range
    }
    errors_ok = True
    for bad, line in malformed.items():
        try:
            parse_wider(bad)
            errors_ok = False
        except ValueError as exc:
            errors_ok &= f"line {line}" in str(exc)

    elapsed = time.perf_counter() - t0
    ok = round_trip and has_quirk and fifty and errors_ok
    _criterion(8, ok and elapsed < 1.0,
               f"50-image golden round-trip: {round_trip}, zero-count block: {has_quirk}, "
               f"line-numbered errors: {errors_ok} ({elapsed * 1e3:.0f} ms)")


@pytest.mark.skipif(
    WIDER_ENV not in os.environ,
    reason=f"set {WIDER_ENV} to the real training annotation file to run",
)
def test_criterion_9_real_corpus():
    """Optional: coverage and matched-AR range on the real annotation corpus."""
    t0 = time.perf_counter()
    with open(os.environ[WIDER_ENV], "r", encoding="utf-8") as fh:
        records = parse_wider(fh)

    coverage = ar_coverage(records, 1.0, 5.0)
    report, _ = run_ams(records, ams_design(1.0), 0.5)
    range_ok = (
        report.matched_ar_min is not None
        and abs(report.matched_ar_min - 0.449275) <= 0.005
        and abs(report.matched_ar_max - 2.241379) <= 0.005
    )

    elapsed = time.perf_counter() - t0
    ok = coverage >= 0.9996 and range_ok
    _criterion(9, ok and elapsed < 60.0,
               f"coverage {coverage:.6f} >= 0.9996, "
               f"range [{report.matched_ar_min}, {report.matched_ar_max}] ({elapsed:.1f}s)")
