import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import anchorkit.ams
from anchorkit.ams import analytic_max_iou, boundary_ar, ideal_max_iou, run_ams
from anchorkit.anchors import ams_design, detector_design, generate_anchor_boxes, ladder_design
from anchorkit.corpus import Corpus, LogUniformAR, generate_synthetic
from anchorkit.matching import iou_pairs
from builders import corpus, record, rows
from oracles import kept_faces, naive_ideal_max_iou, naive_iou


def geometry_ladder_max(face_w: float, face_ar: float, design) -> float:
    """Independent route to the ideal ladder IoU: place each design size's
    anchor centred on the face, as xywh rows, and take the scalar IoU,
    maximizing over the sizes."""
    face_h = face_w * face_ar
    cx, cy = face_w / 2.0, face_h / 2.0
    best = 0.0
    for s in design.sizes:
        h = s * design.aspect_ratio
        anchor = (cx - s / 2.0, cy - h / 2.0, s, h)
        best = max(best, naive_iou((0.0, 0.0, face_w, face_h), anchor))
    return best


def aligned_width(rung: float, face_ar: float, anchor_ar: float) -> float:
    """Width for which the optimal anchor scale lands exactly on a ladder rung.

    The optimal anchor width for a face (w, w*r) against anchor AR r_a is
    w * sqrt(r / r_a), so alignment needs w = rung * sqrt(r_a / r).
    """
    return rung * math.sqrt(anchor_ar / face_ar)


def ladder_floor_factor(rho: float) -> float:
    """Worst-phase lower bound on ladder_ideal/analytic for the sqrt(2) ladder,
    valid when the optimal scale lies inside the ladder span.

    The nearest rung is within 2**0.25 of the optimal scale. Off-scale by a
    factor u, the IoU is u/(sqrt(rho)*(1+u^2) - u) while the anchor stays
    wider-but-shorter than the face (u <= sqrt(rho)); beyond that the boxes
    nest and the IoU is (2*sqrt(rho)-1)/u^2 relative to the analytic value.
    """
    u = 2.0**0.25
    sr = math.sqrt(rho)
    if sr >= u:
        return u * (2.0 * sr - 1.0) / (sr * (1.0 + u * u) - u)
    return (2.0 * sr - 1.0) / (u * u)


class TestIdealMaxIou:
    def test_exact_anchor_match(self):
        design = ams_design(1.0)
        assert ideal_max_iou(32.0, 1.0, design) == 1.0

    def test_off_ladder_width(self):
        # Optimal scale 32*sqrt(2.4) ~ 49.57 falls between rungs 45.25 and 64;
        # expected value frozen from the independent geometry route.
        design = ams_design(1.0)
        got = ideal_max_iou(32.0, 2.4, design)
        assert got == pytest.approx(geometry_ladder_max(32.0, 2.4, design), abs=1e-12)
        assert got == pytest.approx(0.473649, abs=1e-6)

    def test_rung_aligned_boundary_face(self):
        design = ams_design(1.0)
        w = aligned_width(design.sizes[7], 2.25, 1.0)
        assert ideal_max_iou(w, 2.25, design) == pytest.approx(0.5, abs=1e-3)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ideal_max_iou(0.0, 1.0, ams_design(1.0))
        with pytest.raises(ValueError):
            ideal_max_iou(10.0, -1.0, ams_design(1.0))

    @given(
        st.floats(min_value=0.2, max_value=5.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.5, max_value=2.0, allow_nan=False),
    )
    def test_oracle_sandwich(self, face_ar, w01, anchor_ar):
        """Ladder value never exceeds the closed form, and stays above the
        exact worst-phase floor while the optimal scale is inside the ladder."""
        design = ams_design(anchor_ar)
        rho = max(face_ar / anchor_ar, anchor_ar / face_ar)
        scale_ratio = math.sqrt(face_ar / anchor_ar)
        w_lo, w_hi = 4.0 / scale_ratio, 512.0 / scale_ratio
        w = w_lo * (w_hi / w_lo) ** w01

        ideal = ideal_max_iou(w, face_ar, design)
        analytic = analytic_max_iou(face_ar, anchor_ar)
        assert ideal <= analytic + 1e-12
        assert ideal >= ladder_floor_factor(rho) * analytic - 1e-9

    @given(
        st.floats(min_value=0.2, max_value=5.0, allow_nan=False),
        st.integers(min_value=1, max_value=13),
    )
    def test_rung_aligned_reaches_analytic(self, face_ar, rung_idx):
        design = ams_design(1.0)
        w = aligned_width(design.sizes[rung_idx], face_ar, 1.0)
        ideal = ideal_max_iou(w, face_ar, design)
        assert ideal == pytest.approx(analytic_max_iou(face_ar, 1.0), rel=1e-12)

    def test_grid_never_beats_ideal(self):
        # Empirical max over the instantiated detector grid is bounded by the
        # ideal-placement value for the same size ladder.
        design = detector_design()
        anchors = generate_anchor_boxes(design, 640, 640)
        rng = np.random.default_rng(12)
        n = 50
        w = np.exp(rng.uniform(np.log(5), np.log(250), n))
        ar = np.exp(rng.uniform(np.log(0.25), np.log(4.0), n))
        x = rng.uniform(0, 640 - 1, n)
        y = rng.uniform(0, 640 - 1, n)
        faces = np.column_stack([x, y, w, w * ar])
        grid_max = iou_pairs(np.asarray(anchors)[:, None], faces).max(axis=0)
        for j in range(n):
            assert grid_max[j] <= ideal_max_iou(w[j], ar[j], design) + 1e-9


class TestIdealMaxIouBroadcast:
    """The broadcast ladder against the scalar loop in oracles.py, bit for bit."""

    @given(
        st.lists(st.tuples(st.floats(min_value=1e-2, max_value=1e5),
                           st.floats(min_value=1e-3, max_value=1e3)), max_size=30),
        st.one_of(st.just(math.sqrt(2.0)), st.floats(min_value=1.01, max_value=4.0)),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_matches_scalar_oracle_bitwise(self, faces, step, anchor_ar):
        design = ladder_design(anchor_ar, scale_step=step)
        w = np.array([f[0] for f in faces], dtype=np.float64)
        ar = np.array([f[1] for f in faces], dtype=np.float64)
        got = ideal_max_iou(w, ar, design)
        want = np.array([naive_ideal_max_iou(a, b, design) for a, b in faces], dtype=np.float64)
        assert got.shape == (len(faces),)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        for (a, b), v in zip(faces[:3], want.tolist()):
            scalar = ideal_max_iou(a, b, design)
            assert type(scalar) is float and scalar == v

    @given(
        st.lists(st.tuples(st.floats(min_value=1e-2, max_value=1e5),
                           st.floats(min_value=1e-3, max_value=1e3)), min_size=8, max_size=40),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=5),
    )
    def test_blocks_longer_than_face_block(self, faces, block, per_record):
        # run_ams scores FACE_BLOCK faces per call; with the block patched
        # small, the faces span several blocks and records, and every value
        # still equals the scalar loop's bit for bit.
        design = ams_design(1.0)
        records = [record(f"{k}.jpg", [(0.0, 0.0, w, w * ar) for w, ar in faces[k:k + per_record]])
                   for k in range(0, len(faces), per_record)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(anchorkit.ams, "FACE_BLOCK", block)
            _, got = run_ams(corpus(records), design, 0.5)
        xywh = np.concatenate([rec.faces[:, :4] for rec in records])
        w, ar = xywh[:, 2], xywh[:, 3] / xywh[:, 2]
        want = np.array([naive_ideal_max_iou(a, b, design) for a, b in zip(w.tolist(), ar.tolist())])
        assert got.max_iou.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert got.max_iou.view(np.uint64).tolist() == ideal_max_iou(w, ar, design).view(np.uint64).tolist()

    def test_empty_arrays(self):
        got = ideal_max_iou(np.empty(0), np.empty(0), ams_design(1.0))
        assert got.shape == (0,) and got.dtype == np.float64

    def test_rejects_non_positive_in_array(self):
        with pytest.raises(ValueError):
            ideal_max_iou(np.array([4.0, 0.0]), np.array([1.0, 1.0]), ams_design(1.0))

    def test_overflowed_extents_score_zero_silently(self):
        # A face width whose area overflows to inf scores 0 against every
        # size, as the scalar loop does, without a numpy warning.
        design = ams_design(1.0)
        assert ideal_max_iou(np.array([1e200]), np.array([1e200]), design).tolist() == [0.0]
        assert naive_ideal_max_iou(1e200, 1e200, design) == 0.0


class TestAnalyticMaxIou:
    def test_matched_shape(self):
        assert analytic_max_iou(1.0, 1.0) == 1.0

    def test_boundary_value_at_half(self):
        assert analytic_max_iou(2.25, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_extreme_ar(self):
        assert analytic_max_iou(2.4, 1.0) == pytest.approx(0.47656, abs=1e-5)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            analytic_max_iou(0.0, 1.0)

    @given(
        st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
        st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
    )
    def test_ar_inversion_symmetry(self, r, ra):
        assert analytic_max_iou(r, ra) == pytest.approx(
            analytic_max_iou(ra * ra / r, ra), rel=1e-12
        )

    @given(
        st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
        st.floats(min_value=1.0, max_value=2000.0, allow_nan=False),
    )
    def test_agrees_with_dense_scale_sweep(self, r, w):
        """Numeric check of the closed form from two sweeps: a wide sweep over
        the whole bracket containing the optimum (the geometric mean of width
        and height lies between them) shows nothing beats the formula, and a
        fine sweep around the optimum shows the formula's value is achieved."""
        def swept_max(scales):
            inter = np.minimum(w, scales) * np.minimum(w * r, scales)
            return (inter / (w * w * r + scales * scales - inter)).max()

        analytic = analytic_max_iou(r, 1.0)
        lo, hi = w * min(1.0, r), w * max(1.0, r)
        wide = swept_max(np.logspace(np.log10(lo) - 0.5, np.log10(hi) + 0.5, 4001))
        assert wide <= analytic + 1e-9

        s_opt = w * math.sqrt(r)
        fine = swept_max(np.logspace(np.log10(s_opt) - 0.15, np.log10(s_opt) + 0.15, 4001))
        assert fine == pytest.approx(analytic, abs=1e-4)


class TestBoundaryAr:
    @pytest.mark.parametrize(
        "t_p,expected",
        [(0.50, 2.25), (0.45, 2.595679), (0.40, 3.0625), (0.35, 3.719388)],
    )
    def test_reference_thresholds(self, t_p, expected):
        assert boundary_ar(t_p, 1.0) == pytest.approx(expected, abs=1e-4)

    def test_scales_with_anchor_ar(self):
        assert boundary_ar(0.5, 1.5) == pytest.approx(1.5 * 2.25, abs=1e-12)

    def test_rejects_out_of_range(self):
        for bad in (0.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                boundary_ar(bad, 1.0)
        with pytest.raises(ValueError):
            boundary_ar(0.5, 0.0)

    @given(st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
    def test_inverse_of_analytic(self, t):
        assert analytic_max_iou(boundary_ar(t, 1.0), 1.0) == pytest.approx(t, abs=1e-9)


def synthetic_corpus():
    """Six faces at fixed ARs; the matchable ones have rung-aligned widths."""
    def face(ar, w):
        return (10.0, 10.0, w, w * ar)

    matched = [face(ar, aligned_width(16.0, ar, 1.0)) for ar in (0.5, 1.0, 2.0)]
    unmatched = [face(0.3, 30.0), face(2.3, 30.0), face(4.0, 25.0)]
    return corpus([record("img/a.jpg", matched), record("img/b.jpg", unmatched)])


class TestRunAms:
    def test_matched_set_on_fixed_corpus(self):
        report, faces = run_ams(synthetic_corpus(), ams_design(1.0), 0.5)
        assert report.n_faces == len(faces.face) == 6
        assert report.n_matched == 3
        assert {round(ar, 6) for ar in faces.ar[faces.matched].tolist()} == {0.5, 1.0, 2.0}
        assert report.matched_ar_min == pytest.approx(0.5, rel=1e-9)
        assert report.matched_ar_max == pytest.approx(2.0, rel=1e-9)
        assert report.fitted_eta == pytest.approx(2.0, rel=1e-9)
        assert report.analytic_eta == pytest.approx(2.25, abs=1e-12)

    def test_zero_threshold_matches_everything(self):
        report, faces = run_ams(synthetic_corpus(), ams_design(1.0), 0.0)
        assert report.n_matched == report.n_faces == 6
        assert faces.matched.all()
        assert report.analytic_eta == math.inf

    def test_empty_corpus_flagged(self):
        report, faces = run_ams(corpus([]), ams_design(1.0), 0.5)
        assert report.n_faces == 0
        assert report.n_matched == 0
        assert report.matched_ar_min is None
        assert report.matched_ar_max is None
        assert report.fitted_eta is None
        assert len(faces.face) == 0 and rows(faces) == []

    def test_sources_traceable(self):
        _, faces = run_ams(synthetic_corpus(), ams_design(1.0), 0.5)
        assert faces.image.tolist() == ["img/a.jpg"] * 3 + ["img/b.jpg"] * 3
        assert faces.face.tolist() == [0, 1, 2, 0, 1, 2]
        assert [row[:2] for row in rows(faces)[:3]] == [
            ("img/a.jpg", 0),
            ("img/a.jpg", 1),
            ("img/a.jpg", 2),
        ]

    def test_invalid_faces_filtered_by_default(self):
        # The second face is flagged invalid, the third is degenerate.
        records = [record("x.jpg", [(0, 0, 32, 32), (0, 0, 32, 32), (0, 0, 0, 32)], invalid=[1])]
        report, faces = run_ams(corpus(records), ams_design(1.0), 0.5)
        assert report.n_faces == 1
        assert faces.face.tolist() == [0]

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            run_ams(corpus([]), ams_design(1.0), 1.5)

    def test_fitted_eta_takes_wider_tail(self):
        faces = [
            (0, 0, aligned_width(16.0, ar, 1.0), aligned_width(16.0, ar, 1.0) * ar)
            for ar in (0.8, 2.0)
        ]
        report, _ = run_ams(corpus([record("y.jpg", faces)]), ams_design(1.0), 0.5)
        assert report.fitted_eta == pytest.approx(2.0, rel=1e-9)

    def test_columns_match_per_record_scoring(self):
        # Images with no faces, with only dropped faces and with several
        # kept ones: the columns are each image's kept_faces scored alone.
        records = list(generate_synthetic(5, 40, LogUniformAR(0.2, 5.0)))
        records[3] = record("empty.jpg", [])
        records[7] = record("dropped.jpg", [(0, 0, 8, 8), (0, 0, 0, 8)], invalid=[0])
        records[9] = record("mixed.jpg", [(0, 0, 8, 20), (0, 0, 0, 8), (1, 1, 30, 12)])
        design = ams_design(1.0)
        _, faces = run_ams(corpus(records), design, 0.5)
        want_rows = []
        for rec in records:
            idx, xywh = kept_faces(rec)
            for i, (_, _, w, h) in zip(idx.tolist(), xywh.tolist()):
                iou = naive_ideal_max_iou(w, h / w, design)
                want_rows.append((rec.path, i, h / w, w, iou, iou > 0.5))
        assert rows(faces) == want_rows


class TestRunAmsResources:
    def test_peak_memory_over_100k_faces(self):
        # 100k faces in 25k images score in FACE_BLOCK blocks: the peak is
        # the corpus and its columns, not (faces x sizes) temporaries, which
        # would take 12 MB each at once.
        rng = np.random.default_rng(3)
        n = 100_000
        faces = np.zeros((n, 10))
        faces[:, 2] = rng.uniform(4, 512, n)
        faces[:, 3] = faces[:, 2] * rng.uniform(0.2, 5.0, n)
        paths = np.array([f"{k}.jpg" for k in range(n // 4)], dtype=object)
        table = Corpus(paths, np.full((n // 4, 2), np.nan), np.arange(0, n, 4), faces)
        design = ams_design(1.0)
        tracemalloc.start()
        try:
            _, columns = run_ams(table, design, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(columns.face) == n
        assert peak < 25e6, f"peak {peak / 1e6:.1f} MB"
