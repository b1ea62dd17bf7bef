import math
import tracemalloc
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from anchorkit.ams import analytic_max_iou
from anchorkit.anchors import AnchorDesign, PyramidLevel, detector_design, generate_anchor_boxes
from anchorkit import ams, cropsim, matching
from anchorkit.cropsim import CropParams, _crops, simulate
from anchorkit.matching import MatchConfig, Strategy
from anchorkit.prng import floats
from anchorkit.reports import emit_reports
from builders import corpus, record as make_record, rows
from oracles import SplitMix64, naive_random_crop, naive_simulate, substream

SAM = MatchConfig(strategy=Strategy.SAM)
WARM = MatchConfig()
FULL_PATCH = CropParams(scale_options=(1.0,))


def record(path, width, height, boxes, invalid=()):
    return make_record(path, boxes, float(width), float(height), invalid)


class TestCropParams:
    def test_defaults(self):
        p = CropParams()
        assert p.scale_options == (0.3, 0.45, 0.6, 0.8, 1.0)
        assert p.output_side == 640.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(scale_options=()),
            dict(scale_options=(0.0,)),
            dict(scale_options=(1.2,)),
            dict(output_side=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CropParams(**kwargs)


def crops(width, height, faces, params, rng, n=1):
    """_crops of n crops, drawing each crop's three floats from the scalar rng."""
    u = np.array([rng.next_float() for _ in range(3 * n)]).reshape(n, 3)
    return _crops(width, height, np.array(faces, dtype=np.float64).reshape(-1, 4), params, u)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64).tolist()


class TestRandomCrop:
    """_crops: an image's crops drawn and transformed at once."""

    def test_full_crop_of_square_image_is_uniform_resize(self):
        faces = [(10, 20, 40, 80), (200, 100, 32, 32)]
        crop, face, boxes = crops(320, 320, faces, FULL_PATCH, SplitMix64(1), 3)
        # Every full patch of a square image is the image itself.
        assert crop.tolist() == [0, 0, 1, 1, 2, 2]
        assert face.tolist() == [0, 1, 0, 1, 0, 1]
        assert boxes.tolist() == [[v * 2.0 for v in f] for f in faces] * 3

    def test_center_on_far_edge_is_dropped(self):
        # Retention is half-open: a center exactly on the right edge is out.
        faces = [(98, 40, 4, 10)]  # cx == 100 == patch edge
        crop, face, boxes = crops(100, 100, faces, FULL_PATCH, SplitMix64(3), 4)
        assert crop.size == face.size == 0
        assert boxes.shape == (0, 4)

    def test_half_clipped_face_arithmetic(self):
        # Face sticking out of the patch: kept (center inside), clipped, and
        # scaled by 640 / 100.
        faces = [(92, 40, 10, 10)]  # cx = 97 < 100, clipped at x = 100
        crop, face, boxes = crops(100, 100, faces, FULL_PATCH, SplitMix64(3))
        assert (crop.tolist(), face.tolist()) == ([0], [0])
        assert boxes.tolist() == [[92 * 6.4, 40 * 6.4, 8 * 6.4, 10 * 6.4]]
        assert boxes[0, 3] / boxes[0, 2] == pytest.approx(1.25, rel=1e-12)

    def test_same_rng_state_same_crop(self):
        faces = [(30, 30, 40, 40), (100, 20, 90, 60)]
        params = CropParams(scale_options=(0.4, 0.7, 1.0))
        a = crops(300, 200, faces, params, SplitMix64(9), 20)
        b = crops(300, 200, faces, params, SplitMix64(9), 20)
        for x, y in zip(a, b):
            assert bits(x) == bits(y)
        assert len(set(a[0].tolist())) > 1

    def test_patch_within_image(self):
        # Face centres on a lattice finer than the smallest patch, so every
        # crop keeps some. Each centre has a face with its top-left corner at
        # the image's and one with its bottom-right corner at the image's:
        # the first starts at the patch's corner only if the patch starts
        # inside the image, the second fills the patch only if it ends inside.
        w_img, h_img = 517, 301
        params = CropParams(scale_options=(0.3, 0.6, 1.0))
        centres = [(cx, cy) for cx in range(25, w_img, 50) for cy in range(25, h_img, 50)]
        top_left = [(0, 0, 2 * cx, 2 * cy) for cx, cy in centres]
        bottom_right = [(2 * cx - w_img, 2 * cy - h_img, 2 * (w_img - cx), 2 * (h_img - cy))
                        for cx, cy in centres]
        crop, face, boxes = crops(w_img, h_img, top_left + bottom_right, params,
                                  SplitMix64(5), 200)
        assert np.unique(crop).tolist() == list(range(200))
        first = face < len(centres)
        assert (boxes[first, :2] == 0.0).all()
        x2, y2 = (boxes[~first, :2] + boxes[~first, 2:]).T
        assert x2 == pytest.approx(np.full(x2.size, 640.0), rel=1e-12)
        assert y2 == pytest.approx(np.full(y2.size, 640.0), rel=1e-12)

    def test_rejects_bad_image(self):
        for w, h in ((0, 10), (10, -1)):
            with pytest.raises(ValueError, match="image dimensions must be positive"):
                crops(w, h, [], FULL_PATCH, SplitMix64(0))

    @settings(max_examples=300)
    @given(
        dims=st.tuples(*[st.one_of(st.integers(1, 2000), st.floats(0.5, 2000.0))] * 2),
        faces=st.lists(st.tuples(st.floats(-100.0, 2100.0), st.floats(-100.0, 2100.0),
                                 st.floats(0.01, 800.0), st.floats(0.01, 800.0)),
                       max_size=8),
        # The scalar crop divides by the patch side, which tiny scales underflow.
        scales=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=5),
        output_side=st.floats(1.0, 2000.0),
        state=st.integers(0, 2**64 - 1),
        n=st.integers(0, 8),
    )
    @example(dims=(100, 100), faces=[(-0.0, -0.0, 150.0, 150.0), (98.0, 40.0, 4.0, 10.0)],
             scales=[1.0], output_side=640.0, state=3, n=2)
    def test_matches_scalar_crops(self, dims, faces, scales, output_side, state, n):
        params = CropParams(scale_options=scales, output_side=output_side)
        rng, oracle = SplitMix64(state), SplitMix64(state)
        crop, face, boxes = crops(*dims, faces, params, rng, n)
        want = [naive_random_crop(*dims, faces, params, oracle) for _ in range(n)]
        assert crop.tolist() == [c for c, (kept, _) in enumerate(want) for _ in kept]
        assert face.tolist() == [i for _, idx in want for i in idx]
        assert bits(boxes) == bits([box for kept, _ in want for box in kept] or np.empty((0, 4)))
        assert rng.next_u64() == oracle.next_u64()


class TestSimulate:
    def aligned_record(self):
        # Anchor-box face: width 64 on the P4 lattice of a 640 canvas.
        return record("img/a.jpg", 640, 640, [(296.0, 296.0, 64.0, 64.0)])

    def test_zero_crops_zero_counters(self):
        out = simulate(corpus([self.aligned_record()]), detector_design(), SAM, 0, seed=1)
        s = out.per_face
        assert len(s.face) == 1
        assert (s.crops_seen[0], s.crops_positive[0]) == (0, 0)
        assert s.best_observed_iou[0] == 0.0
        assert s.best_ideal_iou[0] == 0.0

    def test_grid_aligned_face_always_positive(self):
        out = simulate(
            corpus([self.aligned_record()]), detector_design(), SAM, 25, seed=4, params=FULL_PATCH
        )
        s = out.per_face
        assert len(s.face) == 1
        assert s.crops_seen[0] == 25
        assert s.crops_positive[0] == 25
        assert s.best_observed_iou[0] == 1.0
        assert s.best_ideal_iou[0] == 1.0

    def test_full_scale_square_equals_repeated_single_crop(self):
        # With scale 1.0 on square images every crop is the same deterministic
        # resize, so counters are n_crops times the single-crop outcome.
        rec = record("img/b.jpg", 320, 320, [(100.0, 120.0, 40.0, 30.0)])
        one = simulate(corpus([rec]), detector_design(), SAM, 1, seed=6, params=FULL_PATCH)
        many = simulate(corpus([rec]), detector_design(), SAM, 40, seed=6, params=FULL_PATCH)
        s1, s40 = one.per_face, many.per_face
        assert s40.crops_seen[0] == 40 * s1.crops_seen[0]
        assert s40.crops_positive[0] == 40 * s1.crops_positive[0]
        assert s40.best_observed_iou[0] == s1.best_observed_iou[0]

    def test_extreme_ar_face_warm_vs_sam(self):
        # AR 2.4 with the optimal scale on the 64 rung: the grid reaches the
        # ideal-placement IoU in every unclipped crop, which SAM's threshold
        # rejects and WARM's accepts.
        w = 64.0 / math.sqrt(2.4)
        h = w * 2.4
        rec = record("img/e.jpg", 1280, 640, [(500.0 - w / 2, 328.0 - h / 2, w, h)])
        sam = simulate(corpus([rec]), detector_design(), SAM, 200, seed=7, params=FULL_PATCH)
        warm = simulate(corpus([rec]), detector_design(), WARM, 200, seed=7, params=FULL_PATCH)
        s, m = sam.per_face, warm.per_face
        expected = analytic_max_iou(2.4, 1.0)

        assert s.crops_positive[0] == 0
        assert m.crops_positive[0] >= 1
        assert s.best_observed_iou[0] == pytest.approx(expected, abs=1e-9)
        assert s.best_observed_iou[0] <= s.best_ideal_iou[0] + 1e-9
        # Frozen outcome for the pinned seed.
        assert (s.crops_seen[0], m.crops_seen[0]) == (154, 154)
        assert m.crops_positive[0] == 153

    def test_observed_never_exceeds_ideal_bound(self):
        recs = [
            record("img/r.jpg", 900, 700,
                   [(100, 100, 50, 120), (400, 300, 33.5, 21.0), (700, 150, 90, 90)]),
        ]
        out = simulate(corpus(recs), detector_design(), WARM, 60, seed=13)
        s = out.per_face
        assert len(s.face) == 3
        assert (s.best_observed_iou <= s.best_ideal_iou + 1e-9).all()

    def test_same_seed_byte_identical(self):
        recs = [
            record("img/x.jpg", 800, 600, [(100, 100, 64, 64), (300, 200, 40, 90)]),
            record("img/y.jpg", 640, 640, [(50, 50, 128, 128)]),
        ]
        a = simulate(corpus(recs), detector_design(), WARM, 30, seed=21)
        b = simulate(corpus(recs), detector_design(), WARM, 30, seed=21)
        assert emit_reports(a, "json") == emit_reports(b, "json")

    def test_substreams_isolate_images(self):
        # Changing one image's annotations must not change another's outcome.
        base = record("img/x.jpg", 800, 600, [(100, 100, 64, 64)])
        other1 = record("img/y.jpg", 640, 640, [(50, 50, 128, 128)])
        other2 = record("img/y.jpg", 640, 640, [(200, 200, 32, 32), (33, 41, 77, 20)])
        a = simulate(corpus([base, other1]), detector_design(), WARM, 25, seed=3)
        b = simulate(corpus([base, other2]), detector_design(), WARM, 25, seed=3)
        assert rows(a.per_face)[0] == rows(b.per_face)[0]

    def test_missing_dims_names_record(self):
        rec = make_record("img/missing.jpg", [(0, 0, 4, 4)])
        with pytest.raises(ValueError, match="img/missing.jpg"):
            simulate(corpus([rec]), detector_design(), SAM, 1, seed=0)

    def test_invalid_faces_excluded(self):
        rec = record("img/z.jpg", 640, 640, [(100, 100, 64, 64), (0, 0, 10, 10)], invalid=[1])
        out = simulate(corpus([rec]), detector_design(), SAM, 2, seed=0)
        assert out.per_face.face.tolist() == [0]

    def test_negative_crops_rejected(self):
        with pytest.raises(ValueError):
            simulate(corpus([]), detector_design(), SAM, -1, seed=0)



# A two-level design on a 128-pixel output canvas keeps each crop's grid small.
SMALL_DESIGN = AnchorDesign(levels=(PyramidLevel("A", 16, (12.0, 24.0)),
                                    PyramidLevel("B", 32, (48.0,))))


@st.composite
def sim_corpora(draw):
    """Up to three images with dims. A face is inside the image, so crops
    may retain it; centred right of the image, so no crop ever does; or
    dropped, by its invalid flag or zero width."""
    records = []
    for n in range(draw(st.integers(0, 3))):
        w, h = draw(st.integers(40, 300)), draw(st.integers(40, 300))
        boxes, invalid = [], []
        for j in range(draw(st.integers(0, 4))):
            kind = draw(st.sampled_from(["inside", "inside", "outside", "invalid", "flat"]))
            fw, fh = draw(st.integers(2, 90)), draw(st.integers(2, 90))
            if kind == "outside":
                x, y = w + draw(st.integers(0, 20)), draw(st.integers(-20, h))
            else:
                x, y = draw(st.integers(-10, w - 1)), draw(st.integers(-10, h - 1))
            if kind == "invalid":
                invalid.append(j)
            boxes.append((x, y, 0 if kind == "flat" else fw, fh))
        records.append(record(f"img/{n}.jpg", w, h, boxes, invalid))
    return records


SEEN = record("img/seen.jpg", 200, 120, [(40, 30, 50, 40), (90, 60, 20, 60)])
NEVER_SEEN = record("img/never.jpg", 200, 120, [(60, 40, 30, 30), (205, 40, 30, 30)])
ALL_EMPTY = record("img/empty.jpg", 200, 120, [(200, 0, 10, 10), (230, 100, 40, 8)])


class TestSimulateDifferential:
    """simulate's table against the per-crop scalar loop in oracles.py. The
    loop labels each crop under a drawn tn, simulate under its own config's
    tn: simulate labels under tn = 0, and its table must not depend on tn."""

    @settings(max_examples=100)
    @given(records=sim_corpora(), strategy=st.sampled_from(list(Strategy)),
           n_crops=st.integers(0, 6), seed=st.integers(0, 2**32),
           scales=st.sampled_from([(1.0,), (0.3, 0.6), (0.3, 0.45, 0.6, 0.8, 1.0)]),
           tn=st.floats(0.0, 0.39))
    @example(records=[SEEN, ALL_EMPTY], strategy=Strategy.WARM, n_crops=0, seed=1, scales=(1.0,),
             tn=0.35)
    @example(records=[ALL_EMPTY, SEEN], strategy=Strategy.SAM, n_crops=5, seed=2, scales=(0.3, 0.6),
             tn=0.0)
    @example(records=[NEVER_SEEN], strategy=Strategy.SAM_COMPENSATE, n_crops=4, seed=3,
             scales=(1.0,), tn=0.39)
    def test_matches_scalar_loop(self, records, strategy, n_crops, seed, scales, tn):
        cfg = MatchConfig(strategy=strategy)
        params = CropParams(scale_options=scales, output_side=128.0)
        got = simulate(corpus(records), SMALL_DESIGN, cfg, n_crops, seed, params).per_face
        want = naive_simulate(corpus(records), SMALL_DESIGN, replace(cfg, tn=tn), n_crops, seed, params)
        assert [f.name for f in fields(got)] == list(want)
        for name, column in want.items():
            assert getattr(got, name).tolist() == column, name
        assert got.crops_seen.dtype.kind == got.crops_positive.dtype.kind == "i"

    def test_cases_reach_the_edges(self):
        # The examples above hold a face no crop retains and an image whose
        # every crop is empty.
        params = CropParams(scale_options=(0.3, 0.6), output_side=128.0)
        out = simulate(corpus([NEVER_SEEN, ALL_EMPTY]), SMALL_DESIGN, MatchConfig(), 5, 2, params)
        assert out.per_face.crops_seen.tolist()[1:] == [0, 0, 0]
        assert out.per_face.crops_seen[0] > 0


class TestFaceBlock:
    """simulate draws an image's crops ams.FACE_BLOCK crop-face cells at a time."""

    RECORDS = [
        record("img/five.jpg", 300, 200, [(10, 10, 40, 50), (60, 30, 20, 60), (150, 80, 90, 30),
                                          (200, 120, 35, 35), (250, 20, 30, 90)]),
        record("img/none.jpg", 200, 120, [(40, 30, 50, 40)], invalid=[0]),
        record("img/one.jpg", 120, 160, [(30, 40, 60, 70)]),
        record("img/three.jpg", 256, 256, [(0, 0, 128, 128), (100, 100, 40, 20), (180, 30, 30, 30)]),
    ]

    @pytest.mark.parametrize("block", range(1, 8))
    def test_block_does_not_change_columns(self, block, monkeypatch):
        params = CropParams(scale_options=(0.3, 0.6, 1.0), output_side=128.0)
        want = simulate(corpus(self.RECORDS), SMALL_DESIGN, WARM, 9, 5, params).per_face
        calls = []
        bound = ams.ideal_max_iou
        monkeypatch.setattr(ams, "FACE_BLOCK", block)
        monkeypatch.setattr(ams, "ideal_max_iou", lambda *a: calls.append(1) or bound(*a))
        got = simulate(corpus(self.RECORDS), SMALL_DESIGN, WARM, 9, 5, params).per_face
        for f in fields(got):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), f.name
        assert bits(got.best_observed_iou) == bits(want.best_observed_iou)
        assert bits(got.best_ideal_iou) == bits(want.best_ideal_iou)
        # One bound call per block; the image with no kept face draws nothing.
        assert len(calls) == sum(-(-9 // max(1, block // m)) for m in (5, 1, 3))

    def test_memory_bounded_by_face_block(self, monkeypatch):
        # 200 faces x 1000 crops: drawn in one piece, the crops alone peak
        # near 13 MB. The kernel is stubbed, since its memory has its own
        # bounds in test_matching.py and its calls would dominate the time.
        def kernel(grid, boxes, cfg, group, plan):
            return SimpleNamespace(max_iou=np.ones(len(boxes)),
                                   positive_count=np.ones(len(boxes), dtype=np.int64),
                                   effective_tp=np.full(len(boxes), cfg.t0), n_anchors=0,
                                   label_counts=lambda: {})

        monkeypatch.setattr(ams, "assign_labels_xywh", kernel)
        faces = [(20 * i + 2, 30 * j + 3, 14, 20) for i in range(20) for j in range(10)]
        rec = record("img/crowd.jpg", 400, 300, faces)
        tracemalloc.start()
        try:
            out = simulate(corpus([rec]), SMALL_DESIGN, WARM, 1000, 3, CropParams(output_side=128.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.per_face.crops_seen.sum() > 50_000
        assert peak < 3_000_000

    def test_kernel_memory_does_not_grow_with_crops(self):
        # Six faces near AR 1 and four tall ones (AR 5.2), whose crops often
        # fall below tn. Both runs span more than one block of 819 crops, so
        # their peak is one block's arrays and plan plus the larger of two
        # transients (by tracemalloc, above the memory at the call's start):
        # matching.plan_faces over the block, up to 2.5 MB, and one kernel
        # call given its slice of the plan, up to 1.5 MB. Both runs peak
        # near 2.8 MB: ten times the crops add less than 1 MB. A plan
        # that folds its nearest-anchor bound one plane at a time peaks at
        # 1.8 MB, but its small per-plane steps took 40% more time on 36
        # crowded canvases. When each kernel call took its own bounds pass,
        # the calls reached 2.3 MB and the runs 2.5 and 2.7 MB. Calls of
        # 2**17 pairs by a position-blind bound peaked near 4.6 MB, and one
        # kernel call per block near 10-11 MB.
        # Keeping the pairs below tn, or expanding 2**20 candidate pairs at
        # once, took runs of 64 faces to 25-38 MB.
        faces = [(40 + 55 * i, 60 + 37 * (i % 3), 20 + 4 * i, 24 + 3 * i) for i in range(6)]
        faces += [(380 + 60 * i, 40 + 20 * i, 24 + 6 * i, 5.2 * (24 + 6 * i)) for i in range(4)]
        rec = record("img/ten.jpg", 640, 480, faces)
        peaks = []
        for n in (1000, 10_000):
            tracemalloc.start()
            try:
                out = simulate(corpus([rec]), detector_design(), WARM, n, 3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert out.per_face.crops_seen.sum() > 40_000
        assert (out.per_face.crops_positive[6:] > 0).all()
        assert peaks[1] < peaks[0] + 1_000_000, peaks
        assert peaks[1] < 4_000_000, peaks

    @pytest.mark.parametrize("run", [1, 3, 7, 64])
    def test_one_kernel_call_per_run_of_crops(self, run, monkeypatch):
        # Every full patch of a square image keeps all three faces in the
        # same place, so every crop has the same pair bound, taken under
        # tn 0 as simulate labels. With RUN_PAIRS at `run` faces' worth of
        # it, a run holds max(1, run // 3) crops and the 40 crops take that
        # many calls.
        faces = [(0, 0, 128, 128), (100, 100, 16, 12), (180, 30, 12, 12)]
        rec = record("img/sq.jpg", 256, 256, faces)
        want = simulate(corpus([rec]), SMALL_DESIGN, WARM, 40, 5, FULL_PATCH).per_face
        grid = generate_anchor_boxes(SMALL_DESIGN, 640, 640)
        plan = matching.plan_faces(grid, np.array(faces) * 2.5, replace(WARM, tn=0.0))
        per_crop = plan.pairs.sum()
        assert per_crop > 0
        calls = []
        kernel = ams.assign_labels_xywh

        def counted(grid, boxes, cfg, group, plan):
            assert cfg == replace(WARM, tn=0.0)
            calls.append(group.tolist())
            return kernel(grid, boxes, cfg, group=group, plan=plan)

        monkeypatch.setattr(matching, "RUN_PAIRS", run * per_crop // 3)
        monkeypatch.setattr(ams, "assign_labels_xywh", counted)
        got = simulate(corpus([rec]), SMALL_DESIGN, WARM, 40, 5, FULL_PATCH).per_face
        for f in fields(got):
            assert getattr(got, f.name).tolist() == getattr(want, f.name).tolist(), f.name
        per_call = max(1, run // 3)
        assert len(calls) == -(-40 // per_call)
        # Each call holds whole crops, numbered from 0 in draw order.
        for group in calls:
            assert group == [g for g in range(len(group) // 3) for _ in range(3)]
        assert calls[0] == [g for g in range(per_call) for _ in range(3)]
        assert sum(map(len, calls)) == 40 * 3

    def test_runs_hold_whole_crops_of_any_size(self, monkeypatch):
        # Crops keep one to five faces. Whatever RUN_PAIRS, every call holds
        # whole crops, so the columns are those of one call per crop.
        rec = self.RECORDS[0]
        params = CropParams(scale_options=(0.3, 0.6, 1.0), output_side=128.0)
        kernel, calls = ams.assign_labels_xywh, []

        def counted(grid, boxes, cfg, group, plan):
            calls.append(group)
            return kernel(grid, boxes, cfg, group=group, plan=plan)

        monkeypatch.setattr(ams, "assign_labels_xywh", counted)
        monkeypatch.setattr(matching, "RUN_PAIRS", 1)
        want = simulate(corpus([rec]), SMALL_DESIGN, WARM, 60, 2, params).per_face
        # One call per crop that keeps a face, but crops whose faces can
        # keep no pair (a bound of 0) share a call.
        kept = sum(len(np.unique(g)) for g in calls)
        assert 30 < kept < 60 and 1 < len(calls) < kept
        for budget in (300, 1000, 2**40):
            calls.clear()
            monkeypatch.setattr(matching, "RUN_PAIRS", budget)
            got = simulate(corpus([rec]), SMALL_DESIGN, WARM, 60, 2, params).per_face
            for f in fields(got):
                assert getattr(got, f.name).tolist() == getattr(want, f.name).tolist(), f.name
            assert 1 < len(calls) < kept if budget < 2**40 else len(calls) == 1
            # Each crop is one set of one call, its ids numbered by draw from
            # the call's first crop.
            assert sum(len(np.unique(g)) for g in calls) == kept
            assert all(g[0] == 0 and (np.diff(g) >= 0).all() for g in calls)


class TestPrng:
    def test_substreams_are_stable(self):
        assert bits(floats(42, 0, 0, 4)) == bits(floats(42, 0, 0, 4))

    def test_substreams_differ_by_index(self):
        assert bits(floats(42, 0, 0, 4)) != bits(floats(42, 1, 0, 4))

    def test_floats_in_unit_interval(self):
        xs = floats(123, 0, 0, 2000)
        assert ((0.0 <= xs) & (xs < 1.0)).all()
        assert 0.4 < xs.mean() < 0.6

    def test_substream_rejects_negative_index(self):
        for stream, start, count in ((-1, 0, 1), (np.array([0, -1]), 0, 1), (0, -1, 1),
                                     (0, 0, -1)):
            with pytest.raises(ValueError, match="must be non-negative"):
                floats(0, stream, start, count)

    @given(seed=st.one_of(st.integers(-2**70, 2**70), st.integers(2**63, 2**64 - 1)),
           streams=st.lists(st.one_of(st.integers(0, 40), st.integers(2**40 - 3, 2**40)),
                            max_size=4),
           start=st.integers(0, 30), count=st.integers(0, 30), as_array=st.booleans())
    @example(seed=2**64 - 1, streams=[0], start=0, count=0, as_array=False)
    @example(seed=-5, streams=[2**40, 0, 7], start=3, count=5, as_array=True)
    @example(seed=12345678901234567890, streams=[], start=2, count=4, as_array=True)
    def test_floats_equal_scalar_substream(self, seed, streams, start, count, as_array):
        stream = np.array(streams, dtype=np.int64) if as_array else (streams or [0])[0]
        got = floats(seed, stream, start, count)
        want = []
        for index in np.atleast_1d(stream).tolist():
            rng = substream(seed, index)
            drawn = [rng.next_float() for _ in range(start + count)]
            want.append(drawn[start:])
        assert got.dtype == np.float64
        assert got.shape == np.shape(stream) + (count,)
        assert bits(got.reshape(len(want), count)) == [bits(row) for row in want]
