import math

import pytest

from anchorkit.ams import analytic_max_iou
from anchorkit.anchors import detector_design
from anchorkit.cropsim import CropParams, random_crop, simulate
from anchorkit.geometry import Box
from anchorkit.matching import MatchConfig, Strategy
from anchorkit.prng import SplitMix64, substream
from anchorkit.reports import emit_reports
from builders import record as make_record

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


class TestRandomCrop:
    def test_full_crop_of_square_image_is_uniform_resize(self):
        faces = [(10, 20, 40, 80), (200, 100, 32, 32)]
        crop = random_crop(320, 320, faces, FULL_PATCH, SplitMix64(1))
        assert crop.patch == Box(0.0, 0.0, 320.0, 320.0)
        assert crop.scale_factor == 2.0
        assert crop.source_indices == (0, 1)
        for before, after in zip(faces, crop.boxes):
            assert after == tuple(v * 2 for v in before)
            assert after[3] / after[2] == pytest.approx(before[3] / before[2], rel=1e-12)

    def test_center_on_far_edge_is_dropped(self):
        # Retention is half-open: a center exactly on the right edge is out.
        faces = [(98, 40, 4, 10)]  # cx == 100 == patch edge
        crop = random_crop(100, 100, faces, FULL_PATCH, SplitMix64(3))
        assert crop.boxes == ()

    def test_half_clipped_face_arithmetic(self):
        # Face sticking out of the patch: kept (center inside), clipped, scaled.
        faces = [(92, 40, 10, 10)]  # cx = 97 < 100, clipped at x = 100
        crop = random_crop(100, 100, faces, FULL_PATCH, SplitMix64(3))
        assert crop.scale_factor == 6.4
        (b,) = crop.boxes
        assert b == (92 * 6.4, 40 * 6.4, 8 * 6.4, 10 * 6.4)
        assert b[3] / b[2] == pytest.approx(1.25, rel=1e-12)

    def test_same_rng_state_same_crop(self):
        faces = [(30, 30, 40, 40)]
        params = CropParams(scale_options=(0.4, 0.7, 1.0))
        a = random_crop(300, 200, faces, params, SplitMix64(9))
        b = random_crop(300, 200, faces, params, SplitMix64(9))
        assert a == b

    def test_patch_within_image(self):
        params = CropParams(scale_options=(0.3, 0.6, 1.0))
        rng = SplitMix64(5)
        for _ in range(200):
            crop = random_crop(517, 301, [], params, rng)
            p = crop.patch
            assert p.w == p.h
            assert p.x >= 0 and p.y >= 0
            assert p.x2 <= 517 + 1e-9 and p.y2 <= 301 + 1e-9

    def test_rejects_bad_image(self):
        with pytest.raises(ValueError):
            random_crop(0, 10, [], FULL_PATCH, SplitMix64(0))


class TestSimulate:
    def aligned_record(self):
        # Anchor-box face: width 64 on the P4 lattice of a 640 canvas.
        return record("img/a.jpg", 640, 640, [(296.0, 296.0, 64.0, 64.0)])

    def test_zero_crops_zero_counters(self):
        out = simulate([self.aligned_record()], detector_design(), SAM, 0, seed=1)
        (s,) = out.per_face
        assert (s.crops_seen, s.crops_positive) == (0, 0)
        assert s.best_observed_iou == 0.0
        assert s.best_ideal_iou == 0.0

    def test_grid_aligned_face_always_positive(self):
        out = simulate(
            [self.aligned_record()], detector_design(), SAM, 25, seed=4, params=FULL_PATCH
        )
        (s,) = out.per_face
        assert s.crops_seen == 25
        assert s.crops_positive == 25
        assert s.best_observed_iou == 1.0
        assert s.best_ideal_iou == 1.0

    def test_full_scale_square_equals_repeated_single_crop(self):
        # With scale 1.0 on square images every crop is the same deterministic
        # resize, so counters are n_crops times the single-crop outcome.
        rec = record("img/b.jpg", 320, 320, [(100.0, 120.0, 40.0, 30.0)])
        one = simulate([rec], detector_design(), SAM, 1, seed=6, params=FULL_PATCH)
        many = simulate([rec], detector_design(), SAM, 40, seed=6, params=FULL_PATCH)
        s1, s40 = one.per_face[0], many.per_face[0]
        assert s40.crops_seen == 40 * s1.crops_seen
        assert s40.crops_positive == 40 * s1.crops_positive
        assert s40.best_observed_iou == s1.best_observed_iou

    def test_extreme_ar_face_warm_vs_sam(self):
        # AR 2.4 with the optimal scale on the 64 rung: the grid reaches the
        # ideal-placement IoU in every unclipped crop, which SAM's threshold
        # rejects and WARM's accepts.
        w = 64.0 / math.sqrt(2.4)
        h = w * 2.4
        rec = record("img/e.jpg", 1280, 640, [(500.0 - w / 2, 328.0 - h / 2, w, h)])
        sam = simulate([rec], detector_design(), SAM, 200, seed=7, params=FULL_PATCH)
        warm = simulate([rec], detector_design(), WARM, 200, seed=7, params=FULL_PATCH)
        s, m = sam.per_face[0], warm.per_face[0]
        expected = analytic_max_iou(2.4, 1.0)

        assert s.crops_positive == 0
        assert m.crops_positive >= 1
        assert s.best_observed_iou == pytest.approx(expected, abs=1e-9)
        assert s.best_observed_iou <= s.best_ideal_iou + 1e-9
        # Frozen outcome for the pinned seed.
        assert (s.crops_seen, m.crops_seen) == (154, 154)
        assert m.crops_positive == 153

    def test_observed_never_exceeds_ideal_bound(self):
        recs = [
            record("img/r.jpg", 900, 700,
                   [(100, 100, 50, 120), (400, 300, 33.5, 21.0), (700, 150, 90, 90)]),
        ]
        out = simulate(recs, detector_design(), WARM, 60, seed=13)
        for s in out.per_face:
            assert s.best_observed_iou <= s.best_ideal_iou + 1e-9

    def test_same_seed_byte_identical(self):
        recs = [
            record("img/x.jpg", 800, 600, [(100, 100, 64, 64), (300, 200, 40, 90)]),
            record("img/y.jpg", 640, 640, [(50, 50, 128, 128)]),
        ]
        a = simulate(recs, detector_design(), WARM, 30, seed=21)
        b = simulate(recs, detector_design(), WARM, 30, seed=21)
        assert emit_reports(a, "json") == emit_reports(b, "json")

    def test_substreams_isolate_images(self):
        # Changing one image's annotations must not change another's outcome.
        base = record("img/x.jpg", 800, 600, [(100, 100, 64, 64)])
        other1 = record("img/y.jpg", 640, 640, [(50, 50, 128, 128)])
        other2 = record("img/y.jpg", 640, 640, [(200, 200, 32, 32), (33, 41, 77, 20)])
        a = simulate([base, other1], detector_design(), WARM, 25, seed=3)
        b = simulate([base, other2], detector_design(), WARM, 25, seed=3)
        assert a.per_face[0] == b.per_face[0]

    def test_missing_dims_names_record(self):
        rec = make_record("img/missing.jpg", [(0, 0, 4, 4)])
        with pytest.raises(ValueError, match="img/missing.jpg"):
            simulate([rec], detector_design(), SAM, 1, seed=0)

    def test_invalid_faces_excluded(self):
        rec = record("img/z.jpg", 640, 640, [(100, 100, 64, 64), (0, 0, 10, 10)], invalid=[1])
        out = simulate([rec], detector_design(), SAM, 2, seed=0)
        assert [s.face for s in out.per_face] == [0]

    def test_negative_crops_rejected(self):
        with pytest.raises(ValueError):
            simulate([], detector_design(), SAM, -1, seed=0)


class TestPrng:
    def test_substreams_are_stable(self):
        a = substream(42, 0)
        b = substream(42, 0)
        assert [a.next_u64() for _ in range(4)] == [b.next_u64() for _ in range(4)]

    def test_substreams_differ_by_index(self):
        a = substream(42, 0)
        b = substream(42, 1)
        assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]

    def test_floats_in_unit_interval(self):
        rng = SplitMix64(123)
        xs = [rng.next_float() for _ in range(2000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        assert 0.4 < sum(xs) / len(xs) < 0.6

    def test_next_index_bounds(self):
        rng = SplitMix64(5)
        ks = [rng.next_index(7) for _ in range(2000)]
        assert set(ks) == {0, 1, 2, 3, 4, 5, 6}

    def test_next_index_validates(self):
        with pytest.raises(ValueError):
            SplitMix64(0).next_index(0)
        with pytest.raises(ValueError):
            substream(0, -1)
