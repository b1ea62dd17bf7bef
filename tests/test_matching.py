import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import anchorkit.anchors
import anchorkit.matching
from anchorkit.anchors import (
    AnchorDesign,
    PyramidLevel,
    ams_design,
    detector_design,
    generate_anchor_boxes,
)
from anchorkit.matching import (
    IGNORE,
    NEGATIVE,
    MatchConfig,
    Strategy,
    arsd_contains,
    assign_labels_xywh,
    iou_pairs,
    warm_threshold,
)

from oracles import eager_anchor_rows, naive_assign, naive_iou, naive_warm_threshold

DEFAULT = MatchConfig()
SAM = MatchConfig(strategy=Strategy.SAM)


def small_scene(seed, n_faces=5, canvas=128.0):
    """A compact random scene: a 2-level anchor grid plus random faces."""
    design = AnchorDesign(
        levels=(PyramidLevel("A", 16, (12.0, 24.0)), PyramidLevel("B", 32, (48.0,))),
    )
    anchors = generate_anchor_boxes(design, canvas, canvas)
    rng = np.random.default_rng(seed)
    w = np.exp(rng.uniform(np.log(6), np.log(70), n_faces))
    ar = np.exp(rng.uniform(np.log(0.25), np.log(4.0), n_faces))
    x = rng.uniform(-10, canvas - 10, n_faces)
    y = rng.uniform(-10, canvas - 10, n_faces)
    faces = np.column_stack([x, y, w, w * ar])
    return anchors, faces


def one_level(stride, sizes, canvas_w, canvas_h, aspect_ratio=1.0):
    """The grid of a one-level design: one anchor per size in each cell."""
    design = AnchorDesign(levels=(PyramidLevel("L", stride, sizes),), aspect_ratio=aspect_ratio)
    return generate_anchor_boxes(design, canvas_w, canvas_h)


class TestMatchConfig:
    def test_defaults(self):
        cfg = MatchConfig()
        assert (cfg.strategy, cfg.t0, cfg.tn, cfg.delta) == (Strategy.WARM, 0.5, 0.35, 0.1)
        assert (cfg.eta0, cfg.eta1, cfg.anchor_ar) == (2.0, 3.0, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(t0=0.0),
            dict(t0=1.5),
            dict(tn=-0.1),
            dict(tn=1.0),
            dict(t0=0.4, tn=0.45),
            dict(delta=-0.1),
            dict(t0=0.5, tn=0.45, delta=0.1),  # band collapses into negatives
            dict(eta0=1.0),
            dict(eta1=2.0, eta0=2.0),
            dict(anchor_ar=0.0),
            dict(t0=math.nan),
            dict(tn=math.nan),
            dict(delta=math.nan),
            dict(eta0=math.nan),
            dict(eta1=math.nan),
            dict(anchor_ar=math.nan),
            dict(eta1=math.inf),
            dict(anchor_ar=math.inf),
        ],
    )
    def test_rejects_bad_configs(self, kwargs):
        with pytest.raises(ValueError):
            MatchConfig(**kwargs)

    def test_json_round_trip(self):
        cfg = MatchConfig(strategy=Strategy.SAM_COMPENSATE, t0=0.6, tn=0.3, delta=0.2,
                          eta0=1.8, eta1=4.0, anchor_ar=1.25)
        data = cfg.to_json_dict()
        assert list(data) == ["strategy", "t0", "tn", "delta", "eta0", "eta1", "anchor_ar"]
        assert data == {"strategy": "sam_compensate", "t0": 0.6, "tn": 0.3, "delta": 0.2,
                        "eta0": 1.8, "eta1": 4.0, "anchor_ar": 1.25}


class TestSamplingDomains:
    def test_center_in_domain(self):
        assert arsd_contains(1.0, 1.0, 2.25)

    def test_boundary_excluded(self):
        assert not arsd_contains(2.25, 1.0, 2.25)
        assert not arsd_contains(1 / 2.25, 1.0, 2.25)

    def test_near_left_edge(self):
        assert arsd_contains(0.45, 1.0, 2.25)  # 1/2.25 ~ 0.4444 < 0.45

    def test_eta_validation(self):
        with pytest.raises(ValueError, match="^eta must be finite and greater than 1, not 1.0$"):
            arsd_contains(1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="^aspect ratios must be positive$"):
            arsd_contains(-1.0, 1.0, 2.0)
        with pytest.raises(ValueError, match="^aspect ratios must be positive$"):
            arsd_contains(np.array([1.0, 0.0]), 1.0, 2.0)
        with pytest.raises(ValueError, match="^anchor_ar must be positive and finite, not inf$"):
            arsd_contains(1.0, math.inf, 2.0)

    def test_halves_boundary_conventions(self):
        # Both halves are open at their outer edge and meet at the anchor AR,
        # which lies inside; one ulp inward of either edge is inside.
        assert arsd_contains(1.0, 1.0, 2.0)
        assert arsd_contains(0.6, 1.0, 2.0)
        assert not arsd_contains(2.0, 1.0, 2.0)
        assert not arsd_contains(0.5, 1.0, 2.0)
        assert arsd_contains(math.nextafter(2.0, 0.0), 1.0, 2.0)
        assert arsd_contains(math.nextafter(0.5, 1.0), 1.0, 2.0)
        assert not arsd_contains(3.0, 1.5, 2.0) and arsd_contains(math.nextafter(3.0, 0.0), 1.5, 2.0)
        assert not arsd_contains(0.75, 1.5, 2.0) and arsd_contains(math.nextafter(0.75, 1.0), 1.5, 2.0)

    @given(st.floats(min_value=0.05, max_value=20.0, allow_nan=False))
    def test_halves_partition_full_domain(self, r):
        # The domain is its left half (1/2.5, 1) joined to its right half
        # [1, 2.5); an array is checked elementwise, a float gives a bool.
        inside = arsd_contains(r, 1.0, 2.5)
        assert type(inside) is bool
        assert inside == (1 / 2.5 < r < 1.0 or 1.0 <= r < 2.5)
        edges = [r, 1 / 2.5, 2.5, 1.0, math.nextafter(2.5, 0.0), math.nextafter(1 / 2.5, 1.0)]
        got = arsd_contains(np.array(edges), 1.0, 2.5)
        assert got.tolist() == [arsd_contains(v, 1.0, 2.5) for v in edges]


class TestExtremeDomain:
    """Membership of the extreme band, read off the WARM threshold: inside
    the band it is below t0 except on the inner edges, where theta is 0."""

    def test_right_member(self):
        assert warm_threshold(2.4, DEFAULT) < DEFAULT.t0

    def test_anchor_ar_itself(self):
        assert warm_threshold(1.0, DEFAULT) == DEFAULT.t0

    def test_left_member(self):
        # 1/3 < 0.4 <= 1/2
        assert warm_threshold(0.4, DEFAULT) < DEFAULT.t0

    def test_edges(self):
        # Inner edges are in the band with theta exactly 0; outer edges are
        # out, while one ulp inward of them the threshold is nearly t0 - delta.
        assert warm_threshold(2.0, DEFAULT) == warm_threshold(0.5, DEFAULT) == 0.5
        assert warm_threshold(3.0, DEFAULT) == warm_threshold(1 / 3, DEFAULT) == 0.5
        assert warm_threshold(math.nextafter(3.0, 0.0), DEFAULT) == pytest.approx(0.4, abs=1e-12)
        assert warm_threshold(math.nextafter(1 / 3, 1.0), DEFAULT) == pytest.approx(0.4, abs=1e-12)
        assert warm_threshold(math.nextafter(2.0, 0.0), DEFAULT) == 0.5
        assert warm_threshold(math.nextafter(0.5, 1.0), DEFAULT) == 0.5

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="aspect ratio must be positive"):
            warm_threshold(0.0, DEFAULT)
        with pytest.raises(ValueError, match="aspect ratio must be positive"):
            warm_threshold(np.array([2.4, -1.0]), DEFAULT)


class TestTheta:
    """theta, the rate at which WARM lowers the threshold, through
    warm_threshold = t0 - delta*theta with the default delta of 0.1."""

    def test_inner_boundary(self):
        assert warm_threshold(2.0, DEFAULT) == 0.5

    def test_right_interior(self):
        # theta(2.4) = 0.4
        assert warm_threshold(2.4, DEFAULT) == pytest.approx(0.46, abs=1e-12)

    def test_left_interior(self):
        # theta = (0.5 - 0.426966) / (0.5 - 1/3) = 0.438204
        assert warm_threshold(0.426966, DEFAULT) == pytest.approx(0.4561796, abs=1e-7)

    def test_left_inner_boundary(self):
        assert warm_threshold(0.5, DEFAULT) == 0.5

    def test_outside_domain_gives_t0(self):
        assert warm_threshold(np.array([1.0, 3.0, 5.0, 0.25]), DEFAULT).tolist() == [0.5] * 4

    @given(st.floats(min_value=2.0, max_value=2.999999, allow_nan=False))
    def test_range_and_monotone_right(self, r):
        v = warm_threshold(r, DEFAULT)
        assert 0.4 < v <= 0.5
        assert warm_threshold(min(r + 0.0005, 2.9999995), DEFAULT) <= v

    @given(st.floats(min_value=0.34, max_value=0.4995, allow_nan=False))
    def test_monotone_left(self, r):
        # Toward the outer edge (smaller r on the left side) theta grows, so
        # the threshold never increases; r - 0.0005 stays inside (1/3, 0.5].
        assert warm_threshold(r - 0.0005, DEFAULT) <= warm_threshold(r, DEFAULT) + 1e-12


@st.composite
def warm_cases(draw):
    """A valid WARM config and aspect ratios on and around its band: every
    band edge and its neighbours one ulp away, the anchor AR, and random
    ratios across the band. eta1 is sometimes the float just above eta0, so
    a half of the band can be empty."""
    t0 = draw(st.floats(0.05, 1.0))
    eta0 = draw(st.floats(1.0, 8.0, exclude_min=True))
    tight = draw(st.booleans())
    eta1 = math.nextafter(eta0, math.inf) if tight else eta0 * draw(st.floats(1.0, 4.0, exclude_min=True))
    cfg = MatchConfig(t0=t0, tn=0.0, delta=t0 * draw(st.floats(0.0, 0.99)), eta0=eta0,
                      eta1=eta1, anchor_ar=draw(st.floats(0.1, 10.0)))
    ra = cfg.anchor_ar
    edges = [ra / cfg.eta1, ra / cfg.eta0, ra * cfg.eta0, ra * cfg.eta1]
    ratios = [ra] + [e for edge in edges for e in
                     (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf))]
    ratios += draw(st.lists(st.floats(edges[0] / 2, edges[3] * 2), max_size=20))
    return cfg, ratios


class TestWarmDifferential:
    """warm_threshold against the piecewise scalar definition, bit for bit."""

    @given(case=warm_cases())
    @settings(max_examples=300)
    def test_matches_scalar_definition(self, case):
        cfg, ratios = case
        want = np.array([naive_warm_threshold(r, cfg) for r in ratios])
        got = warm_threshold(np.array(ratios), cfg)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        ones = [warm_threshold(r, cfg) for r in ratios]
        assert all(type(one) is float for one in ones)
        assert np.array(ones).view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_tight_band_cases_reached(self):
        # eta1 = nextafter(eta0) can make ra/eta1 == ra/eta0: an empty left half.
        cfg = MatchConfig(eta0=3.0, eta1=math.nextafter(3.0, 4.0), anchor_ar=0.9)
        assert cfg.anchor_ar / cfg.eta1 == cfg.anchor_ar / cfg.eta0
        r = np.array([0.9 / 3.0, 2.7, math.nextafter(2.7, 3.0), 1.0])
        assert warm_threshold(r, cfg).tolist() == [naive_warm_threshold(v, cfg) for v in r.tolist()]

    def test_empty_and_shaped_input(self):
        assert warm_threshold(np.empty(0), DEFAULT).shape == (0,)
        grid = np.array([[1.0, 2.4], [0.4, 5.0]])
        assert warm_threshold(grid, DEFAULT).tolist() == [
            [naive_warm_threshold(v, DEFAULT) for v in row] for row in grid.tolist()]


class TestWarmThreshold:
    def test_at_anchor_ar(self):
        assert warm_threshold(1.0, DEFAULT) == 0.5

    def test_right_interior(self):
        assert warm_threshold(2.4, DEFAULT) == pytest.approx(0.46, abs=1e-12)

    def test_beyond_outer_radius_reverts(self):
        assert warm_threshold(5.0, DEFAULT) == 0.5

    def test_continuity_at_inner_edges(self):
        for edge in (2.0, 0.5):
            below = warm_threshold(edge * (1 - 1e-9), DEFAULT)
            above = warm_threshold(edge * (1 + 1e-9), DEFAULT)
            assert below == pytest.approx(0.5, abs=1e-6)
            assert above == pytest.approx(0.5, abs=1e-6)

    def test_limit_at_outer_edges(self):
        assert warm_threshold(3.0 * (1 - 1e-9), DEFAULT) == pytest.approx(0.4, abs=1e-6)
        assert warm_threshold((1 / 3) * (1 + 1e-9), DEFAULT) == pytest.approx(0.4, abs=1e-6)
        # On the outer edge itself the base threshold applies.
        assert warm_threshold(3.0, DEFAULT) == 0.5

    @given(st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
    def test_always_within_band(self, r):
        assert 0.4 <= warm_threshold(r, DEFAULT) <= 0.5

    @given(st.floats(min_value=0.7, max_value=1.4, allow_nan=False))
    def test_non_default_anchor_ar(self, ra):
        cfg = MatchConfig(anchor_ar=ra)
        assert warm_threshold(ra, cfg) == 0.5
        assert warm_threshold(ra * 2.5, cfg) == pytest.approx(0.45, abs=1e-9)


class TestIouMatrix:
    def test_against_naive(self):
        rng = np.random.default_rng(3)
        a = np.column_stack(
            [rng.uniform(0, 50, 12), rng.uniform(0, 50, 12),
             rng.uniform(1, 30, 12), rng.uniform(1, 30, 12)]
        )
        b = np.column_stack(
            [rng.uniform(0, 50, 7), rng.uniform(0, 50, 7),
             rng.uniform(1, 30, 7), rng.uniform(1, 30, 7)]
        )
        got = iou_pairs(a[:, None], b)
        for i in range(12):
            for j in range(7):
                assert got[i, j] == naive_iou(a[i], b[j])

    def test_self_diagonal_is_one(self):
        a = np.array([[64.0, 0.0, 0.001, 1.0], [0.0, 0.0, 5.0, 5.0]])
        m = iou_pairs(a[:, None], a)
        assert m[0, 0] == 1.0 and m[1, 1] == 1.0


class TestAssignLabels:
    def test_identity_match(self):
        anchors = generate_anchor_boxes(
            AnchorDesign(levels=(PyramidLevel("L", 64, (64.0,)),)), 128, 64
        )
        face = [0.0, 0.0, 64.0, 64.0]
        res = assign_labels_xywh(anchors, [face], SAM)
        assert list(res.labels) == [0, NEGATIVE]
        assert res.max_iou[0] == 1.0
        assert res.positive_count[0] == 1

    def test_empty_anchor_list_rejected(self):
        # A grid is never empty: a canvas with no cells is refused where the
        # grid is built, and the kernel takes grids only, not row arrays.
        with pytest.raises(ValueError, match="no grid cells"):
            one_level(64, (64.0,), 63, 64)
        with pytest.raises(TypeError):
            assign_labels_xywh(np.empty((0, 4)), [[0, 0, 4, 4]], SAM)

    def test_empty_faces_all_negative(self):
        anchors, _ = small_scene(0)
        res = assign_labels_xywh(anchors, np.empty((0, 4)), SAM)
        assert np.all(res.labels == NEGATIVE)
        assert len(res.max_iou) == len(res.positive_count) == len(res.effective_tp) == 0

    def test_invalid_face_rejected(self):
        anchors, _ = small_scene(0)
        with pytest.raises(ValueError):
            assign_labels_xywh(anchors, [[0, 0, 0, 4]], SAM)

    @pytest.mark.parametrize("face", [
        [0, 0, math.nan, 4], [math.inf, 0, 4, 4], [0, -math.inf, 4, 4], [0, 0, 4, math.inf],
    ])
    def test_non_finite_face_rejected(self, face):
        # A NaN width would otherwise overlap nothing and report max IoU 0.
        anchors, _ = small_scene(0)
        with pytest.raises(ValueError, match="finite"):
            assign_labels_xywh(anchors, [[10, 10, 8, 8], face], SAM)

    @pytest.mark.parametrize("value", [2.0**511, 1e200, -1e200])
    def test_face_area_overflow_rejected(self, value):
        # Annotations cannot carry such values (the parser refuses magnitudes
        # above 2**53), so the kernel's own bound is exercised directly:
        # 1e200 * 1e200 would overflow a face's area to inf.
        anchors, _ = small_scene(0)
        for face in ([0, 0, value, value], [value, 0, 4, 4]):
            with pytest.raises(ValueError, match=r"each value below 2\*\*511"):
                assign_labels_xywh(anchors, [[10, 10, 8, 8], face], SAM)
        # Just below the bound a face is scored, with a finite IoU.
        res = assign_labels_xywh(anchors, [[0, 0, 2.0**510, 4]], SAM)
        assert 0.0 <= res.max_iou[0] < 1e-100

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_matches_naive_oracle(self, seed, strategy):
        cfg = MatchConfig(strategy=strategy)
        anchors, faces = small_scene(seed)
        res = assign_labels_xywh(anchors, faces, cfg)

        tp = [naive_warm_threshold(f[3] / f[2], cfg) if strategy is Strategy.WARM else cfg.t0
              for f in faces]
        labels, compensated, per_max, pos_count = naive_assign(
            [tuple(a) for a in np.asarray(anchors)],
            [tuple(f) for f in faces],
            tp,
            cfg.tn,
            compensate=strategy is Strategy.SAM_COMPENSATE,
        )
        assert list(res.labels) == labels
        assert list(res.compensated) == compensated
        assert len(res.max_iou) == len(faces)
        assert res.effective_tp.tolist() == tp
        for j in range(len(faces)):
            assert res.max_iou[j] == pytest.approx(per_max[j], abs=1e-12)
            assert res.positive_count[j] == pos_count[j]

    def test_strict_positive_threshold(self):
        # Nested boxes giving IoU exactly 0.5: not strictly above, so no positive.
        anchors = one_level(50, (50.0,), 50, 50, aspect_ratio=2.0)
        assert np.asarray(anchors).tolist() == [[0.0, -25.0, 50.0, 100.0]]
        face = [0.0, -25.0, 100.0, 100.0]
        res = assign_labels_xywh(anchors, [face], SAM)
        assert res.max_iou[0] == 0.5
        assert res.labels[0] == IGNORE
        assert res.positive_count[0] == 0

    def test_strict_negative_threshold(self):
        # IoU exactly tn stays ignore; strictly below becomes negative.
        anchors = one_level(95, (70.0,), 190, 95)
        assert np.asarray(anchors).tolist() == [[12.5, 12.5, 70.0, 70.0], [107.5, 12.5, 70.0, 70.0]]
        face = [12.5, 12.5, 140.0, 100.0]
        res = assign_labels_xywh(anchors, [face], SAM)
        assert iou_pairs(np.asarray(anchors), face).tolist() == [0.35, 0.2]
        assert res.labels[0] == IGNORE  # IoU == 0.35 == tn
        assert res.labels[1] == NEGATIVE  # IoU == 0.20 < tn

    def test_tie_breaks_to_lowest_face_index(self):
        anchors = one_level(40, (40.0,), 40, 40)
        face = [0.0, 0.0, 40.0, 40.0]
        res = assign_labels_xywh(anchors, [face, list(face)], SAM)
        assert res.labels[0] == 0
        assert res.positive_count[0] == 1
        assert res.positive_count[1] == 0

    def test_label_partition(self):
        anchors, faces = small_scene(11, n_faces=8)
        res = assign_labels_xywh(anchors, faces, DEFAULT)
        counts = res.label_counts()
        assert counts["positive"] + counts["negative"] + counts["ignore"] == len(anchors)

    def test_positive_anchors_exceed_threshold(self):
        anchors, faces = small_scene(5, n_faces=6)
        res = assign_labels_xywh(anchors, faces, DEFAULT)
        rows = np.asarray(anchors)
        for i in np.flatnonzero(res.labels >= 0):
            j = res.labels[i]
            v = naive_iou(tuple(rows[i]), tuple(faces[j]))
            assert v > res.effective_tp[j]

    def test_negative_anchors_below_tn(self):
        anchors, faces = small_scene(6, n_faces=6)
        res = assign_labels_xywh(anchors, faces, DEFAULT)
        rows = np.asarray(anchors)
        for i in np.flatnonzero(res.labels == NEGATIVE):
            best = max(naive_iou(tuple(rows[i]), tuple(f)) for f in faces)
            assert best < DEFAULT.tn


class TestCompensation:
    def test_unmatched_face_claims_argmax_anchor(self):
        # A face whose best IoU is far below t0; compensation must still claim
        # its argmax anchor and flag it.
        anchors = one_level(100, (10.0,), 200, 200)  # 10x10 anchors at (45|145, 45|145)
        face = [145.0, 145.0, 40.0, 40.0]  # IoU vs anchor 3 = 100/1600
        cfg = MatchConfig(strategy=Strategy.SAM_COMPENSATE)
        res = assign_labels_xywh(anchors, [face], cfg)
        assert res.max_iou[0] == 100 / 1600
        assert res.labels.tolist() == [NEGATIVE, NEGATIVE, NEGATIVE, 0]
        assert res.compensated.tolist() == [False, False, False, True]
        assert res.positive_count[0] == 1

    def test_compensation_does_not_steal_positives(self):
        # Two identical faces: face 0 wins the anchor; face 1's compensation
        # target is already positive, so it stays unmatched.
        anchors = one_level(40, (40.0,), 40, 40)
        face = [0.0, 0.0, 40.0, 40.0]
        cfg = MatchConfig(strategy=Strategy.SAM_COMPENSATE)
        res = assign_labels_xywh(anchors, [face, list(face)], cfg)
        assert res.labels[0] == 0
        assert not res.compensated[0]
        assert res.positive_count[1] == 0

    def test_lowest_unmatched_face_claims_a_shared_anchor(self):
        # Both faces are unmatched and their argmax is anchor 3, which is not
        # positive. Face 0 claims it although face 1 overlaps it more; face 1
        # is left without positives.
        anchors = one_level(100, (10.0,), 200, 200)
        faces = [[130.0, 130.0, 40.0, 40.0], [140.0, 140.0, 20.0, 20.0]]
        cfg = MatchConfig(strategy=Strategy.SAM_COMPENSATE)
        res = assign_labels_xywh(anchors, faces, cfg)
        assert res.max_iou.tolist() == [100 / 1600, 100 / 400]
        assert res.labels.tolist() == [NEGATIVE, NEGATIVE, NEGATIVE, 0]
        assert res.compensated.tolist() == [False, False, False, True]
        assert res.positive_count.tolist() == [1, 0]

    def test_plain_sam_never_compensates(self):
        anchors, faces = small_scene(9)
        res = assign_labels_xywh(anchors, faces, SAM)
        assert not res.compensated.any()


class TestWarmBehaviour:
    def test_zero_delta_is_bitwise_sam(self):
        warm0 = MatchConfig(strategy=Strategy.WARM, delta=0.0)
        for seed in range(25):
            anchors, faces = small_scene(seed, n_faces=6)
            a = assign_labels_xywh(anchors, faces, SAM)
            b = assign_labels_xywh(anchors, faces, warm0)
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.compensated, b.compensated)

    def test_warm_positive_set_superset_of_sam(self):
        for seed in range(25):
            anchors, faces = small_scene(seed, n_faces=6)
            sam = assign_labels_xywh(anchors, faces, SAM)
            warm = assign_labels_xywh(anchors, faces, DEFAULT)
            sam_pos = set(np.flatnonzero(sam.labels >= 0))
            warm_pos = set(np.flatnonzero(warm.labels >= 0))
            assert sam_pos <= warm_pos

    def test_extreme_ar_face_on_detector_grid(self):
        # Face with AR 2.4 whose optimal anchor scale lands exactly on the
        # size-64 rung, centered on a P4 anchor center: the grid achieves the
        # ideal-placement IoU, below the SAM threshold but above WARM's.
        anchors = generate_anchor_boxes(detector_design(), 640, 640)
        w = 64.0 / math.sqrt(2.4)
        h = w * 2.4
        face = [328.0 - w / 2.0, 328.0 - h / 2.0, w, h]

        expected = 1.0 / (2.0 * math.sqrt(2.4) - 1.0)
        # Independent brute force over the whole grid.
        brute = iou_pairs(np.asarray(anchors), face).max()
        assert brute == pytest.approx(expected, abs=1e-9)

        sam = assign_labels_xywh(anchors, [face], SAM)
        warm = assign_labels_xywh(anchors, [face], DEFAULT)
        assert sam.max_iou[0] == pytest.approx(expected, abs=1e-9)
        assert sam.positive_count[0] == 0
        assert warm.positive_count[0] >= 1
        assert warm.effective_tp[0] == pytest.approx(0.46, abs=1e-12)


class TestPerformance:
    def test_assignment_contract_1e5_by_1e3(self):
        anchors = generate_anchor_boxes(detector_design(), 640, 640)
        rng = np.random.default_rng(7)
        n = 1000
        w = np.exp(rng.uniform(np.log(6), np.log(200), n))
        ar = np.exp(rng.uniform(np.log(0.3), np.log(3.3), n))
        faces = np.column_stack(
            [rng.uniform(0, 639, n), rng.uniform(0, 639, n), w, w * ar]
        )
        assign_labels_xywh(anchors, faces[:10], DEFAULT)  # warm-up
        t0 = time.perf_counter()
        assign_labels_xywh(anchors, faces, DEFAULT)
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0, f"assignment took {elapsed:.2f}s"


SCENE_SIZES = (1.0, 2.0, 3.0, 4.0, 5.5, 8.0, 11.0, 16.0, 22.5, 32.0)


@st.composite
def grid_scenes(draw):
    """A random 1-3-level design on a small canvas, and up to five faces:
    free boxes, copies of an anchor, boxes touching an anchor's right edge,
    repeats of an earlier face, and boxes partly or wholly off the canvas."""
    n_levels = draw(st.integers(1, 3))
    strides = draw(st.lists(st.sampled_from([0.75, 1.0, 2.0, 4.0, 5.5, 8.0]),
                            min_size=n_levels, max_size=n_levels, unique=True))
    sizes = sorted(draw(st.lists(st.sampled_from(SCENE_SIZES), min_size=n_levels,
                                 max_size=5, unique=True)))
    cut = sorted(draw(st.lists(st.integers(1, len(sizes) - 1), min_size=n_levels - 1,
                               max_size=n_levels - 1, unique=True))) if n_levels > 1 else []
    parts = [sizes[a:b] for a, b in zip([0] + cut, cut + [len(sizes)])]
    levels = [PyramidLevel(f"L{k}", s, tuple(p)) for k, (s, p) in enumerate(zip(strides, parts))]
    design = AnchorDesign(levels=tuple(levels),
                          aspect_ratio=draw(st.sampled_from([0.5, 1.0, 1.5, 2.0])))
    w = draw(st.sampled_from([8.0, 13.5, 20.0, 24.0]))
    h = draw(st.sampled_from([8.0, 11.0, 16.0, 24.0]))
    rows = eager_anchor_rows(design, w, h)
    coord = st.floats(-12.0, 30.0, allow_nan=False)
    side = st.floats(0.5, 40.0, allow_nan=False)
    faces = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["free", "anchor", "touching", "repeat", "off"]))
        anchor = rows[draw(st.integers(0, len(rows) - 1))].tolist()
        if kind == "anchor":
            faces.append(anchor)
        elif kind == "touching":
            faces.append([anchor[0] + anchor[2], anchor[1], draw(side), anchor[3]])
        elif kind == "repeat" and faces:
            faces.append(list(faces[draw(st.integers(0, len(faces) - 1))]))
        elif kind == "off":
            faces.append([w + draw(st.floats(-5.0, 60.0)), draw(coord), draw(side), draw(side)])
        else:
            faces.append([draw(coord), draw(coord), draw(side), draw(side)])
    return design, w, h, np.array(faces, dtype=np.float64).reshape(-1, 4)


class TestGridKernel:
    """The grid-indexed kernel against the dense oracle on the grid's rows."""

    @given(scene=grid_scenes(), strategy=st.sampled_from(list(Strategy)),
           tn=st.sampled_from([0.0, 0.1, 0.3, 0.35]))
    @settings(max_examples=150)
    def test_matches_naive_oracle(self, scene, strategy, tn):
        design, w, h, faces = scene
        grid = generate_anchor_boxes(design, w, h)
        rows = np.asarray(grid)
        assert rows.tobytes() == eager_anchor_rows(design, w, h).tobytes()
        cfg = MatchConfig(strategy=strategy, tn=tn)
        res = assign_labels_xywh(grid, faces, cfg)
        tp = [naive_warm_threshold(f[3] / f[2], cfg) if strategy is Strategy.WARM else cfg.t0
              for f in faces]
        labels, compensated, per_max, pos_count = naive_assign(
            [tuple(a) for a in rows], [tuple(f) for f in faces], tp, tn,
            compensate=strategy is Strategy.SAM_COMPENSATE,
        )
        assert res.labels.tolist() == labels
        assert res.compensated.tolist() == compensated
        assert res.max_iou.tolist() == per_max
        assert res.positive_count.tolist() == pos_count
        assert res.effective_tp.tolist() == tp
        assert res.label_counts() == {
            "positive": sum(v >= 0 for v in labels),
            "negative": labels.count(NEGATIVE),
            "ignore": labels.count(IGNORE),
            "compensated": sum(compensated),
        }

    @given(scene=grid_scenes())
    @settings(max_examples=100)
    def test_no_pair_beats_its_plane_bound(self, scene):
        # The concentric IoU of a plane's anchor shape with a face bounds
        # every computed IoU of that face with the plane's anchors.
        design, w, h, faces = scene
        grid = generate_anchor_boxes(design, w, h)
        rows = np.asarray(grid)
        plane = np.empty(len(grid), dtype=np.int64)
        for p in range(grid.stride.size):
            plane[grid.first[p] + np.arange(grid.cells[p, 0] * grid.cells[p, 1]) * grid.step[p]] = p
        aw, ah = grid.size[plane, :1], grid.size[plane, 1:]
        assert np.array_equal(rows[:, 2:], np.hstack([aw, ah]))
        fw, fh = faces[:, 2], faces[:, 3]
        inter = np.minimum(aw, fw) * np.minimum(ah, fh)
        bound = inter / ((aw * ah) + (fw * fh) - inter)
        assert (iou_pairs(rows[:, None], faces) <= bound).all()

    def test_no_faces_all_negative_whatever_tn(self):
        grid = one_level(8, (8.0, 16.0), 32, 32)
        for tn in (0.0, 0.35):
            res = assign_labels_xywh(grid, np.empty((0, 4)), MatchConfig(tn=tn))
            assert res.labels.tolist() == [NEGATIVE] * len(grid)
            assert res.label_counts()["negative"] == len(grid)

    def test_tn_zero_leaves_untouched_anchors_ignore(self):
        grid = one_level(8, (8.0,), 32, 32)
        res = assign_labels_xywh(grid, [[0.0, 0.0, 8.0, 8.0]], MatchConfig(tn=0.0))
        assert res.labels.tolist() == [0] + [IGNORE] * 15

    def test_face_off_the_grid_claims_anchor_zero(self):
        grid = one_level(8, (8.0,), 32, 32)
        cfg = MatchConfig(strategy=Strategy.SAM_COMPENSATE)
        res = assign_labels_xywh(grid, [[100.0, 100.0, 8.0, 8.0]], cfg)
        assert res.labels.tolist() == [0] + [NEGATIVE] * 15
        assert res.compensated.tolist() == [True] + [False] * 15
        assert (res.max_iou[0], res.positive_count[0]) == (0.0, 1)


class TestResources:
    def test_one_face_on_a_ten_million_row_grid(self, monkeypatch):
        # Neither the grid nor the kernel builds per-anchor arrays: the rows
        # are never asked for, and the peak stays far below one float per anchor.
        def no_rows(self, dtype=None, copy=None):
            raise AssertionError("the anchor rows were built")

        monkeypatch.setattr(anchorkit.anchors.AnchorGrid, "__array__", no_rows)
        tracemalloc.start()
        try:
            grid = generate_anchor_boxes(ams_design(1.0), 1000, 700)
            res = assign_labels_xywh(grid, [[500.0, 300.0, 40.0, 60.0]], DEFAULT)
            counts = res.label_counts()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grid) == 15 * 1000 * 700
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"
        assert res.positive_count[0] > 0
        assert counts["positive"] + counts["negative"] + counts["ignore"] == len(grid)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_small_pair_budget_gives_the_same_result(self, strategy, monkeypatch):
        anchors, faces = small_scene(4, n_faces=30)
        cfg = MatchConfig(strategy=strategy)
        whole = assign_labels_xywh(anchors, faces, cfg)
        calls = []
        candidates = anchorkit.matching._candidates
        monkeypatch.setattr(anchorkit.matching, "PAIR_BUDGET", 64)
        monkeypatch.setattr(anchorkit.matching, "_candidates",
                            lambda *args: calls.append(1) or candidates(*args))
        parts = assign_labels_xywh(anchors, faces, cfg)
        assert len(calls) > 10
        assert np.array_equal(parts.labels, whole.labels)
        assert np.array_equal(parts.compensated, whole.compensated)
        for name in ("max_iou", "positive_count", "effective_tp"):
            assert np.array_equal(getattr(parts, name), getattr(whole, name))
        assert parts.label_counts() == whole.label_counts()
