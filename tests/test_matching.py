import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import anchorkit.ams
import anchorkit.anchors
import anchorkit.matching
from anchorkit.ams import run_match
from anchorkit.anchors import (
    MAX_GRID_ROWS,
    MAX_LADDER_RUNGS,
    AnchorDesign,
    PyramidLevel,
    ams_design,
    detector_design,
    generate_anchor_boxes,
    ladder_design,
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

from builders import corpus, record
from oracles import (
    eager_anchor_rows,
    naive_assign,
    naive_iou,
    naive_planes_kept,
    naive_warm_threshold,
)

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

    def test_delta_bounds_warm_only(self):
        for strategy in (Strategy.SAM, Strategy.SAM_COMPENSATE):
            MatchConfig(strategy=strategy, t0=0.4, tn=0.35, delta=0.1)
            MatchConfig(strategy=strategy, t0=0.1, tn=0.0, delta=0.5)
        with pytest.raises(ValueError, match="t0 - delta must stay above tn"):
            MatchConfig(t0=0.4, tn=0.35, delta=0.1)
        with pytest.raises(ValueError, match="t0 - delta must be positive"):
            MatchConfig(t0=0.1, tn=0.0, delta=0.1)

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


def thousand_faces():
    """The 102,300-anchor detector grid of a 640x640 canvas and 1,000 random
    faces 6-200 px wide of aspect ratio 0.3-3.3 on it."""
    anchors = generate_anchor_boxes(detector_design(), 640, 640)
    rng = np.random.default_rng(7)
    n = 1000
    w = np.exp(rng.uniform(np.log(6), np.log(200), n))
    ar = np.exp(rng.uniform(np.log(0.3), np.log(3.3), n))
    faces = np.column_stack(
        [rng.uniform(0, 639, n), rng.uniform(0, 639, n), w, w * ar]
    )
    return anchors, faces


class TestPerformance:
    def test_assignment_contract_1e5_by_1e3(self):
        anchors, faces = thousand_faces()
        assign_labels_xywh(anchors, faces[:10], DEFAULT)  # warm-up
        t0 = time.perf_counter()
        assign_labels_xywh(anchors, faces, DEFAULT)
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0, f"assignment took {elapsed:.2f}s"

    @pytest.mark.parametrize("cfg", [DEFAULT, MatchConfig(tn=0.0)], ids=["default", "tn0"])
    def test_planes_below_the_bar_are_not_expanded(self, cfg, monkeypatch):
        # Expanding every candidate cell of every (face, plane) gave 296,868
        # cells; skipping the planes whose bound is below min(bar, the IoU of
        # a real anchor) leaves 42,584 at the default tn, mostly on each
        # face's best planes. Under tn 0 the bar is each face's positive
        # threshold, not 0, which leaves 26,139.
        anchors, faces = thousand_faces()
        whole = assign_labels_xywh(anchors, faces, cfg)
        cells = []
        axis_hits = anchorkit.matching._axis_hits

        def spy(lo, count, *args):
            cells.append(int(count.sum()))
            return axis_hits(lo, count, *args)

        monkeypatch.setattr(anchorkit.matching, "_axis_hits", spy)
        res = assign_labels_xywh(anchors, faces, cfg)
        assert 0 < sum(cells) < 60_000, sum(cells)
        assert res.label_counts() == whole.label_counts()


SCENE_SIZES = (1.0, 2.0, 3.0, 4.0, 5.5, 8.0, 11.0, 16.0, 22.5, 32.0)


@st.composite
def grid_scenes(draw):
    """A random 1-3-level design, or a fine ladder (stride 0.75 or 1, six to
    twelve sizes), on a small canvas, and up to five faces: free boxes,
    boxes of aspect ratio 0.05-20, copies of an anchor, boxes touching an
    anchor's right edge, boxes whose edges sit on an anchor's edges or 1 ulp
    either side, repeats of an earlier face, and boxes partly or wholly off
    the canvas."""
    if draw(st.booleans()):
        step = draw(st.sampled_from([1.1, 1.19, 1.25]))
        first = draw(st.sampled_from([1.0, 1.5, 2.0]))
        sizes = tuple(first * step**k for k in range(draw(st.integers(6, 12))))
        levels = [PyramidLevel("F", draw(st.sampled_from([0.75, 1.0])), sizes)]
    else:
        n_levels = draw(st.integers(1, 3))
        strides = draw(st.lists(st.sampled_from([0.75, 1.0, 2.0, 4.0, 5.5, 8.0]),
                                min_size=n_levels, max_size=n_levels, unique=True))
        sizes = sorted(draw(st.lists(st.sampled_from(SCENE_SIZES), min_size=n_levels,
                                     max_size=5, unique=True)))
        cut = sorted(draw(st.lists(st.integers(1, len(sizes) - 1), min_size=n_levels - 1,
                                   max_size=n_levels - 1, unique=True))) if n_levels > 1 else []
        parts = [sizes[a:b] for a, b in zip([0] + cut, cut + [len(sizes)])]
        levels = [PyramidLevel(f"L{k}", s, tuple(p))
                  for k, (s, p) in enumerate(zip(strides, parts))]
    design = AnchorDesign(levels=tuple(levels),
                          aspect_ratio=draw(st.sampled_from([0.5, 1.0, 1.5, 2.0])))
    w = draw(st.sampled_from([8.0, 13.5, 20.0, 24.0]))
    h = draw(st.sampled_from([8.0, 11.0, 16.0, 24.0]))
    rows = eager_anchor_rows(design, w, h)
    coord = st.floats(-12.0, 30.0, allow_nan=False)
    side = st.floats(0.5, 40.0, allow_nan=False)
    faces = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["free", "extreme", "anchor", "touching", "edge",
                                     "repeat", "off"]))
        anchor = rows[draw(st.integers(0, len(rows) - 1))].tolist()
        if kind == "extreme":
            fw = draw(side)
            faces.append([draw(coord), draw(coord), fw, fw * 20.0 ** draw(st.floats(-1.0, 1.0))])
        elif kind == "anchor":
            faces.append(anchor)
        elif kind == "touching":
            faces.append([anchor[0] + anchor[2], anchor[1], draw(side), anchor[3]])
        elif kind == "edge":
            # The anchor, or the anchor moved to start at its far edge on an
            # axis, with each value kept or moved 1 ulp either way.
            x, y, aw, ah = anchor
            x, y = x + aw * draw(st.integers(0, 1)), y + ah * draw(st.integers(0, 1))
            faces.append([np.nextafter(v, v + draw(st.sampled_from([-1.0, 0.0, 1.0])))
                          for v in (x, y, aw, ah)])
        elif kind == "repeat" and faces:
            faces.append(list(faces[draw(st.integers(0, len(faces) - 1))]))
        elif kind == "off":
            faces.append([w + draw(st.floats(-5.0, 60.0)), draw(coord), draw(side), draw(side)])
        else:
            faces.append([draw(coord), draw(coord), draw(side), draw(side)])
    return design, w, h, np.array(faces, dtype=np.float64).reshape(-1, 4)


def assert_matches_oracle(grid, faces, cfg, res):
    """res, assign_labels_xywh of faces on grid under cfg, equals the naive
    oracle over the grid's rows; returns the oracle's labels and
    compensated flags."""
    tp = [naive_warm_threshold(f[3] / f[2], cfg) if cfg.strategy is Strategy.WARM else cfg.t0
          for f in faces]
    labels, compensated, per_max, pos_count = naive_assign(
        [tuple(a) for a in np.asarray(grid)], [tuple(f) for f in faces], tp, cfg.tn,
        compensate=cfg.strategy is Strategy.SAM_COMPENSATE,
    )
    assert res.labels.tolist() == labels
    assert res.compensated.tolist() == compensated
    assert res.max_iou.tolist() == per_max
    assert res.positive_count.tolist() == pos_count
    assert res.effective_tp.tolist() == tp
    return labels, compensated


class TestGridKernel:
    """The grid-indexed kernel against the dense oracle on the grid's rows."""

    @given(scene=grid_scenes(), strategy=st.sampled_from(list(Strategy)),
           tn=st.sampled_from([0.0, 0.1, 0.3, 0.35]))
    @settings(max_examples=150)
    def test_matches_naive_oracle(self, scene, strategy, tn):
        design, w, h, faces = scene
        grid = generate_anchor_boxes(design, w, h)
        assert np.asarray(grid).tobytes() == eager_anchor_rows(design, w, h).tobytes()
        cfg = MatchConfig(strategy=strategy, tn=tn)
        res = assign_labels_xywh(grid, faces, cfg)
        labels, compensated = assert_matches_oracle(grid, faces, cfg, res)
        # Pairs below tn are not kept, so no listed row is negative: with
        # tn > 0 negative is the background, and with tn 0 no row is.
        assert NEGATIVE not in res.row_labels.tolist()
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
        # No anchor overlaps the face, so the IoU of its nearest anchor is 0,
        # no plane is skipped, and it claims row 0.
        grid = one_level(8, (8.0,), 32, 32)
        cfg = MatchConfig(strategy=Strategy.SAM_COMPENSATE)
        res = assign_labels_xywh(grid, [[100.0, 100.0, 8.0, 8.0]], cfg)
        assert res.labels.tolist() == [0] + [NEGATIVE] * 15
        assert res.compensated.tolist() == [True] + [False] * 15
        assert (res.max_iou[0], res.positive_count[0]) == (0.0, 1)

    @pytest.mark.parametrize("x, inside, row", [(32.0, 0.0, 7), (-8.0, 0.0, 4)])
    def test_touching_is_no_overlap(self, x, inside, row):
        # A face against the outer edge of the last or first column overlaps
        # nothing, so it claims anchor 0; 1 ulp inward it overlaps one anchor.
        grid = one_level(8, (8.0,), 32, 32)
        cfg = MatchConfig(strategy=Strategy.SAM_COMPENSATE)
        res = assign_labels_xywh(grid, [[x, 8.0, 8.0, 8.0]], cfg)
        assert res.rows.tolist() == [0] and res.max_iou.tolist() == [0.0]
        res = assign_labels_xywh(grid, [[np.nextafter(x, inside), 8.0, 8.0, 8.0]], cfg)
        assert res.rows.tolist() == [row] and 0.0 < res.max_iou[0] < 1e-12


class TestPlanePrune:
    """A (face, plane) item is skipped when the IoU of the plane's anchor
    shape and the face's, placed concentrically, is below min(bar, the IoU
    of the anchor nearest the face's centre on some plane), the bar being tn
    or, under tn 0, the face's threshold. Only the items that pass are
    listed, so a skipped item's cells are never expanded."""

    @pytest.mark.parametrize("tn", [0.35, 0.0])
    def test_skipped_items_are_never_expanded(self, tn, monkeypatch):
        # One 6x7 face on a 1,024-plane ladder passes the skip on the planes
        # whose sizes are near its own. _axis_hits, which expands each
        # item's candidate cells on one axis, must receive those items and
        # no other, not even with no cells.
        design = ladder_design(1.5, scale_step=128.0 ** (1.0 / (MAX_LADDER_RUNGS - 1)))
        grid = generate_anchor_boxes(design, 16, 16)
        face = [5.0, 4.5, 6.0, 7.0]
        cfg = MatchConfig(tn=tn)
        bar = tn or naive_warm_threshold(face[3] / face[2], cfg)
        planes = naive_planes_kept(design, 16, 16, face, bar)
        assert 0 < len(planes) < MAX_LADDER_RUNGS // 4
        calls = []
        axis_hits = anchorkit.matching._axis_hits

        def spy(lo, count, stride, size, f1, f_len):
            calls.append(size.tolist())
            return axis_hits(lo, count, stride, size, f1, f_len)

        monkeypatch.setattr(anchorkit.matching, "_axis_hits", spy)
        res = assign_labels_xywh(grid, [face], cfg)
        assert calls == grid.size[planes].T.tolist()  # one x call, one y call
        assert res.positive_count[0] > 0

    @pytest.mark.parametrize("face", [
        [8.0, -28.0, 8.0, 80.0],  # centred on the 8x8 anchor of cell (1, 1)
        # At the corner of cell (0, 0): 4.9 * 8 / ((64 + 490) - 39.2) rounds
        # above 4.9 * 8 / ((64 - 39.2) + 490), so the bound must be summed
        # in the order the pairs are.
        [0.0, -46.0, 4.9, 100.0],
    ])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_face_max_below_tn_at_its_plane_bound(self, face, strategy):
        # The face's max IoU is below tn and equals the bound of the 8x8
        # plane, which must therefore be kept.
        grid = one_level(8, (4.0, 8.0), 32, 32)
        cfg = MatchConfig(strategy=strategy)
        res = assign_labels_xywh(grid, [face], cfg)
        fw, fh = face[2:]
        inter = min(8.0, fw) * min(8.0, fh)
        assert res.max_iou[0] == inter / ((8.0 * 8.0) + (fw * fh) - inter) < cfg.tn
        assert_matches_oracle(grid, [face], cfg, res)
        if strategy is Strategy.SAM_COMPENSATE:
            # The lowest 8x8 anchor inside the face's column of cells.
            assert res.rows[res.row_compensated].tolist() == [1 + 2 * int(face[0] // 8)]

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_face_beyond_one_plane_keeps_the_other(self, strategy):
        # The 8x8 face is past every 8x8 anchor (x up to 32) but inside the
        # 64x64 anchors, whose IoU of 1/64 is all it reaches. A lower bound
        # taken from a cell off the grid, or from the 8x8 plane's concentric
        # bound of 1, would skip the 64x64 plane.
        design = AnchorDesign(levels=(PyramidLevel("A", 8, (8.0,)),
                                      PyramidLevel("B", 8, (64.0,))))
        grid = generate_anchor_boxes(design, 32, 32)
        face = [44.0, 12.0, 8.0, 8.0]
        cfg = MatchConfig(strategy=strategy)
        res = assign_labels_xywh(grid, [face], cfg)
        assert res.max_iou.tolist() == [1 / 64]
        assert_matches_oracle(grid, [face], cfg, res)
        if strategy is Strategy.SAM_COMPENSATE:
            # The lowest 64x64 anchor that holds the face: cell (2, 0).
            assert res.rows[res.row_compensated].tolist() == [16 + 2]


def forbid_rows(monkeypatch):
    """Make building an AnchorGrid's rows fail the test."""
    def no_rows(self, dtype=None, copy=None):
        raise AssertionError("the anchor rows were built")

    monkeypatch.setattr(anchorkit.anchors.AnchorGrid, "__array__", no_rows)


def one_face_on_a_ten_million_row_grid(face, monkeypatch):
    """assign_labels_xywh of one face on the 10.5M-row stride-1 ams grid of a
    1000x700 canvas, its label counts, and the tracemalloc peak of building
    the grid and labelling, with the anchor rows forbidden."""
    forbid_rows(monkeypatch)
    tracemalloc.start()
    try:
        grid = generate_anchor_boxes(ams_design(1.0), 1000, 700)
        res = assign_labels_xywh(grid, [face], DEFAULT)
        counts = res.label_counts()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(grid) == 15 * 1000 * 700
    assert counts["positive"] + counts["negative"] + counts["ignore"] == len(grid)
    return res, counts, peak


class TestResources:
    def test_one_face_on_a_ten_million_row_grid(self, monkeypatch):
        # Neither the grid nor the kernel builds per-anchor arrays: the rows
        # are never asked for, and the peak stays far below one float per anchor.
        res, _, peak = one_face_on_a_ten_million_row_grid([500.0, 300.0, 40.0, 60.0],
                                                          monkeypatch)
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"
        assert res.positive_count[0] > 0

    def test_extreme_ar_face_is_scored_per_axis(self, monkeypatch):
        # A 60x330 face (AR 5.5) stays below tn on every plane. The per-axis
        # maxima over its 9,010 candidate cells give its max IoU, only the
        # pairs at that max are expanded, for the argmax, and none is kept.
        # Expanding its 1.3M candidate pairs peaked near 200 MB.
        res, counts, peak = one_face_on_a_ten_million_row_grid([500.0, 300.0, 60.0, 330.0],
                                                               monkeypatch)
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"
        assert res.max_iou.tolist() == [0.269435868650014]
        assert (counts["positive"], counts["ignore"], res.rows.size) == (0, 0, 0)

    def test_large_face_keeps_to_the_pair_budget(self, monkeypatch):
        # A 300x400 face has 3.0M candidate pairs, of which 185,176 reach tn.
        # Those are expanded in slices of (face, plane) groups, so the peak
        # is the decisive pairs kept; a chunk that held the whole face
        # peaked near 180-210 MB.
        res, counts, peak = one_face_on_a_ten_million_row_grid([500.0, 300.0, 300.0, 400.0],
                                                               monkeypatch)
        assert peak < 48 * 2**20, f"peak {peak / 2**20:.1f} MB"
        assert (counts["positive"], counts["ignore"]) == (42_364, 142_812)
        assert res.positive_count.tolist() == [42_364]

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_small_pair_budget_gives_the_same_result(self, strategy, monkeypatch):
        anchors, faces = small_scene(4, n_faces=30)
        cfg = MatchConfig(strategy=strategy)
        whole = assign_labels_xywh(anchors, faces, cfg)
        # _decisive runs once per slice of pairs, and once over their survivors.
        calls = []
        decisive = anchorkit.matching._decisive
        monkeypatch.setattr(anchorkit.matching, "PAIR_BUDGET", 16)
        monkeypatch.setattr(anchorkit.matching, "_decisive",
                            lambda *args: calls.append(1) or decisive(*args))
        parts = assign_labels_xywh(anchors, faces, cfg)
        assert len(calls) > 10
        assert np.array_equal(parts.labels, whole.labels)
        assert np.array_equal(parts.compensated, whole.compensated)
        for name in ("max_iou", "positive_count", "effective_tp"):
            assert np.array_equal(getattr(parts, name), getattr(whole, name))
        assert parts.label_counts() == whole.label_counts()

    def test_each_pair_is_reduced_at_most_twice(self, monkeypatch):
        # The 300x400 face expands its pairs in several slices. Each slice is
        # reduced to its decisive pairs alone, and the survivors once more,
        # so no pair reaches _decisive a third time, however many slices.
        seen = []
        decisive = anchorkit.matching._decisive

        def spy(row, face, val, tp):
            seen.append(row)  # one face, so its row names each pair
            return decisive(row, face, val, tp)

        monkeypatch.setattr(anchorkit.matching, "_decisive", spy)
        grid = generate_anchor_boxes(ams_design(1.0), 1000, 700)
        res = assign_labels_xywh(grid, [[500.0, 300.0, 300.0, 400.0]], DEFAULT)
        assert len(seen) > 3
        _, times = np.unique(np.concatenate(seen), return_counts=True)
        assert times.max() <= 2
        assert res.positive_count.tolist() == [42_364]

    @pytest.mark.parametrize("strategy", [Strategy.SAM, Strategy.SAM_COMPENSATE])
    def test_tn_zero_keeps_only_pairs_above_threshold(self, strategy, monkeypatch):
        # Under tn 0 the background is IGNORE, so only pairs above their
        # face's threshold are kept. Eight 200x200 faces, each its own set
        # on the 10.5M-row ams grid, peak near 48 MB; keeping every pair at
        # or above tn peaked at 326 MB for two of them.
        forbid_rows(monkeypatch)
        faces = [[100.0 + 90 * g, 60.0 + 50 * g, 200.0, 200.0] for g in range(8)]
        tracemalloc.start()
        try:
            grid = generate_anchor_boxes(ams_design(1.0), 1000, 700)
            res = assign_labels_xywh(grid, faces, MatchConfig(strategy=strategy, tn=0.0),
                                     group=np.arange(8))
            counts = res.label_counts()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"
        assert res.positive_count.tolist() == [18_548] * 8
        assert counts == {"positive": 8 * 18_548, "negative": 0,
                          "ignore": 8 * (len(grid) - 18_548), "compensated": 0}
        assert res.rows.size == 8 * 18_548


    def test_low_tn_peak_does_not_grow_with_sets(self):
        # At tn 0.01 nearly every anchor that overlaps a face keeps its pair.
        # One 48x48 face per image on the 576,000-row ams grid of a 240x160
        # canvas: match peaks near 15 MB for one image and 19 MB for eight,
        # whose calls are cut by set_runs. Eight images in one call, their
        # pairs all held until it ended, peaked at 140 MB.
        cfg = MatchConfig(strategy=Strategy.SAM, tn=0.01)
        peaks = []
        for n in (1, 8):
            records = [record(f"i{k}.jpg", [[20.0 + 7 * k, 15.0 + 5 * k, 48.0, 48.0]],
                              240.0, 160.0) for k in range(n)]
            tracemalloc.start()
            try:
                report = run_match(corpus(records), ams_design(1.0), cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert report.per_face.positive_count.tolist() == [1076] * 8
        assert report.labels["ignore"] > 8 * 150_000
        assert peaks[1] < 2 * peaks[0], [f"{p / 2**20:.1f} MB" for p in peaks]
        assert peaks[1] < 40 * 2**20, [f"{p / 2**20:.1f} MB" for p in peaks]


def assert_grouped_equals_per_group(grid, faces, group, cfg, budget=None):
    """assign_labels_xywh over all faces and groups at once against one
    ungrouped call per group, on every field, with budget (if given) as
    PAIR_BUDGET for the grouped call only."""
    group = np.asarray(group, dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(anchorkit.matching, "PAIR_BUDGET", budget)
        got = assign_labels_xywh(grid, faces, cfg, group=group)
    n, n_groups = len(grid), int(group.max(initial=0)) + 1
    assert got.n_anchors == n_groups * n
    assert np.array_equal(got.rows, np.sort(got.rows))
    for g in range(n_groups):
        mine = np.flatnonzero(group == g)
        on = got.rows // n == g
        if not mine.size:
            assert not on.any()
            continue
        want = assign_labels_xywh(grid, faces[mine], cfg)
        assert got.rows[on].tolist() == (g * n + want.rows).tolist()
        labels = np.where(want.row_labels >= 0, mine[want.row_labels.clip(0)], want.row_labels)
        assert got.row_labels[on].tolist() == labels.tolist()
        assert got.row_compensated[on].tolist() == want.row_compensated.tolist()
        assert got.background == want.background
        for name in ("max_iou", "positive_count", "effective_tp"):
            a, b = getattr(got, name)[mine], getattr(want, name)
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), name


def labelled(grid, faces, group, cfg, budget):
    """assign_labels_xywh with budget as PAIR_BUDGET."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(anchorkit.matching, "PAIR_BUDGET", budget)
        return assign_labels_xywh(grid, faces, cfg, group=np.asarray(group, dtype=np.int64))


def assert_same_result(a, b):
    """Every field of two MatchResults equal, dtypes and float bits included."""
    assert (a.n_anchors, a.background) == (b.n_anchors, b.background)
    for name in ("rows", "row_labels", "row_compensated", "max_iou", "positive_count",
                 "effective_tp"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def assert_tn_free(grid, faces, group, cfg):
    """max_iou and positive_count of faces under cfg and under cfg with
    tn = 0 are equal bit for bit."""
    a = assign_labels_xywh(grid, faces, cfg, group=group)
    b = assign_labels_xywh(grid, faces, replace(cfg, tn=0.0), group=group)
    assert a.max_iou.tobytes() == b.max_iou.tobytes()
    assert a.positive_count.tolist() == b.positive_count.tolist()


class TestTnFreeStatistics:
    """Neither a face's max IoU nor its positive count depends on cfg.tn:
    simulate reads only these, and labels its crops under tn = 0."""

    @given(scene=grid_scenes(), strategy=st.sampled_from(list(Strategy)),
           tn=st.floats(0.0, 0.39), data=st.data())
    @settings(max_examples=150)
    def test_equal_under_tn_zero(self, scene, strategy, tn, data):
        # Each face twice, the copies in reverse order, under interleaved set
        # ids: a face and its copy tie on every anchor, in one set or two.
        design, w, h, faces = scene
        faces = np.vstack([faces, faces[::-1]])
        group = data.draw(st.lists(st.integers(0, 3), min_size=len(faces),
                                   max_size=len(faces)))
        cfg = MatchConfig(strategy=strategy, tn=tn)
        assert_tn_free(generate_anchor_boxes(design, w, h), faces, group, cfg)

    @pytest.mark.parametrize("tn", [0.1, 0.35, 0.39])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_ties_and_faces_off_the_grid(self, strategy, tn):
        # As in TestGroupedKernel: faces a and b share their argmax anchor
        # in sets 0 and 1, and the two faces off the grid overlap nothing.
        grid = one_level(100, (10.0,), 200, 200)
        a, b, off = [130.0, 130.0, 40.0, 40.0], [140.0, 140.0, 20.0, 20.0], [900.0, 5, 8, 8]
        faces = np.array([a, b, a, b, off, off, a])
        assert_tn_free(grid, faces, [1, 0, 0, 1, 2, 0, 1], MatchConfig(strategy=strategy, tn=tn))


class TestGroupedKernel:
    """assign_labels_xywh with groups, as simulate labels runs of crops and
    match runs of images, against one ungrouped call per group."""

    @given(scene=grid_scenes(), strategy=st.sampled_from(list(Strategy)),
           tn=st.sampled_from([0.0, 0.35]), budget=st.sampled_from([None, 1]),
           data=st.data())
    @settings(max_examples=150)
    def test_matches_one_call_per_group(self, scene, strategy, tn, budget, data):
        design, w, h, faces = scene
        # Each face twice (the copies in reverse order), under interleaved
        # group ids, so a face and its copy may share a group or not.
        faces = np.vstack([faces, faces[::-1]])
        group = data.draw(st.lists(st.integers(0, 3), min_size=len(faces),
                                   max_size=len(faces)))
        cfg = MatchConfig(strategy=strategy, tn=tn)
        assert_grouped_equals_per_group(generate_anchor_boxes(design, w, h), faces,
                                        group, cfg, budget)

    @pytest.mark.parametrize("budget", [None, 1])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_shared_argmax_and_off_grid_faces(self, strategy, budget):
        # In groups 0 and 1 two unmatched faces share their argmax anchor 3
        # (see TestCompensation), which the lower face index claims. Faces 4
        # and 5 overlap nothing and claim the first row of groups 2 and 0.
        grid = one_level(100, (10.0,), 200, 200)
        a, b, off = [130.0, 130.0, 40.0, 40.0], [140.0, 140.0, 20.0, 20.0], [900.0, 5, 8, 8]
        faces = np.array([a, b, a, b, off, off])
        group = [1, 0, 0, 1, 2, 0]
        cfg = MatchConfig(strategy=strategy)
        assert_grouped_equals_per_group(grid, faces, group, cfg, budget)
        res = assign_labels_xywh(grid, faces, cfg, group=group)
        if strategy is Strategy.SAM_COMPENSATE:
            assert res.rows.tolist() == [0, 3, 4 + 3, 8]
            assert res.row_labels.tolist() == [5, 1, 0, 4]
            assert res.positive_count.tolist() == [1, 1, 0, 0, 1, 1]

    @given(scene=grid_scenes(), strategy=st.sampled_from(list(Strategy)),
           tn=st.sampled_from([0.0, 0.35]), data=st.data())
    @settings(max_examples=150)
    def test_runs_of_sorted_sets_equal_one_run(self, scene, strategy, tn, data):
        # Set ids that never decrease, with ids that hold no face between
        # and before the sets. PAIR_BUDGET 1 slices the call face by face,
        # which must give the one-slice result bit for bit.
        design, w, h, faces = scene
        faces = np.vstack([faces, faces[::-1]])
        steps = data.draw(st.lists(st.integers(0, 2), min_size=len(faces),
                                   max_size=len(faces)))
        group = np.cumsum(steps)
        grid = generate_anchor_boxes(design, w, h)
        cfg = MatchConfig(strategy=strategy, tn=tn)
        assert_same_result(labelled(grid, faces, group, cfg, 1),
                           labelled(grid, faces, group, cfg, 2**62))
        assert_grouped_equals_per_group(grid, faces, group, cfg, budget=1)

    @pytest.mark.parametrize("tn", [0.0, 0.35])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_runs_hold_whole_sets_and_off_grid_faces(self, strategy, tn):
        # Sets 0, 2, 3 and 5 in order; 1 and 4 hold no face. In sets 0 and
        # 3, face `on` is anchor 0 and can keep pairs, and the unmatched
        # faces a and b share their argmax anchor 3 (see TestCompensation).
        # The off-grid faces of sets 2 and 5 can keep none, and their plan's
        # bound, which counts the cells the kernel would expand, is 0;
        # under compensation each claims row 0 of its own set, whether the
        # call is sliced face by face or not.
        grid = one_level(100, (10.0,), 200, 200)
        a, b, on = [130.0, 130.0, 40.0, 40.0], [140.0, 140.0, 20.0, 20.0], [45.0, 45, 10, 10]
        off = [900.0, 5, 8, 8]
        faces = np.array([a, b, on, off, a, b, on, off])
        group = np.array([0, 0, 0, 2, 3, 3, 3, 5])
        cfg = MatchConfig(strategy=strategy, tn=tn)
        assert anchorkit.matching.plan_faces(grid, faces, cfg).pairs.tolist() == [0, 0, 4, 0] * 2
        got = labelled(grid, faces, group, cfg, 1)
        assert_same_result(got, labelled(grid, faces, group, cfg, 2**62))
        assert_grouped_equals_per_group(grid, faces, group, cfg, budget=1)
        if strategy is Strategy.SAM_COMPENSATE:
            assert got.rows.tolist() == [0, 3, 2 * 4, 3 * 4, 3 * 4 + 3, 5 * 4]
            assert got.row_labels.tolist() == [2, 0, 3, 6, 4, 7]
            assert got.row_compensated.tolist() == [False, True, True, False, True, True]
            assert got.positive_count.tolist() == [1, 0, 1, 1, 1, 0, 1, 1]

    def test_unsorted_sets_are_one_run(self):
        # A call is labelled whole, whatever the order of its set ids.
        anchors, faces = small_scene(6, n_faces=8)
        assert_grouped_equals_per_group(anchors, faces, [1, 0, 1, 0, 2, 2, 3, 3], DEFAULT)

    def test_every_face_in_group_zero_is_the_public_call(self):
        anchors, faces = small_scene(3, n_faces=12)
        for strategy in Strategy:
            cfg = MatchConfig(strategy=strategy)
            assert_grouped_equals_per_group(anchors, faces, np.zeros(12), cfg)

    def test_key_range_checked_before_any_array(self):
        # A 4096 x 4096 stride-1 grid has MAX_GRID_ROWS anchors and no rows
        # built; 2**39 groups of it would key row 0 of the last at 2**63 - 2**24.
        grid = one_level(1, (1.0,), 4096, 4096)
        assert len(grid) == MAX_GRID_ROWS and MAX_GRID_ROWS * 2**39 == 2**63
        face = [[10.0, 10.0, 1.0, 1.0]]  # anchor (10, 10) of the grid
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="overflow the int64 row keys"):
                assign_labels_xywh(grid, [[math.nan] * 4], DEFAULT, group=[2**39 - 1])
            with pytest.raises(ValueError, match="overflow the int64 row keys"):
                assign_labels_xywh(one_level(8, (8.0,), 16, 16), face, DEFAULT, group=[2**61])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # One group fewer fits: its keys stop below 2**63.
        res = assign_labels_xywh(grid, face, DEFAULT, group=[2**39 - 2])
        assert res.n_anchors == 2**63 - 2**24
        assert res.positive_count.tolist() == [1]
        assert res.rows.min() >= (2**39 - 2) * MAX_GRID_ROWS
        with pytest.raises(ValueError, match="non-negative"):
            assign_labels_xywh(grid, face, DEFAULT, group=[-1])


class TestSetRuns:
    """set_runs cuts sets of faces into the kernel calls of ams.label_sets,
    which simulate and match share, by the pairs bound of their plan."""

    @given(scene=grid_scenes(), strategy=st.sampled_from(list(Strategy)),
           tn=st.sampled_from([0.0, 0.35]), budget=st.sampled_from([0, 1, 40, 400, 2**62]),
           data=st.data())
    @settings(max_examples=150)
    def test_ranges_hold_whole_sets_within_the_bound(self, scene, strategy, tn, budget, data):
        # Ids drawn from a few values, so a set (a run of equal consecutive
        # ids) may recur later as another set.
        design, w, h, faces = scene
        faces = np.vstack([faces, faces[::-1]])
        m = len(faces)
        group = np.array(data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)),
                         dtype=np.int64)
        grid = generate_anchor_boxes(design, w, h)
        cfg = MatchConfig(strategy=strategy, tn=tn)
        plan = anchorkit.matching.plan_faces(grid, faces, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(anchorkit.matching, "RUN_PAIRS", budget)
            runs = anchorkit.matching.set_runs(plan, group)
        # The ranges cover faces 0 .. m-1 in order, and none starts inside a set.
        ends = [0] + [hi for _, hi in runs]
        assert [lo for lo, _ in runs] == ends[:-1] and ends[-1] == m
        assert all(lo < hi and (lo == 0 or group[lo] != group[lo - 1]) for lo, hi in runs)
        sets = np.cumsum(np.diff(group, prepend=-1) != 0)  # each face's set, from 1
        bound = plan.pairs
        for n, (lo, hi) in enumerate(runs):
            if sets[hi - 1] > sets[lo]:  # more than one set
                assert bound[lo:hi].sum() <= budget
            if n + 1 < len(runs):  # the next set would not have fit
                nxt = hi + np.count_nonzero(sets == sets[hi])
                assert bound[lo:nxt].sum() > budget

    @given(scene=grid_scenes(), strategy=st.sampled_from(list(Strategy)),
           tn=st.sampled_from([0.0, 0.35]), budget=st.sampled_from([0, 40, 2**62]),
           data=st.data())
    @settings(max_examples=150)
    def test_plan_slice_labels_as_the_range_alone(self, scene, strategy, tn, budget, data):
        # Set ids that never decrease, as label_sets takes them. Each range's
        # call given its slice of the block's plan equals the call that
        # plans the range's faces itself, bit for bit.
        design, w, h, faces = scene
        faces = np.vstack([faces, faces[::-1]])
        steps = data.draw(st.lists(st.integers(0, 2), min_size=len(faces),
                                   max_size=len(faces)))
        group = np.cumsum(steps)
        grid = generate_anchor_boxes(design, w, h)
        cfg = MatchConfig(strategy=strategy, tn=tn)
        plan = anchorkit.matching.plan_faces(grid, faces, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(anchorkit.matching, "RUN_PAIRS", budget)
            runs = anchorkit.matching.set_runs(plan, group)
        for lo, hi in runs:
            ids = group[lo:hi] - group[lo]
            assert_same_result(assign_labels_xywh(grid, faces[lo:hi], cfg, group=ids,
                                                  plan=plan[lo:hi]),
                               assign_labels_xywh(grid, faces[lo:hi], cfg, group=ids))

    @given(scene=grid_scenes(), strategy=st.sampled_from(list(Strategy)),
           tn=st.sampled_from([0.0, 0.2, 0.35]))
    @settings(max_examples=150)
    def test_bound_holds_every_pair_a_face_can_keep(self, scene, strategy, tn):
        # Counted densely over the grid's rows: the pairs at or above tn,
        # or under tn 0 above the face's threshold, which are the pairs the
        # kernel may keep, never outnumber the face's bound.
        design, w, h, faces = scene
        grid = generate_anchor_boxes(design, w, h)
        cfg = MatchConfig(strategy=strategy, tn=tn)
        iou = iou_pairs(np.asarray(grid)[None], faces[:, None])
        if tn == 0:
            tp = [naive_warm_threshold(f[3] / f[2], cfg) if strategy is Strategy.WARM
                  else cfg.t0 for f in faces]
            keepable = iou > np.array(tp).reshape(-1, 1)
        else:
            keepable = iou >= tn
        bound = anchorkit.matching.plan_faces(grid, faces, cfg).pairs
        assert (keepable.sum(axis=1) <= bound).all(), (keepable.sum(axis=1), bound)

    @pytest.mark.parametrize("group, ranges", [([], 0), ([3] * 6, 1), ([0, 0, 0, 1, 1, 1], 2),
                                               (list(range(6)), 5)])
    def test_label_sets_plans_once_and_the_kernel_never(self, group, ranges, monkeypatch):
        # Whatever the number of sets and of ranges, label_sets plans its
        # faces once, and each kernel call takes the slice of that plan for
        # its own faces and plans nothing. Under RUN_PAIRS 0 the faces of
        # bound 0, the first two, share a range.
        anchors, faces = small_scene(7, n_faces=6)
        faces, group = faces[:len(group)], np.array(group, dtype=np.int64)
        plans, plan_faces = [], anchorkit.matching.plan_faces
        calls, kernel = [], anchorkit.ams.assign_labels_xywh

        def counted(grid, faces, cfg, group, plan):
            calls.append((len(faces), plan.tp.size))
            return kernel(grid, faces, cfg, group=group, plan=plan)

        monkeypatch.setattr(anchorkit.matching, "plan_faces",
                            lambda *a: plans.append(1) or plan_faces(*a))
        monkeypatch.setattr(anchorkit.ams, "assign_labels_xywh", counted)
        n_calls = []
        for budget in (0, 2**40):
            plans.clear()
            calls.clear()
            monkeypatch.setattr(anchorkit.matching, "RUN_PAIRS", budget)
            anchorkit.ams.label_sets(anchors, faces, DEFAULT, group)
            assert plans == [1]
            assert all(n == k for n, k in calls) and sum(n for n, _ in calls) == len(faces)
            n_calls.append(len(calls))
        assert n_calls == [ranges, min(ranges, 1)]
        # Called without a plan, the kernel plans its faces itself.
        plans.clear()
        kernel(anchors, faces, DEFAULT)
        assert plans == [1]
