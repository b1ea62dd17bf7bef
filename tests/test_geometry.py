"""Box geometry: the one IoU routine, iou_pairs, bit for bit against the
scalar oracle naive_iou, and the ideal-placement bound ams.ideal_max_iou
against concrete placements."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from anchorkit.ams import ideal_max_iou, run_ams
from anchorkit.anchors import AnchorDesign, PyramidLevel, ams_design
from anchorkit.matching import iou_pairs
from builders import corpus, record
from oracles import naive_iou

finite = dict(allow_nan=False, allow_infinity=False)
coords = st.floats(min_value=-1e4, max_value=1e4, **finite)
dims = st.floats(min_value=1e-3, max_value=1e4, **finite)


def boxes():
    return st.tuples(coords, coords, dims, dims)


def pair_iou(a, b) -> float:
    """iou_pairs of one pair, checked bit for bit against naive_iou."""
    got = float(iou_pairs(np.array(a, dtype=np.float64), np.array(b, dtype=np.float64)))
    assert got == naive_iou(a, b)
    return got


def one_anchor(w: float, ar: float) -> AnchorDesign:
    """A design of one anchor shape: width w, aspect ratio ar."""
    return AnchorDesign(levels=(PyramidLevel("L", 1.0, (w,)),), aspect_ratio=ar)


class TestIntersectionArea:
    """The intersection term of iou_pairs, on boxes whose overlap is known exactly."""

    def test_identity(self):
        b = (0.0, 0.0, 10.0, 10.0)
        assert pair_iou(b, b) == 1.0

    def test_disjoint(self):
        assert pair_iou((0.0, 0.0, 2.0, 2.0), (5.0, 5.0, 2.0, 2.0)) == 0.0

    def test_unit_overlap(self):
        # 1 px^2 of overlap over a 7 px^2 union.
        assert pair_iou((0.0, 0.0, 2.0, 2.0), (1.0, 1.0, 2.0, 2.0)) == 1 / 7

    def test_touching_edges_do_not_overlap(self):
        assert pair_iou((0.0, 0.0, 2.0, 2.0), (2.0, 0.0, 2.0, 2.0)) == 0.0
        assert pair_iou((0.0, 0.0, 2.0, 2.0), (0.0, 2.0, 2.0, 2.0)) == 0.0
        # One ulp of overlap is an overlap.
        assert pair_iou((0.0, 0.0, 2.0, 2.0), (np.nextafter(2.0, 0.0), 0.0, 2.0, 2.0)) > 0.0

    @given(boxes(), boxes())
    def test_symmetric(self, a, b):
        assert pair_iou(a, b) == pair_iou(b, a)


class TestIou:
    def test_identical(self):
        b = (3.0, 7.0, 11.0, 13.0)
        assert pair_iou(b, b) == 1.0
        # The ulp clamp keeps a thin box far from the origin at exactly 1.
        thin = (64.0, 0.0, 0.001, 1.0)
        assert pair_iou(thin, thin) == 1.0

    def test_known_overlap(self):
        # 1 px^2 intersection, 7 px^2 union
        assert pair_iou((0.0, 0.0, 2.0, 2.0), (1.0, 1.0, 2.0, 2.0)) == 1 / 7

    def test_disjoint(self):
        assert pair_iou((0.0, 0.0, 2.0, 2.0), (10.0, 10.0, 2.0, 2.0)) == 0.0

    @given(boxes(), boxes())
    def test_symmetric_and_bounded(self, a, b):
        v = pair_iou(a, b)
        assert v == pair_iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(
        boxes(),
        st.floats(min_value=1e-3, max_value=10, **finite),
        st.integers(min_value=0, max_value=3),
    )
    def test_one_only_for_identical(self, a, shift, which):
        # Perturb one field well past rounding; IoU must drop below 1.
        b = list(a)
        b[which] += shift
        assert pair_iou(a, tuple(b)) < 1.0


class TestAspectRatio:
    def test_height_over_width(self):
        # Aspect ratios are height over width throughout the library.
        _, faces = run_ams(corpus([record("a.jpg", [(0, 0, 10, 25)])]), ams_design(1.0), 0.5)
        assert faces.ar.tolist() == [2.5]


class TestIdealMaxIntersection:
    """ams.ideal_max_iou of a face shape against a one-anchor design: the IoU
    of the two shapes placed concentrically."""

    def test_identical_shapes(self):
        assert ideal_max_iou(10.0, 1.0, one_anchor(10.0, 1.0)) == 1.0

    def test_mixed_shapes(self):
        # min(10, 14.1421) * min(20, 14.1421) over 200 + 14.1421^2 - that.
        inter = 10.0 * 14.1421
        assert ideal_max_iou(10.0, 2.0, one_anchor(14.1421, 1.0)) == pytest.approx(
            inter / (200.0 + 14.1421**2 - inter), rel=1e-12
        )

    def test_small_anchor(self):
        # min(8, 4) * min(4, 4) = 16 over 32 + 16 - 16.
        assert ideal_max_iou(8.0, 0.5, one_anchor(4.0, 1.0)) == 0.5

    @pytest.mark.parametrize("args", [(0, 1, 1, 1), (1, -1, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)])
    def test_rejects_non_positive(self, args):
        # A face is refused by ideal_max_iou, an anchor by its design.
        fw, fr, aw, ar = args
        with pytest.raises(ValueError):
            ideal_max_iou(fw, fr, one_anchor(aw, ar))

    @given(dims, dims, dims, dims)
    def test_role_swap_invariance(self, fw, fr, aw, ar):
        assert ideal_max_iou(fw, fr, one_anchor(aw, ar)) == ideal_max_iou(aw, ar, one_anchor(fw, fr))

    @given(dims, st.floats(min_value=0.1, max_value=10, **finite),
           dims, st.floats(min_value=0.1, max_value=10, **finite),
           coords, coords)
    def test_bounds_every_concrete_placement(self, fw, fr, aw, ar, ox, oy):
        face = (0.0, 0.0, fw, fw * fr)
        anchor = (ox, oy, aw, aw * ar)
        # ideal_max_iou rounds the face area as w*w*r, iou_pairs as w*(w*r):
        # the two can differ by rounding only.
        assert pair_iou(face, anchor) <= ideal_max_iou(fw, fr, one_anchor(aw, ar)) * (1 + 1e-12)
