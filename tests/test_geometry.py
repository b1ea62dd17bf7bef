import pytest
from hypothesis import given, strategies as st

from anchorkit.geometry import (
    Box,
    aspect_ratio,
    ideal_max_intersection,
    iou,
)

finite = dict(allow_nan=False, allow_infinity=False)
coords = st.floats(min_value=-1e4, max_value=1e4, **finite)
dims = st.floats(min_value=1e-3, max_value=1e4, **finite)


def boxes():
    return st.builds(Box, x=coords, y=coords, w=dims, h=dims)


class TestIntersectionArea:
    """The intersection term of iou, on boxes whose overlap is known exactly."""

    def test_identity(self):
        b = Box(0, 0, 10, 10)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 2, 2), Box(5, 5, 2, 2)) == 0.0

    def test_unit_overlap(self):
        # 1 px^2 of overlap over a 7 px^2 union.
        assert iou(Box(0, 0, 2, 2), Box(1, 1, 2, 2)) == 1 / 7

    def test_touching_edges_do_not_overlap(self):
        assert iou(Box(0, 0, 2, 2), Box(2, 0, 2, 2)) == 0.0

    @pytest.mark.parametrize("bad", [Box(0, 0, 0, 5), Box(0, 0, 5, 0), Box(0, 0, -1, 5)])
    def test_invalid_box_rejected(self, bad):
        good = Box(0, 0, 1, 1)
        with pytest.raises(ValueError):
            iou(bad, good)
        with pytest.raises(ValueError):
            iou(good, bad)

    @given(boxes(), boxes())
    def test_symmetric(self, a, b):
        assert iou(a, b) == iou(b, a)


class TestIou:
    def test_identical(self):
        b = Box(3, 7, 11, 13)
        assert iou(b, b) == 1.0

    def test_known_overlap(self):
        # 1 px^2 intersection, 7 px^2 union
        assert iou(Box(0, 0, 2, 2), Box(1, 1, 2, 2)) == pytest.approx(1 / 7, abs=1e-12)

    def test_disjoint(self):
        assert iou(Box(0, 0, 2, 2), Box(10, 10, 2, 2)) == 0.0

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError):
            iou(Box(0, 0, 0, 1), Box(0, 0, 1, 1))

    @given(boxes(), boxes())
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(
        boxes(),
        st.floats(min_value=1e-3, max_value=10, **finite),
        st.integers(min_value=0, max_value=3),
    )
    def test_one_only_for_identical(self, a, shift, which):
        # Perturb one field well past tolerance; IoU must drop below 1.
        fields = [a.x + shift, a.y, a.w, a.h]
        if which == 1:
            fields = [a.x, a.y + shift, a.w, a.h]
        elif which == 2:
            fields = [a.x, a.y, a.w + shift, a.h]
        elif which == 3:
            fields = [a.x, a.y, a.w, a.h + shift]
        b = Box(*fields)
        assert iou(a, b) < 1.0


class TestAspectRatio:
    def test_height_over_width(self):
        assert aspect_ratio(Box(0, 0, 10, 25)) == 2.5

    def test_invalid(self):
        with pytest.raises(ValueError):
            aspect_ratio(Box(0, 0, 10, 0))


class TestIdealMaxIntersection:
    def test_identical_shapes(self):
        assert ideal_max_intersection(10, 1.0, 10, 1.0) == 100.0

    def test_mixed_shapes(self):
        # min(10, 14.1421) * min(20, 14.1421)
        assert ideal_max_intersection(10, 2.0, 14.1421, 1.0) == pytest.approx(
            141.421, abs=1e-3
        )

    def test_small_anchor(self):
        # min(8, 4) * min(4, 4)
        assert ideal_max_intersection(8, 0.5, 4, 1.0) == 16.0

    @pytest.mark.parametrize("args", [(0, 1, 1, 1), (1, -1, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)])
    def test_rejects_non_positive(self, args):
        with pytest.raises(ValueError):
            ideal_max_intersection(*args)

    @given(dims, dims, dims, dims)
    def test_role_swap_invariance(self, fw, fr, aw, ar):
        assert ideal_max_intersection(fw, fr, aw, ar) == pytest.approx(
            ideal_max_intersection(aw, ar, fw, fr), rel=1e-12
        )

    @given(dims, st.floats(min_value=0.1, max_value=10, **finite),
           dims, st.floats(min_value=0.1, max_value=10, **finite),
           coords, coords)
    def test_bounds_every_concrete_placement(self, fw, fr, aw, ar, ox, oy):
        face = Box(0, 0, fw, fw * fr)
        anchor = Box(ox, oy, aw, aw * ar)
        bound = ideal_max_intersection(fw, fr, aw, ar)
        # IoU rises with the intersection, so the bound caps it too.
        assert iou(face, anchor) <= bound / (face.area + anchor.area - bound) + 1e-9
