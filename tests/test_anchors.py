import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import anchorkit.anchors
from anchorkit.anchors import (
    AnchorDesign,
    PyramidLevel,
    MAX_GRID_ROWS,
    MAX_LADDER_RUNGS,
    ams_design,
    detector_design,
    generate_anchor_boxes,
    ladder_design,
)

from oracles import eager_anchor_rows

SQRT2 = math.sqrt(2.0)


class TestDetectorDesign:
    def test_fifteen_sizes_min_max(self):
        d = detector_design()
        assert len(d.sizes) == 15
        assert d.sizes[0] == 4.0
        assert d.sizes[-1] == 512.0

    def test_consecutive_size_ratio_is_sqrt2(self):
        sizes = detector_design().sizes
        for a, b in zip(sizes, sizes[1:]):
            assert b / a == pytest.approx(SQRT2, abs=1e-9)

    def test_square_anchors(self):
        assert detector_design().aspect_ratio == 1.0

    def test_level_layout(self):
        d = detector_design()
        assert [lv.name for lv in d.levels] == ["P2", "P3", "P4", "P5", "P6"]
        assert [lv.stride for lv in d.levels] == [4, 8, 16, 32, 64]
        assert all(len(lv.sizes) == 3 for lv in d.levels)


class TestLadderDesign:
    def test_default_ladder(self):
        d = ams_design(1.0)
        assert len(d.sizes) == 15
        assert d.sizes[0] == pytest.approx(4.0, abs=1e-9)
        assert d.sizes[-1] == pytest.approx(512.0, abs=1e-9)

    def test_aspect_ratio_carried(self):
        d = ams_design(1.25)
        assert d.aspect_ratio == 1.25
        assert len(d.sizes) == 15

    def test_mid_rung_closed_form(self):
        # 4 * (sqrt 2)^7 = 2^5.5
        assert ams_design(1.0).sizes[7] == pytest.approx(2.0**5.5, abs=1e-9)

    def test_custom_step(self):
        d = ladder_design(1.0, scale_step=2.0)
        assert d.sizes == (4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ams_design(0.0)
        with pytest.raises(ValueError):
            ladder_design(1.0, scale_step=1.0)
        with pytest.raises(ValueError):
            ladder_design(1.0, min_size=0)

    @pytest.mark.parametrize("field", ["aspect_ratio", "scale_step", "min_size", "max_size"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, bad):
        args = dict(aspect_ratio=1.0, scale_step=2.0, min_size=4.0, max_size=512.0)
        args[field] = bad
        with pytest.raises(ValueError, match="finite"):
            ladder_design(**args)

    def test_ams_design_rejects_nan(self):
        with pytest.raises(ValueError):
            ams_design(math.nan)

    def test_length_cap(self):
        # 4 * step**(n - 1) == 512 puts the top rung on max_size, so a step
        # of 128**(1/(n-1)) asks for exactly n sizes.
        at_cap = 128.0 ** (1.0 / (MAX_LADDER_RUNGS - 1))
        assert len(ladder_design(1.0, scale_step=at_cap).sizes) == MAX_LADDER_RUNGS
        over_cap = 128.0 ** (1.0 / MAX_LADDER_RUNGS)
        with pytest.raises(ValueError, match=f"{MAX_LADDER_RUNGS + 1} sizes"):
            ladder_design(1.0, scale_step=over_cap)

    def test_length_cap_refuses_before_building(self):
        # About 48.5M rungs: the count alone must trigger the refusal.
        with pytest.raises(ValueError, match="48520306 sizes"):
            ladder_design(1.0, scale_step=1.0000001)


class TestGenerateAnchors:
    def test_detector_count_at_640(self):
        # 3 sizes x (160^2 + 80^2 + 40^2 + 20^2 + 10^2) cells
        anchors = generate_anchor_boxes(detector_design(), 640, 640)
        assert anchors.shape == (102300, 4)

    def test_p2_contribution(self):
        # Rows are level-major: the first 76800 are P2's, then P3 starts.
        anchors = np.asarray(generate_anchor_boxes(detector_design(), 640, 640))
        p2_sizes = detector_design().levels[0].sizes
        assert set(anchors[:76800, 2]) == set(p2_sizes)
        assert anchors[76800, 2] == detector_design().levels[1].sizes[0]

    def test_single_cell(self):
        design = AnchorDesign(levels=(PyramidLevel("L", 64, (64.0,)),))
        anchors = np.asarray(generate_anchor_boxes(design, 64, 64))
        # Centered at (32, 32): corner (0, 0), side 64.
        assert anchors.tolist() == [[0.0, 0.0, 64.0, 64.0]]

    def test_count_formula(self):
        design = detector_design()
        for w, h in [(640, 640), (512, 384), (129, 65)]:
            expected = sum(
                math.floor(w / lv.stride) * math.floor(h / lv.stride) * len(lv.sizes)
                for lv in design.levels
            )
            assert generate_anchor_boxes(design, w, h).shape[0] == expected

    def test_zero_cells_rejected(self):
        design = AnchorDesign(levels=(PyramidLevel("L", 64, (64.0,)),))
        with pytest.raises(ValueError):
            generate_anchor_boxes(design, 63, 64)
        with pytest.raises(ValueError):
            generate_anchor_boxes(design, 64, 63)

    def test_bad_image_dims_rejected(self):
        with pytest.raises(ValueError):
            generate_anchor_boxes(detector_design(), 0, 640)

    def test_row_cap(self, monkeypatch):
        # The detector grid on 64x64 has 3 * (16^2 + 8^2 + 4^2 + 2^2 + 1^2) = 1023 rows.
        monkeypatch.setattr(anchorkit.anchors, "MAX_GRID_ROWS", 1023)
        assert generate_anchor_boxes(detector_design(), 64, 64).shape == (1023, 4)
        monkeypatch.setattr(anchorkit.anchors, "MAX_GRID_ROWS", 1022)
        with pytest.raises(ValueError, match="1023 anchors, over the cap of 1022"):
            generate_anchor_boxes(detector_design(), 64, 64)

    def test_row_cap_refuses_before_building(self, monkeypatch):
        # One row over the real cap, and a 1024-rung stride-1 ladder on
        # 1000x800 (819.2M rows, about 26 GB): both refused by the count
        # alone. Without numpy, any attempt to build the grid fails loudly.
        monkeypatch.setattr(anchorkit.anchors, "np", None)
        one_size = AnchorDesign(levels=(PyramidLevel("L", 1.0, (1.0,)),))
        with pytest.raises(ValueError, match=f"{MAX_GRID_ROWS + 1} anchors"):
            generate_anchor_boxes(one_size, MAX_GRID_ROWS + 1, 1)
        longest = ladder_design(1.0, scale_step=128.0 ** (1.0 / (MAX_LADDER_RUNGS - 1)))
        with pytest.raises(ValueError, match="819200000 anchors"):
            generate_anchor_boxes(longest, 1000, 800)

    def test_row_cap_leaves_detector_canvases(self):
        # 3 * (256^2 + 128^2 + 64^2 + 32^2 + 16^2) rows on a 1024x1024 canvas.
        assert generate_anchor_boxes(detector_design(), 1024, 1024).shape == (261888, 4)

    def test_aspect_ratio_invariant(self):
        design = ladder_design(1.3, min_size=8, max_size=64)
        design = AnchorDesign(levels=(PyramidLevel("L", 16, design.sizes),), aspect_ratio=1.3)
        anchors = np.asarray(generate_anchor_boxes(design, 128, 96))
        assert np.allclose(anchors[:, 3] / anchors[:, 2], 1.3, rtol=0, atol=1e-12)

    def test_deterministic_regeneration(self):
        a1 = generate_anchor_boxes(detector_design(), 256, 192)
        a2 = generate_anchor_boxes(detector_design(), 256, 192)
        assert np.array_equal(a1, a2)

    def test_ordering_contract(self):
        # level, then row-major cell, then size
        design = AnchorDesign(
            levels=(PyramidLevel("A", 32, (8.0, 16.0)), PyramidLevel("B", 64, (32.0,))),
        )
        anchors = np.asarray(generate_anchor_boxes(design, 64, 64))
        centers = [(x + w / 2, y + h / 2, w) for x, y, w, h in anchors.tolist()]
        assert centers == [
            (16.0, 16.0, 8.0),
            (16.0, 16.0, 16.0),
            (48.0, 16.0, 8.0),
            (48.0, 16.0, 16.0),
            (16.0, 48.0, 8.0),
            (16.0, 48.0, 16.0),
            (48.0, 48.0, 8.0),
            (48.0, 48.0, 16.0),
            (32.0, 32.0, 32.0),
        ]

    @pytest.mark.parametrize("design, w, h", [
        (detector_design(), 640, 640),
        (detector_design(), 129, 65),
        (ams_design(2.4), 100, 37),
        (AnchorDesign(levels=(PyramidLevel("A", 0.75, (1.0, 3.5)),
                              PyramidLevel("B", 5.5, (7.25,))), aspect_ratio=0.3), 41.3, 17.9),
    ], ids=["detector-640", "detector-129x65", "ams", "fractional-strides"])
    def test_rows_match_eager_builder(self, design, w, h):
        grid = generate_anchor_boxes(design, w, h)
        rows = np.asarray(grid)
        assert rows.dtype == np.float64
        assert rows.shape == grid.shape == (len(grid), 4)
        assert rows.tobytes() == eager_anchor_rows(design, w, h).tobytes()
        assert np.asarray(grid, dtype=np.float32).dtype == np.float32

    def test_plane_table(self):
        # One plane per (level, size); row of cell (i, j) = first + (j*nx + i)*step.
        grid = generate_anchor_boxes(detector_design(), 640, 640)
        sizes = list(detector_design().sizes)
        assert grid.size.tolist() == [[s, s] for s in sizes]
        assert grid.stride.tolist() == [4.0] * 3 + [8.0] * 3 + [16.0] * 3 + [32.0] * 3 + [64.0] * 3
        assert grid.first.tolist()[:4] == [0, 1, 2, 76800]
        assert grid.step.tolist() == [3] * 15
        assert grid.cells[::3].tolist() == [[160, 160], [80, 80], [40, 40], [20, 20], [10, 10]]
        rows = np.asarray(grid)
        p, i, j = 4, 7, 3  # P3's second size, cell (7, 3)
        r = grid.first[p] + (j * grid.cells[p, 0] + i) * grid.step[p]
        assert rows[r].tolist() == [(i + 0.5) * 8 - 8, (j + 0.5) * 8 - 8, 16.0, 16.0]

    @pytest.mark.parametrize("size, ar", [(1e-200, 1e-200), (1e200, 1e200)])
    def test_zero_or_inf_height_rejected(self, size, ar):
        # size * aspect_ratio underflows to 0 or overflows to inf.
        design = AnchorDesign(levels=(PyramidLevel("tiny", 1.0, (size,)),), aspect_ratio=ar)
        with pytest.raises(ValueError, match="level 'tiny'"):
            generate_anchor_boxes(design, 4, 4)


class TestDesignValidation:
    def test_level_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            PyramidLevel("L", 8, ())
        with pytest.raises(ValueError):
            PyramidLevel("L", 8, (8.0, 8.0))
        with pytest.raises(ValueError):
            PyramidLevel("L", 8, (8.0, 4.0))
        with pytest.raises(ValueError):
            PyramidLevel("L", 0, (8.0,))

    def test_design_rejects_duplicate_sizes_across_levels(self):
        with pytest.raises(ValueError):
            AnchorDesign(
                levels=(
                    PyramidLevel("A", 8, (8.0, 16.0)),
                    PyramidLevel("B", 16, (16.0, 32.0)),
                ),
            )

    @pytest.mark.parametrize("stride, sizes", [
        (math.nan, (8.0,)), (math.inf, (8.0,)), (8, (math.nan,)), (8, (4.0, math.inf)),
    ])
    def test_level_rejects_non_finite(self, stride, sizes):
        with pytest.raises(ValueError, match="finite"):
            PyramidLevel("L", stride, sizes)

    @pytest.mark.parametrize("ar", [math.nan, math.inf])
    def test_design_rejects_non_finite_ar(self, ar):
        with pytest.raises(ValueError, match="finite"):
            AnchorDesign(levels=(PyramidLevel("A", 8, (8.0,)),), aspect_ratio=ar)

    def test_design_needs_levels_and_positive_ar(self):
        with pytest.raises(ValueError):
            AnchorDesign(levels=())
        with pytest.raises(ValueError):
            AnchorDesign(levels=(PyramidLevel("A", 8, (8.0,)),), aspect_ratio=-1)


class TestDesignJson:
    def test_round_trip(self):
        d = detector_design()
        assert AnchorDesign.from_json(d.to_json()) == d

    def test_field_names(self):
        data = detector_design().to_json_dict()
        assert set(data) == {"levels", "aspect_ratio"}
        assert set(data["levels"][0]) == {"name", "stride", "sizes"}

    @given(st.floats(min_value=0.25, max_value=4.0, allow_nan=False))
    def test_round_trip_any_ar(self, ar):
        d = ams_design(ar)
        assert AnchorDesign.from_json(d.to_json()) == d

    @pytest.mark.parametrize("text, field", [
        ('{"levels": [{"stride": 8, "sizes": [8]}], "aspect_ratio": 1}', "'name'"),
        ('{"aspect_ratio": 1}', "'levels'"),
        ('[1, 2]', "JSON object"),
        ('{"levels": [3], "aspect_ratio": 1}', "levels[0] must be a JSON object"),
        ('{"levels": [{"name": "A", "stride": 8, "sizes": [8]}]}', "'aspect_ratio'"),
        ('{"levels": [{"name": 1, "stride": 8, "sizes": [8]}], "aspect_ratio": 1}',
         "levels[0].name"),
        ('{"levels": [{"name": "A", "stride": "8", "sizes": [8]}], "aspect_ratio": 1}',
         "levels[0].stride"),
        ('{"levels": [{"name": "A", "stride": 8, "sizes": [8, true]}], "aspect_ratio": 1}',
         "levels[0].sizes"),
        ('{"levels": {"name": "A"}, "aspect_ratio": 1}', "design.levels"),
        ('{"levels": [{"name": "A", "stride": 8, "sizes": [8]}], "aspect_ratio": "nan"}',
         "design.aspect_ratio"),
        ('{"levels": [{"name": "A", "stride": 8, "sizes": [8]}], "aspect_ratio": NaN}',
         "aspect_ratio must be positive and finite"),
    ])
    def test_malformed_json_names_the_field(self, text, field):
        with pytest.raises(ValueError) as exc:
            AnchorDesign.from_json(text)
        assert field in str(exc.value)
