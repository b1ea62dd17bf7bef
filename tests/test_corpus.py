import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from anchorkit.corpus import (
    FixedListAR,
    LogUniformAR,
    WiderParseError,
    ar_coverage,
    attach_dims,
    corpus_counts,
    generate_synthetic,
    kept_faces,
    parse_wider,
    read_dims_csv,
    serialize_wider,
)
from builders import record

FIXTURE = Path(__file__).parent / "data" / "wider_50.txt"


class TestParseWider:
    def test_single_block(self):
        records = parse_wider("a.jpg\n1\n10 20 30 40 0 0 0 0 0 0\n")
        assert len(records) == 1
        rec = records[0]
        assert rec.path == "a.jpg"
        assert rec.width is None and rec.height is None
        assert rec.faces.dtype == np.float64
        assert rec.faces.tolist() == [[10.0, 20.0, 30.0, 40.0, 0, 0, 0, 0, 0, 0]]

    def test_zero_count_placeholder_discarded(self):
        records = parse_wider("a.jpg\n0\n0 0 0 0 0 0 0 0 0 0\n")
        assert len(records) == 1
        assert records[0].faces.shape == (0, 10)

    def test_accepts_stream_and_line_iterables(self):
        text = "a.jpg\n1\n10 20 30 40 0 0 0 0 0 0\n"
        assert parse_wider(io.StringIO(text)) == parse_wider(text)
        assert parse_wider(text.splitlines()) == parse_wider(text)

    def test_attributes_parsed(self):
        records = parse_wider("a.jpg\n1\n1 2 3 4 2 1 1 1 2 1\n")
        # blur expression illumination invalid occlusion pose
        assert records[0].faces[0, 4:].tolist() == [2, 1, 1, 1, 2, 1]

    def test_degenerate_box_retained_and_flagged(self):
        records = parse_wider("a.jpg\n1\n10 20 0 40 0 0 0 0 0 0\n")
        assert records[0].faces.shape == (1, 10)
        assert len(kept_faces(records[0])[0]) == 0

    def test_negative_coordinates_allowed(self):
        records = parse_wider("a.jpg\n1\n-5 -3 30 40 0 0 0 0 0 0\n")
        assert records[0].faces[0, 0] == -5.0

    def test_truncated_block_cites_line(self):
        with pytest.raises(WiderParseError) as err:
            parse_wider("a.jpg\n2\n10 20 30 40 0 0 0 0 0 0\n")
        assert "line 4" in str(err.value)
        assert err.value.line == 4

    def test_missing_count_cites_line(self):
        with pytest.raises(WiderParseError) as err:
            parse_wider("a.jpg\n")
        assert err.value.line == 2

    def test_bad_count_cites_line(self):
        with pytest.raises(WiderParseError) as err:
            parse_wider("a.jpg\nnope\n10 20 30 40 0 0 0 0 0 0\n")
        assert err.value.line == 2

    def test_negative_count_rejected(self):
        with pytest.raises(WiderParseError):
            parse_wider("a.jpg\n-1\n")

    def test_non_integer_field_cites_line(self):
        with pytest.raises(WiderParseError) as err:
            parse_wider("a.jpg\n1\n10 20 x 40 0 0 0 0 0 0\n")
        assert err.value.line == 3

    def test_wrong_field_count_cites_line(self):
        with pytest.raises(WiderParseError) as err:
            parse_wider("a.jpg\n1\n10 20 30 40 0 0 0\n")
        assert err.value.line == 3

    def test_attribute_out_of_range_cites_line(self):
        with pytest.raises(WiderParseError) as err:
            parse_wider("a.jpg\n1\n10 20 30 40 3 0 0 0 0 0\n")
        assert err.value.line == 3
        assert "blur" in str(err.value)

    def test_float_overflow_cites_line(self):
        with pytest.raises(WiderParseError) as err:
            parse_wider("a.jpg\n1\n10 20 30 40 0 0 0 0 0 0\nb.jpg\n1\n10 20 %s 40 0 0 0 0 0 0\n"
                        % ("9" * 401))
        assert str(err.value) == "line 6: int too large to convert to float"

    def test_blank_line_mid_file_rejected(self):
        with pytest.raises(WiderParseError) as err:
            parse_wider("a.jpg\n1\n10 20 30 40 0 0 0 0 0 0\n\nb.jpg\n0\n0 0 0 0 0 0 0 0 0 0\n")
        assert err.value.line == 4

    def test_trailing_blank_lines_tolerated(self):
        records = parse_wider("a.jpg\n1\n10 20 30 40 0 0 0 0 0 0\n\n\n")
        assert len(records) == 1


class TestSerializeWider:
    def test_round_trip_preserves_records(self):
        text = (
            "a.jpg\n2\n10 20 30 40 0 1 0 0 2 1\n-4 0 9 9 2 0 1 1 0 0\n"
            "b.jpg\n0\n0 0 0 0 0 0 0 0 0 0\n"
        )
        records = parse_wider(text)
        assert serialize_wider(records) == text
        assert parse_wider(serialize_wider(records)) == records

    def test_fixture_round_trip_bit_exact(self):
        text = FIXTURE.read_text(encoding="utf-8")
        records = parse_wider(text)
        assert len(records) == 50
        assert serialize_wider(records) == text

    def test_rejects_fractional_coordinates(self):
        rec = record("x.jpg", [(0.5, 0, 4, 4)])
        with pytest.raises(ValueError):
            serialize_wider([rec])


class TestFaceAnnotation:
    """The attribute codes a face row may hold; parse_wider refuses others."""

    def test_rejects_out_of_range_codes(self):
        with pytest.raises(WiderParseError, match="occlusion code 3 outside"):
            parse_wider("a.jpg\n1\n0 0 4 4 0 0 0 0 3 0\n")
        with pytest.raises(WiderParseError, match="pose code -1 outside"):
            parse_wider("a.jpg\n1\n0 0 4 4 0 0 0 0 0 -1\n")


class TestIterFaces:
    """The default filter, kept_faces, and the tallies built on it."""

    def corpus(self):
        return [record("x.jpg", [(0, 0, 4, 4), (0, 0, 4, 4), (0, 0, 0, 4), (0, 0, 8, 8)],
                       invalid=[1])]

    def test_default_filter_keeps_original_indices(self):
        idx, xywh = kept_faces(self.corpus()[0])
        assert idx.tolist() == [0, 3]
        assert xywh.tolist() == [[0, 0, 4, 4], [0, 0, 8, 8]]

    def test_counts(self):
        counts = corpus_counts(self.corpus())
        assert counts == {
            "n_images": 1,
            "n_faces": 4,
            "n_invalid": 1,
            "n_degenerate": 1,
            "n_kept": 2,
        }


class TestGenerateSynthetic:
    def test_fixed_list_ars_exact(self):
        ars = (0.3, 0.5, 1.0, 2.0, 2.3, 4.0)
        records = generate_synthetic(1, 6, FixedListAR(ars))
        got = tuple(r.faces[0, 3] / r.faces[0, 2] for r in records)
        assert got == pytest.approx(ars, rel=1e-12)

    def test_deterministic(self):
        law = LogUniformAR(0.2, 5.0)
        assert generate_synthetic(9, 20, law) == generate_synthetic(9, 20, law)

    def test_different_seeds_differ(self):
        law = LogUniformAR(0.2, 5.0)
        a = generate_synthetic(1, 5, law)
        b = generate_synthetic(2, 5, law)
        assert a != b

    def test_law_support_and_width_range(self):
        records = generate_synthetic(3, 3000, LogUniformAR(0.2, 5.0))
        for rec in records:
            assert rec.faces.shape == (1, 10)
            x, y, w, h = rec.faces[0, :4]
            assert 4.0 <= w <= 512.0
            assert 0.2 <= h / w <= 5.0
            assert rec.width is not None and rec.height is not None
            # face fits inside the image with margin
            assert x >= 0 and y >= 0
            assert x + w <= rec.width and y + h <= rec.height

    def test_fixed_list_cycles(self):
        records = generate_synthetic(1, 5, FixedListAR((1.0, 2.0)))
        got = [round(r.faces[0, 3] / r.faces[0, 2], 9) for r in records]
        assert got == [1.0, 2.0, 1.0, 2.0, 1.0]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            generate_synthetic(1, 0, FixedListAR((1.0,)))
        with pytest.raises(ValueError):
            LogUniformAR(0.0, 2.0)
        with pytest.raises(ValueError):
            FixedListAR(())


class TestArCoverage:
    def test_uniform_corpus_fully_inside(self):
        records = generate_synthetic(1, 10, FixedListAR((1.0,)))
        assert ar_coverage(records, 1.0, 5.0) == 1.0

    def test_fixed_list_coverage(self):
        records = generate_synthetic(1, 6, FixedListAR((0.3, 0.5, 1.0, 2.0, 2.3, 4.0)))
        assert ar_coverage(records, 1.0, 2.25) == pytest.approx(3 / 6)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            ar_coverage([], 1.0, 2.0)

    @pytest.mark.parametrize("anchor_ar, eta, needle", [
        (1.0, float("nan"), "eta"),
        (1.0, float("inf"), "eta"),
        (1.0, 1.0, "eta"),
        (float("inf"), 2.0, "anchor_ar"),
        (float("nan"), 2.0, "anchor_ar"),
        (0.0, 2.0, "anchor_ar"),
    ])
    def test_rejects_bad_domain(self, anchor_ar, eta, needle):
        records = generate_synthetic(1, 3, FixedListAR((1.0,)))
        with pytest.raises(ValueError, match=needle):
            ar_coverage(records, anchor_ar, eta)
        with pytest.raises(ValueError, match=needle):
            ar_coverage([], anchor_ar, eta)

    @given(st.floats(min_value=1.01, max_value=4.0, allow_nan=False),
           st.floats(min_value=1.1, max_value=3.0, allow_nan=False))
    def test_monotone_in_eta(self, eta, factor):
        records = generate_synthetic(4, 40, LogUniformAR(0.2, 5.0))
        assert ar_coverage(records, 1.0, eta) <= ar_coverage(records, 1.0, eta * factor)


class TestDimsSidecar:
    def test_read_and_attach(self, tmp_path):
        p = tmp_path / "dims.csv"
        p.write_text("path,width,height\na.jpg,1024,768\n", encoding="utf-8")
        dims = read_dims_csv(str(p))
        assert dims == {"a.jpg": (1024.0, 768.0)}
        records = parse_wider("a.jpg\n1\n10 20 30 40 0 0 0 0 0 0\nb.jpg\n0\n0 0 0 0 0 0 0 0 0 0\n")
        attach_dims(records, dims)
        assert (records[0].width, records[0].height) == (1024.0, 768.0)
        assert records[1].width is None

    def test_read_rejects_malformed(self):
        with pytest.raises(ValueError):
            read_dims_csv(io.StringIO("a.jpg,12\n"))
        with pytest.raises(ValueError):
            read_dims_csv(io.StringIO("a.jpg,x,y\n"))

    @pytest.mark.parametrize("text, line", [
        ("a.jpg,nan,-3\na.jpg,640,480\n", 1),
        ("path,width,height\nb.jpg,inf,1e400\n", 2),
        ("b.jpg,640,1e400\n", 1),
        ("b.jpg,-640,480\n", 1),
        ("b.jpg,640,0\n", 1),
        ("a.jpg,640,480\n\nb.jpg,64,64\na.jpg,640,480\n", 4),
    ], ids=["nan-and-negative", "inf", "overflow", "negative", "zero", "duplicate"])
    def test_read_rejects_bad_dimensions_and_duplicates(self, text, line):
        with pytest.raises(ValueError, match=f"line {line}:"):
            read_dims_csv(io.StringIO(text))
