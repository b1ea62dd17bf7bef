import io
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import anchorkit.corpus
from anchorkit.corpus import (
    FixedListAR,
    ImageRecord,
    LogUniformAR,
    WiderParseError,
    ar_coverage,
    attach_dims,
    corpus_counts,
    generate_synthetic,
    kept_mask,
    parse_wider,
    read_dims_csv,
    serialize_wider,
)
from builders import corpus, images, record
from oracles import kept_faces, naive_generate_synthetic, naive_parse_wider

FIXTURE = Path(__file__).parent / "data" / "wider_50.txt"


class TestParseWider:
    def test_single_block(self):
        records = parse_wider("a.jpg\n1\n10 20 30 40 0 0 0 0 0 0\n")
        assert len(records) == 1
        (rec,) = records
        assert rec.path == "a.jpg"
        assert rec.width is None and rec.height is None
        assert rec.faces.dtype == np.float64
        assert rec.faces.tolist() == [[10.0, 20.0, 30.0, 40.0, 0, 0, 0, 0, 0, 0]]

    def test_zero_count_placeholder_discarded(self):
        records = parse_wider("a.jpg\n0\n0 0 0 0 0 0 0 0 0 0\n")
        assert len(records) == 1
        assert records.faces.shape == (0, 10) and records.first.tolist() == [0]

    def test_accepts_stream_and_line_iterables(self):
        text = "a.jpg\n1\n10 20 30 40 0 0 0 0 0 0\n"
        assert images(parse_wider(io.StringIO(text))) == images(parse_wider(text))
        assert images(parse_wider(text.splitlines())) == images(parse_wider(text))

    def test_attributes_parsed(self):
        records = parse_wider("a.jpg\n1\n1 2 3 4 2 1 1 1 2 1\n")
        # blur expression illumination invalid occlusion pose
        assert records.faces[0, 4:].tolist() == [2, 1, 1, 1, 2, 1]

    def test_degenerate_box_retained_and_flagged(self):
        records = parse_wider("a.jpg\n1\n10 20 0 40 0 0 0 0 0 0\n")
        assert records.faces.shape == (1, 10)
        assert len(kept_faces(next(iter(records)))[0]) == 0

    def test_negative_coordinates_allowed(self):
        records = parse_wider("a.jpg\n1\n-5 -3 30 40 0 0 0 0 0 0\n")
        assert records.faces[0, 0] == -5.0

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
        assert str(err.value) == "line 6: w value too large: magnitude above 2**53"

    @pytest.mark.parametrize("value", [2**53, -(2**53)])
    def test_values_at_2_53_kept_exactly(self, value):
        text = f"a.jpg\n1\n{value} 0 10 {value} 0 0 0 0 0 0\n"
        assert serialize_wider(parse_wider(text)) == text

    @pytest.mark.parametrize("fields, column", [
        ("9007199254740993 0 10 10", "x"),
        ("0 0 10 -9007199254740993", "h"),
        ("0 99999999999999999999 10 10", "y"),
        ("0 0 -9223372036854775808 10", "w"),  # int64's minimum, its own absolute value
    ])
    def test_values_above_2_53_rejected(self, fields, column):
        # float64 would round 2**53 + 1 to 2**53, and parse --emit would
        # print another value than the annotation's.
        with pytest.raises(WiderParseError) as err:
            parse_wider(f"a.jpg\n1\n{fields} 0 0 0 0 0 0\n")
        assert str(err.value) == f"line 3: {column} value too large: magnitude above 2**53"

    def test_face_error_before_structural_error_wins(self):
        text = "a.jpg\n1\n1 2 3 4 0 0 9 0 0 0\nb.jpg\nnope\n"
        with pytest.raises(WiderParseError) as err:
            parse_wider(text)
        assert (str(err.value), err.value.line) == ("line 3: illumination code 9 outside [0, 1]", 3)
        with pytest.raises(WiderParseError) as err:
            parse_wider("a.jpg\n1\n1 2 3 4 0 0 0 0 0 0\nb.jpg\nnope\n")
        assert err.value.line == 5

    def test_face_error_in_truncated_block_wins(self):
        with pytest.raises(WiderParseError) as err:
            parse_wider("a.jpg\n3\n1 2 3 4 0 0 0 0 0 0\n1 2 3 4 0 0 0 x 0 0\n")
        assert err.value.line == 4 and "non-integer" in str(err.value)

    def test_blank_face_line_rejected(self):
        # The bulk read skips blank lines; the row count catches it.
        with pytest.raises(WiderParseError) as err:
            parse_wider("a.jpg\n2\n1 2 3 4 0 0 0 0 0 0\n   \n")
        assert str(err.value) == "line 4: expected 10 integer fields, got 0"

    def test_integers_only_int_reads(self):
        # int() accepts these and the bulk read does not: the per-line parse
        # takes over and gives the same values.
        text = "a.jpg\n2\n1_0 +5 -0 \u0663 0 0 0 0 0 0\n\uff11 2 3 4 0 0 0 0 0 0\n"
        (rec,) = parse_wider(text)
        assert rec.faces[:, :4].tolist() == [[10, 5, 0, 3], [1, 2, 3, 4]]

    def test_well_formed_text_read_in_bulk(self, monkeypatch):
        def per_line(*args):
            raise AssertionError("per-line face parse on well-formed text")

        monkeypatch.setattr(anchorkit.corpus, "_parse_face_line", per_line)
        records = parse_wider(FIXTURE.read_text(encoding="utf-8"))
        assert images(records) == images(naive_parse_wider(FIXTURE.read_text(encoding="utf-8")))

    def test_iteration_gives_each_block_its_rows(self):
        # What a face counter over parse_wider's result reads: one view per
        # block, in file order, whose faces are that block's rows of the
        # one face table, the zero-count block included.
        text = FIXTURE.read_text(encoding="utf-8")
        corpus, blocks = parse_wider(text), naive_parse_wider(text)
        views = list(corpus)
        assert all(isinstance(view, ImageRecord) for view in views)
        assert images(views) == images(blocks)
        assert all(np.shares_memory(view.faces, corpus.faces) for view in views if len(view.faces))
        assert any(len(view.faces) == 0 for view in views)
        assert sum(len(view.faces) for view in views) == len(corpus.faces) == 164

    def test_blank_line_mid_file_rejected(self):
        with pytest.raises(WiderParseError) as err:
            parse_wider("a.jpg\n1\n10 20 30 40 0 0 0 0 0 0\n\nb.jpg\n0\n0 0 0 0 0 0 0 0 0 0\n")
        assert err.value.line == 4

    def test_trailing_blank_lines_tolerated(self):
        records = parse_wider("a.jpg\n1\n10 20 30 40 0 0 0 0 0 0\n\n\n")
        assert len(records) == 1


# Face-line fields: mostly valid, plus what int() and a bulk integer read
# may disagree on.
_ODD_TOKENS = (
    "-0", "+5", "007", "1_0", "1.0", "1e3", "#1", "+", "-", "--1", "0x1", "1,2", "",
    "\u0663", "\uff11", "\u0661\u0662", "99999999999999999999", "-99999999999999999999",
)
# Box values about the 2**53 bound and the int64 range.
_BIG = (2**53, -(2**53), 2**53 + 1, -(2**53 + 1), 2**63 - 1, -(2**63), 2**63)
_SEPARATORS = (" ", "  ", "\t", "\r", "\x0c", "\xa0", "\x0b", "\x1c", "\x85", "\u3000")


def mutate_face(draw, line: str) -> str:
    fields = line.split(" ")
    kind = draw(st.integers(0, 5))
    if kind == 0:
        fields[draw(st.integers(0, 9))] = draw(st.sampled_from(_ODD_TOKENS))
    elif kind == 1:
        fields[draw(st.integers(0, 3))] = str(draw(st.sampled_from(_BIG)))
    elif kind == 2:  # an attribute code out of range
        fields[draw(st.integers(4, 9))] = str(draw(st.sampled_from([-3, -1, 2, 3, 9])))
    elif kind == 3:  # a field too many or too few
        fields = fields + ["0"] if draw(st.booleans()) else fields[:-1]
    elif kind == 4:  # blank or whitespace-only
        return draw(st.sampled_from(["", " ", "\t", "\x0c", "\xa0 "]))
    else:
        seps = [draw(st.sampled_from(_SEPARATORS)) for _ in fields]
        return "".join(f + sep for f, sep in zip(fields, seps))
    return " ".join(fields)


@st.composite
def annotation_text(draw):
    """Well-formed blocks, then up to two face lines mutated, and maybe a
    count changed, a blank line inserted or the text cut short."""
    lines, face_at, count_at = [], [], []
    for b in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 5))
        count_at.append(len(lines) + 1)
        lines += [f"img/{b}.jpg", str(n)]
        if n == 0:
            lines.append("0 0 0 0 0 0 0 0 0 0")
        for _ in range(n):
            face_at.append(len(lines))
            box = [draw(st.integers(-40, 700)) for _ in range(4)]
            lines.append(" ".join(map(str, box + [draw(st.integers(0, hi)) for hi in (2, 1, 1, 1, 2, 1)])))
    for k in draw(st.lists(st.sampled_from(face_at), max_size=2, unique=True)) if face_at else ():
        lines[k] = mutate_face(draw, lines[k])
    if lines and draw(st.integers(0, 5)) == 0:
        lines[draw(st.sampled_from(count_at))] = draw(st.sampled_from(["-1", "x", "", "9", " 2", "0"]))
    if lines and draw(st.integers(0, 5)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), "")
    if lines and draw(st.integers(0, 3)) == 0:
        lines = lines[:draw(st.integers(0, len(lines)))]
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n", "\r\n"]))


def outcome(parse, source):
    try:
        return images(parse(source))
    except WiderParseError as err:
        return str(err), err.line


class TestParseDifferential:
    """parse_wider against the line-at-a-time parser in oracles.py."""

    @settings(max_examples=400)
    @given(annotation_text())
    def test_matches_line_parser(self, text):
        want = outcome(naive_parse_wider, text)
        assert outcome(parse_wider, text) == want
        # A string and a stream both split lines at "\n" only, so "\r",
        # "\x0c" and "\x85" stay inside the lines.
        assert outcome(parse_wider, io.StringIO(text)) == outcome(naive_parse_wider, io.StringIO(text))
        assert outcome(parse_wider, io.StringIO(text)) == want
        if isinstance(want, list):
            faces = parse_wider(text).faces
            assert faces.dtype == np.float64 and faces.shape[1:] == (10,)

    def test_string_splits_like_stream(self):
        # "\x0c" ends a line for str.splitlines, not for a stream: the face
        # line holds ten fields either way.
        text = "a.jpg\n1\n1 2 3 4\x0c0 0 0 0 0 0\n"
        assert outcome(parse_wider, text) == outcome(parse_wider, io.StringIO(text))
        assert parse_wider(text).faces.tolist() == [[1, 2, 3, 4, 0, 0, 0, 0, 0, 0]]


class TestSerializeWider:
    def test_round_trip_preserves_records(self):
        text = (
            "a.jpg\n2\n10 20 30 40 0 1 0 0 2 1\n-4 0 9 9 2 0 1 1 0 0\n"
            "b.jpg\n0\n0 0 0 0 0 0 0 0 0 0\n"
        )
        records = parse_wider(text)
        assert serialize_wider(records) == text
        assert images(parse_wider(serialize_wider(records))) == images(records)

    def test_fixture_round_trip_bit_exact(self):
        text = FIXTURE.read_text(encoding="utf-8")
        records = parse_wider(text)
        assert len(records) == 50
        assert serialize_wider(records) == text

    def test_rejects_fractional_coordinates(self):
        rec = record("x.jpg", [(0.5, 0, 4, 4)])
        with pytest.raises(ValueError):
            serialize_wider(corpus([rec]))


class TestFaceAnnotation:
    """The attribute codes a face row may hold; parse_wider refuses others."""

    def test_rejects_out_of_range_codes(self):
        with pytest.raises(WiderParseError, match="occlusion code 3 outside"):
            parse_wider("a.jpg\n1\n0 0 4 4 0 0 0 0 3 0\n")
        with pytest.raises(WiderParseError, match="pose code -1 outside"):
            parse_wider("a.jpg\n1\n0 0 4 4 0 0 0 0 0 -1\n")


class TestIterFaces:
    """The default filter over the face table, and the tallies built on it."""

    def records(self):
        return [record("x.jpg", [(0, 0, 4, 4), (0, 0, 4, 4), (0, 0, 0, 4), (0, 0, 8, 8)],
                       invalid=[1])]

    def test_default_filter_keeps_original_indices(self):
        records = self.records() + [record("y.jpg", []), record("z.jpg", [(1, 2, 3, 4)])]
        table = corpus(records)
        image, position, xywh = table.kept()
        assert image.tolist() == [0, 0, 2]
        assert position.tolist() == [0, 3, 0]
        assert xywh.tolist() == [[0, 0, 4, 4], [0, 0, 8, 8], [1, 2, 3, 4]]
        assert kept_mask(table.faces).tolist() == [True, False, False, True, True]
        # The oracle, which filters one image on its own, keeps the same faces.
        idx, xywh = kept_faces(records[0])
        assert idx.tolist() == [0, 3]
        assert xywh.tolist() == [[0, 0, 4, 4], [0, 0, 8, 8]]

    def test_counts(self):
        counts = corpus_counts(corpus(self.records()))
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
        assert images(generate_synthetic(9, 20, law)) == images(generate_synthetic(9, 20, law))

    def test_different_seeds_differ(self):
        law = LogUniformAR(0.2, 5.0)
        a = generate_synthetic(1, 5, law)
        b = generate_synthetic(2, 5, law)
        assert images(a) != images(b)

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

    def test_peak_memory_is_the_columns(self):
        # 2**15 faces as columns keep about 180 B a face (an 80 B face row,
        # a 68 B path string, its pointer, dims and first row), 5.9 MB, and
        # drawing them peaks near 8.5 MB. One record per face peaked near
        # 17 MB.
        tracemalloc.start()
        try:
            corpus = generate_synthetic(0, 2**15, LogUniformAR(0.2, 5.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(corpus) == len(corpus.faces) == 2**15
        assert peak < 12e6, f"peak {peak / 1e6:.1f} MB"

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
        # A width up to 512 times an aspect ratio near the float maximum.
        with pytest.raises(ValueError, match="too large for a float"):
            generate_synthetic(1, 2000, LogUniformAR(1.0, 1e308))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.one_of(st.integers(-2**70, -1), st.integers(0, 1000),
                          st.integers(2**63, 2**64 + 5)),
           n=st.integers(1, 300),
           law=st.one_of(
               st.tuples(st.floats(1e-3, 1.0), st.floats(1.0, 1e3)).map(
                   lambda bounds: LogUniformAR(*bounds)),
               st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=7).map(
                   lambda values: FixedListAR(tuple(values)))))
    @example(seed=2**64 - 1, n=7, law=LogUniformAR(0.001, 1000.0))
    @example(seed=-5, n=13, law=FixedListAR((0.3, 0.5, 1.0, 2.0, 2.3, 4.0)))
    def test_equals_scalar_draws(self, seed, n, law):
        got, want = generate_synthetic(seed, n, law), naive_generate_synthetic(seed, n, law)
        assert [(r.path, r.width, r.height) for r in got] == [
            (r.path, r.width, r.height) for r in want]
        assert all(type(r.width) is type(r.height) is float for r in got)
        assert [r.faces.tobytes() for r in got] == [r.faces.tobytes() for r in want]


class TestArCoverage:
    def test_uniform_corpus_fully_inside(self):
        records = generate_synthetic(1, 10, FixedListAR((1.0,)))
        assert ar_coverage(records, 1.0, 5.0) == 1.0

    def test_fixed_list_coverage(self):
        records = generate_synthetic(1, 6, FixedListAR((0.3, 0.5, 1.0, 2.0, 2.3, 4.0)))
        assert ar_coverage(records, 1.0, 2.25) == pytest.approx(3 / 6)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            ar_coverage(corpus([]), 1.0, 2.0)

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
            ar_coverage(corpus([]), anchor_ar, eta)

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
        got = attach_dims(records, dims)
        assert [(r.width, r.height) for r in got] == [(1024.0, 768.0), (None, None)]
        # A new corpus: the parsed one keeps no dims.
        assert np.isnan(records.dims).all() and got.faces is records.faces

    def test_read_splits_lines_at_newline_only(self):
        text = "path,width,height\na\u2028b.jpg,1,2\n"
        assert read_dims_csv(io.StringIO(text)) == {"a\u2028b.jpg": (1.0, 2.0)}
        assert read_dims_csv(io.StringIO("a\x85b.jpg,3,4\r\nc.jpg,5,6")) == {
            "a\x85b.jpg": (3.0, 4.0), "c.jpg": (5.0, 6.0)}

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
