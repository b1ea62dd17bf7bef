import csv
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import anchorkit.reports
from anchorkit.ams import (LABEL_KINDS, AmsReport, FaceMatchStat, MatchReport, MatchRow, run_ams,
                           run_match)
from anchorkit.anchors import ams_design, detector_design
from anchorkit.cropsim import FaceSimStat, SimOutcome, simulate
from anchorkit.matching import MatchConfig, MatchResult
from anchorkit.reports import csv_text, emit_reports, json_text
from builders import corpus, record, rows
from oracles import naive_json_text

# The CSV header of each per-face table.
FACE_STATS_CSV_HEADER = "image,face,ar,width,max_iou,matched"
MATCH_CSV_HEADER = "image,face,ar,max_iou,positive_count,effective_tp"
SIM_CSV_HEADER = "image,face,crops_seen,crops_positive,best_observed_iou,best_ideal_iou"

REPORT = AmsReport(
    t_p=0.5,
    anchor_ar=1.0,
    matched_ar_min=0.449275,
    matched_ar_max=2.241379,
    fitted_eta=2.241379,
    n_faces=100,
    n_matched=80,
)

def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def face_stats(ar=(0.449275, 4.0)) -> FaceMatchStat:
    """Two kept faces, 0 and 2, of one image: the ams per-face table."""
    return FaceMatchStat(
        image=np.array(["a.jpg", "a.jpg"], dtype=object),
        face=np.array([0, 2]),
        ar=np.array(ar),
        width=np.array([31.5, 12.0]),
        max_iou=np.array([0.5123, 0.333333]),
        matched=np.array([True, False]),
    )


STATS = face_stats()
NO_STATS = FaceMatchStat(np.empty(0, dtype=object),
                         *(np.empty(0, dtype=t) for t in (int, float, float, float, bool)))


def seven_rows() -> FaceMatchStat:
    """Seven rows of two images, with repeated values and both zeros."""
    n = 7
    return FaceMatchStat(
        image=np.array(["a.jpg"] * 3 + ["b.jpg"] * 4, dtype=object),
        face=np.arange(n),
        ar=np.array([0.5, 2.0, 0.5, -0.0, 0.0, 1 / 3, 2.0]),
        width=np.full(n, 8.0),
        max_iou=np.linspace(0.0, 1.0, n),
        matched=np.arange(n) % 2 == 0,
    )


class TestAmsReportFormats:
    def test_table_layout(self):
        text = emit_reports(REPORT, "table")
        header, row, _ = text.split("\n")
        assert header.split() == ["Tp", "Ra", "Range", "ARSD", "matched"]
        assert "0.50" in row and "1.00" in row
        assert "0.449275 ~ 2.241379" in row
        assert "D(1.00,2.25)" in row
        assert "80/100" in row

    def test_table_with_no_matches(self):
        empty = AmsReport(0.5, 1.0, None, None, None, 10, 0)
        text = emit_reports(empty, "table")
        assert "-" in text
        assert "0/10" in text

    def test_json_fields(self):
        data = json.loads(emit_reports(REPORT, "json"))
        assert data["schema_version"] == 1
        assert data["t_p"] == 0.5
        assert data["fitted_eta"] == 2.241379
        assert data["analytic_eta"] == pytest.approx(2.25)

    def test_csv(self):
        text = emit_reports(REPORT, "csv")
        lines = text.strip().split("\n")
        assert lines[0].startswith("t_p,anchor_ar,")
        assert lines[1].startswith("0.500000,1.000000,100,80,0.449275,")


class TestFaceStatsFormats:
    """The per-face rows of the ams report."""

    def test_csv_header_and_precision(self):
        text = emit_reports(REPORT, "csv", STATS)
        lines = text.strip().split("\n")
        assert lines[0] == FACE_STATS_CSV_HEADER
        assert lines[1] == "a.jpg,0,0.449275,31.500000,0.512300,1"
        assert lines[2] == "a.jpg,2,4.000000,12.000000,0.333333,0"

    def test_rows_joined_in_blocks(self, monkeypatch):
        # Seven rows in blocks of three: the blocks join without a missing
        # or doubled line break, and repeated values share their text.
        monkeypatch.setattr(anchorkit.reports, "_ROW_BLOCK", 3)
        columns = seven_rows()
        want = [FACE_STATS_CSV_HEADER] + [
            f"{p},{i},{a:.6f},{w:.6f},{m:.6f},{int(k)}"
            for p, i, a, w, m, k in zip(columns.image.tolist(), range(7), columns.ar.tolist(),
                                        columns.width.tolist(), columns.max_iou.tolist(),
                                        columns.matched.tolist())
        ]
        assert emit_reports(REPORT, "csv", columns) == "\n".join(want) + "\n"
        assert "b.jpg,3,-0.000000," in want[4]

    def test_json_rows_joined_in_blocks(self, monkeypatch):
        # The same rows in JSON: the blocks join with one ",\n" between
        # objects, so no row is missing or doubled.
        monkeypatch.setattr(anchorkit.reports, "_ROW_BLOCK", 3)
        columns = seven_rows()
        text = json_text({"n_faces": 7}, columns)
        assert text == naive_json_text({"n_faces": 7}, columns)
        assert [row["face"] for row in json.loads(text)["per_face"]] == list(range(7))
        assert text.count("    {\n") == text.count("\n    }") == 7
        assert ",," not in text and ",\n," not in text and "\n\n" not in text

    def test_empty_stats_header_only(self):
        assert emit_reports(REPORT, "csv", NO_STATS) == FACE_STATS_CSV_HEADER + "\n"
        assert json.loads(emit_reports(REPORT, "json", NO_STATS))["per_face"] == []

    def test_rows_in_field_order(self):
        assert [f.name for f in dataclasses.fields(FaceMatchStat)] == FACE_STATS_CSV_HEADER.split(",")
        assert rows(STATS)[1] == ("a.jpg", 2, 4.0, 12.0, 0.333333, False)

    def test_json(self):
        data = json.loads(emit_reports(REPORT, "json", STATS))
        assert data["schema_version"] == 1
        assert data["n_faces"] == 100
        assert len(data["per_face"]) == 2
        assert list(data["per_face"][0]) == FACE_STATS_CSV_HEADER.split(",")
        assert data["per_face"][0]["matched"] is True

    def test_table_then_csv(self):
        text = emit_reports(REPORT, "table", STATS)
        assert text == emit_reports(REPORT, "table") + emit_reports(REPORT, "csv", STATS)


class TestMatchResultFormats:
    """The corpus match report of one image, from its assignment result."""

    def report(self):
        # Rows 0, 2 and 3 touched; row 1 keeps the background label.
        result = MatchResult(
            n_anchors=4,
            rows=np.array([0, 2, 3]),
            row_labels=np.array([0, -2, 1]),
            row_compensated=np.array([False, False, True]),
            background=-1,
            max_iou=np.array([0.81, 0.42]),
            positive_count=np.array([1, 1]),
            effective_tp=np.array([0.5, 0.46]),
        )
        assert result.labels.tolist() == [0, -1, -2, 1]
        assert result.compensated.tolist() == [False, False, False, True]
        # Faces 0 and 2 of a.jpg, 10x20 and 4x12.
        table = MatchRow(np.array(["a.jpg"] * 2, dtype=object), np.array([0, 2]),
                         np.array([2.0, 3.0]), result.max_iou, result.positive_count,
                         result.effective_tp)
        return MatchReport(MatchConfig(), 1, result.n_anchors, result.label_counts(), table)

    def test_json(self):
        data = json.loads(emit_reports(self.report(), "json"))
        assert data["config"] == MatchConfig().to_json_dict()
        assert (data["n_images"], data["n_anchors"]) == (1, 4)
        assert (data["n_faces"], data["n_faces_matched"]) == (2, 2)
        assert data["labels"] == {"positive": 2, "negative": 1, "ignore": 1, "compensated": 1}
        assert data["per_face"][1]["face"] == 2
        assert data["per_face"][1]["effective_tp"] == 0.46

    def test_csv(self):
        lines = emit_reports(self.report(), "csv").strip().split("\n")
        assert lines[0] == MATCH_CSV_HEADER
        assert rows(self.report().per_face)[1] == ("a.jpg", 2, 3.0, 0.42, 1, 0.46)
        assert lines[1] == "a.jpg,0,2.000000,0.810000,1,0.500000"
        assert lines[2] == "a.jpg,2,3.000000,0.420000,1,0.460000"

    def test_table(self):
        text = emit_reports(self.report(), "table")
        assert "faces     2 (matched 2)" in text
        assert "positive  2 (compensated 1)" in text


class TestSimOutcomeFormats:
    def outcome(self):
        return SimOutcome(
            seed=7,
            n_crops=200,
            per_face=FaceSimStat(
                np.array(["a.jpg"], dtype=object), np.array([0]), np.array([154]),
                np.array([153]), np.array([0.476557]), np.array([0.476557]),
            ),
        )

    def test_json(self):
        data = json.loads(emit_reports(self.outcome(), "json"))
        assert data["schema_version"] == 1
        assert data["seed"] == 7
        assert data["per_face"][0]["crops_positive"] == 153

    def test_csv(self):
        lines = emit_reports(self.outcome(), "csv").strip().split("\n")
        assert lines[0] == SIM_CSV_HEADER
        assert lines[1] == "a.jpg,0,154,153,0.476557,0.476557"

    def test_table_unsupported(self):
        with pytest.raises(ValueError):
            emit_reports(self.outcome(), "table")


class TestDispatch:
    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_reports(REPORT, "xml")

    def test_unknown_type(self):
        with pytest.raises(TypeError):
            emit_reports(object(), "json")
        with pytest.raises(TypeError):
            emit_reports(STATS, "csv")

    def test_per_face_only_with_ams(self):
        with pytest.raises(TypeError):
            emit_reports(match_report([]), "csv", STATS)

    def test_deterministic_bytes(self):
        assert emit_reports(REPORT, "json") == emit_reports(REPORT, "json")
        assert emit_reports(REPORT, "csv", STATS) == emit_reports(REPORT, "csv", STATS)


class TestJsonFinite:
    def test_unbounded_analytic_eta_is_null(self):
        report = dataclasses.replace(REPORT, t_p=0.0)
        assert report.analytic_eta == float("inf")
        assert strict_json(emit_reports(report, "json"))["analytic_eta"] is None
        assert strict_json(emit_reports(REPORT, "json"))["analytic_eta"] == 2.25
        # The text formats keep writing it as inf.
        assert "D(1.00,inf)" in emit_reports(report, "table")
        assert emit_reports(report, "csv").endswith(",inf\n")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_float_refused(self, value):
        with pytest.raises(ValueError):
            json_text({"eta": value})
        with pytest.raises(ValueError):
            emit_reports(REPORT, "json", face_stats(ar=(value, 4.0)))
        # A per-face cell is refused as json.dumps refuses it.
        with pytest.raises(ValueError) as want:
            naive_json_text({}, face_stats(ar=(4.0, value)))
        with pytest.raises(ValueError) as got:
            json_text({}, face_stats(ar=(4.0, value)))
        assert str(got.value) == str(want.value)


MATCH = MatchConfig()
SCENE = [
    record("a.jpg", [(100, 100, 64, 64), (300, 200, 40, 90), (0, 0, 4, 4)], 640.0, 640.0,
           invalid=[2]),
    record("b.jpg", [(50, 50, 128, 128)], 640.0, 480.0),
]


def match_report(records) -> MatchReport:
    """The report the match command builds from records on the detector design."""
    return run_match(corpus(records), detector_design(), MATCH)


class TestEmptyTables:
    """A table with no rows renders as its header alone and an empty per_face list."""

    def check(self, report, header, per_face=None):
        assert emit_reports(report, "csv", per_face) == header + "\n"
        assert json.loads(emit_reports(report, "json", per_face))["per_face"] == []

    def test_run_ams_with_no_faces(self):
        dropped = record("x.jpg", [(0, 0, 4, 4), (0, 0, 0, 4)], invalid=[0])
        for records in ([], [dropped]):
            report, faces = run_ams(corpus(records), ams_design(1.0), 0.5)
            self.check(report, FACE_STATS_CSV_HEADER, faces)

    def test_match_report_with_no_images(self):
        dropped = record("x.jpg", [(0, 0, 4, 4), (0, 0, 0, 4)], 64.0, 64.0, invalid=[0])
        for report in (match_report([]), match_report([dropped])):
            self.check(report, MATCH_CSV_HEADER)
            assert json.loads(emit_reports(report, "json"))["n_faces_matched"] == 0
            assert "faces     0 (matched 0)" in emit_reports(report, "table")
            assert emit_reports(report, "json") == emit_reports(match_report([]), "json")

    def test_simulate_with_no_kept_faces(self):
        dropped = record("x.jpg", [(0, 0, 4, 4), (0, 0, 0, 4)], 64.0, 64.0, invalid=[0])
        for records in ([], [dropped], [record("e.jpg", [], 64.0, 64.0)]):
            self.check(simulate(corpus(records), detector_design(), MATCH, 3, seed=0), SIM_CSV_HEADER)


class TestColumnTypes:
    """Positions and counts are integer columns, so they print as integers."""

    def test_match_report_counts_are_integers(self):
        report = match_report(SCENE)
        lines = emit_reports(report, "csv").splitlines()[1:]
        assert len(lines) == 3
        for line in lines:
            _, face, _, _, count, _ = line.split(",")
            assert face.isdigit() and count.isdigit(), line
        assert report.per_face.positive_count.tolist() == [
            row["positive_count"] for row in json.loads(emit_reports(report, "json"))["per_face"]
        ]
        _, face, _, _, count, _ = rows(report.per_face)[0]
        assert type(face) is type(count) is int

    def test_simulate_counts_are_integers(self):
        out = simulate(corpus(SCENE), detector_design(), MATCH, 5, seed=2)
        lines = emit_reports(out, "csv").splitlines()[1:]
        assert len(lines) == 3
        for line in lines:
            _, face, seen, positive, _, _ = line.split(",")
            assert face.isdigit() and seen.isdigit() and positive.isdigit(), line
        assert all(type(v) is int for row in rows(out.per_face) for v in row[1:4])


# Column values the formats must render as json.dumps and the csv module do:
# signed zeros, subnormals, large and small magnitudes, integers past 2**53,
# and paths with non-ASCII text, quotes, backslashes and control characters.
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-310, 1e16, -1e16,
                     1e-5, 1e22, 0.1, 1 / 3]),
    st.floats(allow_nan=False, allow_infinity=False),
)
INTS = st.one_of(
    st.sampled_from([0, -1, 2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63)]),
    st.integers(-(2**63), 2**63 - 1),
)
PATHS = st.one_of(
    st.sampled_from(["a.jpg", "0--Parade/a,b.jpg", 'say "cheese".jpg', "C:\\faces\\a.jpg",
                     "tab\t.jpg", "two\nlines.jpg", "cr\r.jpg", "caf\u00e9/\u4e2d.jpg",
                     "\x00\x1f\x7f.jpg", "\U0001f600.jpg", ""]),
    st.text(),
)
COLUMN_KINDS = {"f": (FLOATS, np.float64), "i": (INTS, np.int64), "b": (st.booleans(), bool),
                "O": (PATHS, object)}
# The CSV text of one value, by its column's dtype kind.
CSV_FORMAT = {"f": "{:.6f}".format, "i": str, "b": lambda v: str(int(v)), "O": str}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | INTS | FLOATS | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
SUMMARIES = st.one_of(
    st.just({"config": MatchConfig().to_json_dict(), "n_faces": 3,
             "labels": dict.fromkeys(LABEL_KINDS, 0)}),
    st.dictionaries(st.text().filter(lambda key: key != "per_face"), JSON_VALUES, max_size=4),
)


@st.composite
def tables(draw):
    """A per-face table of two to six random columns (every per-face table
    has several), each a few distinct values repeated over 0 to 12 rows."""
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=2, max_size=6))
    n = draw(st.integers(0, 12))
    columns = {}
    for j, kind in enumerate(kinds):
        values, dtype = COLUMN_KINDS[kind]
        pool = draw(st.lists(values, min_size=1, max_size=4))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        name = draw(st.sampled_from([f"c{j}", f"col_{j}", f"\u00e9t\u00e9_{j}"]))
        columns[name] = np.array([pool[i] for i in picks], dtype=dtype)
    return dataclasses.make_dataclass("Table", list(columns), frozen=True)(**columns)


def csv_writer_line(cells) -> str:
    """The line csv.writer writes for cells under csv.QUOTE_MINIMAL, without
    its line terminator."""
    out = io.StringIO()
    csv.writer(out).writerow(cells)
    return out.getvalue().removesuffix("\r\n")


class TestColumnRenderer:
    """json_text and csv_text render the per-face rows from column cells."""

    @given(tables(), SUMMARIES)
    def test_json_equals_dict_per_face_oracle(self, table, summary):
        assert json_text(summary, table) == naive_json_text(summary, table)
        assert json_text(summary) == naive_json_text(summary)

    @given(tables())
    def test_csv_equals_csv_writer(self, table):
        names = [f.name for f in dataclasses.fields(table)]
        columns = (map(CSV_FORMAT[column.dtype.kind], column.tolist())
                   for column in (getattr(table, name) for name in names))
        want = [",".join(names)] + [csv_writer_line(cells) for cells in zip(*columns)]
        assert csv_text(table) == "\n".join(want) + "\n"
