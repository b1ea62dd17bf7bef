import dataclasses
import json

import numpy as np
import pytest

from anchorkit.ams import AmsReport, FaceMatchStat
from anchorkit.cropsim import FaceSimStat, SimOutcome
from anchorkit.matching import FaceMatch, MatchConfig, MatchResult
from anchorkit.reports import (
    FACE_STATS_CSV_HEADER,
    MATCH_CSV_HEADER,
    SIM_CSV_HEADER,
    MatchReport,
    MatchRow,
    emit_reports,
    json_text,
)

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


STATS = [
    FaceMatchStat(image="a.jpg", face=0, ar=0.449275, width=31.5, max_iou=0.5123, matched=True),
    FaceMatchStat(image="a.jpg", face=2, ar=4.0, width=12.0, max_iou=0.333333, matched=False),
]


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
        assert lines[0] == FACE_STATS_CSV_HEADER == "image,face,ar,width,max_iou,matched"
        assert lines[1] == "a.jpg,0,0.449275,31.500000,0.512300,1"
        assert lines[2] == "a.jpg,2,4.000000,12.000000,0.333333,0"

    def test_empty_stats_header_only(self):
        assert emit_reports(REPORT, "csv", []) == FACE_STATS_CSV_HEADER + "\n"

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
    """The corpus match report, folded from per-image assignment results."""

    def report(self):
        # Rows 0, 2 and 3 touched; row 1 keeps the background label.
        result = MatchResult(
            n_anchors=4,
            rows=np.array([0, 2, 3]),
            row_labels=np.array([0, -2, 1]),
            row_compensated=np.array([False, False, True]),
            background=-1,
            per_face=[FaceMatch(0, 0.81, 1, 0.5), FaceMatch(1, 0.42, 1, 0.46)],
        )
        assert result.labels.tolist() == [0, -1, -2, 1]
        assert result.compensated.tolist() == [False, False, False, True]
        report = MatchReport(MatchConfig())
        report.add("a.jpg", np.array([0, 2]), np.array([[0.0, 0, 10, 20], [5, 5, 4, 12]]), result)
        return report

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
        assert lines[0] == MATCH_CSV_HEADER == "image,face,ar,max_iou,positive_count,effective_tp"
        assert self.report().per_face[1] == MatchRow("a.jpg", 2, 3.0, 0.42, 1, 0.46)
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
            per_face=(
                FaceSimStat("a.jpg", 0, 154, 153, 0.476557, 0.476557),
            ),
        )

    def test_json(self):
        data = json.loads(emit_reports(self.outcome(), "json"))
        assert data["schema_version"] == 1
        assert data["seed"] == 7
        assert data["per_face"][0]["crops_positive"] == 153

    def test_csv(self):
        lines = emit_reports(self.outcome(), "csv").strip().split("\n")
        assert lines[0] == SIM_CSV_HEADER == (
            "image,face,crops_seen,crops_positive,best_observed_iou,best_ideal_iou"
        )
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
            emit_reports(MatchReport(MatchConfig()), "csv", STATS)

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
            json_text({}, [dataclasses.replace(STATS[0], ar=value)])
