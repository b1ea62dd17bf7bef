"""Report emission: JSON, CSV, and aligned-text renderings of analysis outputs.

A per-face table is a row type, a frozen dataclass naming and typing its
fields, and one column of values per field. One writer per format renders
every table. The CSV header is the field names, and each cell is formatted
by its field's annotation: floats with six decimal places (the precision
annotation aspect ratios are quoted at), bools as 1/0, anything else as str.
JSON carries full precision plus a schema_version field. Field order is
fixed so identical inputs emit identical bytes. The ams columns come from
FaceColumns, so no object is built per face; match and simulation reports
hold their rows as row-type instances, which _columns transposes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from itertools import islice
from operator import attrgetter

import numpy as np

from .ams import AmsReport, FaceColumns, FaceMatchStat
from .cropsim import FaceSimStat, SimOutcome
from .matching import MatchConfig, MatchResult

SCHEMA_VERSION = 1
LABEL_KINDS = ("positive", "negative", "ignore", "compensated")
_ROW_BLOCK = 8192


@dataclass(frozen=True)
class MatchRow:
    """One kept face of a match report."""

    image: str
    face: int
    ar: float
    max_iou: float
    positive_count: int
    effective_tp: float


def _names(row_type) -> list[str]:
    return [f.name for f in fields(row_type)]


def _columns(row_type, rows) -> list[tuple]:
    """The field values of a list of row_type instances, one tuple per field."""
    names = _names(row_type)
    return list(zip(*map(attrgetter(*names), rows))) if rows else [()] * len(names)


def _tolist(column) -> list:
    return column.tolist() if isinstance(column, np.ndarray) else list(column)


# CSV cell format by the name of a field's annotation; other fields print as str.
_CELL_FORMAT = {"float": "{:.6f}".format, "bool": "{:d}".format, "int": str}


def _cells(kind: str, column) -> list[str]:
    """A column's CSV cells, by the name of its field's annotation."""
    if kind not in _CELL_FORMAT:
        return list(map(str, _tolist(column)))
    # Each distinct value is formatted once, and the cells share its text.
    # Values are told apart by their bits, so 0.0 and -0.0 keep their own.
    values = np.asarray(column, dtype=np.float64 if kind == "float" else np.int64)
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array(list(map(_CELL_FORMAT[kind], bits.view(values.dtype).tolist())), dtype=object)
    return text[where].tolist()


def csv_text(row_type, columns) -> str:
    """A header of row_type's field names, then one line per row: columns
    holds one sequence or array of values per field, in field order."""
    # An annotation is a string in a module with postponed annotations.
    kinds = [getattr(f.type, "__name__", f.type) for f in fields(row_type)]
    cells = [_cells(kind, column) for kind, column in zip(kinds, columns, strict=True)]
    rows = map(",".join, zip(*cells))
    # Rows are joined _ROW_BLOCK at a time, so that only one block's row
    # strings are alive at once. No row is empty: it has a comma at least.
    blocks = iter(lambda: "\n".join(islice(rows, _ROW_BLOCK)), "")
    return "\n".join([",".join(_names(row_type)), *blocks]) + "\n"


def json_text(summary: dict, row_type=None, columns=()) -> str:
    """{"schema_version": 1, **summary} as indented JSON, plus "per_face"
    when a row type is given: one object per row of columns (as csv_text
    takes them), its values named by row_type's fields."""
    payload = {"schema_version": SCHEMA_VERSION, **summary}
    if row_type is not None:
        names = _names(row_type)
        payload["per_face"] = [dict(zip(names, row)) for row in zip(*map(_tolist, columns))]
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


FACE_STATS_CSV_HEADER = ",".join(_names(FaceMatchStat))
SIM_CSV_HEADER = ",".join(_names(FaceSimStat))
MATCH_CSV_HEADER = ",".join(_names(MatchRow))


@dataclass
class MatchReport:
    """Label-assignment audit of a corpus: one row per kept face, and label
    tallies summed over every image's anchor grid."""

    config: MatchConfig
    n_images: int = 0
    n_anchors: int = 0
    n_matched: int = 0
    labels: dict[str, int] = field(default_factory=lambda: dict.fromkeys(LABEL_KINDS, 0))
    per_face: list[MatchRow] = field(default_factory=list)

    def add(self, image: str, idx, xywh, result: MatchResult) -> None:
        """Fold in one image: idx and xywh are its kept faces' positions and
        (k, 4) rows, as corpus.kept_faces gives them and in the order they
        were passed to the assignment that produced result."""
        self.n_images += 1
        self.n_anchors += result.n_anchors
        for kind, count in result.label_counts().items():
            self.labels[kind] += count
        ars = (xywh[:, 3] / xywh[:, 2]).tolist()
        for i, ar, fm in zip(idx.tolist(), ars, result.per_face):
            self.n_matched += fm.positive_count > 0
            self.per_face.append(
                MatchRow(image, i, ar, fm.max_iou, fm.positive_count, fm.effective_tp)
            )


def _ams_summary(report: AmsReport) -> dict:
    return {
        "t_p": report.t_p,
        "anchor_ar": report.anchor_ar,
        "n_faces": report.n_faces,
        "n_matched": report.n_matched,
        "matched_ar_min": report.matched_ar_min,
        "matched_ar_max": report.matched_ar_max,
        "fitted_eta": report.fitted_eta,
        "analytic_eta": report.analytic_eta,
    }


def _ams_csv(report: AmsReport) -> str:
    """The summary as a one-row CSV: counts as integers, None as "-"."""
    summary = _ams_summary(report)
    cells = (
        str(v) if k.startswith("n_") else "-" if v is None else f"{v:.6f}"
        for k, v in summary.items()
    )
    return ",".join(summary) + "\n" + ",".join(cells) + "\n"


def _ams_table(report: AmsReport) -> str:
    if report.n_matched > 0:
        rng = f"{report.matched_ar_min:.6f} ~ {report.matched_ar_max:.6f}"
    else:
        rng = "-"
    arsd = f"D({report.anchor_ar:.2f},{report.analytic_eta:.2f})"
    header = f"{'Tp':<6}{'Ra':<6}{'Range':<23}{'ARSD':<14}{'matched':>9}"
    row = (
        f"{report.t_p:<6.2f}{report.anchor_ar:<6.2f}{rng:<23}{arsd:<14}"
        f"{report.n_matched:>4}/{report.n_faces}"
    )
    return header + "\n" + row + "\n"


def _match_table(report: MatchReport) -> str:
    labels = report.labels
    lines = [
        f"images    {report.n_images}",
        f"anchors   {report.n_anchors}",
        f"faces     {len(report.per_face)} (matched {report.n_matched})",
        f"positive  {labels['positive']} (compensated {labels['compensated']})",
        f"negative  {labels['negative']}",
        f"ignore    {labels['ignore']}",
    ]
    return "\n".join(lines) + "\n"


def emit_reports(report, fmt: str, per_face: FaceColumns | None = None) -> str:
    """Render an AmsReport, a MatchReport or a SimOutcome as "json", "csv"
    or "table" (a SimOutcome has no table form).

    per_face, the FaceColumns run_ams returns with an AmsReport, adds its
    rows to that report:
    as the "per_face" list in JSON, as the per-face CSV in place of the
    one-row summary CSV, and as that CSV after the table. A MatchReport or
    a SimOutcome always renders the rows it carries.
    """
    if fmt not in ("json", "csv", "table"):
        raise ValueError(f"unknown report format {fmt!r}")
    if per_face is not None and not isinstance(report, AmsReport):
        raise TypeError("per_face rows go with an AmsReport only")

    if isinstance(report, AmsReport):
        if fmt == "json":
            summary = _ams_summary(report)
            # JSON has no infinity: an unbounded radius is written as null.
            if math.isinf(summary["analytic_eta"]):
                summary["analytic_eta"] = None
            if per_face is None:
                return json_text(summary)
            return json_text(summary, FaceMatchStat, per_face.columns())
        if per_face is None:
            return _ams_csv(report) if fmt == "csv" else _ams_table(report)
        rows = csv_text(FaceMatchStat, per_face.columns())
        return rows if fmt == "csv" else _ams_table(report) + rows

    if isinstance(report, MatchReport):
        if fmt == "json":
            summary = {
                "config": report.config.to_json_dict(),
                "n_images": report.n_images,
                "n_anchors": report.n_anchors,
                "n_faces": len(report.per_face),
                "n_faces_matched": report.n_matched,
                "labels": report.labels,
            }
            return json_text(summary, MatchRow, _columns(MatchRow, report.per_face))
        if fmt == "csv":
            return csv_text(MatchRow, _columns(MatchRow, report.per_face))
        return _match_table(report)

    if isinstance(report, SimOutcome):
        if fmt == "json":
            summary = {"seed": report.seed, "n_crops": report.n_crops}
            return json_text(summary, FaceSimStat, _columns(FaceSimStat, report.per_face))
        if fmt == "csv":
            return csv_text(FaceSimStat, _columns(FaceSimStat, report.per_face))
        raise ValueError("simulation outcomes render as json or csv")

    raise TypeError(f"no report emitter for {type(report).__name__}")
