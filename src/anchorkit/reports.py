"""Report emission: JSON, CSV, and aligned-text renderings of analysis outputs.

A per-face table is a frozen dataclass whose fields are its columns, in
output order, each an array with one element per face: ams.FaceMatchStat,
MatchRow and cropsim.FaceSimStat. One writer per format renders every
table. The CSV header is the field names, and each cell is formatted by its
column's dtype: floats with six decimal places (the precision annotation
aspect ratios are quoted at), bools as 1/0, integers and anything else as
str. JSON carries full precision plus a schema_version field. Field order
is fixed so identical inputs emit identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from itertools import islice

import numpy as np

from .ams import AmsReport, FaceMatchStat
from .cropsim import SimOutcome
from .matching import MatchConfig

SCHEMA_VERSION = 1
LABEL_KINDS = ("positive", "negative", "ignore", "compensated")
_ROW_BLOCK = 8192


@dataclass(frozen=True)
class MatchRow:
    """The per-face table of a match report: one column per field, in
    output order, with one element per kept face in file order. Each
    face's image path, its position in that record's faces, its aspect
    ratio, its best IoU over the grid, its positive anchor count and its
    positive threshold."""

    image: np.ndarray
    face: np.ndarray
    ar: np.ndarray
    max_iou: np.ndarray
    positive_count: np.ndarray
    effective_tp: np.ndarray


def _names(table) -> list[str]:
    return [f.name for f in fields(table)]


# CSV cell format by a column's dtype kind; other columns print as str.
_CELL_FORMAT = {"f": "{:.6f}".format, "b": "{:d}".format, "i": str}


def _cells(column: np.ndarray) -> list[str]:
    """A column's CSV cells, by its dtype."""
    kind = column.dtype.kind
    if kind not in _CELL_FORMAT:
        return list(map(str, column.tolist()))
    # Each distinct value is formatted once, and the cells share its text.
    # Values are told apart by their bits, so 0.0 and -0.0 keep their own.
    values = np.asarray(column, dtype=np.float64 if kind == "f" else np.int64)
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array(list(map(_CELL_FORMAT[kind], bits.view(values.dtype).tolist())), dtype=object)
    return text[where].tolist()


def csv_text(table) -> str:
    """A header of the table's field names, then one line per row."""
    names = _names(table)
    rows = map(",".join, zip(*(_cells(getattr(table, name)) for name in names)))
    # Rows are joined _ROW_BLOCK at a time, so that only one block's row
    # strings are alive at once. No row is empty: it has a comma at least.
    blocks = iter(lambda: "\n".join(islice(rows, _ROW_BLOCK)), "")
    return "\n".join([",".join(names), *blocks]) + "\n"


def json_text(summary: dict, table=None) -> str:
    """{"schema_version": 1, **summary} as indented JSON, plus "per_face"
    when a table is given: one object per row, its values named by the
    table's fields."""
    payload = {"schema_version": SCHEMA_VERSION, **summary}
    if table is not None:
        names = _names(table)
        columns = (getattr(table, name).tolist() for name in names)
        payload["per_face"] = [dict(zip(names, row)) for row in zip(*columns)]
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _no_faces() -> MatchRow:
    f, i = np.empty(0), np.empty(0, dtype=np.int64)
    return MatchRow(np.empty(0, dtype=object), i, f, f, i, f)


@dataclass(frozen=True)
class MatchReport:
    """Label-assignment audit of a corpus. n_images counts the images that
    keep a face, n_anchors the anchors of their grids, one grid per image,
    and labels tallies those anchors' labels (LABEL_KINDS) summed over the
    images. per_face is the table of every kept face in file order. The
    defaults are the report of a corpus that keeps no face."""

    config: MatchConfig
    n_images: int = 0
    n_anchors: int = 0
    labels: dict[str, int] = field(default_factory=lambda: dict.fromkeys(LABEL_KINDS, 0))
    per_face: MatchRow = field(default_factory=_no_faces)

    @property
    def n_matched(self) -> int:
        """The kept faces with at least one positive anchor."""
        return int(np.count_nonzero(self.per_face.positive_count))


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
        f"faces     {len(report.per_face.face)} (matched {report.n_matched})",
        f"positive  {labels['positive']} (compensated {labels['compensated']})",
        f"negative  {labels['negative']}",
        f"ignore    {labels['ignore']}",
    ]
    return "\n".join(lines) + "\n"


def emit_reports(report, fmt: str, per_face: FaceMatchStat | None = None) -> str:
    """Render an AmsReport, a MatchReport or a SimOutcome as "json", "csv"
    or "table" (a SimOutcome has no table form).

    per_face, the table run_ams returns with an AmsReport, adds its rows to
    that report: as the "per_face" list in JSON, as the per-face CSV in
    place of the one-row summary CSV, and as that CSV after the table. A
    MatchReport or a SimOutcome always renders the table it carries.
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
            return json_text(summary, per_face)
        if per_face is None:
            return _ams_csv(report) if fmt == "csv" else _ams_table(report)
        rows = csv_text(per_face)
        return rows if fmt == "csv" else _ams_table(report) + rows

    if isinstance(report, MatchReport):
        if fmt == "json":
            summary = {
                "config": report.config.to_json_dict(),
                "n_images": report.n_images,
                "n_anchors": report.n_anchors,
                "n_faces": len(report.per_face.face),
                "n_faces_matched": report.n_matched,
                "labels": report.labels,
            }
            return json_text(summary, report.per_face)
        if fmt == "csv":
            return csv_text(report.per_face)
        return _match_table(report)

    if isinstance(report, SimOutcome):
        if fmt == "json":
            return json_text({"seed": report.seed, "n_crops": report.n_crops}, report.per_face)
        if fmt == "csv":
            return csv_text(report.per_face)
        raise ValueError("simulation outcomes render as json or csv")

    raise TypeError(f"no report emitter for {type(report).__name__}")
