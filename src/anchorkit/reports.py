"""Report emission: JSON, CSV, and aligned-text renderings of analysis outputs.

Per-face rows are frozen dataclasses, and one writer per format renders
every kind of row from its fields. The CSV header is the row type's field
names, and each cell is formatted by its field's annotation: floats with six
decimal places (the precision annotation aspect ratios are quoted at), bools
as 1/0, anything else as str. JSON carries full precision plus a
schema_version field. Field order is fixed so identical inputs emit
identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from itertools import starmap
from operator import attrgetter

from .ams import AmsReport, FaceMatchStat
from .cropsim import FaceSimStat, SimOutcome
from .matching import MatchConfig, MatchResult

SCHEMA_VERSION = 1
LABEL_KINDS = ("positive", "negative", "ignore", "compensated")
# CSV cell format by the name of a field's annotation.
_CELL_FORMAT = {"float": "{:.6f}", "bool": "{:d}"}


@dataclass(frozen=True)
class MatchRow:
    """One kept face of a match report."""

    image: str
    face: int
    ar: float
    max_iou: float
    positive_count: int
    effective_tp: float


def _columns(row_type) -> tuple[list[str], attrgetter]:
    """A row type's field names, and a getter returning a row's values in that order."""
    names = [f.name for f in fields(row_type)]
    return names, attrgetter(*names)


def csv_text(row_type, rows) -> str:
    """A header of row_type's field names, then one line per row."""
    names, values = _columns(row_type)
    # An annotation is a string in a module with postponed annotations.
    kinds = (getattr(f.type, "__name__", f.type) for f in fields(row_type))
    template = ",".join(_CELL_FORMAT.get(kind, "{}") for kind in kinds)
    return "\n".join([",".join(names), *starmap(template.format, map(values, rows))]) + "\n"


def json_text(summary: dict, rows=None) -> str:
    """{"schema_version": 1, **summary} as indented JSON, plus "per_face" with
    each row's fields in order when rows are given."""
    payload = {"schema_version": SCHEMA_VERSION, **summary}
    if rows is not None:
        names, values = _columns(type(rows[0])) if rows else ((), None)
        payload["per_face"] = [dict(zip(names, values(r))) for r in rows]
    return json.dumps(payload, indent=2) + "\n"


FACE_STATS_CSV_HEADER = csv_text(FaceMatchStat, ()).rstrip("\n")
SIM_CSV_HEADER = csv_text(FaceSimStat, ()).rstrip("\n")
MATCH_CSV_HEADER = csv_text(MatchRow, ()).rstrip("\n")


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

    def add(self, image: str, faces, result: MatchResult) -> None:
        """Fold in one image: faces are its (face index, Box) pairs, in the
        order they were passed to the assignment that produced result."""
        self.n_images += 1
        self.n_anchors += result.n_anchors
        for kind, count in result.label_counts().items():
            self.labels[kind] += count
        for (idx, box), fm in zip(faces, result.per_face):
            self.n_matched += fm.positive_count > 0
            self.per_face.append(
                MatchRow(image, idx, box.h / box.w, fm.max_iou, fm.positive_count, fm.effective_tp)
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


def emit_reports(report, fmt: str, per_face=None) -> str:
    """Render an AmsReport, a MatchReport or a SimOutcome as "json", "csv"
    or "table" (a SimOutcome has no table form).

    per_face, an AmsReport's FaceMatchStat rows, adds them to its report:
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
            return json_text(_ams_summary(report), per_face)
        if per_face is None:
            return _ams_csv(report) if fmt == "csv" else _ams_table(report)
        rows = csv_text(FaceMatchStat, per_face)
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
            return json_text(summary, report.per_face)
        if fmt == "csv":
            return csv_text(MatchRow, report.per_face)
        return _match_table(report)

    if isinstance(report, SimOutcome):
        if fmt == "json":
            return json_text({"seed": report.seed, "n_crops": report.n_crops}, report.per_face)
        if fmt == "csv":
            return csv_text(FaceSimStat, report.per_face)
        raise ValueError("simulation outcomes render as json or csv")

    raise TypeError(f"no report emitter for {type(report).__name__}")
