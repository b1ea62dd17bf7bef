"""Report emission: JSON, CSV, and aligned-text renderings of analysis outputs,
which ams and cropsim build; this module only renders them.

A per-face table is a frozen dataclass whose fields are its columns, in
output order, each an array with one element per face: ams.FaceMatchStat,
ams.MatchRow and cropsim.FaceSimStat. One column renderer writes every table in
both formats: it formats each distinct value of a column once, by the
column's dtype, and fills one row template per row from those cells. The
CSV header is the field names; floats have six decimal places (the
precision annotation aspect ratios are quoted at), bools are 1/0, integers
and anything else str, and a cell holding a comma, a double quote, CR or LF
is quoted as csv.QUOTE_MINIMAL quotes it: wrapped in double quotes, each
inner quote doubled. JSON carries full precision plus a schema_version
field, in the bytes json.dumps(indent=2) writes: floats as their repr, a
NaN or an infinity refused with ValueError. Field order is fixed so
identical inputs emit identical bytes.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import fields
from itertools import islice
from json.encoder import encode_basestring_ascii

import numpy as np

from .ams import AmsReport, FaceMatchStat, MatchReport
from .cropsim import SimOutcome

SCHEMA_VERSION = 1
_ROW_BLOCK = 8192


def _names(table) -> list[str]:
    return [f.name for f in fields(table)]


_CSV_QUOTED = re.compile('[,"\r\n]')


def _csv_other(value) -> str:
    """str(value), quoted as csv.QUOTE_MINIMAL quotes a cell: one holding a
    comma, a double quote, CR or LF is wrapped in double quotes, and each
    quote inside it is doubled."""
    text = str(value)
    if _CSV_QUOTED.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def _json_float(value: float) -> str:
    """The JSON text json.dumps writes for a float, which refuses NaN and
    the infinities with this ValueError when allow_nan is False."""
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


# A format's cell text by a column's dtype kind: floats ("f"), bools ("b"),
# integers ("i") and every other column ("O": the image paths, str), each a
# function of one value.
_CSV_CELL = {"f": "{:.6f}".format, "b": "{:d}".format, "i": str, "O": _csv_other}
_JSON_CELL = {"f": _json_float, "b": ("false", "true").__getitem__, "i": int.__repr__,
              "O": encode_basestring_ascii}


def _cells(column: np.ndarray, cell: dict) -> list[str]:
    """A column's cells in one format: each distinct value is formatted once,
    by cell's function for the column's dtype kind, and the cells share its
    text."""
    kind = column.dtype.kind
    if kind not in "fbi":
        # An image path repeats once per face of its image.
        values = column.tolist()
        text = {value: cell["O"](value) for value in set(values)}
        return list(map(text.__getitem__, values))
    # Numbers are told apart by their bits, so 0.0 and -0.0 keep their own.
    values = np.asarray(column, dtype=np.float64 if kind == "f" else np.int64)
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array(list(map(cell[kind], bits.view(values.dtype).tolist())), dtype=object)
    return text[where].tolist()


def _rows(table, cell: dict, row):
    """The table's rows, each row applied to that row's cells in one format."""
    return map(row, zip(*(_cells(getattr(table, name), cell) for name in _names(table))))


def _blocks(rows, sep: str):
    """The rows joined by sep _ROW_BLOCK at a time, so that only one block's
    row strings are alive at once. No row may be empty: a CSV row has a
    comma at least, a JSON row its braces."""
    return iter(lambda: sep.join(islice(rows, _ROW_BLOCK)), "")


def csv_text(table) -> str:
    """A header of the table's field names, then one line per row."""
    names = _names(table)
    rows = _rows(table, _CSV_CELL, ",".join)
    return "\n".join([",".join(names), *_blocks(rows, "\n")]) + "\n"


def json_text(summary: dict, table=None) -> str:
    """{"schema_version": 1, **summary} as indented JSON, plus "per_face"
    when a table is given: one object per row, its values named by the
    table's fields.

    json.dumps writes the summary. The rows are filled in from the table's
    cells, in the layout json.dumps(indent=2) gives the objects of a list
    that is the last value of the document.
    """
    payload = {"schema_version": SCHEMA_VERSION, **summary}
    if table is None:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    text = json.dumps({**payload, "per_face": []}, indent=2, allow_nan=False)
    keys = map(encode_basestring_ascii, _names(table))
    row = "    {\n" + ",\n".join(f"      {key}: %s" for key in keys) + "\n    }"
    body = ",\n".join(_blocks(_rows(table, _JSON_CELL, row.__mod__), ",\n"))
    if not body:
        return text + "\n"
    return text[:-len("[]\n}")] + "[\n" + body + "\n  ]\n}\n"


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
