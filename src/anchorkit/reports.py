"""Report emission: JSON, CSV, and aligned-text renderings of analysis outputs.

CSV and table output print numeric values with six decimal places (the
precision annotation aspect ratios are quoted at); JSON carries full
precision plus a schema_version field. Field order is fixed so identical
inputs emit identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .ams import AmsReport, FaceMatchStat
from .cropsim import SimOutcome
from .matching import MatchConfig, MatchResult

SCHEMA_VERSION = 1

FACE_STATS_CSV_HEADER = "image,face,ar,width,max_iou,matched"
SIM_CSV_HEADER = "image,face,crops_seen,crops_positive,best_observed_iou,best_ideal_iou"
MATCH_CSV_HEADER = "image,face,ar,max_iou,positive_count,effective_tp"
LABEL_KINDS = ("positive", "negative", "ignore", "compensated")


@dataclass
class MatchReport:
    """Label-assignment audit of a corpus: one row per kept face, and label
    tallies summed over every image's anchor grid."""

    config: MatchConfig
    n_images: int = 0
    n_anchors: int = 0
    n_matched: int = 0
    labels: dict[str, int] = field(default_factory=lambda: dict.fromkeys(LABEL_KINDS, 0))
    per_face: list[dict] = field(default_factory=list)

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
                {
                    "image": image,
                    "face": idx,
                    "ar": box.h / box.w,
                    "max_iou": fm.max_iou,
                    "positive_count": fm.positive_count,
                    "effective_tp": fm.effective_tp,
                }
            )


def _f6(v: float | None) -> str:
    return "-" if v is None else f"{v:.6f}"


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def ams_report_dict(report: AmsReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "t_p": report.t_p,
        "anchor_ar": report.anchor_ar,
        "n_faces": report.n_faces,
        "n_matched": report.n_matched,
        "matched_ar_min": report.matched_ar_min,
        "matched_ar_max": report.matched_ar_max,
        "fitted_eta": report.fitted_eta,
        "analytic_eta": report.analytic_eta,
    }


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


def _ams_csv(report: AmsReport) -> str:
    header = "t_p,anchor_ar,n_faces,n_matched,matched_ar_min,matched_ar_max,fitted_eta,analytic_eta"
    row = ",".join(
        [
            _f6(report.t_p),
            _f6(report.anchor_ar),
            str(report.n_faces),
            str(report.n_matched),
            _f6(report.matched_ar_min),
            _f6(report.matched_ar_max),
            _f6(report.fitted_eta),
            _f6(report.analytic_eta),
        ]
    )
    return header + "\n" + row + "\n"


def _face_stats_csv(stats: list[FaceMatchStat]) -> str:
    lines = [FACE_STATS_CSV_HEADER]
    for s in stats:
        lines.append(
            f"{s.image},{s.face},{_f6(s.ar)},{_f6(s.width)},{_f6(s.max_iou)},"
            f"{1 if s.matched else 0}"
        )
    return "\n".join(lines) + "\n"


def _face_stats_table(stats: list[FaceMatchStat]) -> str:
    lines = [f"{'image':<32}{'face':>5} {'ar':>10} {'width':>12} {'max_iou':>10} {'matched':>8}"]
    for s in stats:
        lines.append(
            f"{s.image:<32}{s.face:>5} {s.ar:>10.6f} {s.width:>12.6f} "
            f"{s.max_iou:>10.6f} {1 if s.matched else 0:>8}"
        )
    return "\n".join(lines) + "\n"


def _face_stats_json(stats: list[FaceMatchStat]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "per_face": [
            {
                "image": s.image,
                "face": s.face,
                "ar": s.ar,
                "width": s.width,
                "max_iou": s.max_iou,
                "matched": s.matched,
            }
            for s in stats
        ],
    }


def _sim_csv(outcome: SimOutcome) -> str:
    lines = [SIM_CSV_HEADER]
    for s in outcome.per_face:
        lines.append(
            f"{s.image},{s.face},{s.crops_seen},{s.crops_positive},"
            f"{_f6(s.best_observed_iou)},{_f6(s.best_ideal_iou)}"
        )
    return "\n".join(lines) + "\n"


def _match_dict(report: MatchReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "config": report.config.to_json_dict(),
        "n_images": report.n_images,
        "n_anchors": report.n_anchors,
        "n_faces": len(report.per_face),
        "n_faces_matched": report.n_matched,
        "labels": report.labels,
        "per_face": report.per_face,
    }


def _match_csv(report: MatchReport) -> str:
    lines = [MATCH_CSV_HEADER]
    for r in report.per_face:
        lines.append(
            f"{r['image']},{r['face']},{_f6(r['ar'])},{_f6(r['max_iou'])},"
            f"{r['positive_count']},{_f6(r['effective_tp'])}"
        )
    return "\n".join(lines) + "\n"


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


def emit_reports(stats, fmt: str) -> str:
    """Render an analysis output in the requested format.

    Accepts an AmsReport, a list of FaceMatchStat (possibly empty), a
    MatchReport, or a SimOutcome; formats are "json", "csv", and "table".
    """
    if fmt not in ("json", "csv", "table"):
        raise ValueError(f"unknown report format {fmt!r}")

    if isinstance(stats, AmsReport):
        if fmt == "json":
            return _json(ams_report_dict(stats))
        if fmt == "csv":
            return _ams_csv(stats)
        return _ams_table(stats)

    if isinstance(stats, MatchReport):
        if fmt == "json":
            return _json(_match_dict(stats))
        if fmt == "csv":
            return _match_csv(stats)
        return _match_table(stats)

    if isinstance(stats, SimOutcome):
        payload = {"schema_version": SCHEMA_VERSION, **stats.to_json_dict()}
        if fmt == "json":
            return _json(payload)
        if fmt == "csv":
            return _sim_csv(stats)
        raise ValueError("simulation outcomes render as json or csv")

    if isinstance(stats, (list, tuple)):
        items = list(stats)
        if any(not isinstance(s, FaceMatchStat) for s in items):
            raise TypeError("list reports must contain FaceMatchStat entries")
        if fmt == "json":
            return _json(_face_stats_json(items))
        if fmt == "csv":
            return _face_stats_csv(items)
        return _face_stats_table(items)

    raise TypeError(f"no report emitter for {type(stats).__name__}")
