"""Command-line interface.

Subcommands: ams (ideal-placement matching simulation), match (label
assignment audit), simulate (seeded random-crop simulation), rfd (block
inspection), parse (annotation validation), coverage (aspect-ratio domain
coverage). Exit codes: 0 success, 1 validation or parse error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

import numpy as np

from . import matching
from .ams import run_ams
from .anchors import (SQRT2, AnchorDesign, ams_design, detector_design, generate_anchor_boxes,
                      ladder_design, load_design)
from .corpus import (
    FixedListAR,
    LogUniformAR,
    ar_coverage,
    attach_dims,
    corpus_counts,
    face_table,
    generate_synthetic,
    kept_mask,
    parse_wider,
    read_dims_csv,
    serialize_wider,
)
from .cropsim import CropParams, simulate
from .matching import MatchConfig, Strategy, _expand, assign_labels_xywh
from .reports import LABEL_KINDS, MatchReport, MatchRow, emit_reports, json_text
from .rfd import rfd_param_count, rfd_receptive_fields, rfd_spec

_SQRT2_TEXT = "1.4142135624"


def _add_match_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", choices=["sam", "sam_compensate", "warm"],
                   default="warm", help="matching strategy (default: warm)")
    p.add_argument("--tp", type=float, default=0.5,
                   help="base positive IoU threshold T0 (default: 0.5)")
    p.add_argument("--delta", type=float, default=0.1,
                   help="WARM threshold amplitude (default: 0.1)")
    p.add_argument("--eta0", type=float, default=2.0,
                   help="inner extreme-AR domain radius (default: 2.0)")
    p.add_argument("--eta1", type=float, default=3.0,
                   help="outer extreme-AR domain radius (default: 3.0)")
    p.add_argument("--anchor-ar", type=float, default=1.0,
                   help="anchor aspect ratio, height/width (default: 1.0)")


# The synthetic flags default to None, so a flag that was given can be told
# apart; these values apply once the flags are checked (see _load_records).
_SYNTHETIC_DEFAULTS = {"seed": 0, "ar_lo": 0.2, "ar_hi": 5.0}


def _add_synthetic_flags(p: argparse.ArgumentParser) -> None:
    d = _SYNTHETIC_DEFAULTS
    p.add_argument("--synthetic", type=int, metavar="N",
                   help="generate N synthetic faces instead of reading annotations")
    p.add_argument("--seed", type=int, help=f"PRNG seed (default: {d['seed']})")
    p.add_argument("--ar-lo", type=float,
                   help=f"synthetic AR law lower bound (default: {d['ar_lo']})")
    p.add_argument("--ar-hi", type=float,
                   help=f"synthetic AR law upper bound (default: {d['ar_hi']})")
    p.add_argument("--ar-list", type=str,
                   help="comma-separated fixed AR list for the synthetic corpus")


def _match_config(args: argparse.Namespace) -> MatchConfig:
    return MatchConfig(
        strategy=Strategy(args.strategy),
        t0=args.tp,
        tn=args.tn,
        delta=args.delta,
        eta0=args.eta0,
        eta1=args.eta1,
        anchor_ar=args.anchor_ar,
    )


def _float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} takes comma-separated numbers, not {text!r}") from None


def _load_records(args: argparse.Namespace):
    # A synthetic flag that would change nothing is refused: the AR flags
    # without --synthetic, or --ar-lo/--ar-hi beside --ar-list, and --seed
    # without --synthetic, except in simulate, where it also seeds the crops.
    given = [name for name in ("seed", "ar_lo", "ar_hi", "ar_list")
             if getattr(args, name) is not None]
    if args.synthetic is None:
        unused = [name for name in given if name != "seed" or args.command != "simulate"]
        if unused:
            raise ValueError(f"--{unused[0].replace('_', '-')} applies to a --synthetic "
                             f"corpus only")
    elif args.ar_list is not None:
        for name in ("ar_lo", "ar_hi"):
            if name in given:
                raise ValueError(f"--{name.replace('_', '-')} bounds the log-uniform AR law; "
                                 f"it cannot be combined with --ar-list")
    for name, value in _SYNTHETIC_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    if args.synthetic is not None:
        for flag in ("annotations", "dims"):
            if getattr(args, flag, None) is not None:
                raise ValueError(f"--synthetic generates its own corpus; it cannot be "
                                 f"combined with --{flag}")
        if args.ar_list is not None:
            law = FixedListAR(_float_list(args.ar_list, "--ar-list"))
        else:
            law = LogUniformAR(args.ar_lo, args.ar_hi)
        return generate_synthetic(args.seed, args.synthetic, law)
    if not args.annotations:
        raise ValueError("either --annotations or --synthetic is required")
    with open(args.annotations, "r", encoding="utf-8") as fh:
        records = parse_wider(fh)
    if getattr(args, "dims", None):
        records = attach_dims(records, read_dims_csv(args.dims))
    return records


def _design_for(args: argparse.Namespace) -> AnchorDesign:
    # No --scale-step (simulate has none) means the default, sqrt(2).
    step = getattr(args, "scale_step", None)
    if step is not None and args.design != "ams":
        raise ValueError(f"--scale-step applies to --design ams only, not to --design "
                         f"{args.design}")
    if args.design == "detector":
        return detector_design()
    if args.design == "ams":
        # A step at least as close to sqrt(2) as the rounded default the
        # help text prints gets the exact half-power ladder, so that printed
        # default reproduces the default.
        if step is not None and abs(step - SQRT2) > abs(float(_SQRT2_TEXT) - SQRT2):
            return ladder_design(args.anchor_ar, scale_step=step)
        return ams_design(args.anchor_ar)
    return load_design(args.design)


def _write_out(text: str, out: str | None) -> None:
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_ams(args: argparse.Namespace) -> int:
    records = _load_records(args)
    report, faces = run_ams(records, _design_for(args), args.tp)
    _write_out(emit_reports(report, args.format, faces if args.per_face else None), args.out)
    return 0


def _canvas_for(rec, xywh, max_stride: float) -> tuple[float, float]:
    if rec.width is not None and rec.height is not None:
        return rec.width, rec.height
    # Fall back to the smallest stride-aligned canvas covering the faces.
    max_x, max_y = (xywh[:, :2] + xywh[:, 2:]).max(axis=0).tolist()
    w = max(max_stride, math.ceil(max_x / max_stride) * max_stride)
    h = max(max_stride, math.ceil(max_y / max_stride) * max_stride)
    return float(w), float(h)


def _match_report(records, design: AnchorDesign, cfg: MatchConfig) -> MatchReport:
    """Label every image that keeps a face on the grid of its canvas. The
    images of one canvas are labelled one kernel call per range of
    matching.set_runs."""
    max_stride = max(lv.stride for lv in design.levels)
    record, position, rows = face_table(records)
    keep = kept_mask(rows)
    record, position, faces = record[keep], position[keep], rows[keep, :4]

    # The images that keep a face, numbered in file order: each one's record,
    # first face and face count, and their numbers by distinct canvas, in
    # order of first use.
    images, starts, sizes = np.unique(record, return_index=True, return_counts=True)
    by_canvas = {}
    for n, (i, start, size) in enumerate(zip(images.tolist(), starts.tolist(), sizes.tolist())):
        canvas = _canvas_for(records[i], faces[start:start + size], max_stride)
        by_canvas.setdefault(canvas, []).append(n)
    max_iou, tp = np.zeros((2, len(faces)))
    positive = np.zeros(len(faces), dtype=np.int64)
    n_anchors, labels = 0, dict.fromkeys(LABEL_KINDS, 0)
    for canvas, numbers in by_canvas.items():
        grid = generate_anchor_boxes(design, *canvas)
        # One kernel call per range of set_runs, each image its own group.
        # Each group is a copy of the grid and keeps a face, so a call's
        # anchors and tallies are the sums over its images.
        group, offset = _expand(sizes[numbers])
        at = starts[numbers][group] + offset  # the canvas's faces, image by image
        for lo, hi in matching.set_runs(grid, faces[at], cfg, group):
            run = at[lo:hi]
            result = assign_labels_xywh(grid, faces[run], cfg, group=group[lo:hi] - group[lo])
            max_iou[run], positive[run], tp[run] = (result.max_iou, result.positive_count,
                                                    result.effective_tp)
            n_anchors += result.n_anchors
            for kind, count in result.label_counts().items():
                labels[kind] += count
            del result  # drop its rows before the next call builds its own
    paths = np.array([rec.path for rec in records], dtype=object)
    table = MatchRow(paths[record], position, faces[:, 3] / faces[:, 2], max_iou, positive, tp)
    return MatchReport(cfg, len(images), n_anchors, labels, table)


def _cmd_match(args: argparse.Namespace) -> int:
    records = _load_records(args)
    cfg = _match_config(args)
    report = _match_report(records, _design_for(args), cfg)
    _write_out(emit_reports(report, args.format), args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    scales = _float_list(args.scales, "--scales")
    records = _load_records(args)
    cfg = _match_config(args)
    design = _design_for(args)
    params = CropParams(scale_options=scales, output_side=args.output_side)
    outcome = simulate(records, design, cfg, args.crops, args.seed, params)
    _write_out(emit_reports(outcome, args.format), args.out)
    return 0


def _cmd_rfd(args: argparse.Namespace) -> int:
    spec = rfd_spec(args.channels)
    params = rfd_param_count(args.channels, include_bias=args.bias)
    fields = rfd_receptive_fields(spec)
    if args.format == "json":
        text = json_text({
            "channels": args.channels,
            "include_bias": args.bias,
            "param_count": params,
            "receptive_fields": [list(rf) for rf in fields],
            "paths": [
                {
                    "reduce": [p.reduce.kh, p.reduce.kw, p.reduce.c_in, p.reduce.c_out],
                    "body": [p.body.kh, p.body.kw, p.body.c_in, p.body.c_out],
                }
                for p in spec.paths
            ],
        })
    else:
        lines = [
            f"channels        {args.channels}",
            f"param_count     {params}" + ("  (with bias)" if args.bias else ""),
            "path  reduce      body        receptive_field",
        ]
        for i, (p, rf) in enumerate(zip(spec.paths, fields)):
            lines.append(
                f"{i:<6}1x1 {p.reduce.c_in}->{p.reduce.c_out:<5} "
                f"{p.body.kh}x{p.body.kw} {p.body.c_in}->{p.body.c_out:<5} "
                f"{rf[0]}x{rf[1]}"
            )
        lines.append(f"short identity                {fields[-1][0]}x{fields[-1][1]}")
        text = "\n".join(lines) + "\n"
    _write_out(text, args.out)
    return 0


def _cmd_parse(args: argparse.Namespace) -> int:
    with open(args.annotations, "r", encoding="utf-8") as fh:
        records = parse_wider(fh)
    if args.emit:
        _write_out(serialize_wider(records), args.out)
        return 0
    _write_out(json_text(corpus_counts(records)), args.out)
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    records = _load_records(args)
    frac = ar_coverage(records, args.anchor_ar, args.eta)
    if args.format == "json":
        text = json_text({"anchor_ar": args.anchor_ar, "eta": args.eta, "coverage": frac})
    else:
        text = f"{frac:.6f}\n"
    _write_out(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchorkit",
        description="Anchor-matching analytics for face detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ams = sub.add_parser("ams", help="ideal-placement anchor matching simulation")
    p_ams.add_argument("--annotations", help="WIDER-format annotation file")
    _add_synthetic_flags(p_ams)
    p_ams.add_argument("--tp", type=float, default=0.5,
                       help="positive IoU threshold (default: 0.5)")
    p_ams.add_argument("--anchor-ar", type=float, default=1.0,
                       help="anchor aspect ratio (default: 1.0)")
    p_ams.add_argument("--scale-step", type=float,
                       help=f"size ladder step (default: {_SQRT2_TEXT})")
    p_ams.add_argument("--format", choices=["table", "json", "csv"], default="table",
                       help="report format (default: table)")
    p_ams.add_argument("--per-face", action=argparse.BooleanOptionalAction, default=True,
                       help="add per-face stats: a per_face list in json, the per-face "
                            "CSV after the table or in place of the summary CSV (default: enabled)")
    p_ams.add_argument("--out", help="write output to this path instead of stdout")
    # ams always analyses the size ladder; the default routes it through the
    # same design rule as `match --design ams`.
    p_ams.set_defaults(func=_cmd_ams, design="ams")

    p_match = sub.add_parser("match", help="audit label assignment over a corpus")
    p_match.add_argument("--annotations", help="WIDER-format annotation file")
    p_match.add_argument("--dims", help="sidecar CSV path,width,height with image dims")
    _add_synthetic_flags(p_match)
    _add_match_flags(p_match)
    p_match.add_argument("--tn", type=float, default=0.35,
                         help="negative IoU threshold (default: 0.35)")
    p_match.add_argument("--design", default="detector",
                         help="anchor design: detector, ams, or a JSON file (default: detector)")
    p_match.add_argument("--scale-step", type=float,
                         help=f"size ladder step for --design ams (default: {_SQRT2_TEXT})")
    p_match.add_argument("--format", choices=["json", "table", "csv"], default="json",
                         help="report format (default: json)")
    p_match.add_argument("--out", help="write output to this path instead of stdout")
    p_match.set_defaults(func=_cmd_match)

    p_sim = sub.add_parser("simulate", help="seeded random-crop matching simulation")
    p_sim.add_argument("--annotations", help="WIDER-format annotation file")
    p_sim.add_argument("--dims", help="sidecar CSV path,width,height with image dims")
    _add_synthetic_flags(p_sim)
    _add_match_flags(p_sim)
    p_sim.add_argument("--design", default="detector",
                       help="anchor design: detector, ams, or a JSON file (default: detector)")
    p_sim.add_argument("--crops", type=int, default=200,
                       help="number of crops per image (default: 200)")
    p_sim.add_argument("--scales", default="0.3,0.45,0.6,0.8,1.0",
                       help="comma-separated crop scales (default: 0.3,0.45,0.6,0.8,1.0)")
    p_sim.add_argument("--output-side", type=float, default=640.0,
                       help="output canvas side in px (default: 640)")
    p_sim.add_argument("--format", choices=["json", "csv"], default="json",
                       help="report format (default: json)")
    p_sim.add_argument("--out", help="write output to this path instead of stdout")
    # simulate reads no negative label, and its table is the same under
    # every tn (see cropsim.simulate), so it has no --tn.
    p_sim.set_defaults(func=_cmd_simulate, tn=0.0)

    p_rfd = sub.add_parser("rfd", help="inspect the RFD block structure")
    p_rfd.add_argument("--channels", type=int, required=True,
                       help="input channel count (must be a multiple of 4)")
    p_rfd.add_argument("--bias", action="store_true",
                       help="include bias terms in the parameter count (default: off)")
    p_rfd.add_argument("--format", choices=["json", "table"], default="table",
                       help="report format (default: table)")
    p_rfd.add_argument("--out", help="write output to this path instead of stdout")
    p_rfd.set_defaults(func=_cmd_rfd)

    p_parse = sub.add_parser("parse", help="validate a WIDER-format annotation file")
    p_parse.add_argument("--annotations", required=True, help="annotation file to validate")
    p_parse.add_argument("--emit", action="store_true",
                         help="emit the canonical serialization instead of a "
                              "summary (default: off)")
    p_parse.add_argument("--out", help="write output to this path instead of stdout")
    p_parse.set_defaults(func=_cmd_parse)

    p_cov = sub.add_parser("coverage", help="aspect-ratio sampling-domain coverage")
    p_cov.add_argument("--annotations", help="WIDER-format annotation file")
    _add_synthetic_flags(p_cov)
    p_cov.add_argument("--anchor-ar", type=float, default=1.0,
                       help="anchor aspect ratio (default: 1.0)")
    p_cov.add_argument("--eta", type=float, default=5.0,
                       help="sampling-domain radius (default: 5.0)")
    p_cov.add_argument("--format", choices=["text", "json"], default="text",
                       help="report format (default: text)")
    p_cov.add_argument("--out", help="write output to this path instead of stdout")
    p_cov.set_defaults(func=_cmd_coverage)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError) as exc:
        # OverflowError: a number too large for a float, e.g. in a design file.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
