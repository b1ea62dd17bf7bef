"""Output checks for one CLI invocation, derived from the generated inputs.

Nothing here calls the program: expected counts come from the generator,
the IoU bound from the closed form 1/(2*sqrt(rho) - 1) (the best IoU any
box of anchor aspect ratio 1 can reach against a face whose aspect ratio
differs from it by the factor rho), and the anchor count from the detector
design's grid arithmetic.
"""

from __future__ import annotations

import json
import math

from workloads import DELTA, TP, Corpus

# The detector design: (stride, number of anchor sizes) per pyramid level.
DETECTOR_LEVELS = ((4, 3), (8, 3), (16, 3), (32, 3), (64, 3))
EPS = 1e-9  # float slack for values the program prints at full precision
EPS6 = 2e-6  # slack for values printed with six decimals
MAX_PROBLEMS = 5


def iou_bound(ar: float) -> float:
    """Closed-form best IoU between a face of aspect ratio ar and a square anchor."""
    rho = max(ar, 1.0 / ar)
    return 1.0 / (2.0 * math.sqrt(rho) - 1.0)


def detector_anchor_count(width: int, height: int) -> int:
    return sum((width // s) * (height // s) * k for s, k in DETECTOR_LEVELS)


def check_invocation(
    workload: str, corpus: Corpus, crops: int, returncode: int, stdout: bytes, stderr: bytes
) -> list[str]:
    """Problems with one invocation's result; empty when it is correct."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    if b"Traceback" in stderr:
        return ["traceback on stderr"]
    try:
        text = stdout.decode("utf-8")
        if workload == "ams_corpus":
            problems = _check_ams(corpus, text)
        elif workload.startswith("match_"):
            problems = _check_match(corpus, json.loads(text), workload == "match_sparse")
        else:
            problems = _check_simulate(corpus, json.loads(text), crops)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    return problems[:MAX_PROBLEMS]


def _check_ams(corpus: Corpus, text: str) -> list[str]:
    lines = text.splitlines()
    kept = corpus.kept_faces()
    problems = []
    n_matched, n_faces = (int(v) for v in lines[1].split()[-1].split("/"))
    if n_faces != len(kept):
        problems.append(f"n_faces {n_faces} != kept {len(kept)}")
    if lines[2] != "image,face,ar,width,max_iou,matched":
        problems.append(f"unexpected per-face header {lines[2]!r}")
    rows = lines[3:]
    if len(rows) != len(kept):
        return problems + [f"{len(rows)} per-face rows != kept {len(kept)}"]
    matched = 0
    for row, (path, idx, face) in zip(rows, kept):
        image, fidx, ar, width, max_iou, is_matched = row.split(",")
        ar_true = face.h / face.w
        if (image, int(fidx)) != (path, idx) or width != f"{face.w:.6f}":
            problems.append(f"row {row!r} is not face {idx} of {path}")
        elif abs(float(ar) - ar_true) > EPS6:
            problems.append(f"{path}#{idx}: ar {ar} != {ar_true:.6f}")
        elif not 0.0 < float(max_iou) <= iou_bound(ar_true) + EPS6:
            problems.append(f"{path}#{idx}: max_iou {max_iou} above bound {iou_bound(ar_true):.6f}")
        elif abs(float(max_iou) - TP) > EPS6 and (float(max_iou) > TP) != (is_matched == "1"):
            problems.append(f"{path}#{idx}: matched {is_matched} disagrees with max_iou {max_iou}")
        matched += is_matched == "1"
    if matched != n_matched:
        problems.append(f"summary n_matched {n_matched} != {matched} matched rows")
    return problems


def _check_match(corpus: Corpus, out: dict, compensate: bool) -> list[str]:
    kept = corpus.kept_faces()
    images = [im for im in corpus.images if any(f.kept for f in im.faces)]
    n_anchors = sum(detector_anchor_count(im.width, im.height) for im in images)
    labels = out["labels"]
    problems = []
    if out["n_faces"] != len(kept):
        problems.append(f"n_faces {out['n_faces']} != kept {len(kept)}")
    if out["n_images"] != len(images):
        problems.append(f"n_images {out['n_images']} != {len(images)}")
    if out["n_anchors"] != n_anchors:
        problems.append(f"n_anchors {out['n_anchors']} != grid count {n_anchors}")
    if labels["positive"] + labels["negative"] + labels["ignore"] != out["n_anchors"]:
        problems.append(f"labels {labels} do not sum to n_anchors {out['n_anchors']}")
    rows = out["per_face"]
    if len(rows) != len(kept):
        return problems + [f"{len(rows)} per-face rows != kept {len(kept)}"]
    if sum(r["positive_count"] for r in rows) != labels["positive"]:
        problems.append("per-face positive counts do not sum to the positive labels")
    matched = sum(r["positive_count"] > 0 for r in rows)
    if out["n_faces_matched"] != matched:
        problems.append(f"n_faces_matched {out['n_faces_matched']} != {matched}")
    if compensate and matched != len(rows):
        problems.append(f"compensation left {len(rows) - matched} faces without a positive")
    for r, (path, idx, face) in zip(rows, kept):
        ar = face.h / face.w
        if (r["image"], r["face"]) != (path, idx) or r["ar"] != ar:
            problems.append(f"row {r} is not face {idx} of {path}")
        elif not 0.0 <= r["max_iou"] <= iou_bound(ar) + EPS:
            problems.append(f"{path}#{idx}: max_iou {r['max_iou']} above bound {iou_bound(ar)}")
        elif not TP - DELTA - EPS <= r["effective_tp"] <= TP + EPS:
            problems.append(f"{path}#{idx}: effective_tp {r['effective_tp']} outside [0.4, 0.5]")
    return problems


def _check_simulate(corpus: Corpus, out: dict, crops: int) -> list[str]:
    kept = corpus.kept_faces()
    problems = []
    if out["n_crops"] != crops:
        problems.append(f"n_crops {out['n_crops']} != {crops}")
    rows = out["per_face"]
    if len(rows) != len(kept):
        return problems + [f"{len(rows)} per-face rows != kept {len(kept)}"]
    for r, (path, idx, _) in zip(rows, kept):
        seen, pos = r["crops_seen"], r["crops_positive"]
        obs, ideal = r["best_observed_iou"], r["best_ideal_iou"]
        where = f"{path}#{idx}"
        if (r["image"], r["face"]) != (path, idx):
            problems.append(f"row {r} is not face {idx} of {path}")
        elif not 0 <= pos <= seen <= crops:
            problems.append(f"{where}: crops_positive {pos}, crops_seen {seen}, crops {crops}")
        elif not 0.0 <= obs <= ideal + EPS or ideal > 1.0 + EPS:
            problems.append(f"{where}: best_observed {obs} > best_ideal {ideal} or ideal > 1")
        elif seen == 0 and (obs, ideal) != (0.0, 0.0):
            problems.append(f"{where}: never seen but has IoU {obs}/{ideal}")
        elif pos > 0 and obs <= TP - DELTA:
            problems.append(f"{where}: positive in {pos} crops with best IoU {obs} <= {TP - DELTA}")
    return problems
