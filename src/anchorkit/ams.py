"""Per-face best-achievable IoU and the anchor matching simulation.

The central quantity is the IoU a face could reach against a design if an
anchor were placed perfectly on it (the "enough random crops" limit). On a
discrete size ladder this is an enumeration over sizes; in the limit of a
dense ladder it has a closed form depending only on the aspect-ratio mismatch
rho = max(r_face/r_anchor, r_anchor/r_face):

    max IoU = 1 / (2*sqrt(rho) - 1)

obtained by optimizing the anchor scale: the best scale is the geometric mean
of the face's width and height (normalized by the anchor shape), where the
anchor matches the face's width on one axis and undershoots by sqrt(rho) on
the other. run_ams scores that bound over a corpus; run_match (on each
image's grid) and cropsim.simulate (on each crop's) label through label_sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matching
from .anchors import AnchorDesign, AnchorGrid, generate_anchor_boxes
from .corpus import Corpus
from .matching import MatchConfig, _expand, assign_labels_xywh

# Faces per ideal_max_iou call in run_ams. Each call builds a few
# (faces x sizes) temporaries, so the block bounds their memory; the
# values do not depend on it.
FACE_BLOCK = 8192

LABEL_KINDS = ("positive", "negative", "ignore", "compensated")


@dataclass(frozen=True)
class FaceMatchStat:
    """The per-face table of an ams report: one column per field, in output
    order, with one element per kept face in corpus order. Each face's
    image path, its position among that image's faces (as
    Corpus.kept gives it), its aspect ratio and width, its ideal max
    IoU, and whether that is strictly above the threshold."""

    image: np.ndarray
    face: np.ndarray
    ar: np.ndarray
    width: np.ndarray
    max_iou: np.ndarray
    matched: np.ndarray


@dataclass(frozen=True)
class AmsReport:
    """Matched aspect-ratio range for one (threshold, anchor AR) configuration.

    fitted_eta is the empirical sampling-domain radius (from the wider of the
    two matched-AR tails); analytic_eta is the radius where the closed-form
    max IoU equals the threshold. Range fields are None when nothing matched.
    """

    t_p: float
    anchor_ar: float
    matched_ar_min: float | None
    matched_ar_max: float | None
    fitted_eta: float | None
    n_faces: int
    n_matched: int

    @property
    def analytic_eta(self) -> float:
        # A zero threshold matches every aspect ratio.
        if self.t_p == 0.0:
            return math.inf
        return boundary_ar(self.t_p, 1.0)


def ideal_max_iou(face_w, face_ar, design: AnchorDesign):
    """Best IoU a face can reach against the design under ideal placement.

    face_w and face_ar are floats, giving a float, or broadcastable arrays,
    giving one value per face. Maximizes over the design's size ladder; the
    per-size bound is the concentric-placement intersection
    min(w_f, s) * min(w_f*r_f, s*r_a), scored in the order of a scalar loop
    (face area w_f*w_f*r_f, then the intersection, then s*s*r_a), so every
    face's value is bit-identical to scoring it alone. The maximum is floored
    at 0.0, and a size whose score is NaN (overflowed extents) is skipped.
    """
    w = np.asarray(face_w, dtype=np.float64)[..., None]
    ar = np.asarray(face_ar, dtype=np.float64)[..., None]
    if (w <= 0).any() or (ar <= 0).any():
        raise ValueError("face width and aspect ratio must be positive")
    s = np.asarray(design.sizes, dtype=np.float64)
    ra = design.aspect_ratio
    with np.errstate(all="ignore"):
        inter = np.minimum(w, s) * np.minimum(w * ar, s * ra)
        val = inter / (w * w * ar + s * s * ra - inter)
    best = np.fmax.reduce(val, axis=-1, initial=0.0)
    return float(best) if best.ndim == 0 else best


def analytic_max_iou(face_ar: float, anchor_ar: float) -> float:
    """Closed-form ideal max IoU for a continuous scale ladder (see module docstring)."""
    if face_ar <= 0 or anchor_ar <= 0:
        raise ValueError("aspect ratios must be positive")
    rho = max(face_ar / anchor_ar, anchor_ar / face_ar)
    return 1.0 / (2.0 * math.sqrt(rho) - 1.0)


def boundary_ar(t_p: float, anchor_ar: float) -> float:
    """Right aspect-ratio boundary where the closed-form max IoU equals t_p.

    Inverse of analytic_max_iou in the AR direction: anchor_ar*((1/t + 1)/2)^2.
    The left boundary is anchor_ar**2 / boundary_ar(t_p, anchor_ar) by symmetry.
    """
    if not 0.0 < t_p <= 1.0:
        raise ValueError("t_p must be in (0, 1]")
    if anchor_ar <= 0:
        raise ValueError("anchor_ar must be positive")
    half = (1.0 / t_p + 1.0) / 2.0
    return anchor_ar * half * half


def run_ams(corpus: Corpus, design: AnchorDesign, t_p: float) -> tuple[AmsReport, FaceMatchStat]:
    """Simulate matching over a corpus: compute each kept face's ideal max
    IoU, mark it matched when strictly above t_p, and report the matched-AR
    range, with the per-face table. Faces are kept by Corpus.kept, and
    scored FACE_BLOCK at a time.
    """
    if not 0.0 <= t_p <= 1.0:
        raise ValueError("t_p must be in [0, 1]")
    image, position, xywh = corpus.kept()
    w = xywh[:, 2]
    ar = xywh[:, 3] / w
    best = np.empty(len(w))
    for k in range(0, len(w), FACE_BLOCK):
        best[k:k + FACE_BLOCK] = ideal_max_iou(w[k:k + FACE_BLOCK], ar[k:k + FACE_BLOCK], design)
    matched = best > t_p

    matched_ars = ar[matched]
    if len(matched_ars):
        ar_min = float(matched_ars.min())
        ar_max = float(matched_ars.max())
        ra = design.aspect_ratio
        fitted = max(ar_max / ra, ra / ar_min)
    else:
        ar_min = ar_max = fitted = None

    report = AmsReport(
        t_p=t_p,
        anchor_ar=design.aspect_ratio,
        matched_ar_min=ar_min,
        matched_ar_max=ar_max,
        fitted_eta=fitted,
        n_faces=len(w),
        n_matched=len(matched_ars),
    )
    return report, FaceMatchStat(corpus.paths[image], position, ar, w, best, matched)


@dataclass(frozen=True)
class MatchRow:
    """The per-face table of a match report: one column per field, in
    output order, with one element per kept face in file order. Each
    face's image path, its position among that image's faces, its aspect
    ratio, its best IoU over the grid, its positive anchor count and its
    positive threshold."""

    image: np.ndarray
    face: np.ndarray
    ar: np.ndarray
    max_iou: np.ndarray
    positive_count: np.ndarray
    effective_tp: np.ndarray


@dataclass(frozen=True)
class MatchReport:
    """Label-assignment audit of a corpus. n_images counts the images that
    keep a face, n_anchors the anchors of their grids, one grid per image,
    and labels tallies those anchors' labels (LABEL_KINDS) summed over the
    images. per_face is the table of every kept face in file order."""

    config: MatchConfig
    n_images: int
    n_anchors: int
    labels: dict[str, int]
    per_face: MatchRow

    @property
    def n_matched(self) -> int:
        """The kept faces with at least one positive anchor."""
        return int(np.count_nonzero(self.per_face.positive_count))


def label_sets(grid: AnchorGrid, faces: np.ndarray, cfg: MatchConfig, group: np.ndarray):
    """Label (m, 4) xywh faces on grid, in sets of equal consecutive group
    ids: one matching.plan_faces plan, then one assign_labels_xywh call per
    range of matching.set_runs, given its slice of the plan and its set ids
    counted from the range's first. Returns each face's max_iou,
    positive_count and effective_tp (the plan's tp), and the calls'
    n_anchors and label tallies (by LABEL_KINDS) summed."""
    max_iou = np.zeros(len(faces))
    positive = np.zeros(len(faces), dtype=np.int64)
    n_anchors, labels = 0, dict.fromkeys(LABEL_KINDS, 0)
    plan = matching.plan_faces(grid, faces, cfg)
    for lo, hi in matching.set_runs(plan, group):
        result = assign_labels_xywh(grid, faces[lo:hi], cfg, group=group[lo:hi] - group[lo],
                                    plan=plan[lo:hi])
        max_iou[lo:hi], positive[lo:hi] = result.max_iou, result.positive_count
        n_anchors += result.n_anchors
        labels = {kind: labels[kind] + n for kind, n in result.label_counts().items()}
        del result  # drop its rows before the next call builds its own
    return max_iou, positive, plan.tp, n_anchors, labels


def run_match(corpus: Corpus, design: AnchorDesign, cfg: MatchConfig) -> MatchReport:
    """Label every image that keeps a face on the grid of its canvas: its
    pixel dims, or else the smallest canvas aligned to the design's largest
    stride that covers its faces. The images of one canvas share one grid
    and one label_sets call, each image its own set."""
    max_stride = max(lv.stride for lv in design.levels)
    image, position, faces = corpus.kept()

    # The images that keep a face, numbered in file order: each one's index,
    # first kept face and kept face count, and their numbers by distinct
    # canvas, in order of first use.
    images, starts, sizes = np.unique(image, return_index=True, return_counts=True)
    by_canvas, far = {}, faces[:, :2] + faces[:, 2:]
    dims = corpus.dims[images].tolist()
    for n, ((w, h), start, size) in enumerate(zip(dims, starts.tolist(), sizes.tolist())):
        if math.isnan(w):  # the smallest stride-aligned canvas covering the faces
            w, h = (float(max(max_stride, math.ceil(v / max_stride) * max_stride))
                    for v in far[start:start + size].max(axis=0).tolist())
        by_canvas.setdefault((w, h), []).append(n)
    max_iou, tp = np.zeros((2, len(faces)))
    positive = np.zeros(len(faces), dtype=np.int64)
    n_anchors, labels = 0, dict.fromkeys(LABEL_KINDS, 0)
    for canvas, numbers in by_canvas.items():
        grid = generate_anchor_boxes(design, *canvas)
        # Each image's set is a copy of the grid and keeps a face, so the
        # anchors and tallies are the sums over the canvas's images.
        group, offset = _expand(sizes[numbers])
        at = starts[numbers][group] + offset  # the canvas's faces, image by image
        max_iou[at], positive[at], tp[at], anchors, tally = label_sets(grid, faces[at], cfg, group)
        n_anchors += anchors
        labels = {kind: labels[kind] + n for kind, n in tally.items()}
    table = MatchRow(corpus.paths[image], position, faces[:, 3] / faces[:, 2], max_iou, positive,
                     tp)
    return MatchReport(cfg, len(images), n_anchors, labels, table)
