"""Seeded random-crop simulator.

Reproduces the square-patch crop augmentation at the box level (no pixels):
a patch side is drawn from a scale menu, a patch position is drawn uniformly,
faces whose centers fall inside the patch are kept and clipped, and everything
is rescaled to the output canvas. Running many crops per image measures how
close each face's observed grid max IoU gets to its ideal-placement bound.

Determinism: every image draws from its own PRNG stream (seed, image
index), so outcomes are byte-stable under a fixed seed and independent of
how other images are processed. Crop j of an image takes that stream's
floats 3j, 3j+1 and 3j+2: scale index, patch x, patch y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from . import ams, matching
from .anchors import AnchorDesign, generate_anchor_boxes
from .corpus import ImageRecord, face_table, kept_mask
from .matching import MatchConfig, assign_labels_xywh
from .prng import floats


@dataclass(frozen=True)
class CropParams:
    """Crop recipe: patch side as a fraction of the shorter image side, and
    the output canvas side."""

    scale_options: tuple[float, ...] = (0.3, 0.45, 0.6, 0.8, 1.0)
    output_side: float = 640.0

    def __post_init__(self):
        object.__setattr__(
            self, "scale_options", tuple(float(s) for s in self.scale_options)
        )
        if not self.scale_options:
            raise ValueError("scale_options must be non-empty")
        if any(not 0 < s <= 1 for s in self.scale_options):
            raise ValueError("scale options must lie in (0, 1]")
        if not 0 < self.output_side < math.inf:
            raise ValueError(f"output_side must be positive and finite, not {self.output_side!r}")


def _crops(width, height, xywh: np.ndarray, params: CropParams, u: np.ndarray):
    """Make len(u) square crops of a width x height image and transform its
    (m, 4) xywh faces into output coordinates, all at once.

    Each crop takes one row of the (n, 3) uniform draws u, in the order
    scale index, patch x, patch y. A face is kept when its center lies in
    the half-open patch [x0, x0+side) x [y0, y0+side); kept boxes are
    clipped to the patch and scaled by output_side/side. Returns (crop,
    face, boxes): the crop and face index of each kept pair, ordered by crop
    and then by face, and its (pairs, 4) output box. Every value is that of
    transforming the crops one at a time in float arithmetic.
    """
    if width <= 0 or height <= 0:
        raise ValueError("image dimensions must be positive")
    k = len(params.scale_options)
    pick = np.minimum((u[:, 0] * k).astype(np.int64), k - 1)
    side = np.array(params.scale_options)[pick, None] * min(width, height)
    lo = (np.array([width, height]) - side) * u[:, 1:]  # patch corners, (x0, y0)
    hi = lo + side
    centre = xywh[:, :2] + xywh[:, 2:] / 2.0
    crop, face = np.nonzero(((lo[:, None] <= centre) & (centre < hi[:, None])).all(axis=2))
    lo, hi, near, far = lo[crop], hi[crop], xywh[face, :2], (xywh[:, :2] + xywh[:, 2:])[face]
    # Python's max(a, b) and min(a, b), which keep a on ties.
    n1, n2 = np.where(lo > near, lo, near), np.where(hi < far, hi, far)
    return crop, face, np.hstack([n1 - lo, n2 - n1]) * (params.output_side / side[crop])


@dataclass(frozen=True)
class FaceSimStat:
    """The per-face table of a simulation: one column per field, in output
    order, with one element per kept face in corpus order.

    crops_seen counts the crops that retained the face, and crops_positive
    those where it drew at least one positive anchor. best_observed_iou is
    its best grid IoU over those crops. best_ideal_iou is the
    ideal-placement bound evaluated at the face's post-crop geometry
    (clipping changes the aspect ratio, rescaling changes the width),
    maximized over the same crops; the observed value can approach but
    never exceed it.
    """

    image: np.ndarray
    face: np.ndarray
    crops_seen: np.ndarray
    crops_positive: np.ndarray
    best_observed_iou: np.ndarray
    best_ideal_iou: np.ndarray


@dataclass(frozen=True)
class SimOutcome:
    seed: int
    n_crops: int
    per_face: FaceSimStat


def simulate(
    records: Iterable[ImageRecord],
    design: AnchorDesign,
    cfg: MatchConfig,
    n_crops: int,
    seed: int,
    params: CropParams = CropParams(),
) -> SimOutcome:
    """Run n_crops seeded crops per image and aggregate per-face outcomes
    into one table.

    The anchor grid of the output canvas is built once. Every crop that
    retains a face is labelled on it under cfg, as its own set of faces,
    recording whether each retained face drew at least one positive anchor
    and what its best grid IoU was. Neither depends on cfg.tn: a face's best
    IoU is its max over the grid, and its positives are the anchors it wins
    above its threshold. So the crops are labelled under cfg.tn = 0, where
    assign_labels_xywh keeps only the pairs above each face's threshold, and
    the table is the same for every valid cfg.tn. An image's crops are
    drawn and bounded in blocks of at most ams.FACE_BLOCK crop-face cells
    (or one crop), and a block's crops are labelled one kernel call per
    range of matching.set_runs; the values depend on neither. Every record must
    carry pixel dimensions, and on every image that keeps a face the
    smallest crop patch must have a side above 0 and a finite rescale
    factor; both are checked before any draw.
    """
    if n_crops < 0:
        raise ValueError("n_crops must be non-negative")
    record_list = list(records)
    for rec in record_list:
        if rec.width is None or rec.height is None:
            raise ValueError(f"record {rec.path!r} has no image dimensions")

    grid = generate_anchor_boxes(design, params.output_side, params.output_side)
    cfg = replace(cfg, tn=0.0)  # valid: t0, and under WARM t0 - delta, stay above it

    record, position, rows = face_table(record_list)
    keep = kept_mask(rows)
    record, position, faces = record[keep], position[keep], rows[keep, :4]
    sizes = np.bincount(record, minlength=len(record_list)).tolist()  # kept faces per image
    scale = min(params.scale_options)  # if its patch rescales, larger ones do
    for rec, size in zip(record_list, sizes):
        side = scale * min(rec.width, rec.height)
        if size and not (side > 0 and math.isfinite(params.output_side / side)):
            raise ValueError(f"image {rec.path!r}: crop scale {scale!r} gives a patch side of "
                             f"{side!r} px, too small to rescale to {params.output_side!r} px")
    seen, positive = np.zeros((2, len(faces)), dtype=np.int64)
    best_obs, best_ideal = np.zeros((2, len(faces)))
    end = 0
    for img_idx, (rec, size) in enumerate(zip(record_list, sizes)):
        # This image's faces are rows start .. end-1 of the columns.
        start, end = end, end + size
        if not size:
            continue
        block = max(1, ams.FACE_BLOCK // size)
        for first in range(0, n_crops, block):
            u = floats(seed, img_idx, 3 * first, 3 * min(block, n_crops - first))
            crop, k, boxes = _crops(rec.width, rec.height, faces[start:end], params,
                                    u.reshape(-1, 3))
            k += start
            bounds = ams.ideal_max_iou(boxes[:, 2], boxes[:, 3] / boxes[:, 2], design)
            observed = np.empty(len(k))
            hit = np.empty(len(k), dtype=bool)
            for lo, hi in matching.set_runs(grid, boxes, cfg, crop):
                result = assign_labels_xywh(grid, boxes[lo:hi], cfg,
                                            group=crop[lo:hi] - crop[lo])
                observed[lo:hi] = result.max_iou
                hit[lo:hi] = result.positive_count > 0
            # Every value is finite and >= +0.0, and a crop holds a face at
            # most once, so these folds equal the crop-by-crop updates.
            np.add.at(seen, k, 1)
            np.add.at(positive, k, hit)
            np.maximum.at(best_ideal, k, bounds)
            np.maximum.at(best_obs, k, observed)

    paths = np.array([rec.path for rec in record_list], dtype=object)
    table = FaceSimStat(paths[record], position, seen, positive, best_obs, best_ideal)
    return SimOutcome(seed=seed, n_crops=n_crops, per_face=table)
