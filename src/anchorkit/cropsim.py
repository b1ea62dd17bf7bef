"""Seeded random-crop simulator.

Reproduces the square-patch crop augmentation at the box level (no pixels):
a patch side is drawn from a scale menu, a patch position is drawn uniformly,
faces whose centers fall inside the patch are kept and clipped, and everything
is rescaled to the output canvas. Running many crops per image measures how
close each face's observed grid max IoU gets to its ideal-placement bound.

Determinism: every image uses its own PRNG substream derived from
(seed, image index), so outcomes are byte-stable under a fixed seed and
independent of how other images are processed. Per crop, the draw order is
scale index, patch x, patch y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .ams import ideal_max_iou
from .anchors import AnchorDesign, generate_anchor_boxes
from .corpus import ImageRecord, kept_faces
from .geometry import Box
from .matching import MatchConfig, assign_labels_xywh
from .prng import SplitMix64, substream


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


@dataclass(frozen=True)
class CropResult:
    """Faces surviving one crop, as (x, y, w, h) tuples in output-canvas
    coordinates, with their positions in the faces the crop was drawn over."""

    boxes: tuple[tuple[float, float, float, float], ...]
    source_indices: tuple[int, ...]
    patch: Box
    scale_factor: float


def random_crop(
    image_w: float,
    image_h: float,
    faces: Sequence[Sequence[float]],
    params: CropParams,
    rng: SplitMix64,
) -> CropResult:
    """Draw one square crop and transform the faces, xywh rows, into output
    coordinates.

    A face is kept when its center lies in the half-open patch
    [x0, x0+side) x [y0, y0+side); kept boxes are clipped to the patch and
    scaled by output_side/side. Advances rng in place (three draws).
    """
    if image_w <= 0 or image_h <= 0:
        raise ValueError("image dimensions must be positive")
    scale = params.scale_options[rng.next_index(len(params.scale_options))]
    side = scale * min(image_w, image_h)
    if side > image_w or side > image_h:
        raise ValueError("no valid patch position: patch exceeds image")
    x0 = rng.uniform(0.0, image_w - side)
    y0 = rng.uniform(0.0, image_h - side)
    factor = params.output_side / side

    kept: list[tuple[float, float, float, float]] = []
    kept_idx: list[int] = []
    for i, (x, y, w, h) in enumerate(faces):
        if not (x0 <= x + w / 2.0 < x0 + side and y0 <= y + h / 2.0 < y0 + side):
            continue
        nx1 = max(x, x0)
        ny1 = max(y, y0)
        nx2 = min(x + w, x0 + side)
        ny2 = min(y + h, y0 + side)
        kept.append(
            ((nx1 - x0) * factor, (ny1 - y0) * factor, (nx2 - nx1) * factor, (ny2 - ny1) * factor)
        )
        kept_idx.append(i)
    return CropResult(
        boxes=tuple(kept),
        source_indices=tuple(kept_idx),
        patch=Box(x0, y0, side, side),
        scale_factor=factor,
    )


@dataclass(frozen=True)
class FaceSimStat:
    """Aggregated simulation outcome for one face.

    best_ideal_iou is the ideal-placement bound evaluated at the face's
    post-crop geometry (clipping changes the aspect ratio, rescaling changes
    the width), maximized over the crops that retained the face; the observed
    value can approach but never exceed it.
    """

    image: str
    face: int
    crops_seen: int
    crops_positive: int
    best_observed_iou: float
    best_ideal_iou: float


@dataclass(frozen=True)
class SimOutcome:
    seed: int
    n_crops: int
    per_face: tuple[FaceSimStat, ...]


def simulate(
    records: Iterable[ImageRecord],
    design: AnchorDesign,
    cfg: MatchConfig,
    n_crops: int,
    seed: int,
    params: CropParams = CropParams(),
) -> SimOutcome:
    """Run n_crops seeded crops per image and aggregate per-face outcomes.

    The anchor grid of the output canvas is built once; each crop assigns
    labels on it under cfg and records whether each retained face drew at
    least one positive anchor and what its best grid IoU was. Every record
    must carry pixel dimensions.
    """
    if n_crops < 0:
        raise ValueError("n_crops must be non-negative")
    record_list = list(records)
    for rec in record_list:
        if rec.width is None or rec.height is None:
            raise ValueError(f"record {rec.path!r} has no image dimensions")

    grid = generate_anchor_boxes(design, params.output_side, params.output_side)

    stats: list[FaceSimStat] = []
    for img_idx, rec in enumerate(record_list):
        idx, xywh = kept_faces(rec)
        rng = substream(seed, img_idx)
        # Per kept face, by its position in xywh.
        seen = [0] * len(idx)
        positive = [0] * len(idx)
        best_obs = [0.0] * len(idx)
        best_ideal = [0.0] * len(idx)

        rows = xywh.tolist()
        for _ in range(n_crops):
            crop = random_crop(rec.width, rec.height, rows, params, rng)
            if not crop.boxes:
                continue
            boxes = np.array(crop.boxes)
            bounds = ideal_max_iou(boxes[:, 2], boxes[:, 3] / boxes[:, 2], design).tolist()
            result = assign_labels_xywh(grid, boxes, cfg)
            for k, bound, fm in zip(crop.source_indices, bounds, result.per_face):
                seen[k] += 1
                if bound > best_ideal[k]:
                    best_ideal[k] = bound
                if fm.positive_count > 0:
                    positive[k] += 1
                if fm.max_iou > best_obs[k]:
                    best_obs[k] = fm.max_iou

        stats.extend(
            FaceSimStat(rec.path, i, seen[k], positive[k], best_obs[k], best_ideal[k])
            for k, i in enumerate(idx.tolist())
        )
    return SimOutcome(seed=seed, n_crops=n_crops, per_face=tuple(stats))
