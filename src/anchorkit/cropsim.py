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


def _raise_to(best: np.ndarray, at: np.ndarray, values: np.ndarray) -> None:
    """best[at] = values wherever values is strictly greater."""
    up = values > best[at]
    best[at[up]] = values[up]


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

    kept = [kept_faces(rec) for rec in record_list]
    sizes = [len(idx) for idx, _ in kept]
    paths = np.array([rec.path for rec in record_list], dtype=object)
    face = np.empty(sum(sizes), dtype=np.int64)
    seen, positive = np.zeros((2, face.size), dtype=np.int64)
    best_obs, best_ideal = np.zeros((2, face.size))
    end = 0
    for img_idx, (rec, (idx, xywh)) in enumerate(zip(record_list, kept)):
        # This image's faces are rows start .. end-1 of the columns.
        start, end = end, end + len(idx)
        face[start:end] = idx
        rng = substream(seed, img_idx)
        rows = xywh.tolist()
        for _ in range(n_crops):
            crop = random_crop(rec.width, rec.height, rows, params, rng)
            if not crop.boxes:
                continue
            k = start + np.array(crop.source_indices)
            boxes = np.array(crop.boxes)
            bounds = ideal_max_iou(boxes[:, 2], boxes[:, 3] / boxes[:, 2], design)
            result = assign_labels_xywh(grid, boxes, cfg)
            seen[k] += 1
            positive[k] += result.positive_count > 0
            _raise_to(best_ideal, k, bounds)
            _raise_to(best_obs, k, result.max_iou)

    table = FaceSimStat(np.repeat(paths, sizes), face, seen, positive, best_obs, best_ideal)
    return SimOutcome(seed=seed, n_crops=n_crops, per_face=table)
