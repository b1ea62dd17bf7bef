"""Axis-aligned box arithmetic: areas, IoU (one pair, elementwise over
broadcast pairs, or a matrix), aspect ratio, and the best-possible
intersection of two box shapes under free placement.

Boxes are real-valued: annotation files carry integers, but crops and resizes
produce fractional coordinates, and integer quantization would distort IoU
values. Aspect ratio follows the height-over-width convention throughout
(a box of width w and aspect ratio r has height w * r).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle: top-left corner plus width and height, in px.

    Construction is permissive; every geometric operation validates its
    inputs and rejects non-positive dimensions.
    """

    x: float
    y: float
    w: float
    h: float

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def cx(self) -> float:
        return self.x + self.w / 2.0

    @property
    def cy(self) -> float:
        return self.y + self.h / 2.0

    @property
    def area(self) -> float:
        return self.w * self.h

    def is_valid(self) -> bool:
        return self.w > 0 and self.h > 0


def _check_valid(box: Box) -> None:
    if not box.is_valid():
        raise ValueError(f"invalid box (non-positive dimensions): {box}")


def aspect_ratio(box: Box) -> float:
    """Height divided by width."""
    _check_valid(box)
    return box.h / box.w


def iou_pairs(a_xywh: np.ndarray, b_xywh: np.ndarray) -> np.ndarray:
    """Elementwise IoU of two broadcastable (..., 4) xywh box arrays.

    Each axis overlap is clamped at zero and by both boxes' extents: the
    subtraction of rounded corner coordinates can otherwise exceed the true
    width by an ulp, which would push the IoU of identical thin boxes above 1.
    The clamp also means no pair of boxes can score above the IoU of their
    two shapes placed concentrically.
    """
    a = np.asarray(a_xywh, dtype=np.float64)
    b = np.asarray(b_xywh, dtype=np.float64)
    ax1, ay1, aw, ah = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bx1, by1, bw, bh = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    iw = np.maximum(np.minimum(ax1 + aw, bx1 + bw) - np.maximum(ax1, bx1), 0.0)
    ih = np.maximum(np.minimum(ay1 + ah, by1 + bh) - np.maximum(ay1, by1), 0.0)
    iw = np.minimum(iw, np.minimum(aw, bw))
    ih = np.minimum(ih, np.minimum(ah, bh))
    inter = iw * ih
    return inter / ((aw * ah) + (bw * bh) - inter)


def iou_matrix(a_xywh: np.ndarray, b_xywh: np.ndarray) -> np.ndarray:
    """Pairwise IoU of two xywh box arrays, shape (len(a), len(b)): iou_pairs
    broadcast over every (a, b) pair. Materializes the full matrix;
    anchor-scale assignment scores candidate pairs only, in
    matching.assign_labels_xywh.
    """
    a = np.asarray(a_xywh, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b_xywh, dtype=np.float64).reshape(-1, 4)
    return iou_pairs(a[:, None], b[None])


def iou(a: Box, b: Box) -> float:
    """Intersection over union, in [0, 1]. Symmetric; 1 only for identical boxes."""
    _check_valid(a)
    _check_valid(b)
    return float(iou_matrix([a.x, a.y, a.w, a.h], [b.x, b.y, b.w, b.h])[0, 0])


def ideal_max_intersection(
    face_w: float, face_ar: float, anchor_w: float, anchor_ar: float
) -> float:
    """Largest possible overlap of a face shape and an anchor shape.

    Each axis can overlap by at most the smaller of the two extents, and both
    per-axis bounds are achieved simultaneously when the boxes are concentric,
    so the bound min(w_f, w_a) * min(w_f*r_f, w_a*r_a) is tight.
    """
    if face_w <= 0 or face_ar <= 0 or anchor_w <= 0 or anchor_ar <= 0:
        raise ValueError("ideal_max_intersection requires positive dimensions and ratios")
    return min(face_w, anchor_w) * min(face_w * face_ar, anchor_w * anchor_ar)
