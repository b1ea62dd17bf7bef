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
the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .anchors import AnchorDesign
from .corpus import ImageRecord, face_table, kept_mask

# Faces per ideal_max_iou call in run_ams. Each call builds a few
# (faces x sizes) temporaries, so the block bounds their memory; the
# values do not depend on it.
FACE_BLOCK = 8192


@dataclass(frozen=True)
class FaceMatchStat:
    """The per-face table of an ams report: one column per field, in output
    order, with one element per kept face in corpus order. Each face's
    image path, its position in that record's faces (as corpus.kept_faces
    gives it), its aspect ratio and width, its ideal max IoU, and whether
    that is strictly above the threshold."""

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


def run_ams(
    records: Iterable[ImageRecord], design: AnchorDesign, t_p: float
) -> tuple[AmsReport, FaceMatchStat]:
    """Simulate matching over a corpus: compute each kept face's ideal max
    IoU, mark it matched when strictly above t_p, and report the matched-AR
    range, with the per-face table. Faces are kept by corpus.kept_mask, and
    scored FACE_BLOCK at a time.
    """
    if not 0.0 <= t_p <= 1.0:
        raise ValueError("t_p must be in [0, 1]")
    records = list(records)
    record, position, faces = face_table(records)
    keep = kept_mask(faces)
    w = faces[keep, 2]
    ar = faces[keep, 3] / w
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
    paths = np.array([rec.path for rec in records], dtype=object)
    return report, FaceMatchStat(paths[record[keep]], position[keep], ar, w, best, matched)
