"""Anchor label assignment: fixed-threshold SAM, the WARM variable-threshold
strategy, the anchor-compensation baseline, and aspect-ratio sampling-domain
membership tests.

assign_labels_xywh states the label contract. WARM lowers the positive
threshold linearly for faces whose aspect ratio falls in the extreme-AR
domain; with amplitude zero it degenerates to SAM exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .geometry import iou_matrix

# Label codes used in MatchResult.labels; non-negative entries are face indices.
NEGATIVE = -1
IGNORE = -2


class Strategy(Enum):
    SAM = "sam"
    SAM_COMPENSATE = "sam_compensate"
    WARM = "warm"


class DomainSide(Enum):
    LEFT = "left"
    RIGHT = "right"
    NONE = "none"


@dataclass(frozen=True)
class MatchConfig:
    """Matching strategy plus its thresholds.

    t0 is the base positive threshold, tn the negative threshold, delta the
    maximum amount WARM may lower the positive threshold, and eta0 < eta1 the
    inner/outer radii of the extreme-AR domain around anchor_ar.
    """

    strategy: Strategy = Strategy.WARM
    t0: float = 0.5
    tn: float = 0.35
    delta: float = 0.1
    eta0: float = 2.0
    eta1: float = 3.0
    anchor_ar: float = 1.0

    def __post_init__(self):
        for name in ("t0", "tn", "delta", "eta0", "eta1", "anchor_ar"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0.0 < self.t0 <= 1.0:
            raise ValueError("t0 must be in (0, 1]")
        if not 0.0 <= self.tn < 1.0:
            raise ValueError("tn must be in [0, 1)")
        if self.tn >= self.t0:
            raise ValueError("tn must be below t0")
        if self.delta < 0.0:
            raise ValueError("delta must be non-negative")
        if self.t0 - self.delta <= self.tn:
            raise ValueError("t0 - delta must stay above tn")
        if self.eta0 <= 1.0:
            raise ValueError("eta0 must be greater than 1")
        if self.eta1 <= self.eta0:
            raise ValueError("eta1 must be greater than eta0")
        if self.anchor_ar <= 0.0:
            raise ValueError("anchor_ar must be positive")

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy.value,
            "t0": self.t0,
            "tn": self.tn,
            "delta": self.delta,
            "eta0": self.eta0,
            "eta1": self.eta1,
            "anchor_ar": self.anchor_ar,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MatchConfig":
        return cls(
            strategy=Strategy(str(data["strategy"]).lower()),
            t0=float(data["t0"]),
            tn=float(data["tn"]),
            delta=float(data["delta"]),
            eta0=float(data["eta0"]),
            eta1=float(data["eta1"]),
            anchor_ar=float(data["anchor_ar"]),
        )


def arsd_contains(r: float, anchor_ar: float, eta: float) -> bool:
    """Whether aspect ratio r lies in the open sampling domain D(anchor_ar, eta),
    the union of its two halves."""
    return arsd_contains_left(r, anchor_ar, eta) or arsd_contains_right(r, anchor_ar, eta)


def arsd_contains_left(r: float, anchor_ar: float, eta: float) -> bool:
    """Left half of the sampling domain: anchor_ar/eta < r < anchor_ar."""
    if r <= 0 or anchor_ar <= 0:
        raise ValueError("aspect ratios must be positive")
    if eta <= 1:
        raise ValueError("eta must be greater than 1")
    return anchor_ar / eta < r < anchor_ar


def arsd_contains_right(r: float, anchor_ar: float, eta: float) -> bool:
    """Right half of the sampling domain: anchor_ar <= r < anchor_ar*eta."""
    if r <= 0 or anchor_ar <= 0:
        raise ValueError("aspect ratios must be positive")
    if eta <= 1:
        raise ValueError("eta must be greater than 1")
    return anchor_ar <= r < anchor_ar * eta


def extreme_domain_contains(r: float, cfg: MatchConfig) -> DomainSide:
    """Which half of the extreme-AR domain E(eta1, eta0) contains r, if any.

    E is the band between the inner and outer sampling domains:
    LEFT = (anchor_ar/eta1, anchor_ar/eta0], RIGHT = [anchor_ar*eta0, anchor_ar*eta1).
    """
    if r <= 0:
        raise ValueError("aspect ratio must be positive")
    ra = cfg.anchor_ar
    if ra / cfg.eta1 < r <= ra / cfg.eta0:
        return DomainSide.LEFT
    if ra * cfg.eta0 <= r < ra * cfg.eta1:
        return DomainSide.RIGHT
    return DomainSide.NONE


def theta(r: float, cfg: MatchConfig) -> float:
    """Threshold change rate for an extreme-AR face, in [0, 1].

    Zero at the inner (eta0) edge of the extreme domain, approaching one at
    the outer (eta1) edge; linear in between. The endpoints are the analytic
    domain boundaries, making this a pure function of r.
    """
    side = extreme_domain_contains(r, cfg)
    ra = cfg.anchor_ar
    if side is DomainSide.LEFT:
        lo, hi = ra / cfg.eta1, ra / cfg.eta0
        return (hi - r) / (hi - lo)
    if side is DomainSide.RIGHT:
        lo, hi = ra * cfg.eta0, ra * cfg.eta1
        return (r - lo) / (hi - lo)
    raise ValueError(f"aspect ratio {r} lies outside the extreme-AR domain")


def warm_threshold(r: float, cfg: MatchConfig) -> float:
    """Per-face positive threshold under WARM: t0 - delta*theta(r) inside the
    extreme-AR domain, t0 elsewhere. Always within [t0 - delta, t0]."""
    if extreme_domain_contains(r, cfg) is DomainSide.NONE:
        return cfg.t0
    return cfg.t0 - cfg.delta * theta(r, cfg)


@dataclass(frozen=True)
class FaceMatch:
    """Per-face matching statistics from one assignment run."""

    face_index: int
    max_iou: float
    positive_count: int
    effective_tp: float


@dataclass
class MatchResult:
    """Per-anchor labels plus per-face statistics.

    labels[i] is a face index (>= 0) for positive anchors, NEGATIVE, or
    IGNORE. compensated[i] marks positives added by anchor compensation,
    whose IoU may be at or below the face's effective threshold.
    """

    labels: np.ndarray
    compensated: np.ndarray
    per_face: list[FaceMatch]

    @property
    def n_anchors(self) -> int:
        return int(self.labels.shape[0])

    def positive_mask(self) -> np.ndarray:
        return self.labels >= 0

    def negative_mask(self) -> np.ndarray:
        return self.labels == NEGATIVE

    def ignore_mask(self) -> np.ndarray:
        return self.labels == IGNORE

    def label_counts(self) -> dict[str, int]:
        return {
            "positive": int(np.count_nonzero(self.positive_mask())),
            "negative": int(np.count_nonzero(self.negative_mask())),
            "ignore": int(np.count_nonzero(self.ignore_mask())),
            "compensated": int(np.count_nonzero(self.compensated)),
        }


def effective_thresholds(face_ars: Sequence[float], cfg: MatchConfig) -> np.ndarray:
    """Per-face positive thresholds for the configured strategy."""
    if cfg.strategy is Strategy.WARM:
        return np.array([warm_threshold(float(r), cfg) for r in face_ars], dtype=np.float64)
    return np.full(len(face_ars), cfg.t0, dtype=np.float64)


def assign_labels_xywh(
    anchor_xywh: np.ndarray, face_xywh: np.ndarray, cfg: MatchConfig
) -> MatchResult:
    """Assign positive/negative/ignore labels to (n, 4) xywh anchors against
    (m, 4) xywh faces.

    An anchor is positive for the face maximizing IoU among faces whose
    effective positive threshold it strictly exceeds (lowest face index on
    ties), negative when its best IoU over all faces is strictly below
    cfg.tn, and ignore otherwise. Under SAM_COMPENSATE, each face left
    without positives additionally claims its argmax-IoU anchor (lowest
    anchor index on ties) unless that anchor is already positive for another
    face; such anchors are flagged in MatchResult.compensated.

    Streams over faces rather than materializing the full IoU matrix, and
    prunes each face's column to the anchors whose boxes actually overlap it.
    The pruning is lossless: excluded pairs have IoU exactly 0, which can
    never be positive (thresholds exceed 0) and never raises a running max.
    """
    anchors = np.ascontiguousarray(np.asarray(anchor_xywh, dtype=np.float64))
    if anchors.ndim != 2 or anchors.shape[1] != 4:
        raise ValueError("anchor array must have shape (n, 4)")
    n = anchors.shape[0]
    if n == 0:
        raise ValueError("anchor list must be non-empty")
    if np.any(anchors[:, 2] <= 0) or np.any(anchors[:, 3] <= 0):
        raise ValueError("anchors must have positive dimensions")

    faces = np.asarray(face_xywh, dtype=np.float64).reshape(-1, 4)
    m = faces.shape[0]
    if m == 0:
        # No faces: every anchor is a background sample.
        return MatchResult(
            labels=np.full(n, NEGATIVE, dtype=np.int64),
            compensated=np.zeros(n, dtype=bool),
            per_face=[],
        )
    if not np.isfinite(faces).all():
        raise ValueError("faces must be finite")
    if np.any(faces[:, 2] <= 0) or np.any(faces[:, 3] <= 0):
        raise ValueError("faces must have positive dimensions")

    tp = effective_thresholds(faces[:, 3] / faces[:, 2], cfg)

    ax1 = anchors[:, 0]
    ay1 = anchors[:, 1]
    ax2 = ax1 + anchors[:, 2]
    ay2 = ay1 + anchors[:, 3]

    best_iou = np.zeros(n, dtype=np.float64)
    best_pos_iou = np.zeros(n, dtype=np.float64)
    best_pos_face = np.full(n, -1, dtype=np.int64)
    face_max = np.zeros(m, dtype=np.float64)
    face_argmax = np.zeros(m, dtype=np.int64)

    for j in range(m):
        fx1, fy1, fw, fh = faces[j]
        fx2, fy2 = fx1 + fw, fy1 + fh
        cand = (ax1 < fx2) & (ax2 > fx1) & (ay1 < fy2) & (ay2 > fy1)
        idx = np.flatnonzero(cand)
        if idx.size == 0:
            continue
        vals = iou_matrix(anchors[idx], faces[j])[:, 0]

        k = int(np.argmax(vals))
        face_max[j] = vals[k]
        face_argmax[j] = idx[k]

        best_iou[idx] = np.maximum(best_iou[idx], vals)

        # Strict > keeps the lowest face index on IoU ties.
        upd = (vals > tp[j]) & (vals > best_pos_iou[idx])
        if np.any(upd):
            sel = idx[upd]
            best_pos_iou[sel] = vals[upd]
            best_pos_face[sel] = j

    labels = np.full(n, IGNORE, dtype=np.int64)
    labels[best_iou < cfg.tn] = NEGATIVE
    positive = best_pos_face >= 0
    labels[positive] = best_pos_face[positive]

    compensated = np.zeros(n, dtype=bool)
    positive_count = np.bincount(best_pos_face[positive], minlength=m)

    if cfg.strategy is Strategy.SAM_COMPENSATE:
        for j in range(m):
            if positive_count[j] == 0:
                k = int(face_argmax[j])
                if labels[k] < 0:
                    labels[k] = j
                    compensated[k] = True
                    positive_count[j] += 1

    per_face = [
        FaceMatch(j, float(face_max[j]), int(positive_count[j]), float(tp[j]))
        for j in range(m)
    ]
    return MatchResult(labels=labels, compensated=compensated, per_face=per_face)
