"""Anchor label assignment: fixed-threshold SAM, the WARM variable-threshold
strategy, the anchor-compensation baseline, and aspect-ratio sampling-domain
membership tests. iou_pairs is the one IoU routine.

assign_labels_xywh states the label contract. WARM lowers the positive
threshold linearly for faces whose aspect ratio falls in the extreme-AR
domain; with amplitude zero it degenerates to SAM exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .anchors import MAX_EXTENT, AnchorGrid

# Label codes used in MatchResult.labels; non-negative entries are face indices.
NEGATIVE = -1
IGNORE = -2
# Most candidate (face, anchor) pairs assign_labels_xywh expands at once,
# before the overlap test; a chunk of faces always holds at least one face.
PAIR_BUDGET = 2**20


class Strategy(Enum):
    SAM = "sam"
    SAM_COMPENSATE = "sam_compensate"
    WARM = "warm"


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
        return {**asdict(self), "strategy": self.strategy.value}


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


def arsd_contains(r, anchor_ar: float, eta: float):
    """Whether aspect ratio r lies in the open sampling domain D(anchor_ar, eta):
    anchor_ar/eta < r < anchor_ar*eta. r is a float, or an array checked
    elementwise."""
    if np.any(np.less_equal(r, 0)):
        raise ValueError("aspect ratios must be positive")
    if not 0 < anchor_ar < math.inf:
        raise ValueError(f"anchor_ar must be positive and finite, not {anchor_ar!r}")
    if not 1 < eta < math.inf:
        raise ValueError(f"eta must be finite and greater than 1, not {eta!r}")
    return (anchor_ar / eta < r) & (r < anchor_ar * eta)


def warm_threshold(r, cfg: MatchConfig):
    """Positive threshold under WARM for aspect ratio r, a float or an array.

    The extreme-AR domain is the band between D(anchor_ar, eta0) and
    D(anchor_ar, eta1), in two halves: (anchor_ar/eta1, anchor_ar/eta0] and
    [anchor_ar*eta0, anchor_ar*eta1). In it the threshold is t0 - delta*theta,
    where theta is zero at the inner (eta0) edge and grows linearly toward
    one at the outer (eta1) edge; elsewhere it is t0. Always within
    [t0 - delta, t0]. A float r gives a float.
    """
    r = np.asarray(r, dtype=np.float64)
    if np.any(r <= 0):
        raise ValueError("aspect ratio must be positive")
    ra, t = cfg.anchor_ar, np.full(r.shape, cfg.t0, dtype=np.float64)
    lo, hi = ra / cfg.eta1, ra / cfg.eta0
    on = (lo < r) & (r <= hi)
    t[on] = cfg.t0 - cfg.delta * ((hi - r[on]) / (hi - lo))
    lo, hi = ra * cfg.eta0, ra * cfg.eta1
    on = (lo <= r) & (r < hi)
    t[on] = cfg.t0 - cfg.delta * ((r[on] - lo) / (hi - lo))
    return float(t) if t.ndim == 0 else t


@dataclass
class MatchResult:
    """Per-anchor labels, held sparsely, plus per-face statistics.

    rows are the anchor rows that assignment touched (ascending), with their
    row_labels and row_compensated flags; every other anchor carries the
    background label and is not compensated. labels and compensated build
    the dense per-anchor arrays on each read: labels[i] is a face index
    (>= 0) for positive anchors, NEGATIVE, or IGNORE; compensated[i] marks
    positives added by anchor compensation, whose IoU may be at or below the
    face's effective threshold.

    max_iou, positive_count and effective_tp hold one element per face, in
    the order the faces were given: its best IoU over the grid, its positive
    anchors (compensated ones included) and its positive threshold.
    """

    n_anchors: int
    rows: np.ndarray
    row_labels: np.ndarray
    row_compensated: np.ndarray
    background: int
    max_iou: np.ndarray
    positive_count: np.ndarray
    effective_tp: np.ndarray

    @property
    def labels(self) -> np.ndarray:
        out = np.full(self.n_anchors, self.background, dtype=np.int64)
        out[self.rows] = self.row_labels
        return out

    @property
    def compensated(self) -> np.ndarray:
        out = np.zeros(self.n_anchors, dtype=bool)
        out[self.rows] = self.row_compensated
        return out

    def label_counts(self) -> dict[str, int]:
        counts = {
            "positive": int(np.count_nonzero(self.row_labels >= 0)),
            "negative": int(np.count_nonzero(self.row_labels == NEGATIVE)),
            "ignore": int(np.count_nonzero(self.row_labels == IGNORE)),
            "compensated": int(np.count_nonzero(self.row_compensated)),
        }
        untouched = self.n_anchors - self.rows.size
        counts["negative" if self.background == NEGATIVE else "ignore"] += untouched
        return counts


def assign_labels_xywh(grid: AnchorGrid, face_xywh: np.ndarray, cfg: MatchConfig) -> MatchResult:
    """Assign positive/negative/ignore labels to the anchors of grid against
    (m, 4) xywh faces.

    An anchor is positive for the face maximizing IoU among faces whose
    effective positive threshold it strictly exceeds (lowest face index on
    ties), negative when its best IoU over all faces is strictly below
    cfg.tn, and ignore otherwise; with no faces every anchor is negative.
    Under SAM_COMPENSATE, each face left without positives additionally
    claims its argmax-IoU anchor (lowest anchor row on ties, row 0 when it
    overlaps none) unless that anchor is already positive for another face;
    such anchors are flagged in MatchResult.compensated.

    The cost grows with the candidate pairs, never with the anchor count.
    For each face and anchor plane, the cells whose anchors can overlap the
    face form an index range, computed from the cell centres and widened by
    one cell; only the anchors in it that strictly overlap the face are
    scored. Every other pair has IoU exactly 0, which is never positive and
    never raises a max. A plane is skipped for a face when the IoU of their
    shapes placed concentrically is below cfg.tn: iou_pairs clamps each axis
    overlap to the smaller extent and rounding is monotone, so no anchor on
    it can score more, and it can make no anchor positive or ignore. A face
    whose best IoU found is below cfg.tn is scored again over every plane,
    so its max IoU and argmax are those of the whole grid.
    """
    if not isinstance(grid, AnchorGrid):
        raise TypeError("anchors must be an AnchorGrid (see generate_anchor_boxes)")
    faces = np.asarray(face_xywh, dtype=np.float64).reshape(-1, 4)
    m = faces.shape[0]
    if not (np.abs(faces) < MAX_EXTENT).all():
        raise ValueError("faces must be finite, each value below 2**511 in magnitude")
    if np.any(faces[:, 2] <= 0) or np.any(faces[:, 3] <= 0):
        raise ValueError("faces must have positive dimensions")
    if cfg.strategy is Strategy.WARM:
        tp = warm_threshold(faces[:, 3] / faces[:, 2], cfg)
    else:
        tp = np.full(m, cfg.t0, dtype=np.float64)

    # Per face and plane, and per axis (x, y): first candidate cell and count.
    corner = faces[:, None, :2]
    lo, count = _cell_range(corner, corner + faces[:, None, 2:], grid.size,
                            grid.stride[:, None], grid.cells)
    span = count[..., 0] * count[..., 1]
    # The concentric bound: each plane's anchor shape against each face
    # shape, both with their corner at (0, 0).
    bound = iou_pairs(np.hstack([np.zeros_like(grid.size), grid.size]),
                      np.hstack([np.zeros_like(faces[:, 2:]), faces[:, 2:]])[:, None])

    face_max = np.zeros(m, dtype=np.float64)
    face_arg = np.zeros(m, dtype=np.int64)
    kept = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))
    todo, counts = np.arange(m), np.where(bound < cfg.tn, 0, span)
    for _ in range(2):  # the second pass rescores, over every plane, faces below tn
        for part in _chunks(counts.sum(axis=1), PAIR_BUDGET):
            j = todo[part]
            row, face, val = pairs = _candidates(grid, faces, j, counts[part], lo[j], count[j])
            first = np.lexsort((row, -val, face))
            first = first[_starts(face[first])]
            face_max[face[first]] = val[first]
            face_arg[face[first]] = row[first]
            kept = _decisive(*map(np.concatenate, zip(kept, pairs)), tp)
        todo = np.flatnonzero(face_max < cfg.tn)
        counts = span[todo]

    row, face, val = kept
    first = _starts(row)
    rows = row[first]
    labels = np.where(val[first] < cfg.tn, NEGATIVE, IGNORE)
    up = val > tp[face]  # at most one pair per row: its best positive
    labels[np.cumsum(first)[up] - 1] = face[up]
    positive_count = np.bincount(face[up], minlength=m)
    background = NEGATIVE if cfg.tn > 0 or m == 0 else IGNORE
    compensated = np.zeros(rows.size, dtype=bool)

    if cfg.strategy is Strategy.SAM_COMPENSATE:
        # Give every row a face may claim a slot: row 0 may be untouched.
        claim = np.sort(np.concatenate([rows, face_arg[positive_count == 0]]))
        claim = claim[_starts(claim)]
        if claim.size > rows.size:
            wide = np.full(claim.size, background, dtype=np.int64)
            wide[np.searchsorted(claim, rows)] = labels
            rows, labels, compensated = claim, wide, np.zeros(claim.size, dtype=bool)
        # The lowest unmatched face claims a shared slot, if it is not positive.
        j = np.flatnonzero(positive_count == 0)
        slot, first = np.unique(np.searchsorted(rows, face_arg[j]), return_index=True)
        free = labels[slot] < 0
        slot, j = slot[free], j[first[free]]
        labels[slot] = j
        compensated[slot] = True
        positive_count[j] = 1

    return MatchResult(len(grid), rows, labels, compensated, background,
                       face_max, positive_count, tp)


def _cell_range(f1, f2, size, stride, cells):
    """First cell and cell count of the anchors, centred at (i+0.5)*stride
    with extent size, that can overlap [f1, f2] on one axis: the exact range
    widened by one cell on each side, and by a tolerance far above the
    rounding of the corner arithmetic. Broadcasts over its arguments."""
    tol = (np.abs(f1) + np.abs(f2) + size + (cells + 1) * stride) * 2.0**-40
    lo = np.clip(np.floor((f1 - size / 2.0 - tol) / stride - 0.5), 0, cells)
    hi = np.clip(np.floor((f2 + size / 2.0 + tol) / stride - 0.5) + 2, 0, cells)
    return lo.astype(np.int64), np.maximum(hi - lo, 0).astype(np.int64)


def _chunks(pairs: np.ndarray, budget: int):
    """Slices of consecutive faces with at most budget candidate pairs in
    all, or one face."""
    ends = np.cumsum(pairs)
    lo = 0
    while lo < pairs.size:
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + budget, side="right")))
        yield slice(lo, hi)
        lo = hi


def _candidates(grid, faces, j, counts, lo, count):
    """(anchor row, face, IoU) of the anchors that strictly overlap a face
    faces[j[f]], among the counts[f, p] anchors of plane p whose cells start
    at lo[f, p] and number count[f, p] per axis. The overlap test is one
    test per axis, so each axis's cells are tested once and the hits paired;
    the anchor corners come from the same float operations as the rows."""
    group = np.flatnonzero(counts.ravel())
    face, plane = j[group // counts.shape[1]], group % counts.shape[1]
    lo, count = lo.reshape(-1, 2)[group], count.reshape(-1, 2)[group]
    s, (aw, ah), f = grid.stride[plane], grid.size[plane].T, faces[face]
    gx, i, ax1 = _axis_hits(lo[:, 0], count[:, 0], s, aw, f[:, 0], f[:, 0] + f[:, 2])
    gy, k, ay1 = _axis_hits(lo[:, 1], count[:, 1], s, ah, f[:, 1], f[:, 1] + f[:, 3])
    nx, ny = np.bincount(gx, minlength=group.size), np.bincount(gy, minlength=group.size)
    at, off = _expand(nx * ny)
    xi = (np.cumsum(nx) - nx)[at] + off % nx[at]
    yi = (np.cumsum(ny) - ny)[at] + off // nx[at]
    p = plane[at]
    row = grid.first[p] + (k[yi] * grid.cells[p, 0] + i[xi]) * grid.step[p]
    val = iou_pairs(np.stack([ax1[xi], ay1[yi], aw[at], ah[at]], -1), f[at])
    return row, face[at], val


def _axis_hits(lo, count, stride, size, f1, f2):
    """(group, cell, anchor low edge) of each cell lo[g] .. lo[g]+count[g]-1
    of group g whose anchor, centred at (cell+0.5)*stride[g] and size[g]
    long, strictly overlaps [f1[g], f2[g]]; in group order."""
    g, off = _expand(count)
    cell = lo[g] + off
    a1 = (cell + 0.5) * stride[g] - size[g] / 2.0
    hit = np.flatnonzero((a1 < f2[g]) & (a1 + size[g] > f1[g]))
    return g[hit], cell[hit], a1[hit]


def _expand(count):
    """For count[g] items per group g: each item's group and its offset in it."""
    g = np.repeat(np.arange(count.size), count)
    return g, np.arange(g.size) - np.repeat(np.cumsum(count) - count, count)


def _decisive(row, face, val, tp):
    """The pairs that decide anchor labels, sorted by (row, -IoU, face): each
    row's best pair and its best pair above that pair's face threshold.
    Labels from these alone equal labels from all the pairs given."""
    order = np.lexsort((face, -val, row))
    row, face, val = row[order], face[order], val[order]
    keep = _starts(row)
    up = np.flatnonzero(val > tp[face])
    keep[up[_starts(row[up])]] = True
    return row[keep], face[keep], val[keep]


def _starts(keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in keys."""
    out = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=out[1:])
    return out
