"""Anchor label assignment: fixed-threshold SAM, the WARM variable-threshold
strategy, the anchor-compensation baseline, and aspect-ratio sampling-domain
membership tests. The kernel and iou_pairs score IoU by _overlap and _iou.

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
# Most candidate cells, and most (face, anchor) pairs, the kernel holds at
# once: faces are taken in slices by their cells on both axes, then (face,
# plane) groups in slices by their pairs; a slice holds at least one item.
# Each pair expanded takes a few hundred bytes of temporaries.
PAIR_BUDGET = 2**15
# Most pairs, by FacePlan.pairs, that one range of set_runs holds: ams.label_sets
# passes each range to assign_labels_xywh as one call, which holds the
# decisive pairs and the labelled rows of all its sets until it ends.
RUN_PAIRS = 2**16


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
        # Only WARM lowers the positive threshold, by up to delta.
        if self.strategy is Strategy.WARM and self.t0 - self.delta <= self.tn:
            raise ValueError(f"t0 - delta must {'stay above tn' if self.tn else 'be positive'}")
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
    return _iou(_overlap(ax1, aw, bx1, bw) * _overlap(ay1, ah, by1, bh), (aw * ah) + (bw * bh))


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

    rows are the anchor rows that a face overlaps with an IoU of at least
    cfg.tn (under cfg.tn == 0, where the background is IGNORE, an IoU above
    that face's effective threshold), and those anchor compensation claimed
    (ascending), with their row_labels and row_compensated flags; every
    other anchor carries the background label and is not compensated.
    labels and compensated build the dense per-anchor arrays on each read:
    labels[i] is a face index (>= 0) for positive anchors, NEGATIVE, or
    IGNORE; compensated[i] marks positives added by anchor compensation,
    whose IoU may be at or below the face's effective threshold.

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


def assign_labels_xywh(grid: AnchorGrid, face_xywh: np.ndarray, cfg: MatchConfig,
                       group=0, plan: FacePlan | None = None) -> MatchResult:
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

    group labels many independent sets of faces at once: face f belongs to
    set group[f], a non-negative int per face, or one int for all of them
    (the default puts every face in set 0). Each set is labelled on its own
    copy of grid: the anchor row r of set g is keyed g * len(grid) + r, and
    the result covers n_groups * len(grid) keys, n_groups being the largest
    group id plus one (a set id may have no face). Restricted to the keys of
    set g and to its faces, in the order given, the result is that of this
    function on those faces alone, with labels naming indices into
    face_xywh; a face that overlaps no anchor claims its set's first row.
    The background label is shared, so under cfg.tn == 0 a set id with no
    face reads IGNORE, not NEGATIVE. A group count whose keys would reach
    2**63 is refused before any array is built. A call holds the decisive
    pairs and labelled rows of all its sets until it ends; set_runs cuts
    sets into calls of bounded size. plan is plan_faces(grid, face_xywh,
    cfg) or its slice for exactly these faces; without one, the call plans
    its faces itself, after the group checks, to the same result.

    The cost grows with the pairs that can matter, never with the anchor
    count. Each of the plan's (face, plane) items scores each axis's cells
    alone by their overlap with the face. On a plane an anchor's IoU rises
    with each axis overlap and every rounded step is monotone, so the
    per-axis maxima give the face's max IoU exactly. Only anchors whose x
    and y cells each reach min(bar, that max) against the other axis's
    maximum are scored: they hold every pair that can decide a label, and
    the argmax, which only compensation reads. Pairs below cfg.tn are not
    kept: they decide no label, since their anchor is either negative, the
    background when cfg.tn > 0, or has a better pair. Under cfg.tn == 0 the
    background is IGNORE, so pairs at or below their face's threshold are
    not kept either. Each slice of pairs is reduced to its decisive pairs
    alone, and the slices' survivors once more at the end.
    """
    if not isinstance(grid, AnchorGrid):
        raise TypeError("anchors must be an AnchorGrid (see generate_anchor_boxes)")
    faces = np.asarray(face_xywh, dtype=np.float64).reshape(-1, 4)
    m = faces.shape[0]
    group = np.broadcast_to(np.asarray(group, dtype=np.int64), (m,))
    if m and group.min() < 0:
        raise ValueError("group ids must be non-negative")
    n_groups = int(group.max()) + 1 if m else 1
    if n_groups * len(grid) >= 2**63:
        raise ValueError(f"{n_groups} groups of {len(grid)} anchors overflow the int64 row keys")
    plan = plan_faces(grid, faces, cfg) if plan is None else plan
    # Each face's first item, and its candidate cells on both axes.
    start = np.searchsorted(plan.face, np.arange(m + 1))
    cells = np.diff(np.append(0, np.cumsum(plan.count.sum(axis=1)))[start])
    none = np.iinfo(np.int64).max
    # Each face's argmax, the lowest row at its max, is read by compensation only.
    compensate = cfg.strategy is Strategy.SAM_COMPENSATE
    face_max, face_arg = np.zeros(m), np.full(m, none)
    background = NEGATIVE if cfg.tn > 0 or m == 0 else IGNORE
    base = group * len(grid)  # each face's key of its set's row 0
    kept = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))]
    for part in _chunks(cells, PAIR_BUDGET):
        # The items of the slice's faces.
        items = slice(start[part.start], start[part.stop])
        fi, pi, area_p = plan.face[items], plan.plane[items], plan.area[items]
        (aw, ah), f, s = grid.size[pi].T, faces[fi], grid.stride[pi]
        lo_p, count_p = plan.lo[items], plan.count[items]
        gx, i, iw = _axis_hits(lo_p[:, 0], count_p[:, 0], s, aw, f[:, 0], f[:, 2])
        gy, k, ih = _axis_hits(lo_p[:, 1], count_p[:, 1], s, ah, f[:, 1], f[:, 3])
        top_w, top_h = np.zeros(fi.size), np.zeros(fi.size)  # per-axis maxima
        np.maximum.at(top_w, gx, iw)
        np.maximum.at(top_h, gy, ih)
        first = _starts(fi)  # each face's max over its items
        face_max[fi[first]] = np.maximum.reduceat(_iou(top_w * top_h, area_p),
                                                  np.flatnonzero(first))
        # A pair reaches c only if each of its cells, paired with the
        # other axis's best cell, does.
        c = np.minimum(plan.bar[fi], face_max[fi])
        x = np.flatnonzero(_iou(iw * top_h[gx], area_p[gx]) >= c[gx])
        y = np.flatnonzero(_iou(top_w[gy] * ih, area_p[gy]) >= c[gy])
        gx, i, iw, gy, k, ih = gx[x], i[x], iw[x], gy[y], k[y], ih[y]
        nx, ny = np.bincount(gx, minlength=fi.size), np.bincount(gy, minlength=fi.size)
        x0, y0 = np.cumsum(nx) - nx, np.cumsum(ny) - ny
        for sl in _chunks(nx * ny, PAIR_BUDGET):
            at, off = _expand(nx[sl] * ny[sl])
            at += sl.start
            xi, yi = x0[at] + off % nx[at], y0[at] + off // nx[at]
            p, fc = pi[at], fi[at]
            row = base[fc] + grid.first[p] + (k[yi] * grid.cells[p, 0] + i[xi]) * grid.step[p]
            val = _iou(iw[xi] * ih[yi], area_p[at])
            if compensate:
                top = val == face_max[fc]  # the argmax: the lowest row at the max
                np.minimum.at(face_arg, fc[top], row[top])
            # Pairs below tn decide no label. Under tn 0 the background is
            # IGNORE, so neither does a pair at or below its face's threshold.
            up = val > plan.tp[fc] if cfg.tn == 0 else val >= cfg.tn
            kept.append(_decisive(row[up], fc[up], val[up], plan.tp))
    # Each slice was reduced alone; several slices' survivors are reduced
    # once more, together.
    row, face, val = kept[-1]
    if len(kept) > 2:
        row, face, val = _decisive(*map(np.concatenate, zip(*kept)), plan.tp)
    first = _starts(row)
    rows = row[first]
    labels = np.full(rows.size, IGNORE)
    up = val > plan.tp[face]  # at most one pair per row: its best positive
    labels[np.cumsum(first)[up] - 1] = face[up]
    positive_count = np.bincount(face[up], minlength=m)
    compensated = np.zeros(rows.size, dtype=bool)

    if compensate:
        j = np.flatnonzero(positive_count == 0)
        # A face that overlaps no anchor takes its set's row 0 as its argmax.
        arg = np.where(face_arg[j] == none, base[j], face_arg[j])
        # Give every row a face may claim a slot: a set's row 0 may be untouched.
        claim = np.sort(np.concatenate([rows, arg]))
        claim = claim[_starts(claim)]
        if claim.size > rows.size:
            wide = np.full(claim.size, background, dtype=np.int64)
            wide[np.searchsorted(claim, rows)] = labels
            rows, labels, compensated = claim, wide, np.zeros(claim.size, dtype=bool)
        # The lowest unmatched face claims a shared slot, if it is not positive.
        slot, first = np.unique(np.searchsorted(rows, arg), return_index=True)
        free = labels[slot] < 0
        slot, j = slot[free], j[first[free]]
        labels[slot] = j
        compensated[slot] = True
        positive_count[j] = 1
    return MatchResult(n_groups * len(grid), rows, labels, compensated, background,
                       face_max, positive_count, plan.tp)


@dataclass(frozen=True)
class FacePlan:
    """The bounds pass of a block of (m, 4) xywh faces, as plan_faces makes
    it. Per face: tp, its positive threshold; bar, cfg.tn or under cfg.tn
    == 0 tp; pairs, the most (face, anchor) pairs the kernel can keep for
    it. Per listed (face, plane) item, in face order: face, plane, area (the
    area sum of face and anchor shape), and lo and count, its first
    candidate cell and cell count on x and y. plan[lo:hi] plans faces lo ..
    hi-1 alone."""

    tp: np.ndarray
    bar: np.ndarray
    pairs: np.ndarray
    face: np.ndarray
    plane: np.ndarray
    area: np.ndarray
    lo: np.ndarray
    count: np.ndarray

    def __getitem__(self, faces: slice) -> FacePlan:
        lo, hi, _ = faces.indices(self.tp.size)
        a, b = np.searchsorted(self.face, [lo, hi])
        return FacePlan(self.tp[lo:hi], self.bar[lo:hi], self.pairs[lo:hi], self.face[a:b] - lo,
                        self.plane[a:b], self.area[a:b], self.lo[a:b], self.count[a:b])


def plan_faces(grid: AnchorGrid, face_xywh, cfg: MatchConfig) -> FacePlan:
    """Check (m, 4) xywh faces and plan them on grid under cfg: list the
    (face, plane) items assign_labels_xywh scores, with their cell ranges,
    and bound each face's pairs. No cell is expanded.

    Two bounds skip the items that cannot reach min(bar, the face's max).
    The upper bound of an item is the IoU of the plane's anchor shape and
    the face's placed concentrically, built from the same area sum as every
    pair; the overlap clamp and monotone rounding keep every pair of the
    plane at or below it. The lower bound of a face is the best IoU, over
    the planes, of the anchor in the cell nearest the face's centre on each
    axis (clipped to the grid), scored as the pairs are: a real anchor's
    IoU, at most the face's max. An item whose upper bound is below
    min(bar, the lower bound) holds no pair at or above min(bar, the face's
    max): it decides no label, passes no per-axis filter and holds no
    argmax, so it is not listed. A kept pair is at or above the bar, so a
    face's pairs sum x cells times y cells over its items whose upper bound
    reaches the bar; a face off the grid has 0."""
    faces = np.asarray(face_xywh, dtype=np.float64).reshape(-1, 4)
    if not (np.abs(faces) < MAX_EXTENT).all():
        raise ValueError("faces must be finite, each value below 2**511 in magnitude")
    if np.any(faces[:, 2] <= 0) or np.any(faces[:, 3] <= 0):
        raise ValueError("faces must have positive dimensions")
    tp = (warm_threshold(faces[:, 3] / faces[:, 2], cfg) if cfg.strategy is Strategy.WARM
          else np.full(len(faces), cfg.t0))
    bar = tp if cfg.tn == 0 else np.full(len(faces), cfg.tn)
    # Per face and plane: the area sum, the IoU of the anchor in the cell
    # nearest the face's centre (its intersection built one axis at a time),
    # and the IoU of the concentric shapes, above every pair's.
    (aw, ah), fw, fh = grid.size.T, faces[:, 2:3], faces[:, 3:4]
    area = (aw * ah) + (fw * fh)
    inter = 1.0
    for f1, f_len, size, cells in zip(faces[:, :2].T, faces[:, 2:].T, grid.size.T, grid.cells.T):
        a1 = np.clip(np.floor((f1 + f_len / 2.0)[:, None] / grid.stride), 0, cells - 1)
        a1 = (a1 + 0.5) * grid.stride - size / 2.0
        inter = inter * _overlap(a1, size, f1[:, None], f_len[:, None])
    reach = _iou(inter, area).max(axis=1)
    upper = _iou(np.minimum(aw, fw) * np.minimum(ah, fh), area)
    face, plane = np.nonzero(upper >= np.minimum(bar, reach)[:, None])
    area, upper = area[face, plane], upper[face, plane]  # per listed item
    f1 = faces[face, :2]
    lo, count = _cell_range(f1, f1 + faces[face, 2:], grid.size[plane],
                            grid.stride[plane, None], grid.cells[plane])
    pairs = np.bincount(face, count.prod(axis=1) * (upper >= bar[face]), minlength=len(faces))
    return FacePlan(tp, bar, pairs, face, plane, area, lo, count)


def set_runs(plan: FacePlan, group) -> list[tuple[int, int]]:
    """Cut a plan's faces, in sets of equal consecutive group ids, into
    (lo, hi) face ranges in order: each holds whole sets whose plan.pairs
    sum is within RUN_PAIRS, or one set. No faces give no range.
    ams.label_sets makes one kernel call per range."""
    group = np.asarray(group)
    sets = np.flatnonzero(_starts(group))
    ends = np.append(sets, group.size).tolist()
    return [(ends[r.start], ends[r.stop])
            for r in _chunks(np.add.reduceat(plan.pairs, sets), RUN_PAIRS)]


def _cell_range(f1, f2, size, stride, cells):
    """First cell and cell count of the anchors, centred at (i+0.5)*stride
    with extent size, that can overlap [f1, f2] on one axis: the exact range
    widened by one cell on each side, and by a tolerance far above the
    rounding of the corner arithmetic. Broadcasts over its arguments."""
    tol = (np.abs(f1) + np.abs(f2) + size + (cells + 1) * stride) * 2.0**-40
    lo = np.clip(np.floor((f1 - size / 2.0 - tol) / stride - 0.5), 0, cells)
    hi = np.clip(np.floor((f2 + size / 2.0 + tol) / stride - 0.5) + 2, 0, cells)
    return lo.astype(np.int64), np.maximum(hi - lo, 0).astype(np.int64)


def _chunks(counts: np.ndarray, budget: int):
    """Slices of consecutive items with at most budget counts in all, or one item."""
    ends, lo = np.cumsum(counts), 0
    while lo < counts.size:
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + budget, side="right")))
        yield slice(lo, hi)
        lo = hi


def _axis_hits(lo, count, stride, size, f1, f_len):
    """(group, cell, overlap) of each cell lo[g] .. lo[g]+count[g]-1 of
    group g whose anchor, centred at (cell+0.5)*stride[g] and size[g] long,
    strictly overlaps [f1[g], f1[g]+f_len[g]]; in group order. The anchor's
    low edge comes from the same float operations as the grid rows."""
    g, off = _expand(count)
    cell = lo[g] + off
    a1 = (cell + 0.5) * stride[g] - size[g] / 2.0
    hit = np.flatnonzero((a1 < f1[g] + f_len[g]) & (a1 + size[g] > f1[g]))
    g = g[hit]
    return g, cell[hit], _overlap(a1[hit], size[g], f1[g], f_len[g])


def _overlap(a1, a_len, b1, b_len):
    """The overlap of [a1, a1+a_len] and [b1, b1+b_len], clamped as
    iou_pairs describes."""
    o = np.maximum(np.minimum(a1 + a_len, b1 + b_len) - np.maximum(a1, b1), 0.0)
    return np.minimum(o, np.minimum(a_len, b_len))


def _iou(inter, area):
    """IoU from the intersection and the sum of the two areas."""
    return inter / (area - inter)


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
