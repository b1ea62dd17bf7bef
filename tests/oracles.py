"""Slow, obviously-correct reference implementations used to cross-check the
library's vectorized paths. Kept deliberately independent: plain Python
loops over xywh tuples, annotation lines, PRNG words and tensor elements
(and one eager numpy grid builder), no shared code with the package internals beyond its
public types. naive_simulate and naive_match_report are the exceptions:
they check how the crop simulation and the match command batch their work,
so they run the library's public kernel one crop or one image at a time."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from anchorkit.ams import ideal_max_iou
from anchorkit.anchors import generate_anchor_boxes
from anchorkit.corpus import ImageRecord, LogUniformAR, WiderParseError, kept_mask
from anchorkit.matching import assign_labels_xywh
from anchorkit.reports import LABEL_KINDS, MatchReport, MatchRow
from anchorkit.rfd import ConvSpec, RfdSpec, rfd_output_shape


def eager_anchor_rows(design, image_w, image_h):
    """(N, 4) float64 xywh rows of design's anchor grid, built eagerly: rows
    ordered by (level, row-major grid cell, size), anchors centred at
    ((i+0.5)*stride, (j+0.5)*stride). This is the array the library built
    before its grid became arithmetic; AnchorGrid must reproduce it bit for
    bit."""
    blocks = []
    for level in design.levels:
        nx = math.floor(image_w / level.stride)
        ny = math.floor(image_h / level.stride)
        xs = (np.arange(nx, dtype=np.float64) + 0.5) * level.stride
        ys = (np.arange(ny, dtype=np.float64) + 0.5) * level.stride
        sizes = np.asarray(level.sizes, dtype=np.float64)
        k = sizes.size
        cx = np.repeat(np.tile(xs, ny), k)
        cy = np.repeat(np.repeat(ys, nx), k)
        w = np.tile(sizes, nx * ny)
        h = w * design.aspect_ratio
        blocks.append(np.column_stack([cx - w / 2.0, cy - h / 2.0, w, h]))
    return np.concatenate(blocks, axis=0)


def naive_iou(a, b) -> float:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    iw = min(ax + aw, bx + bw) - max(ax, bx)
    ih = min(ay + ah, by + bh) - max(ay, by)
    if iw <= 0 or ih <= 0:
        return 0.0
    iw = min(iw, aw, bw)
    ih = min(ih, ah, bh)
    inter = iw * ih
    return inter / (aw * ah + bw * bh - inter)


def naive_assign(anchors, faces, tp_per_face, tn, compensate=False):
    """Reference label assignment over xywh tuples.

    Returns (labels, compensated, per_face_max, per_face_positive_count)
    with labels using the same encoding as the library (-1 negative,
    -2 ignore, face index when positive).
    """
    n, m = len(anchors), len(faces)
    matrix = [[naive_iou(a, f) for f in faces] for a in anchors]

    labels = []
    for i in range(n):
        best_face = -1
        best_val = 0.0
        for j in range(m):
            v = matrix[i][j]
            if v > tp_per_face[j] and v > best_val:
                best_val = v
                best_face = j
        if best_face >= 0:
            labels.append(best_face)
        elif m == 0 or max(matrix[i]) < tn:
            labels.append(-1)
        else:
            labels.append(-2)
    if m == 0:
        labels = [-1] * n

    compensated = [False] * n
    pos_count = [sum(1 for i in range(n) if labels[i] == j) for j in range(m)]
    if compensate:
        for j in range(m):
            if pos_count[j] == 0:
                best_i = 0
                best_v = matrix[0][j]
                for i in range(1, n):
                    if matrix[i][j] > best_v:
                        best_v = matrix[i][j]
                        best_i = i
                if labels[best_i] < 0:
                    labels[best_i] = j
                    compensated[best_i] = True
                    pos_count[j] += 1

    per_face_max = [max(matrix[i][j] for i in range(n)) if n else 0.0 for j in range(m)]
    return labels, compensated, per_face_max, pos_count


def naive_planes_kept(design, image_w, image_h, face, bar) -> list[int]:
    """The planes of design's grid, one per (level, size) in grid order,
    whose cells assign_labels_xywh may expand for one xywh face of bar bar,
    one plane at a time: those whose concentric IoU with the face is at
    least min(bar, the best IoU of the anchors nearest the face's centre),
    the anchor nearest on each plane being the one in the cell that holds
    the centre, clipped to the grid."""
    x, y, fw, fh = face
    upper, reach = [], 0.0
    for level in design.levels:
        nx = math.floor(image_w / level.stride)
        ny = math.floor(image_h / level.stride)
        i = min(max(math.floor((x + fw / 2.0) / level.stride), 0), nx - 1)
        j = min(max(math.floor((y + fh / 2.0) / level.stride), 0), ny - 1)
        for w in level.sizes:
            h = w * design.aspect_ratio
            inter = min(w, fw) * min(h, fh)
            upper.append(inter / ((w * h) + (fw * fh) - inter))
            near = ((i + 0.5) * level.stride - w / 2.0, (j + 0.5) * level.stride - h / 2.0, w, h)
            reach = max(reach, naive_iou(near, face))
    return [p for p, u in enumerate(upper) if u >= min(bar, reach)]


def naive_warm_threshold(r: float, cfg) -> float:
    """WARM's positive threshold for one aspect ratio r, piecewise from the
    definition: on the extreme band between D(Ra, eta0) and D(Ra, eta1),
    t0 - delta*theta with theta rising linearly from 0 at the band's inner
    (eta0) edge toward 1 at its outer (eta1) edge; t0 anywhere else. The
    inner edges belong to the band and the outer edges do not."""
    if r <= 0:
        raise ValueError("aspect ratio must be positive")
    ra = cfg.anchor_ar
    if ra / cfg.eta1 < r <= ra / cfg.eta0:
        inner, outer = ra / cfg.eta0, ra / cfg.eta1
    elif ra * cfg.eta0 <= r < ra * cfg.eta1:
        inner, outer = ra * cfg.eta0, ra * cfg.eta1
    else:
        return cfg.t0
    return cfg.t0 - cfg.delta * ((r - inner) / (outer - inner))


def naive_ideal_max_iou(face_w: float, face_ar: float, design) -> float:
    """Best IoU of one face against design's size ladder under concentric
    placement, one size at a time: the scalar loop ams.ideal_max_iou
    broadcasts, and must match bit for bit."""
    if face_w <= 0 or face_ar <= 0:
        raise ValueError("face width and aspect ratio must be positive")
    ra = design.aspect_ratio
    face_area = face_w * face_w * face_ar
    face_h = face_w * face_ar
    best = 0.0
    for s in design.sizes:
        inter = min(face_w, s) * min(face_h, s * ra)
        val = inter / (face_area + s * s * ra - inter)
        if val > best:
            best = val
    return best


_ATTR_RANGES = (("blur", 0, 2), ("expression", 0, 1), ("illumination", 0, 1),
                ("invalid", 0, 1), ("occlusion", 0, 2), ("pose", 0, 1))


def _naive_face_line(text: str, line_no: int) -> list[float]:
    fields = text.split()
    if len(fields) != 10:
        raise WiderParseError(line_no, f"expected 10 integer fields, got {len(fields)}")
    try:
        values = [int(f) for f in fields]
    except ValueError:
        raise WiderParseError(line_no, f"non-integer field in face line: {text!r}") from None
    for (name, lo, hi), v in zip(_ATTR_RANGES, values[4:]):
        if not lo <= v <= hi:
            raise WiderParseError(line_no, f"{name} code {v} outside [{lo}, {hi}]")
    for name, v in zip("xywh", values[:4]):
        if abs(v) > 2**53:
            raise WiderParseError(line_no, f"{name} value too large: magnitude above 2**53")
    return [float(v) for v in values]


def naive_parse_wider(source) -> list:
    """WIDER-style annotation text to records, one line at a time: each face
    line is parsed as it is reached, so the first bad line in the text raises
    its WiderParseError. corpus.parse_wider must give equal records, or an
    error with the same message and line. A string is split into lines at
    "\n" only, as a stream is."""
    if isinstance(source, str):
        source = io.StringIO(source)
    lines = [ln.rstrip("\n").rstrip("\r") for ln in source]

    records = []
    i = 0
    n = len(lines)
    while i < n:
        path = lines[i].strip()
        if path == "":
            # Tolerate blank lines only at the end of the file.
            j = i
            while j < n and lines[j].strip() == "":
                j += 1
            if j == n:
                break
            raise WiderParseError(i + 1, "blank line where an image path was expected")
        i += 1

        if i >= n:
            raise WiderParseError(i + 1, f"missing face count after image path {path!r}")
        count_text = lines[i].strip()
        try:
            count = int(count_text)
        except ValueError:
            raise WiderParseError(i + 1, f"expected face count, got {count_text!r}") from None
        if count < 0:
            raise WiderParseError(i + 1, f"negative face count {count}")
        i += 1

        faces = []
        expected_lines = count if count > 0 else 1
        for _ in range(expected_lines):
            if i >= n:
                raise WiderParseError(
                    i + 1, f"unexpected end of input inside block for {path!r}"
                )
            if count > 0:
                faces.append(_naive_face_line(lines[i], i + 1))
            # count == 0: the placeholder box line is discarded.
            i += 1
        records.append(ImageRecord(path, faces=np.array(faces).reshape(-1, 10)))
    return records


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """SplitMix64 finalizer on one 64-bit word, in Python ints."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Sequential SplitMix64 generator over a 64-bit state: the scalar
    reference for anchorkit.prng.floats."""

    def __init__(self, state: int):
        self._state = state & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def next_float(self) -> float:
        """Uniform draw in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()


def substream(seed: int, index: int) -> SplitMix64:
    """Child stream index of seed, started from state mix64(mix64(seed) + index)."""
    if index < 0:
        raise ValueError("substream index must be non-negative")
    return SplitMix64(_mix64(_mix64(seed & _MASK64) + index))


def naive_generate_synthetic(seed, n, law) -> list:
    """The synthetic corpus drawn one face and one float at a time from its
    own substream: width, then aspect ratio (log-uniform law only), then x
    and y. generate_synthetic must give equal records."""
    if n <= 0:
        raise ValueError(f"synthetic corpus size must be positive, not {n}")
    records = []
    for i in range(n):
        rng = substream(seed, i)
        w = 4.0 * (512.0 / 4.0) ** rng.next_float()
        if isinstance(law, LogUniformAR):
            ar = law.lo * (law.hi / law.lo) ** rng.next_float()
        else:
            ar = law.values[i % len(law.values)]
        h = w * ar
        img_w = float(max(640, math.ceil(w) + 64))
        img_h = float(max(640, math.ceil(h) + 64))
        x = rng.uniform(32.0, img_w - w - 32.0)
        y = rng.uniform(32.0, img_h - h - 32.0)
        records.append(
            ImageRecord(
                path=f"synthetic/{i:05d}.jpg",
                width=img_w,
                height=img_h,
                faces=np.array([[x, y, w, h] + [0.0] * 6]),
            )
        )
    return records


def naive_random_crop(image_w, image_h, faces, params, rng):
    """Draw one square crop and transform the faces, xywh rows, into output
    coordinates, one face at a time.

    Three draws from rng: scale index, patch x, patch y. A face is kept when
    its center lies in the half-open patch [x0, x0+side) x [y0, y0+side);
    kept boxes are clipped to the patch and scaled by output_side/side.
    Returns the kept (x, y, w, h) tuples and their indices in faces.
    """
    if image_w <= 0 or image_h <= 0:
        raise ValueError("image dimensions must be positive")
    n = len(params.scale_options)
    scale = params.scale_options[min(int(rng.next_float() * n), n - 1)]
    side = scale * min(image_w, image_h)
    x0 = rng.uniform(0.0, image_w - side)
    y0 = rng.uniform(0.0, image_h - side)
    factor = params.output_side / side
    kept, kept_idx = [], []
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
    return kept, kept_idx


def kept_faces(rec):
    """One record's kept faces, filtered on their own: the positions in
    rec.faces of the faces kept_mask keeps, and their (k, 4) xywh rows. The
    library filters a whole corpus's stacked table once; the per-record
    oracles below filter record by record, so they check that path."""
    idx = kept_mask(rec.faces).nonzero()[0]
    return idx, rec.faces[idx, :4]


def naive_simulate(records, design, cfg, n_crops, seed, params) -> dict:
    """Crop simulation aggregated one crop and one face at a time, as scalar
    counters and strictly-greater maxima. Returns the cropsim.FaceSimStat
    columns as lists, keyed by field name; simulate must give equal ones."""
    grid = generate_anchor_boxes(design, params.output_side, params.output_side)
    out = {name: [] for name in ("image", "face", "crops_seen", "crops_positive",
                                 "best_observed_iou", "best_ideal_iou")}
    for img_idx, rec in enumerate(records):
        idx, xywh = kept_faces(rec)
        rng = substream(seed, img_idx)
        seen = [0] * len(idx)
        positive = [0] * len(idx)
        best_obs = [0.0] * len(idx)
        best_ideal = [0.0] * len(idx)
        rows = xywh.tolist()
        for _ in range(n_crops):
            boxes, source = naive_random_crop(rec.width, rec.height, rows, params, rng)
            if not boxes:
                continue
            boxes = np.array(boxes)
            bounds = ideal_max_iou(boxes[:, 2], boxes[:, 3] / boxes[:, 2], design).tolist()
            result = assign_labels_xywh(grid, boxes, cfg)
            for k, bound, max_iou, count in zip(source, bounds,
                                                result.max_iou.tolist(),
                                                result.positive_count.tolist()):
                seen[k] += 1
                if bound > best_ideal[k]:
                    best_ideal[k] = bound
                if count > 0:
                    positive[k] += 1
                if max_iou > best_obs[k]:
                    best_obs[k] = max_iou
        for k, i in enumerate(idx.tolist()):
            for name, value in zip(out, (rec.path, i, seen[k], positive[k],
                                         best_obs[k], best_ideal[k])):
                out[name].append(value)
    return out


def naive_match_report(records, design, cfg) -> MatchReport:
    """The match command's report, labelled one image at a time: one
    ungrouped assign_labels_xywh call per image that keeps a face, on a grid
    built for that image's canvas (its dims, or else the smallest canvas
    aligned to the largest stride that covers its faces), with the tallies
    summed and the columns joined image by image. match must render the
    same bytes from it in every format."""
    max_stride = max(level.stride for level in design.levels)
    n_images = n_anchors = 0
    labels = dict.fromkeys(LABEL_KINDS, 0)
    f, i = np.empty(0), np.empty(0, dtype=np.int64)
    parts = [(np.empty(0, dtype=object), i, f, f, i, f)]
    for rec in records:
        idx, xywh = kept_faces(rec)
        if not len(idx):
            continue
        if rec.width is not None and rec.height is not None:
            canvas = (rec.width, rec.height)
        else:
            right = max(x + w for x, _, w, _ in xywh.tolist())
            bottom = max(y + h for _, y, _, h in xywh.tolist())
            canvas = tuple(float(max(max_stride, math.ceil(v / max_stride) * max_stride))
                           for v in (right, bottom))
        result = assign_labels_xywh(generate_anchor_boxes(design, *canvas), xywh, cfg)
        n_images += 1
        n_anchors += result.n_anchors
        for kind, count in result.label_counts().items():
            labels[kind] += count
        parts.append((np.full(len(idx), rec.path, dtype=object), idx, xywh[:, 3] / xywh[:, 2],
                      result.max_iou, result.positive_count, result.effective_tp))
    table = MatchRow(*map(np.concatenate, zip(*parts)))
    return MatchReport(cfg, n_images, n_anchors, labels, table)


@dataclass(frozen=True)
class RfdWeights:
    """Per-path (reduce, body) weight tensors, shaped (c_out, c_in, kh, kw)."""

    paths: tuple[tuple[np.ndarray, np.ndarray], ...]


def zero_weights(spec: RfdSpec) -> RfdWeights:
    return RfdWeights(
        paths=tuple(
            (
                np.zeros((p.reduce.c_out, p.reduce.c_in, p.reduce.kh, p.reduce.kw)),
                np.zeros((p.body.c_out, p.body.c_in, p.body.kh, p.body.kw)),
            )
            for p in spec.paths
        )
    )


def _check_weight(conv: ConvSpec, w: np.ndarray, what: str) -> None:
    expected = (conv.c_out, conv.c_in, conv.kh, conv.kw)
    if w.shape != expected:
        raise ValueError(f"{what} weight shape {w.shape} != {expected}")


def _conv2d_naive(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Direct convolution (cross-correlation), zero-padded by (k - 1) // 2
    per axis of its odd kernel, so shape-preserving.

    Accumulation order is fixed (input channel, then kernel row, then kernel
    column) so results are bit-stable regardless of the caller.
    """
    c_out, c_in, kh, kw = w.shape
    _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), ((kh - 1) // 2,) * 2, ((kw - 1) // 2,) * 2))
    out = np.zeros((c_out, h, wd), dtype=np.float64)
    for co in range(c_out):
        acc = out[co]
        for ci in range(c_in):
            for ky in range(kh):
                for kx in range(kw):
                    acc += w[co, ci, ky, kx] * xp[ci, ky : ky + h, kx : kx + wd]
    return out


def rfd_forward_naive(spec: RfdSpec, x: np.ndarray, weights: RfdWeights) -> np.ndarray:
    """Forward the block on a (C, H, W) tensor: per path a 1x1 reduction then
    the body convolution, concatenate along channels, add the input back.

    Purely linear (no bias, activation, or normalization), so all-zero
    weights reduce it to the identity shortcut.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError("input must be a (C, H, W) tensor")
    c, h, wd = x.shape
    if c != spec.channels:
        raise ValueError(f"input has {c} channels, spec expects {spec.channels}")
    rfd_output_shape(spec, h, wd)
    if len(weights.paths) != len(spec.paths):
        raise ValueError("weights must provide one (reduce, body) pair per path")

    outs = []
    for p, (w_reduce, w_body) in zip(spec.paths, weights.paths):
        _check_weight(p.reduce, w_reduce, "reduce")
        _check_weight(p.body, w_body, "body")
        outs.append(_conv2d_naive(_conv2d_naive(x, w_reduce), w_body))
    return np.concatenate(outs, axis=0) + x
