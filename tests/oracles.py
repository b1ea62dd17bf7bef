"""Slow, obviously-correct reference implementations used to cross-check the
library's vectorized paths. Kept deliberately independent: plain Python
loops over xywh tuples, annotation lines and tensor elements (and one eager
numpy grid builder), no shared code with the package internals beyond its
public types. naive_simulate is the one exception: it checks only the crop
simulation's aggregation, so it runs the library's public per-crop steps."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from anchorkit.ams import ideal_max_iou
from anchorkit.anchors import generate_anchor_boxes
from anchorkit.corpus import ImageRecord, WiderParseError, kept_faces
from anchorkit.cropsim import random_crop
from anchorkit.matching import assign_labels_xywh
from anchorkit.prng import substream
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
            crop = random_crop(rec.width, rec.height, rows, params, rng)
            if not crop.boxes:
                continue
            boxes = np.array(crop.boxes)
            bounds = ideal_max_iou(boxes[:, 2], boxes[:, 3] / boxes[:, 2], design).tolist()
            result = assign_labels_xywh(grid, boxes, cfg)
            for k, bound, max_iou, count in zip(crop.source_indices, bounds,
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


def _conv2d_naive(x: np.ndarray, w: np.ndarray, pad_h: int, pad_w: int) -> np.ndarray:
    """Direct zero-padded convolution (cross-correlation), shape-preserving.

    Accumulation order is fixed (input channel, then kernel row, then kernel
    column) so results are bit-stable regardless of the caller.
    """
    c_out, c_in, kh, kw = w.shape
    _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (pad_h, pad_h), (pad_w, pad_w)))
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
        t = _conv2d_naive(x, w_reduce, p.reduce.pad_h, p.reduce.pad_w)
        t = _conv2d_naive(t, w_body, p.body.pad_h, p.body.pad_w)
        outs.append(t)
    return np.concatenate(outs, axis=0) + x
