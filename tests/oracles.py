"""Slow, obviously-correct reference implementations used to cross-check the
library's vectorized paths. Kept deliberately independent: plain Python
loops over xywh tuples (and one eager numpy grid builder), no shared code
with the package internals."""

from __future__ import annotations

import math

import numpy as np


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
