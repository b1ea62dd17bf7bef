"""Anchor pyramid designs and deterministic anchor-grid generation.

Two stock designs are provided: the five-level detector pyramid (square
anchors, sizes 4..512 on a sqrt(2) ladder over strides 4..64) and the
single-level high-recall ladder used for ideal-placement analysis, where
spatial stride is irrelevant and only the size ladder matters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)
# Longest size ladder ladder_design builds: steps near 1 would otherwise ask
# for millions of rungs (1.0000001 gives about 48.5M).
MAX_LADDER_RUNGS = 1024
# Most anchors generate_anchor_boxes builds for one canvas (512 MiB as
# float64 xywh): a long ladder at stride 1 would otherwise ask for tens of GB.
MAX_GRID_ROWS = 2**24


@dataclass(frozen=True)
class PyramidLevel:
    """One pyramid level: grid spacing plus the anchor side lengths tiled on it."""

    name: str
    stride: float
    sizes: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(float(s) for s in self.sizes))
        if not all(map(math.isfinite, (self.stride, *self.sizes))):
            raise ValueError(f"level {self.name!r}: stride and sizes must be finite")
        if self.stride <= 0:
            raise ValueError(f"level {self.name!r}: stride must be positive")
        if not self.sizes:
            raise ValueError(f"level {self.name!r}: sizes must be non-empty")
        if any(s <= 0 for s in self.sizes):
            raise ValueError(f"level {self.name!r}: sizes must be positive")
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError(f"level {self.name!r}: sizes must be strictly increasing")


@dataclass(frozen=True)
class AnchorDesign:
    """A pyramid of levels sharing a single anchor aspect ratio (height/width)."""

    levels: tuple[PyramidLevel, ...]
    aspect_ratio: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ValueError("design needs at least one level")
        if not math.isfinite(self.aspect_ratio) or self.aspect_ratio <= 0:
            raise ValueError("aspect_ratio must be positive and finite")
        pooled = sorted(s for lv in self.levels for s in lv.sizes)
        if any(b <= a for a, b in zip(pooled, pooled[1:])):
            raise ValueError("anchor sizes must be distinct across levels")

    @property
    def sizes(self) -> tuple[float, ...]:
        """All anchor side lengths across levels, ascending."""
        return tuple(sorted(s for lv in self.levels for s in lv.sizes))

    def to_json_dict(self) -> dict:
        return {
            "levels": [
                {"name": lv.name, "stride": lv.stride, "sizes": list(lv.sizes)}
                for lv in self.levels
            ],
            "aspect_ratio": self.aspect_ratio,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AnchorDesign":
        """Build a design from its JSON form. A missing field, or a field of
        the wrong type, raises ValueError naming it."""
        levels = []
        for i, lv in enumerate(_field(data, "levels", list, "design")):
            where = f"levels[{i}]"
            sizes = _field(lv, "sizes", list, where)
            if any(isinstance(s, bool) or not isinstance(s, _NUMBER) for s in sizes):
                raise ValueError(f"{where}.sizes must hold numbers only")
            stride = float(_field(lv, "stride", _NUMBER, where))
            levels.append(PyramidLevel(_field(lv, "name", str, where), stride, tuple(sizes)))
        aspect_ratio = float(_field(data, "aspect_ratio", _NUMBER, "design"))
        return cls(levels=tuple(levels), aspect_ratio=aspect_ratio)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "AnchorDesign":
        return cls.from_json_dict(json.loads(text))


_NUMBER = (int, float)


def _field(obj, key: str, kind, where: str):
    """obj[key] of type kind, where obj is the JSON value at path `where` in
    a design file. true and false are no numbers, though bool is an int."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    if key not in obj:
        raise ValueError(f"{where} is missing field {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{where}.{key} has the wrong type: {value!r}")
    return value


def detector_design() -> AnchorDesign:
    """The five-level detector pyramid with square anchors."""
    s = SQRT2
    return AnchorDesign(
        levels=(
            PyramidLevel("P2", 4.0, (4.0, 4.0 * s, 8.0)),
            PyramidLevel("P3", 8.0, (8.0 * s, 16.0, 16.0 * s)),
            PyramidLevel("P4", 16.0, (32.0, 32.0 * s, 64.0)),
            PyramidLevel("P5", 32.0, (64.0 * s, 128.0, 128.0 * s)),
            PyramidLevel("P6", 64.0, (256.0, 256.0 * s, 512.0)),
        ),
        aspect_ratio=1.0,
    )


def ladder_design(
    aspect_ratio: float,
    scale_step: float = SQRT2,
    min_size: float = 4.0,
    max_size: float = 512.0,
) -> AnchorDesign:
    """Single-level geometric scale ladder, min_size up to max_size.

    Spatial stride is irrelevant for ideal-placement analysis; it is set to 1
    so the design can still be instantiated on a grid when needed. A ladder
    longer than MAX_LADDER_RUNGS is refused before any size is computed.
    """
    if not all(map(math.isfinite, (aspect_ratio, scale_step, min_size, max_size))):
        raise ValueError("ladder parameters must be finite")
    if aspect_ratio <= 0:
        raise ValueError("aspect_ratio must be positive")
    if scale_step <= 1:
        raise ValueError("scale_step must be greater than 1")
    if min_size <= 0 or max_size < min_size:
        raise ValueError("need 0 < min_size <= max_size")
    count = math.floor(math.log(max_size / min_size) / math.log(scale_step) + 1e-9) + 1
    if count > MAX_LADDER_RUNGS:
        raise ValueError(f"scale_step {scale_step!r} asks for {count} sizes, "
                         f"over the cap of {MAX_LADDER_RUNGS}")
    if scale_step == SQRT2:
        # Half-power-of-two rungs keep the integer sizes (4, 8, ..., 512)
        # exact; the accumulated power form would drift by a few ulps.
        base = math.log2(min_size)
        sizes = tuple(2.0 ** (base + 0.5 * k) for k in range(count))
    else:
        sizes = tuple(min_size * scale_step**k for k in range(count))
    return AnchorDesign(
        levels=(PyramidLevel("L0", 1.0, sizes),), aspect_ratio=aspect_ratio
    )


def ams_design(aspect_ratio: float) -> AnchorDesign:
    """The high-recall analysis ladder: sizes 4..512 stepped by sqrt(2)."""
    return ladder_design(aspect_ratio)


class AnchorGrid:
    """The anchors of one design on one canvas, held as arithmetic.

    One plane per (level, size), in the arrays stride, size (w, h), cells
    (nx, ny), first and step: the plane's anchor in cell (i, j) is centred
    at ((i+0.5)*stride, (j+0.5)*stride), w wide and h = w * aspect_ratio
    high, not clipped to the image (clipping would change IoU values), and
    is row first + (j*nx + i)*step. Rows are thus ordered by (level,
    row-major grid cell, size). len() and shape come from the plane table;
    np.asarray(grid) builds the (N, 4) float64 xywh rows. A canvas with no
    cells, more than MAX_GRID_ROWS anchors, or an anchor height of 0 or inf
    is refused before any array is built.
    """

    def __init__(self, design: AnchorDesign, image_w: float, image_h: float):
        if image_w <= 0 or image_h <= 0:
            raise ValueError("image dimensions must be positive")
        self._levels, planes, rows = [], [], 0
        for level in design.levels:
            nx = math.floor(image_w / level.stride)
            ny = math.floor(image_h / level.stride)
            if nx <= 0 or ny <= 0:
                raise ValueError(
                    f"level {level.name!r}: stride {level.stride} leaves no grid cells "
                    f"in a {image_w}x{image_h} image"
                )
            if not all(0 < s * design.aspect_ratio < math.inf for s in level.sizes):
                raise ValueError(f"level {level.name!r}: size * aspect_ratio must be "
                                 f"a positive finite anchor height")
            k = len(level.sizes)
            planes += [(level.stride, s, s * design.aspect_ratio, nx, ny, rows + t, k)
                       for t, s in enumerate(level.sizes)]
            self._levels.append((level, nx, ny))
            rows += nx * ny * k
        if rows > MAX_GRID_ROWS:
            raise ValueError(f"a {image_w}x{image_h} canvas asks for {rows} anchors, "
                             f"over the cap of {MAX_GRID_ROWS}")
        self.design, self.image_w, self.image_h, self._rows = design, image_w, image_h, rows
        stride, w, h, nx, ny, first, step = zip(*planes)
        self.stride = np.array(stride, dtype=np.float64)
        self.size = np.column_stack([w, h]).astype(np.float64)  # anchor w, h
        self.cells = np.column_stack([nx, ny]).astype(np.int64)  # cells across, down
        self.first = np.array(first, dtype=np.int64)
        self.step = np.array(step, dtype=np.int64)

    def __len__(self) -> int:
        return self._rows

    @property
    def shape(self) -> tuple[int, int]:
        return (self._rows, 4)

    def __array__(self, dtype=None, copy=None):
        blocks = []
        for level, nx, ny in self._levels:
            xs = (np.arange(nx, dtype=np.float64) + 0.5) * level.stride
            ys = (np.arange(ny, dtype=np.float64) + 0.5) * level.stride
            sizes = np.asarray(level.sizes, dtype=np.float64)
            k = sizes.size
            cx = np.repeat(np.tile(xs, ny), k)
            cy = np.repeat(np.repeat(ys, nx), k)
            w = np.tile(sizes, nx * ny)
            h = w * self.design.aspect_ratio
            blocks.append(np.column_stack([cx - w / 2.0, cy - h / 2.0, w, h]))
        rows = np.concatenate(blocks, axis=0)
        return rows if dtype is None else rows.astype(dtype, copy=False)


def generate_anchor_boxes(design: AnchorDesign, image_w: float, image_h: float) -> AnchorGrid:
    """The anchor grid of design on an image_w x image_h canvas; see AnchorGrid."""
    return AnchorGrid(design, image_w, image_h)


def load_design(path: str) -> AnchorDesign:
    """Load an AnchorDesign from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return AnchorDesign.from_json(fh.read())
