"""Annotation ingestion and synthetic corpus generation.

The parser reads the standard WIDER-style ground-truth format: repeated blocks
of an image path line, a face-count line, and that many face lines of ten
space-separated integers ("x y w h blur expression illumination invalid
occlusion pose"). A count of zero is followed by a single placeholder box line
(a quirk of the dataset files) which is discarded. Nothing is silently
dropped: zero-area boxes and invalid-flagged faces are retained and flagged,
and downstream analyses apply their own filters (the default filter drops
invalid faces and degenerate boxes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

from .geometry import Box
from .prng import SplitMix64, substream

_ATTR_RANGES = {
    "blur": (0, 2),
    "expression": (0, 1),
    "illumination": (0, 1),
    "invalid": (0, 1),
    "occlusion": (0, 2),
    "pose": (0, 1),
}


class WiderParseError(ValueError):
    """Annotation text violates the format grammar; carries the 1-based line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class FaceAnnotation:
    """One annotated face: its box plus the dataset's attribute codes."""

    box: Box
    blur: int = 0
    expression: int = 0
    illumination: int = 0
    invalid: int = 0
    occlusion: int = 0
    pose: int = 0

    def __post_init__(self):
        for name, (lo, hi) in _ATTR_RANGES.items():
            v = getattr(self, name)
            if not lo <= v <= hi:
                raise ValueError(f"{name} code {v} outside [{lo}, {hi}]")

    @property
    def degenerate(self) -> bool:
        return not self.box.is_valid()


@dataclass
class ImageRecord:
    """One image's annotations. Pixel dimensions are optional because the
    annotation files omit them; a sidecar CSV can supply them when needed."""

    path: str
    width: float | None = None
    height: float | None = None
    faces: list[FaceAnnotation] = field(default_factory=list)


def _parse_face_line(text: str, line_no: int) -> FaceAnnotation:
    fields = text.split()
    if len(fields) != 10:
        raise WiderParseError(line_no, f"expected 10 integer fields, got {len(fields)}")
    try:
        values = [int(f) for f in fields]
    except ValueError:
        raise WiderParseError(line_no, f"non-integer field in face line: {text!r}") from None
    x, y, w, h, blur, expression, illumination, invalid, occlusion, pose = values
    try:
        return FaceAnnotation(
            box=Box(float(x), float(y), float(w), float(h)),
            blur=blur,
            expression=expression,
            illumination=illumination,
            invalid=invalid,
            occlusion=occlusion,
            pose=pose,
        )
    except ValueError as exc:
        raise WiderParseError(line_no, str(exc)) from None


def parse_wider(source: str | IO[str] | Iterable[str]) -> list[ImageRecord]:
    """Parse WIDER-style annotation text into records, in file order.

    Accepts a string, an open text stream, or any iterable of lines. Raises
    WiderParseError (with a 1-based line number) on any grammar violation.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [ln.rstrip("\n").rstrip("\r") for ln in source]

    records: list[ImageRecord] = []
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

        faces: list[FaceAnnotation] = []
        expected_lines = count if count > 0 else 1
        for _ in range(expected_lines):
            if i >= n:
                raise WiderParseError(
                    i + 1, f"unexpected end of input inside block for {path!r}"
                )
            if count > 0:
                faces.append(_parse_face_line(lines[i], i + 1))
            # count == 0: the placeholder box line is discarded.
            i += 1
        records.append(ImageRecord(path=path, faces=faces))
    return records


def _int_field(value: float, what: str) -> str:
    if value != int(value):
        raise ValueError(f"cannot serialize non-integer {what} {value!r} to WIDER format")
    return str(int(value))


def serialize_wider(records: Iterable[ImageRecord]) -> str:
    """Render records back into the annotation grammar (canonical form).

    The grammar is integer-valued, so boxes with fractional coordinates are
    rejected. Empty records emit the standard all-zero placeholder line.
    """
    out: list[str] = []
    for rec in records:
        out.append(rec.path)
        out.append(str(len(rec.faces)))
        if not rec.faces:
            out.append("0 0 0 0 0 0 0 0 0 0")
            continue
        for f in rec.faces:
            out.append(
                " ".join(
                    [
                        _int_field(f.box.x, "x"),
                        _int_field(f.box.y, "y"),
                        _int_field(f.box.w, "width"),
                        _int_field(f.box.h, "height"),
                        str(f.blur),
                        str(f.expression),
                        str(f.illumination),
                        str(f.invalid),
                        str(f.occlusion),
                        str(f.pose),
                    ]
                )
            )
    return "\n".join(out) + "\n"


def iter_faces(
    records: Iterable[ImageRecord], include_invalid: bool = False
) -> Iterator[tuple[ImageRecord, int, FaceAnnotation]]:
    """Yield (record, face_index, face) applying the default corpus filter.

    face_index is the face's position within its record, so emitted rows stay
    traceable to the annotation file even when some faces are filtered out.
    """
    for rec in records:
        for idx, face in enumerate(rec.faces):
            if face.invalid and not include_invalid:
                continue
            if face.degenerate:
                continue
            yield rec, idx, face


def corpus_counts(records: Iterable[ImageRecord]) -> dict[str, int]:
    """Raw and filtered face tallies for a corpus, in one pass."""
    n_images = 0
    n_faces = 0
    n_invalid = 0
    n_degenerate = 0
    n_kept = 0
    for rec in records:
        n_images += 1
        for face in rec.faces:
            n_faces += 1
            if face.invalid:
                n_invalid += 1
            if face.degenerate:
                n_degenerate += 1
            if not face.invalid and not face.degenerate:
                n_kept += 1
    return {
        "n_images": n_images,
        "n_faces": n_faces,
        "n_invalid": n_invalid,
        "n_degenerate": n_degenerate,
        "n_kept": n_kept,
    }


@dataclass(frozen=True)
class LogUniformAR:
    """Aspect ratios drawn log-uniformly from [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not 0 < self.lo <= self.hi:
            raise ValueError("need 0 < lo <= hi")

    def ar_for(self, index: int, rng: SplitMix64) -> float:
        return self.lo * (self.hi / self.lo) ** rng.next_float()


@dataclass(frozen=True)
class FixedListAR:
    """Aspect ratios taken from a fixed list, cycled by face index."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise ValueError("values must be non-empty")
        if not all(0 < v < math.inf for v in self.values):
            raise ValueError(f"aspect ratios must be positive and finite: {self.values!r}")

    def ar_for(self, index: int, rng: SplitMix64) -> float:
        return self.values[index % len(self.values)]


def generate_synthetic(
    seed: int, n: int, law: LogUniformAR | FixedListAR
) -> list[ImageRecord]:
    """Deterministic synthetic corpus: one face per image record.

    Face widths are log-uniform in [4, 512]; aspect ratios follow the given
    law. Each face uses its own substream (seed, index), with the draw order
    fixed as width, then aspect ratio (log-uniform law only), then position.
    Image dimensions are sized to contain the face with margin.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    records: list[ImageRecord] = []
    for i in range(n):
        rng = substream(seed, i)
        w = 4.0 * (512.0 / 4.0) ** rng.next_float()
        ar = law.ar_for(i, rng)
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
                faces=[FaceAnnotation(box=Box(x, y, w, h))],
            )
        )
    return records


def ar_coverage(
    records: Iterable[ImageRecord],
    anchor_ar: float,
    eta: float,
    include_invalid: bool = False,
) -> float:
    """Fraction of (filtered) faces whose aspect ratio lies in D(anchor_ar, eta)."""
    from .matching import arsd_contains

    total = 0
    inside = 0
    for _, _, face in iter_faces(records, include_invalid=include_invalid):
        total += 1
        if arsd_contains(face.box.h / face.box.w, anchor_ar, eta):
            inside += 1
    if total == 0:
        raise ValueError("corpus has no usable faces")
    return inside / total


def read_dims_csv(source: str | IO[str]) -> dict[str, tuple[float, float]]:
    """Read a `path,width,height` sidecar CSV mapping image paths to pixel dims.

    A dimension that is not a positive finite number, or a path listed
    twice, raises ValueError naming the line.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source.read()
    dims: dict[str, tuple[float, float]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if parts[0] == "path" and line_no == 1:
            continue
        if len(parts) != 3:
            raise ValueError(f"dims CSV line {line_no}: expected path,width,height")
        try:
            w, h = float(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError(f"dims CSV line {line_no}: non-numeric dimension") from None
        if not (0 < w < math.inf and 0 < h < math.inf):
            raise ValueError(f"dims CSV line {line_no}: dimensions must be positive and finite")
        if parts[0] in dims:
            raise ValueError(f"dims CSV line {line_no}: duplicate path {parts[0]!r}")
        dims[parts[0]] = (w, h)
    return dims


def attach_dims(
    records: Iterable[ImageRecord], dims: dict[str, tuple[float, float]]
) -> list[ImageRecord]:
    """Attach sidecar dimensions to records in place; returns the list."""
    out = list(records)
    for rec in out:
        if rec.path in dims:
            rec.width, rec.height = dims[rec.path]
    return out
