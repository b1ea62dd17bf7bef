"""Annotation ingestion and synthetic corpus generation.

The parser reads the standard WIDER-style ground-truth format: repeated blocks
of an image path line, a face-count line, and that many face lines of ten
space-separated integers ("x y w h blur expression illumination invalid
occlusion pose"). A count of zero is followed by a single placeholder box line
(a quirk of the dataset files) which is discarded. Each record holds its faces
as one (n, 10) float64 array in that column order (FACE_COLUMNS). Face values
are bounded by 2**53 in magnitude, so float64 holds every one exactly. Nothing
is silently dropped: zero-area boxes and invalid-flagged faces are retained,
and kept_mask is the one default filter that drops them (kept_faces applies
it to one record, face_table stacks a corpus to apply it once).
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np

from .prng import floats

FACE_COLUMNS = (
    "x", "y", "w", "h", "blur", "expression", "illumination", "invalid", "occlusion", "pose",
)
# The attribute codes' ranges, in column order after x y w h.
_ATTR_RANGES = (("blur", 0, 2), ("expression", 0, 1), ("illumination", 0, 1),
                ("invalid", 0, 1), ("occlusion", 0, 2), ("pose", 0, 1))
_ATTR_LO = np.array([lo for _, lo, _ in _ATTR_RANGES])
_ATTR_HI = np.array([hi for _, _, hi in _ATTR_RANGES])
_INVALID = FACE_COLUMNS.index("invalid")
# The largest magnitude of an accepted face value: every integer up to it is
# exact in float64, so canonical re-emission gives back the annotated value.
MAX_FACE_VALUE = 2**53
# The most faces generate_synthetic draws. A face's record takes about
# 650 B, so a corpus at the cap takes about 680 MB.
MAX_SYNTHETIC_FACES = 2**20


class WiderParseError(ValueError):
    """Annotation text violates the format grammar; carries the 1-based line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _no_faces() -> np.ndarray:
    return np.empty((0, len(FACE_COLUMNS)))


@dataclass(eq=False)
class ImageRecord:
    """One image's annotations. Pixel dimensions are optional because the
    annotation files omit them; a sidecar CSV can supply them when needed.
    faces is an (n, 10) float64 array with the columns FACE_COLUMNS."""

    path: str
    width: float | None = None
    height: float | None = None
    faces: np.ndarray = field(default_factory=_no_faces)

    def __eq__(self, other):
        if not isinstance(other, ImageRecord):
            return NotImplemented
        return ((self.path, self.width, self.height) == (other.path, other.width, other.height)
                and np.array_equal(self.faces, other.faces))


def _parse_face_line(text: str, line_no: int) -> list[float]:
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
    for name, v in zip(FACE_COLUMNS, values[:4]):
        if not -MAX_FACE_VALUE <= v <= MAX_FACE_VALUE:
            raise WiderParseError(line_no, f"{name} value too large: magnitude above 2**53")
    return [float(v) for v in values]


def _bulk_faces(face_lines: list[str]) -> np.ndarray | None:
    """face_lines as one (n, 10) float64 array from a single loadtxt call, or
    None when any line fails a check _parse_face_line makes, or when loadtxt
    cannot read a line that int() can (such as "1_0" or non-ASCII digits). A
    warning counts as a failure: older numpy parses "1.0" with a warning."""
    if not face_lines:
        return _no_faces()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.loadtxt(face_lines, dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, OverflowError, Warning):
        return None
    # loadtxt skips blank lines, so the row count is checked too.
    if values.shape != (len(face_lines), len(FACE_COLUMNS)):
        return None
    attrs, boxes = values[:, 4:], values[:, :4]
    if not (((attrs >= _ATTR_LO) & (attrs <= _ATTR_HI)).all()
            and ((boxes >= -MAX_FACE_VALUE) & (boxes <= MAX_FACE_VALUE)).all()):
        return None
    return values.astype(np.float64)


def _walk_blocks(lines: list[str]) -> tuple[list[tuple[str, int, int]], WiderParseError | None]:
    """The path and count lines of every block: each block's path, the index
    of its first face line and its number of face lines (0 for a zero-count
    block, whose placeholder line is discarded). Face lines are not read. The
    walk stops at the first grammar violation and returns it with the blocks
    before it; a block cut short by the end of input is listed with the face
    lines it has, so that a bad one among them is reported first."""
    blocks: list[tuple[str, int, int]] = []
    i = 0
    n = len(lines)
    try:
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

            blocks.append((path, i, min(count, n - i)))
            i += count if count > 0 else 1
            if i > n:
                raise WiderParseError(n + 1, f"unexpected end of input inside block for {path!r}")
    except WiderParseError as err:
        return blocks, err
    return blocks, None


def parse_wider(source: str | IO[str] | Iterable[str]) -> list[ImageRecord]:
    """Parse WIDER-style annotation text into records, in file order.

    Accepts a string, an open text stream, or any iterable of lines. A
    string is read as a stream: split at "\n" only, and a trailing "\r" is
    dropped from each line. Raises WiderParseError (with a 1-based line
    number) on any grammar violation, the earliest one in the text when
    there are several.

    The face lines are read in one bulk call and checked as arrays; only
    when a check fails are they parsed again one by one, which raises the
    first bad line's error. Each record's faces are a slice of one array.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    lines = [ln.rstrip("\n").rstrip("\r") for ln in source]

    blocks, error = _walk_blocks(lines)
    spans = [(first, first + count) for _, first, count in blocks]
    faces = _bulk_faces([ln for a, b in spans for ln in lines[a:b]])
    if faces is None:
        rows = [_parse_face_line(lines[k], k + 1) for a, b in spans for k in range(a, b)]
        faces = np.array(rows).reshape(-1, len(FACE_COLUMNS))
    if error is not None:
        raise error

    records: list[ImageRecord] = []
    start = 0
    for path, _, count in blocks:
        records.append(ImageRecord(path, faces=faces[start:start + count]))
        start += count
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
        if len(rec.faces) == 0:
            out.append("0 0 0 0 0 0 0 0 0 0")
        for row in rec.faces.tolist():
            out.append(" ".join(map(_int_field, row, FACE_COLUMNS)))
    return "\n".join(out) + "\n"


def kept_mask(faces: np.ndarray) -> np.ndarray:
    """The default corpus filter over (n, 10) face rows: True for the faces
    not flagged invalid and with positive width and height."""
    return (faces[:, _INVALID] == 0) & (faces[:, 2] > 0) & (faces[:, 3] > 0)


def kept_faces(rec: ImageRecord) -> tuple[np.ndarray, np.ndarray]:
    """The positions in rec.faces of the faces kept_mask keeps, and their
    (k, 4) xywh rows. Positions keep emitted rows traceable to the
    annotation file."""
    idx = kept_mask(rec.faces).nonzero()[0]
    return idx, rec.faces[idx, :4]


def face_table(records: list[ImageRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every face of records in corpus order: each face's record index, its
    position in that record's faces, and the (n, 10) rows stacked."""
    counts = np.array([len(rec.faces) for rec in records], dtype=np.int64)
    record = np.repeat(np.arange(len(records)), counts)
    position = np.arange(len(record)) - np.repeat(np.cumsum(counts) - counts, counts)
    return record, position, np.concatenate([_no_faces(), *(rec.faces for rec in records)])


def corpus_counts(records: Iterable[ImageRecord]) -> dict[str, int]:
    """Raw and filtered face tallies for a corpus."""
    records = list(records)
    faces = face_table(records)[2]
    return {
        "n_images": len(records),
        "n_faces": len(faces),
        "n_invalid": int(np.count_nonzero(faces[:, _INVALID])),
        "n_degenerate": int(np.count_nonzero(~((faces[:, 2] > 0) & (faces[:, 3] > 0)))),
        "n_kept": int(np.count_nonzero(kept_mask(faces))),
    }


@dataclass(frozen=True)
class LogUniformAR:
    """Aspect ratios drawn log-uniformly from [lo, hi]; lo, hi and hi/lo
    must be finite."""

    lo: float
    hi: float

    def __post_init__(self):
        if not 0 < self.lo <= self.hi:
            raise ValueError("need 0 < lo <= hi")
        if not (self.hi < math.inf and self.hi / self.lo < math.inf):
            raise ValueError(f"aspect ratio bounds lo={self.lo!r}, hi={self.hi!r} must be "
                             f"finite, and so must hi/lo")


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


def generate_synthetic(
    seed: int, n: int, law: LogUniformAR | FixedListAR
) -> list[ImageRecord]:
    """Deterministic synthetic corpus: one face per image record.

    Face widths are log-uniform in [4, 512]; aspect ratios follow the given
    law. Face i draws from PRNG stream (seed, i), in the order width, then
    aspect ratio (log-uniform law only), then x and y. Image dimensions are
    sized to contain the face with margin. Each record's face is a slice of
    one array. n above MAX_SYNTHETIC_FACES is refused before any draw.
    """
    if n <= 0:
        raise ValueError(f"synthetic corpus size must be positive, not {n}")
    if n > MAX_SYNTHETIC_FACES:
        raise ValueError(f"synthetic corpus size {n} is over the cap of {MAX_SYNTHETIC_FACES}")
    drawn = isinstance(law, LogUniformAR)
    u = floats(seed, np.arange(n), 0, 3 + drawn)
    # Python's ** on floats, which np.power can differ from in the last bit.
    w = np.array([4.0 * (512.0 / 4.0) ** v for v in u[:, 0].tolist()])
    if drawn:
        ar = np.array([law.lo * (law.hi / law.lo) ** v for v in u[:, 1].tolist()])
    else:
        ar = np.resize(law.values, n)  # the list, cycled by face index
    with np.errstate(over="ignore"):  # an infinite height is refused below
        wh = np.column_stack([w, w * ar])
    if not np.isfinite(wh).all():
        raise ValueError(f"aspect ratio law {law!r} gives a face height too large for a float")
    dims = np.maximum(640.0, np.ceil(wh) + 64.0)
    xy = 32.0 + ((dims - wh - 32.0) - 32.0) * u[:, -2:]  # uniform in [32, dims - wh - 32)
    faces = np.hstack([xy, wh, np.zeros((n, len(FACE_COLUMNS) - 4))])
    return [ImageRecord(f"synthetic/{i:05d}.jpg", width, height, faces[i:i + 1])
            for i, (width, height) in enumerate(zip(*dims.T.tolist()))]


def ar_coverage(records: Iterable[ImageRecord], anchor_ar: float, eta: float) -> float:
    """Fraction of kept faces whose aspect ratio lies in D(anchor_ar, eta)."""
    from .matching import arsd_contains

    faces = face_table(list(records))[2]
    xywh = faces[kept_mask(faces), :4]
    inside = arsd_contains(xywh[:, 3] / xywh[:, 2], anchor_ar, eta)
    if len(xywh) == 0:
        raise ValueError("corpus has no usable faces")
    return int(np.count_nonzero(inside)) / len(xywh)


def read_dims_csv(source: str | IO[str]) -> dict[str, tuple[float, float]]:
    """Read a `path,width,height` sidecar CSV mapping image paths to pixel dims.

    Lines end at "\n" only, as in parse_wider. A dimension that is not a
    positive finite number, or a path listed twice, raises ValueError naming
    the line.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return read_dims_csv(fh)
    dims: dict[str, tuple[float, float]] = {}
    for line_no, line in enumerate(source, start=1):
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
