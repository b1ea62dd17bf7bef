"""Hand-made corpora for tests, and the rows of per-face tables."""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

from anchorkit.corpus import FACE_COLUMNS, Corpus, ImageRecord


def record(path, boxes, width=None, height=None, invalid=()) -> ImageRecord:
    """An ImageRecord whose faces are the given (x, y, w, h) boxes with every
    attribute code 0, except the invalid flag at the positions in invalid."""
    faces = np.zeros((len(boxes), len(FACE_COLUMNS)))
    faces[:, :4] = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    faces[list(invalid), FACE_COLUMNS.index("invalid")] = 1.0
    return ImageRecord(path, width, height, faces)


def corpus(records) -> Corpus:
    """The Corpus of the given records, which may be ImageRecords or any
    objects with their path, width, height and faces, in order; a width or
    height of None becomes the NaN of an image without dims."""
    records = list(records)
    counts = np.array([len(rec.faces) for rec in records], dtype=np.int64)
    dims = [[math.nan if v is None else v for v in (rec.width, rec.height)] for rec in records]
    faces = np.concatenate([np.empty((0, len(FACE_COLUMNS))), *(rec.faces for rec in records)])
    return Corpus(np.array([rec.path for rec in records], dtype=object),
                  np.array(dims, dtype=np.float64).reshape(-1, 2), np.cumsum(counts) - counts, faces)


def images(records) -> list[tuple]:
    """Each record's path, width, height and face rows, for comparing a
    corpus's views with records made another way."""
    return [(rec.path, rec.width, rec.height, rec.faces.tolist()) for rec in records]


def rows(table) -> list[tuple]:
    """A per-face table's rows: one tuple of Python values per face, in
    field order."""
    return list(zip(*(getattr(table, f.name).tolist() for f in fields(table))))
