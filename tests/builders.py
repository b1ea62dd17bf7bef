"""Hand-made corpus records for tests."""

from __future__ import annotations

import numpy as np

from anchorkit.corpus import FACE_COLUMNS, ImageRecord


def record(path, boxes, width=None, height=None, invalid=()) -> ImageRecord:
    """An ImageRecord whose faces are the given (x, y, w, h) boxes with every
    attribute code 0, except the invalid flag at the positions in invalid."""
    faces = np.zeros((len(boxes), len(FACE_COLUMNS)))
    faces[:, :4] = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    faces[list(invalid), FACE_COLUMNS.index("invalid")] = 1.0
    return ImageRecord(path, width, height, faces)
