"""Kernel sweep: assign_labels_xywh on the 640x640 detector grid (102,300
anchors) against 1, 10, 100 and 1000 faces.

As a script, from the checkout root with `src` on PYTHONPATH:

    python bench/sweep.py SEED

prints one JSON object mapping `matching.grid640_f<N>_ms` to the median
milliseconds of one call. Faces follow the distribution of the kernel's
performance test in tests/test_matching.py: widths log-uniform in [6, 200],
aspect ratios log-uniform in [0.3, 3.3], corners uniform over the canvas.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

FACE_COUNTS = (1, 10, 100, 1000)
MIN_REPS = 3
MIN_SECONDS = 0.3  # per face count, so the small cases get more repetitions


def metric_names() -> list[str]:
    return [f"matching.grid640_f{m}_ms" for m in FACE_COUNTS]


def sweep(seed: int) -> dict[str, float]:
    import numpy as np

    from anchorkit.anchors import detector_design, generate_anchor_boxes
    from anchorkit.matching import MatchConfig, assign_labels_xywh

    anchors = generate_anchor_boxes(detector_design(), 640, 640)
    rng = np.random.default_rng(seed)
    n = max(FACE_COUNTS)
    w = np.exp(rng.uniform(np.log(6), np.log(200), n))
    ar = np.exp(rng.uniform(np.log(0.3), np.log(3.3), n))
    faces = np.column_stack([rng.uniform(0, 639, n), rng.uniform(0, 639, n), w, w * ar])
    cfg = MatchConfig()
    assign_labels_xywh(anchors, faces[:10], cfg)  # warm-up
    out = {}
    for m, name in zip(FACE_COUNTS, metric_names()):
        times = []
        start = time.perf_counter()
        while len(times) < MIN_REPS or time.perf_counter() - start < MIN_SECONDS:
            t0 = time.perf_counter()
            assign_labels_xywh(anchors, faces[:m], cfg)
            times.append((time.perf_counter() - t0) * 1e3)
        out[name] = statistics.median(times)
    return out


if __name__ == "__main__":
    print(json.dumps(sweep(int(sys.argv[1]))))
