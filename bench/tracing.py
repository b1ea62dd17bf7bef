"""Traced in-process run of the anchorkit CLI, and the span arithmetic.

As a script, from the checkout root with `src` on PYTHONPATH:

    python bench/tracing.py SPANS_JSON <anchorkit arguments...>

it wraps the public functions in the namespaces of `anchorkit.cli`,
`anchorkit.cropsim` and `anchorkit.ams` (the calls that cross a module
boundary on every workload path), runs `anchorkit.cli.main` with the given
arguments, restores every wrapped attribute, and writes the spans, counters
and harness time to SPANS_JSON. The CLI's output goes to stdout as usual.
Nothing in `src` is edited: the wrappers replace module attributes for the
run only.

A span is named `<module>.<function>` after the module that defines the
function, and that module is its layer. `geometry` and `prng` are never
wrapped, so their time counts toward their callers.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

OWNERS = ("anchorkit.cli", "anchorkit.cropsim", "anchorkit.ams")
LAYERS = ("corpus", "anchors", "ams", "matching", "cropsim", "reports", "cli")
# Per-layer values set by the inputs of a seed and the output contract alone:
# equal across runs of one seed, so a change means the workload changed.
INPUT_FIXED = (
    "corpus.faces_parsed",
    "matching.faces_in",
    "cropsim.crops",
    "cropsim.nonempty_crop_ratio",
    "cropsim.faces_per_crop",
    "reports.bytes_out",
)


class Tracer:
    """Records one span per wrapped call: (name, start, end, parent index).

    Counting hooks run after a call returns, on a paused clock, so the time
    they take is left out of every span. It still shows in the process wall,
    so it is kept in `hook_s`.
    """

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.canvases: set = set()
        self._stack: list[int] = []
        self._saved: list = []
        self.hook_s = 0.0

    def now(self) -> float:
        return time.perf_counter() - self.hook_s

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))

        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = self.now()
            try:
                result = original(*args, **kwargs)
            finally:
                self.spans[sid] = (name, start, self.now(), parent)
                self._stack.pop()
            if hook is not None:
                t0 = time.perf_counter()
                hook(self, args, result)
                self.hook_s += time.perf_counter() - t0
            return result

        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _count_parsed(tr: Tracer, args, records) -> None:
    tr.counters["corpus.faces_parsed"] += sum(len(r.faces) for r in records)


def _count_anchors(tr: Tracer, args, boxes) -> None:
    tr.counters["anchors.rows"] += boxes.shape[0]
    tr.canvases.add((float(args[1]), float(args[2])))


def _count_pairs(tr: Tracer, args, result) -> None:
    import numpy as np

    anchors = np.asarray(args[0], dtype=np.float64)
    faces = np.asarray(args[1], dtype=np.float64).reshape(-1, 4)
    ax1, ay1 = anchors[:, 0], anchors[:, 1]
    ax2, ay2 = ax1 + anchors[:, 2], ay1 + anchors[:, 3]
    overlap = 0
    for fx, fy, fw, fh in faces:
        # The kernel's own strict-overlap predicate: the pairs it must score.
        overlap += int(np.count_nonzero(
            (ax1 < fx + fw) & (ax2 > fx) & (ay1 < fy + fh) & (ay2 > fy)))
    tr.counters["matching.faces_in"] += faces.shape[0]
    tr.counters["matching.pairs"] += anchors.shape[0] * faces.shape[0]
    tr.counters["matching.overlap_pairs"] += overlap


def _count_crop(tr: Tracer, args, crop) -> None:
    tr.counters["cropsim.crops"] += 1
    tr.counters["cropsim.nonempty_crops"] += bool(crop.boxes)
    tr.counters["cropsim.faces_in_crops"] += len(crop.boxes)


def _count_bytes(tr: Tracer, args, text) -> None:
    tr.counters["reports.bytes_out"] += len(text.encode("utf-8"))


HOOKS = {
    "corpus.parse_wider": _count_parsed,
    "anchors.generate_anchor_boxes": _count_anchors,
    "matching.assign_labels_xywh": _count_pairs,
    "cropsim.random_crop": _count_crop,
    "reports.emit_reports": _count_bytes,
}


def wrap_boundaries(tracer: Tracer) -> None:
    """Wrap every public plain function in the OWNERS namespaces."""
    import importlib

    for owner_name in OWNERS:
        owner = importlib.import_module(owner_name)
        for attr, fn in list(vars(owner).items()):
            # Generator functions return before their work is done; their
            # time stays with the caller that iterates them.
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or inspect.isgeneratorfunction(fn)
                    or not fn.__module__.startswith("anchorkit.")):
                continue
            name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
            tracer.wrap(owner, attr, name, HOOKS.get(name))


def traced_main(argv: list[str]) -> tuple[int, Tracer]:
    """Run anchorkit.cli.main(argv) with every boundary wrapped, then unwrap."""
    import anchorkit.cli

    tracer = Tracer()
    wrap_boundaries(tracer)
    try:
        code = anchorkit.cli.main(argv)
    finally:
        tracer.restore()
    return code, tracer


# ---- span arithmetic (used by the benchmark process on the dumped spans) ----

def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of percentile pct among n values (exact arithmetic)."""
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[_rank(len(sorted_values), pct) - 1]


def tail(values: list[float]) -> tuple[float, float]:
    """(value, pct) at the highest of p50/p90/p99/p99.9 with >= 10 samples beyond it.

    Falls back to the median when there are too few samples for any.
    """
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    best = 50.0
    for pct in (90.0, 99.0, 99.9):
        if len(ordered) - _rank(len(ordered), pct) >= 10:
            best = pct
    return percentile(ordered, best), best


def layer_metrics(dump: dict) -> tuple[dict, dict]:
    """Per-layer metrics, and details (layer self-time shares, the kernel's tail
    percentile), from the spans and counters of a traced run."""
    spans = dump["spans"]
    counters = Counter(dump["counters"])
    selfs = self_times(spans)
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    durations = defaultdict(list)
    for (name, start, end, _), s in zip(spans, selfs):
        total[name] += end - start
        own[name] += s
        calls[name] += 1
        durations[name].append(end - start)
    root = sum(end - start for _, start, end, parent in spans if parent < 0)
    layer_self = defaultdict(float)
    for name, s in own.items():
        layer_self[name.split(".", 1)[0]] += s
    shares = {layer: (layer_self[layer] / root if root else 0.0) for layer in LAYERS}

    kernel = "matching.assign_labels_xywh"
    k_ms = [d * 1e3 for d in durations[kernel]]
    tail_ms, tail_pct = tail(k_ms)
    pairs = counters["matching.pairs"]
    crops = counters["cropsim.crops"]
    anchor_calls = calls["anchors.generate_anchor_boxes"]

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "corpus.parse_wider.s": total["corpus.parse_wider"],
        "corpus.faces_parsed": counters["corpus.faces_parsed"],
        "ams.ideal_max_iou.s": total["ams.ideal_max_iou"],
        "ams.ideal_max_iou.calls": calls["ams.ideal_max_iou"],
        "ams.run_ams.self_s": own["ams.run_ams"],
        "anchors.generate_anchor_boxes.s": total["anchors.generate_anchor_boxes"],
        "anchors.generate_anchor_boxes.calls": anchor_calls,
        "anchors.rows": counters["anchors.rows"],
        "anchors.distinct_canvas_share": ratio(dump["distinct_canvases"], anchor_calls),
        f"{kernel}.s": total[kernel],
        f"{kernel}.calls": calls[kernel],
        f"{kernel}.call_ms_p50": percentile(sorted(k_ms), 50) if k_ms else 0.0,
        f"{kernel}.call_ms_tail": tail_ms,
        "matching.faces_in": counters["matching.faces_in"],
        "matching.pairs": pairs,
        "matching.ns_per_pair": ratio(total[kernel] * 1e9, pairs),
        "matching.overlap_share": ratio(counters["matching.overlap_pairs"], pairs),
        "cropsim.simulate.self_s": own["cropsim.simulate"],
        "cropsim.random_crop.s": total["cropsim.random_crop"],
        "cropsim.crops": crops,
        "cropsim.nonempty_crop_ratio": ratio(counters["cropsim.nonempty_crops"], crops),
        "cropsim.faces_per_crop": ratio(counters["cropsim.faces_in_crops"], crops),
        "reports.emit_reports.s": total["reports.emit_reports"],
        "reports.bytes_out": counters["reports.bytes_out"],
        "cli.self_s": layer_self["cli"],
    }
    return metrics, {"layer_shares": shares, "kernel_tail_pct": tail_pct}


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    code, tracer = traced_main(cli_argv)
    sys.stdout.flush()
    t0 = time.perf_counter()
    trace = json.dumps({
        "spans": tracer.spans,
        "counters": dict(tracer.counters),
        "distinct_canvases": len(tracer.canvases),
    })
    # Hooks and serialisation are the harness's work, not the wrappers' cost.
    harness_s = tracer.hook_s + time.perf_counter() - t0
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"harness_s": {json.dumps(harness_s)}, "trace": {trace}}}')
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
