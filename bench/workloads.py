"""Seeded input generator for the benchmark workloads.

Every workload is a WIDER-format annotation file plus a `path,width,height`
dims CSV, generated from (workload name, seed) with the standard library's
PRNG, so the inputs never depend on the program under test. Sizes that set
the amount of work (faces per image, face widths, canvas heights) are drawn
by stratified sampling: each seed jitters the same quantiles, and a PRNG
fixed per workload, not the seed, deals them out to images and faces. Two
seeds then give different faces (positions, aspect ratios, attributes,
flags) with nearly the same total work and the same order of large and
small images. Peak RSS depends on that order through the allocator's
history, so fixing it keeps run-to-run spread down when every run uses a
new seed.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
from dataclasses import dataclass, field

# Every combination of the blur, expression, illumination, occlusion and pose
# codes; the invalid flag is placed separately.
_ATTRS = list(itertools.product(range(3), range(2), range(2), range(3), range(2)))
_EVENTS = ("0--Parade", "2--Demonstration", "12--Group", "20--Family_Group", "51--Dresses")

TP, DELTA = 0.5, 0.1  # the CLI defaults every workload runs with
SIM_CROPS = 200


@dataclass(frozen=True)
class Face:
    x: int
    y: int
    w: int
    h: int
    invalid: int = 0
    attrs: tuple[int, ...] = (0, 0, 0, 0, 0)

    @property
    def kept(self) -> bool:
        """The program's default filter: drop invalid-flagged and degenerate boxes."""
        return not self.invalid and self.w > 0 and self.h > 0


@dataclass
class Image:
    path: str
    width: int
    height: int
    faces: list[Face] = field(default_factory=list)


@dataclass
class Corpus:
    images: list[Image]

    def annotation_text(self) -> str:
        out: list[str] = []
        for im in self.images:
            out.append(im.path)
            out.append(str(len(im.faces)))
            if not im.faces:
                out.append("0 0 0 0 0 0 0 0 0 0")  # the dataset's zero-count placeholder
            for f in im.faces:
                b, e, il, oc, po = f.attrs
                out.append(f"{f.x} {f.y} {f.w} {f.h} {b} {e} {il} {f.invalid} {oc} {po}")
        return "\n".join(out) + "\n"

    def dims_text(self) -> str:
        rows = ["path,width,height"]
        rows += [f"{im.path},{im.width},{im.height}" for im in self.images]
        return "\n".join(rows) + "\n"

    def kept_faces(self) -> list[tuple[str, int, Face]]:
        """(path, face index, face) for every face the program keeps, in file order."""
        return [
            (im.path, idx, f) for im in self.images for idx, f in enumerate(im.faces) if f.kept
        ]

    def stats(self) -> dict:
        per_image = [len(im.faces) for im in self.images]
        faces = [f for im in self.images for f in im.faces]
        canvases = set()
        repeats = 0
        for im in self.images:
            key = (im.width, im.height)
            repeats += key in canvases
            canvases.add(key)
        return {
            "images": len(self.images),
            "faces": len(faces),
            "kept_faces": sum(f.kept for f in faces),
            "faces_per_image_p50": statistics.median(per_image),
            "faces_per_image_max": max(per_image),
            "invalid": sum(f.invalid for f in faces),
            "zero_width": sum(f.w == 0 for f in faces),
            "zero_count_blocks": per_image.count(0),
            "canvas_repeat_share": repeats / len(self.images),
        }


def _stratified(rng: random.Random, layout: random.Random, n: int, inv_cdf,
                jitter: bool = True) -> list:
    """inv_cdf at the n quantiles (k + u) / n, shuffled by layout; u is drawn
    from rng, or is 1/2 without jitter, which gives every seed the same list."""
    out = [inv_cdf((k + (rng.random() if jitter else 0.5)) / n) for k in range(n)]
    layout.shuffle(out)
    return out


def _pareto_count(lo: int, hi: int, alpha: float):
    return lambda q: min(hi, int(lo * (1.0 - q) ** (-1.0 / alpha)))


def _skewed_width(lo_log2: float, span_log2: float, power: float):
    """Widths log-spread over [2**lo, 2**(lo+span)], skewed small by power > 1."""
    return lambda q: max(1, round(2.0 ** (lo_log2 + span_log2 * q**power)))


def _aspect_ratio(rng: random.Random) -> float:
    """Height/width: mostly near WIDER's ~1.25, with a tenth spread over 0.3..4."""
    if rng.random() < 0.1:
        return math.exp(rng.uniform(math.log(0.3), math.log(4.0)))
    return min(4.0, max(0.3, math.exp(rng.gauss(math.log(1.25), 0.2))))


def _below(rng: random.Random, n: int) -> int:
    # Cheaper than randrange, which dominated generation time.
    return int(rng.random() * n)


def _face(rng: random.Random, w: int, img_w: int, img_h: int) -> Face:
    w = min(w, img_w - 1)
    h = min(max(1, round(w * _aspect_ratio(rng))), img_h - 1)
    x, y = _below(rng, img_w - w), _below(rng, img_h - h)
    return Face(x, y, w, h, 0, _ATTRS[_below(rng, len(_ATTRS))])


def _path(i: int) -> str:
    event = _EVENTS[i % len(_EVENTS)]
    return f"{event}/{event.split('--')[1]}_{i:06d}.jpg"


def _flag_invalid(rng: random.Random, images: list[Image], share: float) -> None:
    slots = [(im, j) for im in images for j in range(len(im.faces))]
    for im, j in rng.sample(slots, round(share * len(slots))):
        f = im.faces[j]
        im.faces[j] = Face(f.x, f.y, f.w, f.h, 1, f.attrs)


def _images(rng: random.Random, layout: random.Random, counts: list[int], heights: list[int],
            width_cdf) -> list[Image]:
    """1024-px-wide images with the given face counts and heights."""
    widths = iter(_stratified(rng, layout, sum(counts), width_cdf))
    images = []
    for i, (n, h) in enumerate(zip(counts, heights)):
        im = Image(_path(i), 1024, h)
        im.faces = [_face(rng, next(widths), im.width, im.height) for _ in range(n)]
        images.append(im)
    return images


def ams_corpus(rng: random.Random, layout: random.Random) -> Corpus:
    """~160k face lines over ~13k multi-face images, shaped like WIDER train."""
    counts = _stratified(rng, layout, 13_200, _pareto_count(3, 500, 1.2), jitter=False)
    heights = [600 + _below(rng, 800) for _ in counts]
    images = _images(rng, layout, counts, heights, _skewed_width(2.0, 7.2, 1.8))
    _flag_invalid(rng, images, 0.03)
    # A few zero-width faces (kept by the parser, dropped by the filter).
    for im in rng.sample(images, 25):
        f = im.faces[0]
        im.faces[0] = Face(f.x, f.y, 0, f.h, f.invalid, f.attrs)
    # Zero-count placeholder blocks.
    for k in range(60):
        empty = Image(f"placeholder/empty_{k:03d}.jpg", 1024, 768)
        images.insert(_below(rng, len(images) + 1), empty)
    return Corpus(images)


def match_crowd(rng: random.Random, layout: random.Random) -> Corpus:
    """Distinct heights near 1024 px, heavy-tailed crowds of 4 to 200 faces."""
    n_images = 36
    counts = _stratified(rng, layout, n_images, _pareto_count(4, 200, 0.8), jitter=False)
    heights = _stratified(rng, layout, n_images, lambda q: 896 + int(256 * q), jitter=False)
    images = _images(rng, layout, counts, heights, _skewed_width(2.5, 5.5, 1.5))
    _flag_invalid(rng, images, 0.03)
    return Corpus(images)


# Canvas mix for match_sparse: mostly 640x640, a few other repeated sizes.
_SPARSE_CANVASES = ((640, 640),) * 14 + (
    (1024, 768), (800, 600), (640, 480), (1280, 720), (1024, 1024), (768, 1024))


def match_sparse(rng: random.Random, layout: random.Random) -> Corpus:
    """One face per image on a few repeated canvas sizes."""
    n_images = 220
    canvases = [_SPARSE_CANVASES[k % len(_SPARSE_CANVASES)] for k in range(n_images)]
    layout.shuffle(canvases)
    widths = _stratified(rng, layout, n_images, _skewed_width(3.0, 5.5, 1.5))
    images = []
    for i, ((cw, ch), w) in enumerate(zip(canvases, widths)):
        im = Image(_path(i), cw, ch)
        im.faces = [_face(rng, w, cw, ch)]
        images.append(im)
    return Corpus(images)


def simulate_crops(rng: random.Random, layout: random.Random) -> Corpus:
    """A few images with a moderate number of faces each."""
    n_images = 5
    counts = _stratified(rng, layout, n_images, lambda q: 4 + int(7 * q), jitter=False)
    heights = _stratified(rng, layout, n_images, lambda q: 680 + int(344 * q), jitter=False)
    return Corpus(_images(rng, layout, counts, heights, _skewed_width(3.5, 4.0, 1.3)))


def setup_corpus(rng: random.Random) -> Corpus:
    """One image, one face: the smallest input every subcommand accepts."""
    im = Image(_path(0), 640, 640)
    im.faces = [_face(rng, 48, im.width, im.height)]
    return Corpus([im])


GENERATORS = {
    "ams_corpus": ams_corpus,
    "match_crowd": match_crowd,
    "match_sparse": match_sparse,
    "simulate_crops": simulate_crops,
}


def cli_args(workload: str, annotations: str, dims: str, setup: bool = False) -> list[str]:
    """The `anchorkit` argument list for a workload (setup: one crop for simulate)."""
    if workload == "ams_corpus":
        return ["ams", "--annotations", annotations]
    if workload in ("match_crowd", "match_sparse"):
        strategy = "warm" if workload == "match_crowd" else "sam_compensate"
        return ["match", "--annotations", annotations, "--dims", dims,
                "--strategy", strategy, "--design", "detector"]
    crops = 1 if setup else SIM_CROPS
    return ["simulate", "--annotations", annotations, "--dims", dims, "--crops", str(crops)]


def generate(workload: str, seed: int, setup: bool = False) -> Corpus:
    """The corpus for (workload, seed); setup=True gives the one-face input."""
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}:{'setup' if setup else 'run'}")
    if setup:
        return setup_corpus(rng)
    return GENERATORS[workload](rng, random.Random(f"{workload}:layout"))
