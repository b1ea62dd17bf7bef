"""Regenerates wider_50.txt, the bundled 50-image annotation fixture.

The fixture is canonical-form WIDER text (single spaces, integer fields,
trailing newline) so that parse -> serialize reproduces it byte-for-byte.
It includes one zero-count block with the dataset's placeholder line, one
zero-width box, and one invalid-flagged face. Run from the repo root:

    python tests/data/make_fixture.py
"""

import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from oracles import substream

EVENTS = ["0--Parade", "1--Handshaking", "2--Demonstration", "3--Riot", "4--Dancing"]


def index(rng, n: int) -> int:
    """Integer in [0, n) from one float draw."""
    return min(int(rng.next_float() * n), n - 1)


def main() -> None:
    lines = []
    for i in range(50):
        rng = substream(20240501, i)
        event = EVENTS[i % len(EVENTS)]
        path = f"{event}/{event.split('--')[1]}_{i:04d}.jpg"
        lines.append(path)
        if i == 17:
            # The zero-count quirk: a count of 0 followed by a placeholder line.
            lines.append("0")
            lines.append("0 0 0 0 0 0 0 0 0 0")
            continue
        n_faces = 1 + index(rng, 6)
        lines.append(str(n_faces))
        for j in range(n_faces):
            x = index(rng, 900)
            y = index(rng, 600)
            w = 4 + index(rng, 220)
            h = 4 + index(rng, 260)
            if i == 23 and j == 0:
                w = 0  # degenerate box, retained and flagged by the parser
            blur = index(rng, 3)
            expression = index(rng, 2)
            illumination = index(rng, 2)
            invalid = 1 if (i == 31 and j == 0) else 0
            occlusion = index(rng, 3)
            pose = index(rng, 2)
            lines.append(
                f"{x} {y} {w} {h} {blur} {expression} {illumination} "
                f"{invalid} {occlusion} {pose}"
            )
    out = Path(__file__).parent / "wider_50.txt"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out} ({len(lines)} lines)")


if __name__ == "__main__":
    main()
