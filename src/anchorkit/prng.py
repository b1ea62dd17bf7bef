"""Deterministic 64-bit PRNG draws: the streams of a seed as a pure function.

Simulation outputs must reproduce byte-for-byte across platforms and runs,
so the generator algorithm is pinned here instead of delegating to a library
whose stream could change between versions:

* Streams: stream ``i`` of master seed ``s`` is the 64-bit SplitMix
  sequence from state ``t = mix64(mix64(s) + i)``: its word ``k`` (k >= 1)
  is ``mix64(t + k*GAMMA)``, GAMMA being the golden-ratio constant
  0x9E3779B97F4A7C15, all mod 2**64.
* Floats: float ``p`` (p >= 0) of a stream is the top 53 bits of its word
  ``p + 1`` scaled by 2**-53, a uniform draw in [0, 1).

A float is a function of (seed, stream, position) alone, so values drawn
from one stream never depend on what was drawn from any other, and any
run of positions can be drawn at once. The words are computed in uint64
arrays, whose products wrap silently (numpy warns when scalars overflow).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(z: np.ndarray) -> np.ndarray:
    """The 64-bit SplitMix finalizer, a bijective avalanche mix, on each word
    of a uint64 array."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def floats(seed: int, stream, start: int, count: int) -> np.ndarray:
    """Floats start .. start+count-1 of stream `stream` of seed, as float64.

    stream is a non-negative int, giving shape (count,), or an array of
    them, giving one row of count floats per stream. seed is any int, taken
    mod 2**64.
    """
    stream = np.asarray(stream)
    if start < 0 or count < 0 or np.any(stream < 0):
        raise ValueError("stream, start and count must be non-negative")
    seed_word = np.array([seed & _MASK64], dtype=np.uint64)
    state = mix64(mix64(seed_word) + stream.astype(np.uint64).reshape(-1, 1))
    k = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    words = mix64(state + k * np.uint64(_GAMMA))
    return ((words >> 11) * 2.0**-53).reshape(stream.shape + (count,))
