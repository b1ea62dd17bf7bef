"""Deterministic 64-bit PRNG (SplitMix64) with derived substreams.

Simulation outputs must reproduce byte-for-byte across platforms and runs,
so the generator algorithm is pinned here instead of delegating to a library
whose stream could change between versions:

* Core generator: SplitMix64. The 64-bit state advances by the golden-ratio
  constant 0x9E3779B97F4A7C15; each output word is the finalizer mix of the
  advanced state.
* Floats: the top 53 bits of an output word scaled by 2**-53, giving a
  uniform draw in [0, 1). The k-th word after state ``s`` is
  ``mix64(s + k*GAMMA mod 2**64)``, so ``next_floats`` computes a run of
  draws at once, in uint64 arrays whose products wrap, bit-identical to
  drawing them one by one.
* Substreams: stream ``i`` of master seed ``s`` starts from state
  ``mix64(mix64(s) + i)``. Values drawn from one substream never depend on
  how many values other substreams consumed.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(z):
    """SplitMix64 finalizer: a bijective avalanche mix on 64-bit words.

    z is an int, giving an int, or a uint64 array, giving one word per
    element (array products wrap mod 2**64, so the masks are no-ops there).
    """
    z = z & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Sequential SplitMix64 generator over a 64-bit state."""

    def __init__(self, state: int):
        self._state = state & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return mix64(self._state)

    def next_float(self) -> float:
        """Uniform draw in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()

    def next_floats(self, n: int) -> np.ndarray:
        """The next n next_float() draws as one float64 array."""
        k = np.arange(1, n + 1, dtype=np.uint64)
        words = mix64(np.uint64(self._state) + k * np.uint64(_GAMMA))
        self._state = (self._state + n * _GAMMA) & _MASK64
        return (words >> 11) * 2.0**-53


def substream(seed: int, index: int) -> SplitMix64:
    """Independent child stream ``index`` of ``seed`` (see module docstring)."""
    if index < 0:
        raise ValueError("substream index must be non-negative")
    return SplitMix64(mix64(mix64(seed & _MASK64) + index))
