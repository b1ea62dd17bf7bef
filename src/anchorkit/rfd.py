"""Structural model of the receptive-field-diversity (RFD) feature block.

The block has four parallel paths, each a 1x1 convolution reducing channels
to a quarter followed by a body convolution with kernels 3x1, 1x3, 3x3, and
5x5 (shape-preserving padding), whose outputs are concatenated back to the
input width and summed with an identity shortcut. This module captures the
block exactly at the structural level: shape propagation, receptive-field
arithmetic, parameter counting, and a naive linear forward for verification.
Activations and normalization are intentionally absent; the linear model is
all the structural claims need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BODY_KERNELS: tuple[tuple[int, int], ...] = ((3, 1), (1, 3), (3, 3), (5, 5))
_MIN_SPATIAL = 5  # the largest kernel must fit


@dataclass(frozen=True)
class ConvSpec:
    """One convolution layer: odd kernel, shape-preserving padding."""

    kh: int
    kw: int
    c_in: int
    c_out: int
    pad_h: int
    pad_w: int

    def __post_init__(self):
        if self.kh < 1 or self.kh % 2 == 0 or self.kw < 1 or self.kw % 2 == 0:
            raise ValueError("kernel dims must be odd and >= 1")
        if self.c_in < 1 or self.c_out < 1:
            raise ValueError("channel counts must be positive")
        if self.pad_h != (self.kh - 1) // 2 or self.pad_w != (self.kw - 1) // 2:
            raise ValueError("padding must be (k - 1) / 2 per axis")

    def param_count(self, include_bias: bool = False) -> int:
        n = self.kh * self.kw * self.c_in * self.c_out
        return n + self.c_out if include_bias else n


@dataclass(frozen=True)
class RfdPath:
    reduce: ConvSpec
    body: ConvSpec


@dataclass(frozen=True)
class RfdSpec:
    """Four-path block spec over C channels; the shortcut is the identity."""

    channels: int
    paths: tuple[RfdPath, ...]

    def __post_init__(self):
        if self.channels <= 0 or self.channels % 4 != 0:
            raise ValueError("channels must be a positive multiple of 4")
        if len(self.paths) != 4:
            raise ValueError("spec must have exactly 4 paths")
        quarter = self.channels // 4
        for p in self.paths:
            if p.reduce.c_in != self.channels or p.reduce.c_out != quarter:
                raise ValueError("each reduction must map C -> C/4")
            if p.reduce.kh != 1 or p.reduce.kw != 1:
                raise ValueError("reductions must be 1x1 convolutions")
            if p.body.c_in != quarter or p.body.c_out != quarter:
                raise ValueError("each body must map C/4 -> C/4")
        if sum(p.body.c_out for p in self.paths) != self.channels:
            raise ValueError("concatenated path outputs must restore C channels")


def rfd_spec(channels: int) -> RfdSpec:
    """The canonical four-path spec for a given channel width."""
    if channels <= 0 or channels % 4 != 0:
        raise ValueError("channels must be a positive multiple of 4")
    quarter = channels // 4
    paths = tuple(
        RfdPath(
            reduce=ConvSpec(1, 1, channels, quarter, 0, 0),
            body=ConvSpec(kh, kw, quarter, quarter, (kh - 1) // 2, (kw - 1) // 2),
        )
        for kh, kw in BODY_KERNELS
    )
    return RfdSpec(channels=channels, paths=paths)


def rfd_output_shape(spec: RfdSpec, h: int, w: int) -> tuple[int, int, int]:
    """Output (channels, h, w); the block preserves both channels and space."""
    if h < _MIN_SPATIAL or w < _MIN_SPATIAL:
        raise ValueError(f"spatial dims must be at least {_MIN_SPATIAL}")
    return (spec.channels, h, w)


def rfd_param_count(channels: int, include_bias: bool = False) -> int:
    """Weight count for the block, summed over its convolution layers:
    3.5 * C^2, plus 2C biases when counted."""
    return sum(
        conv.param_count(include_bias)
        for p in rfd_spec(channels).paths
        for conv in (p.reduce, p.body)
    )


def rfd_receptive_fields(spec: RfdSpec) -> list[tuple[int, int]]:
    """Composed receptive field per path, plus the shortcut's.

    Composition rule per axis: rf = 1 + sum(k - 1) over the layers, so each
    path's RF equals its body kernel (the 1x1 adds nothing) and the identity
    shortcut contributes (1, 1).
    """
    fields = []
    for p in spec.paths:
        rf_h = 1 + (p.reduce.kh - 1) + (p.body.kh - 1)
        rf_w = 1 + (p.reduce.kw - 1) + (p.body.kw - 1)
        fields.append((rf_h, rf_w))
    fields.append((1, 1))
    return fields


@dataclass(frozen=True)
class RfdWeights:
    """Per-path (reduce, body) weight tensors, shaped (c_out, c_in, kh, kw)."""

    paths: tuple[tuple[np.ndarray, np.ndarray], ...]


def zero_weights(spec: RfdSpec) -> RfdWeights:
    return RfdWeights(
        paths=tuple(
            (
                np.zeros((p.reduce.c_out, p.reduce.c_in, p.reduce.kh, p.reduce.kw)),
                np.zeros((p.body.c_out, p.body.c_in, p.body.kh, p.body.kw)),
            )
            for p in spec.paths
        )
    )


def _check_weight(conv: ConvSpec, w: np.ndarray, what: str) -> None:
    expected = (conv.c_out, conv.c_in, conv.kh, conv.kw)
    if w.shape != expected:
        raise ValueError(f"{what} weight shape {w.shape} != {expected}")


def _conv2d_naive(x: np.ndarray, w: np.ndarray, pad_h: int, pad_w: int) -> np.ndarray:
    """Direct zero-padded convolution (cross-correlation), shape-preserving.

    Accumulation order is fixed (input channel, then kernel row, then kernel
    column) so results are bit-stable regardless of the caller.
    """
    c_out, c_in, kh, kw = w.shape
    _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (pad_h, pad_h), (pad_w, pad_w)))
    out = np.zeros((c_out, h, wd), dtype=np.float64)
    for co in range(c_out):
        acc = out[co]
        for ci in range(c_in):
            for ky in range(kh):
                for kx in range(kw):
                    acc += w[co, ci, ky, kx] * xp[ci, ky : ky + h, kx : kx + wd]
    return out


def rfd_forward_naive(spec: RfdSpec, x: np.ndarray, weights: RfdWeights) -> np.ndarray:
    """Forward the block on a (C, H, W) tensor: per path a 1x1 reduction then
    the body convolution, concatenate along channels, add the input back.

    Purely linear (no bias, activation, or normalization), so all-zero
    weights reduce it to the identity shortcut.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError("input must be a (C, H, W) tensor")
    c, h, wd = x.shape
    if c != spec.channels:
        raise ValueError(f"input has {c} channels, spec expects {spec.channels}")
    rfd_output_shape(spec, h, wd)
    if len(weights.paths) != len(spec.paths):
        raise ValueError("weights must provide one (reduce, body) pair per path")

    outs = []
    for p, (w_reduce, w_body) in zip(spec.paths, weights.paths):
        _check_weight(p.reduce, w_reduce, "reduce")
        _check_weight(p.body, w_body, "body")
        t = _conv2d_naive(x, w_reduce, p.reduce.pad_h, p.reduce.pad_w)
        t = _conv2d_naive(t, w_body, p.body.pad_h, p.body.pad_w)
        outs.append(t)
    return np.concatenate(outs, axis=0) + x
