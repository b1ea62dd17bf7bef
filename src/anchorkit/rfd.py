"""Structural model of the receptive-field-diversity (RFD) feature block.

The block is a function of its channel width C: four parallel paths, each a
1x1 convolution reducing C to C/4 followed by a body convolution with
kernels 3x1, 1x3, 3x3, and 5x5, whose outputs are concatenated back to C
and summed with an identity shortcut. Each odd kernel k is padded by
(k - 1) / 2, so every layer preserves space. This module captures the
block exactly at the structural level: shape propagation, receptive-field
arithmetic and parameter counting. Activations and normalization are
intentionally absent; the structure is all the claims need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

BODY_KERNELS: tuple[tuple[int, int], ...] = ((3, 1), (1, 3), (3, 3), (5, 5))
_MIN_SPATIAL = max(max(k) for k in BODY_KERNELS)  # the largest kernel must fit


@dataclass(frozen=True)
class ConvSpec:
    """One convolution layer: an odd kh x kw kernel from c_in to c_out
    channels, padded by (k - 1) / 2 per axis."""

    kh: int
    kw: int
    c_in: int
    c_out: int

    def __post_init__(self):
        if self.kh < 1 or self.kh % 2 == 0 or self.kw < 1 or self.kw % 2 == 0:
            raise ValueError("kernel dims must be odd and >= 1")
        if self.c_in < 1 or self.c_out < 1:
            raise ValueError("channel counts must be positive")

    def param_count(self, include_bias: bool = False) -> int:
        n = self.kh * self.kw * self.c_in * self.c_out
        return n + self.c_out if include_bias else n


@dataclass(frozen=True)
class RfdPath:
    reduce: ConvSpec
    body: ConvSpec


@dataclass(frozen=True)
class RfdSpec:
    """The block over C channels. Its paths are built from C, one per
    BODY_KERNELS entry: a 1x1 reduction C -> C/4 into a body C/4 -> C/4, so
    the concatenated paths restore C. The shortcut is the identity."""

    channels: int
    paths: tuple[RfdPath, ...] = field(init=False)

    def __post_init__(self):
        if self.channels <= 0 or self.channels % 4 != 0:
            raise ValueError("channels must be a positive multiple of 4")
        quarter = self.channels // 4
        object.__setattr__(self, "paths", tuple(
            RfdPath(ConvSpec(1, 1, self.channels, quarter), ConvSpec(kh, kw, quarter, quarter))
            for kh, kw in BODY_KERNELS
        ))


def rfd_spec(channels: int) -> RfdSpec:
    """The block spec for a given channel width."""
    return RfdSpec(channels)


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
