import numpy as np
import pytest
from hypothesis import given, strategies as st

from anchorkit.rfd import (
    BODY_KERNELS,
    ConvSpec,
    RfdPath,
    RfdSpec,
    rfd_output_shape,
    rfd_param_count,
    rfd_receptive_fields,
    rfd_spec,
)
from oracles import RfdWeights, rfd_forward_naive, zero_weights


def random_weights(spec, seed):
    rng = np.random.default_rng(seed)
    return RfdWeights(
        paths=tuple(
            (
                rng.normal(size=(p.reduce.c_out, p.reduce.c_in, 1, 1)),
                rng.normal(size=(p.body.c_out, p.body.c_in, p.body.kh, p.body.kw)),
            )
            for p in spec.paths
        )
    )


class TestSpec:
    def test_canonical_64(self):
        spec = rfd_spec(64)
        assert spec.channels == 64
        assert len(spec.paths) == 4
        for p, (kh, kw) in zip(spec.paths, BODY_KERNELS):
            assert (p.reduce.kh, p.reduce.kw, p.reduce.c_in, p.reduce.c_out) == (1, 1, 64, 16)
            assert (p.body.kh, p.body.kw, p.body.c_in, p.body.c_out) == (kh, kw, 16, 16)

    def test_minimal_spec(self):
        spec = rfd_spec(4)
        assert all(p.body.c_in == p.body.c_out == 1 for p in spec.paths)

    @pytest.mark.parametrize("bad", [6, 0, -4, 2, 127])
    def test_indivisible_channels_rejected(self, bad):
        with pytest.raises(ValueError):
            rfd_spec(bad)

    def test_conv_spec_validation(self):
        with pytest.raises(ValueError):
            ConvSpec(2, 1, 4, 4)  # even kernel
        with pytest.raises(ValueError):
            ConvSpec(3, 3, 0, 4)

    @given(st.integers(min_value=1, max_value=64))
    def test_channel_conservation(self, quarter):
        spec = rfd_spec(quarter * 4)
        assert sum(p.body.c_out for p in spec.paths) == spec.channels

    @given(st.integers(min_value=1, max_value=1024), st.booleans())
    def test_spec_is_derived_from_the_width(self, quarter, bias):
        c = quarter * 4
        spec = RfdSpec(c)
        assert spec == rfd_spec(c)
        assert spec.paths == tuple(
            RfdPath(ConvSpec(1, 1, c, quarter), ConvSpec(kh, kw, quarter, quarter))
            for kh, kw in BODY_KERNELS
        )
        # The docstring's closed form: 3.5 * C^2, plus 2C biases.
        assert rfd_param_count(c, bias) == 7 * c * c // 2 + (2 * c if bias else 0)
        with pytest.raises(TypeError):
            RfdSpec(c, paths=spec.paths)


class TestOutputShape:
    def test_preserved(self):
        assert rfd_output_shape(rfd_spec(64), 32, 32) == (64, 32, 32)

    def test_boundary_size(self):
        assert rfd_output_shape(rfd_spec(64), 5, 5) == (64, 5, 5)

    def test_underflow_rejected(self):
        with pytest.raises(ValueError):
            rfd_output_shape(rfd_spec(64), 4, 4)
        with pytest.raises(ValueError):
            rfd_output_shape(rfd_spec(64), 5, 4)


class TestParamCount:
    def test_reference_values(self):
        assert rfd_param_count(64, include_bias=False) == 14336
        assert rfd_param_count(4, include_bias=False) == 56
        assert rfd_param_count(64, include_bias=True) == 14464

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            rfd_param_count(6)

    @pytest.mark.parametrize("channels", [4, 8, 16, 64, 128, 256])
    @pytest.mark.parametrize("bias", [False, True])
    def test_structural_recount(self, channels, bias):
        # Closed form must equal the sum over the block's convolution layers.
        spec = rfd_spec(channels)
        recount = sum(
            p.reduce.param_count(bias) + p.body.param_count(bias) for p in spec.paths
        )
        assert rfd_param_count(channels, include_bias=bias) == recount


class TestReceptiveFields:
    def test_table(self):
        assert rfd_receptive_fields(rfd_spec(64)) == [(3, 1), (1, 3), (3, 3), (5, 5), (1, 1)]

    def test_asymmetric_paths_are_transposes(self):
        fields = rfd_receptive_fields(rfd_spec(8))
        assert fields[0] == tuple(reversed(fields[1]))

    def test_shortcut_is_identity(self):
        assert rfd_receptive_fields(rfd_spec(8))[-1] == (1, 1)


class TestForward:
    def test_zero_weights_is_identity(self):
        spec = rfd_spec(8)
        x = np.random.default_rng(0).normal(size=(8, 6, 7))
        y = rfd_forward_naive(spec, x, zero_weights(spec))
        assert np.array_equal(y, x)

    def test_shape_preserved(self):
        spec = rfd_spec(16)
        x = np.random.default_rng(1).normal(size=(16, 9, 5))
        y = rfd_forward_naive(spec, x, random_weights(spec, 1))
        assert y.shape == x.shape

    def test_delta_kernel_copies_channel_slice(self):
        # Path 0 configured as: reduce picks input channel 0, body is a delta
        # kernel; every other path zero. Output = input + channel-0 slice in
        # the first concatenated slot.
        spec = rfd_spec(4)
        weights = zero_weights(spec)
        weights.paths[0][0][0, 0, 0, 0] = 1.0  # reduce: out0 <- in0
        body = weights.paths[0][1]
        body[0, 0, 1, 0] = 1.0  # 3x1 kernel, center tap
        x = np.random.default_rng(2).normal(size=(4, 6, 6))
        y = rfd_forward_naive(spec, x, weights)
        expected = x.copy()
        expected[0] += x[0]
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_linearity(self):
        spec = rfd_spec(8)
        weights = random_weights(spec, 3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 7, 6))
        z = rng.normal(size=(8, 7, 6))
        a, b = 1.7, -0.3
        lhs = rfd_forward_naive(spec, a * x + b * z, weights)
        rhs = a * rfd_forward_naive(spec, x, weights) + b * rfd_forward_naive(spec, z, weights)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_deterministic(self):
        spec = rfd_spec(8)
        weights = random_weights(spec, 5)
        x = np.random.default_rng(6).normal(size=(8, 6, 6))
        y1 = rfd_forward_naive(spec, x, weights)
        y2 = rfd_forward_naive(spec, x, weights)
        assert np.array_equal(y1, y2)

    def test_shape_validation(self):
        spec = rfd_spec(8)
        w = zero_weights(spec)
        with pytest.raises(ValueError):
            rfd_forward_naive(spec, np.zeros((4, 6, 6)), w)  # wrong channels
        with pytest.raises(ValueError):
            rfd_forward_naive(spec, np.zeros((8, 4, 6)), w)  # spatial underflow
        with pytest.raises(ValueError):
            rfd_forward_naive(spec, np.zeros((8, 6)), w)

    def test_weight_shape_validation(self):
        spec = rfd_spec(8)
        bad = zero_weights(rfd_spec(4))
        with pytest.raises(ValueError):
            rfd_forward_naive(spec, np.zeros((8, 6, 6)), bad)
