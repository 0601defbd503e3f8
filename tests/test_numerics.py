"""Unit and property-based tests for the float<->RGBA8 numerics (section 5.4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.numerics import (
    MIN_NORMAL,
    RELATIVE_PRECISION,
    decode_float_rgba8,
    encode_float_rgba8,
    quantize_roundtrip,
)


class TestEncodeDecodeBasics:
    def test_zero_round_trips_to_zero(self):
        assert quantize_roundtrip(np.float32(0.0)) == 0.0

    def test_simple_values_exact(self):
        values = np.array([1.0, -1.0, 0.5, 2.0, 1234.5678, -3.25e-5, 7.0e20],
                          dtype=np.float32)
        np.testing.assert_array_equal(quantize_roundtrip(values), values)

    def test_integers_up_to_2_24_exact(self):
        values = np.array([1, 2, 3, 1000, 65535, 16777215], dtype=np.float32)
        np.testing.assert_array_equal(quantize_roundtrip(values), values)

    def test_denormals_flush_to_zero(self):
        tiny = np.array([1e-40, -1e-39], dtype=np.float32)
        np.testing.assert_array_equal(quantize_roundtrip(tiny), np.zeros(2))

    def test_min_normal_survives(self):
        value = np.float32(MIN_NORMAL)
        assert quantize_roundtrip(value) == value

    def test_encode_shape(self):
        values = np.zeros((3, 5), dtype=np.float32)
        rgba = encode_float_rgba8(values)
        assert rgba.shape == (3, 5, 4)
        assert rgba.dtype == np.uint8

    def test_decode_shape_validation(self):
        with pytest.raises(ValueError):
            decode_float_rgba8(np.zeros((4, 3), dtype=np.uint8))

    def test_decode_preserves_leading_shape(self):
        values = np.arange(12, dtype=np.float32).reshape(3, 4) + 1.0
        decoded = decode_float_rgba8(encode_float_rgba8(values))
        assert decoded.shape == (3, 4)

    def test_sign_stored_in_first_channel(self):
        positive = encode_float_rgba8(np.float32(1.5))
        negative = encode_float_rgba8(np.float32(-1.5))
        assert positive[0] < 128
        assert negative[0] >= 128

    def test_relative_precision_constant_reasonable(self):
        # The packing is bit exact, so the documented bound is one ulp.
        assert RELATIVE_PRECISION <= 2.0 ** -20


class TestProperties:
    @given(st.floats(min_value=-1.0e38, max_value=1.0e38,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_is_exact_or_flushes_denormals(self, value):
        original = np.float32(value)
        result = quantize_roundtrip(original)
        if abs(float(original)) < MIN_NORMAL:
            assert result == 0.0
        else:
            assert result == original

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_idempotent_on_arrays(self, values):
        array = np.asarray(values, dtype=np.float32)
        once = quantize_roundtrip(array)
        twice = quantize_roundtrip(once)
        np.testing.assert_array_equal(once, twice)

    @given(st.floats(min_value=1e-30, max_value=1e30,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_ordering_preserved(self, value):
        base = np.float32(value)
        larger = np.float32(base * 2.0)
        decoded = quantize_roundtrip(np.array([base, larger], dtype=np.float32))
        assert decoded[0] < decoded[1]

    @given(st.floats(min_value=-1e30, max_value=1e30,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_negation_symmetry(self, value):
        array = np.array([value, -value], dtype=np.float32)
        decoded = quantize_roundtrip(array)
        assert decoded[0] == -decoded[1]


class TestGLSLPreludeConsistency:
    """The GLSL ES prelude must implement the same packing; the arithmetic
    reconstruction there is checked by mirroring its formula here."""

    @staticmethod
    def _glsl_style_decode(rgba):
        r, g, b, a = (float(rgba[..., i]) for i in range(4))
        sign_bit = np.floor(r / 128.0)
        e_hi = r - sign_bit * 128.0
        e_lo = np.floor(g / 128.0)
        biased = e_hi * 2.0 + e_lo
        if biased == 0.0:
            return 0.0
        m_hi = g - e_lo * 128.0
        mant_bits = m_hi * 65536.0 + b * 256.0 + a
        mant = 1.0 + mant_bits / 8388608.0
        value = mant * 2.0 ** (biased - 127.0)
        return -value if sign_bit > 0.5 else value

    @pytest.mark.parametrize("value", [1.0, -1.0, 0.37, 123456.78, -9.6e-12, 2.5e20])
    def test_arithmetic_reconstruction_matches(self, value):
        rgba = encode_float_rgba8(np.float32(value))
        reconstructed = self._glsl_style_decode(rgba.astype(np.float64))
        assert reconstructed == pytest.approx(float(np.float32(value)), rel=1e-6)


def _reference_encode(values):
    """The channel-shift packing, kept as the codec's oracle."""
    values = np.asarray(values, dtype=np.float32)
    original_shape = values.shape
    flat = np.ascontiguousarray(values.reshape(-1))
    flat = np.where(np.abs(flat) < MIN_NORMAL, np.float32(0.0), flat)
    flat = np.ascontiguousarray(flat, dtype=np.float32)
    bits = flat.view(np.uint32)
    rgba = np.zeros((flat.size, 4), dtype=np.uint8)
    rgba[:, 0] = (bits >> 24) & 0xFF
    rgba[:, 1] = (bits >> 16) & 0xFF
    rgba[:, 2] = (bits >> 8) & 0xFF
    rgba[:, 3] = bits & 0xFF
    return rgba.reshape(original_shape + (4,))


def _reference_decode(rgba):
    """The channel-shift unpacking, kept as the codec's oracle."""
    rgba = np.asarray(rgba)
    original_shape = rgba.shape[:-1]
    channels = rgba.reshape(-1, 4).astype(np.uint32)
    bits = np.ascontiguousarray(
        (channels[:, 0] << 24)
        | (channels[:, 1] << 16)
        | (channels[:, 2] << 8)
        | channels[:, 3]
    )
    values = bits.view(np.float32).copy()
    values[((bits >> 23) & 0xFF) == 0] = 0.0
    return values.astype(np.float32).reshape(original_shape)


def _special_bit_patterns():
    """+/-0, every exponent-0 (denormal) corner, exponent 0xFF (Inf and
    NaN payloads) and the normal extremes, as uint32 bit patterns."""
    mantissas = np.array([0, 1, 2, 0x3FFFFF, 0x400000, 0x7FFFFE, 0x7FFFFF],
                         dtype=np.uint32)
    patterns = []
    for sign in (0, 0x80000000):
        for exponent in (0x00, 0x01, 0x7F, 0xFE, 0xFF):
            patterns.append(sign | (exponent << 23) | mantissas)
    return np.concatenate(patterns).astype(np.uint32)


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert np.array_equal(got.reshape(-1).view(np.uint8),
                          want.reshape(-1).view(np.uint8))


class TestCodecMatchesChannelShifts:
    """The byte-view codec is bitwise the channel-shift one."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_bit_patterns(self, seed):
        rng = np.random.default_rng(seed)
        bits = np.concatenate([
            rng.integers(0, 2 ** 32, 4096, dtype=np.uint64).astype(np.uint32),
            _special_bit_patterns(),
        ])
        values = bits.view(np.float32)
        _assert_same_bits(encode_float_rgba8(values), _reference_encode(values))
        texels = rng.integers(0, 256, (4096, 4), dtype=np.uint8)
        _assert_same_bits(decode_float_rgba8(texels), _reference_decode(texels))

    def test_every_exponent_zero_pattern(self):
        # All 2^24 patterns with a zero exponent (both signs) flush to +0.
        mantissas = np.arange(1 << 23, dtype=np.uint32)
        for sign in (0, 0x80000000):
            values = (mantissas | np.uint32(sign)).view(np.float32)
            rgba = encode_float_rgba8(values)
            assert not rgba.any()
            _assert_same_bits(rgba, _reference_encode(values))
            texels = (mantissas | np.uint32(sign)).astype(">u4")
            texels = texels[:, None].view(np.uint8)
            decoded = decode_float_rgba8(texels)
            assert not decoded.view(np.uint32).any()

    def test_signed_zero_and_exponent_ff(self):
        bits = np.array([0x00000000, 0x80000000, 0x7F800000, 0xFF800000,
                         0x7FC00000, 0x7F800001, 0xFFFFFFFF],
                        dtype=np.uint32)
        values = bits.view(np.float32)
        rgba = encode_float_rgba8(values)
        _assert_same_bits(rgba, _reference_encode(values))
        assert not rgba[:2].any()
        _assert_same_bits(decode_float_rgba8(rgba), _reference_decode(rgba))
        assert np.array_equal(decode_float_rgba8(rgba)[2:].view(np.uint32),
                              bits[2:])

    def test_non_contiguous_inputs(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((9, 12)).astype(np.float32)
        for view in (values.T, values[::2, 1::3], values[:, ::-1]):
            _assert_same_bits(encode_float_rgba8(view), _reference_encode(view))
        texels = _reference_encode(values)
        for view in (texels.transpose(1, 0, 2), texels[::3, 2::2],
                     texels[..., ::-1], texels[:, ::-1]):
            _assert_same_bits(decode_float_rgba8(view), _reference_decode(view))

    @pytest.mark.parametrize("rows, cols", [(5, 7), (8, 3), (1, 16), (16, 16)])
    def test_region_of_a_padded_texture(self, rows, cols):
        rng = np.random.default_rng(rows * 100 + cols)
        texture = rng.integers(0, 256, (16, 16, 4), dtype=np.uint8)
        region = texture[:rows, :cols]
        _assert_same_bits(decode_float_rgba8(region), _reference_decode(region))
        values = rng.standard_normal((16, 16)).astype(np.float32)[:rows, :cols]
        _assert_same_bits(encode_float_rgba8(values), _reference_encode(values))

    @pytest.mark.parametrize("shape", [(), (0,), (1,), (11,), (2, 3, 5)])
    def test_shapes(self, shape):
        rng = np.random.default_rng(4)
        values = rng.standard_normal(shape).astype(np.float32)
        rgba = encode_float_rgba8(values)
        _assert_same_bits(rgba, _reference_encode(values))
        _assert_same_bits(decode_float_rgba8(rgba), _reference_decode(rgba))

    @pytest.mark.parametrize("shape", [(), (3,), (2, 5), (2, 3, 1)])
    def test_decode_rejects_a_bad_trailing_axis(self, shape):
        with pytest.raises(ValueError):
            decode_float_rgba8(np.zeros(shape, dtype=np.uint8))
