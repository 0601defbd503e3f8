"""Unit tests for the builtin-function catalogue."""

import pytest

from repro.core.builtins import BUILTINS, lookup_builtin
from repro.core.types import BOOL, FLOAT, FLOAT2, FLOAT3, FLOAT4, INT
from repro.errors import BrookTypeError


class TestCatalogue:
    def test_core_math_functions_present(self):
        for name in ("sqrt", "exp", "log", "sin", "cos", "abs", "floor",
                     "pow", "fmod", "min", "max", "clamp", "lerp", "dot",
                     "normalize", "cross", "length"):
            assert lookup_builtin(name) is not None, name

    def test_unknown_function_returns_none(self):
        assert lookup_builtin("fft") is None

    def test_transcendentals_cost_more_than_adds(self):
        assert BUILTINS["exp"].flop_cost > BUILTINS["abs"].flop_cost
        assert BUILTINS["pow"].flop_cost > BUILTINS["min"].flop_cost

    def test_glsl_spelling_overrides(self):
        assert BUILTINS["rsqrt"].glsl_name == "inversesqrt"
        assert BUILTINS["frac"].glsl_name == "fract"
        assert BUILTINS["lerp"].glsl_name == "mix"
        assert BUILTINS["fmod"].glsl_name == "brook_fmod"


class TestResultTypes:
    def test_componentwise_scalar(self):
        assert BUILTINS["sqrt"].result_type([FLOAT]) == FLOAT

    def test_componentwise_vector(self):
        assert BUILTINS["sqrt"].result_type([FLOAT3]) == FLOAT3

    def test_componentwise_broadcast(self):
        assert BUILTINS["max"].result_type([FLOAT4, FLOAT]) == FLOAT4

    def test_int_arguments_promote_to_float(self):
        assert BUILTINS["abs"].result_type([INT]) == FLOAT

    def test_wrong_arity_raises(self):
        with pytest.raises(BrookTypeError):
            BUILTINS["sqrt"].result_type([FLOAT, FLOAT])
        with pytest.raises(BrookTypeError):
            BUILTINS["clamp"].result_type([FLOAT])

    def test_incompatible_vector_widths_raise(self):
        with pytest.raises(BrookTypeError):
            BUILTINS["min"].result_type([FLOAT2, FLOAT3])

    def test_dot_reduces_to_scalar(self):
        assert BUILTINS["dot"].result_type([FLOAT3, FLOAT3]) == FLOAT

    def test_length_reduces_to_scalar(self):
        assert BUILTINS["length"].result_type([FLOAT4]) == FLOAT

    def test_cross_returns_float3(self):
        assert BUILTINS["cross"].result_type([FLOAT3, FLOAT3]) == FLOAT3

    def test_normalize_preserves_width(self):
        assert BUILTINS["normalize"].result_type([FLOAT2]) == FLOAT2

    def test_any_all_return_bool(self):
        assert BUILTINS["any"].result_type([FLOAT4]) == BOOL
        assert BUILTINS["all"].result_type([FLOAT4]) == BOOL
