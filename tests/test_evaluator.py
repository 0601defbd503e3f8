"""Unit tests for the vectorized SIMT-style kernel evaluator."""

import numpy as np
import pytest

from repro.core.exec.evaluator import KernelEvaluator
from repro.core.exec.gather import ClampingGatherSource, NumpyGatherSource
from repro.core.parser import parse
from repro.core.semantic import analyze
from repro.errors import KernelLaunchError, RuntimeBrookError, StreamError


def make_evaluator(source, kernel_name=None, max_steps=1_000_000):
    unit = parse(source)
    analyze(unit)
    helpers = {f.name: f for f in unit.functions
               if not (f.is_kernel or f.is_reduction)}
    kernel = unit.kernels[0] if kernel_name is None else unit.kernel(kernel_name)
    return KernelEvaluator(kernel, helpers, max_simt_steps=max_steps)


def run_single_output(source, n=8, **kwargs):
    evaluator = make_evaluator(source)
    outputs = evaluator.run(n, **kwargs)
    (result,) = [v for k, v in outputs.items()]
    return np.asarray(result), evaluator


class TestArithmetic:
    def test_elementwise_expression(self):
        x = np.arange(8, dtype=np.float32)
        result, _ = run_single_output(
            "kernel void f(float x<>, out float o<>) { o = x * x + 1.0; }",
            stream_inputs={"x": x},
        )
        np.testing.assert_allclose(result, x * x + 1.0)

    def test_scalar_uniform_argument(self):
        x = np.ones(4, dtype=np.float32)
        result, _ = run_single_output(
            "kernel void f(float x<>, float k, out float o<>) { o = x * k; }",
            n=4, stream_inputs={"x": x}, scalar_args={"k": 3.5},
        )
        np.testing.assert_allclose(result, 3.5 * x)

    def test_builtin_functions(self):
        x = np.linspace(0.1, 2.0, 8).astype(np.float32)
        result, _ = run_single_output(
            "kernel void f(float x<>, out float o<>) {"
            " o = sqrt(x) + exp(x) * 0.0 + max(x, 1.0); }",
            stream_inputs={"x": x},
        )
        np.testing.assert_allclose(result, np.sqrt(x) + np.maximum(x, 1.0),
                                   rtol=1e-6)

    def test_integer_division_truncates(self):
        x = np.zeros(4, dtype=np.float32)
        result, _ = run_single_output(
            "kernel void f(float x<>, out float o<>) {"
            " int a = 7; int b = 2; o = float(a / b) + x; }",
            n=4, stream_inputs={"x": x},
        )
        np.testing.assert_allclose(result, 3.0)

    def test_modulo_on_floats(self):
        x = np.array([5.5, 7.25, 9.0, 3.0], dtype=np.float32)
        result, _ = run_single_output(
            "kernel void f(float x<>, out float o<>) { o = x % 2.0; }",
            n=4, stream_inputs={"x": x},
        )
        np.testing.assert_allclose(result, np.fmod(x, 2.0))

    def test_ternary_select(self):
        x = np.array([-2.0, -1.0, 1.0, 2.0], dtype=np.float32)
        result, _ = run_single_output(
            "kernel void f(float x<>, out float o<>) {"
            " o = (x > 0.0) ? x : -x; }",
            n=4, stream_inputs={"x": x},
        )
        np.testing.assert_allclose(result, np.abs(x))

    def test_vector_construction_and_swizzle(self):
        x = np.arange(4, dtype=np.float32)
        result, _ = run_single_output(
            "kernel void f(float x<>, out float o<>) {"
            " float4 v = float4(x, x * 2.0, 1.0, 0.0);"
            " o = v.x + v.y + v.z; }",
            n=4, stream_inputs={"x": x},
        )
        np.testing.assert_allclose(result, x + 2 * x + 1.0)

    def test_dot_product_builtin(self):
        x = np.arange(4, dtype=np.float32)
        result, _ = run_single_output(
            "kernel void f(float x<>, out float o<>) {"
            " float2 v = float2(x, 2.0); o = dot(v, v); }",
            n=4, stream_inputs={"x": x},
        )
        np.testing.assert_allclose(result, x * x + 4.0)

    def test_component_assignment(self):
        x = np.arange(4, dtype=np.float32)
        result, _ = run_single_output(
            "kernel void f(float x<>, out float o<>) {"
            " float2 v = float2(0.0, 0.0); v.x = x; v.y = x + 1.0;"
            " o = v.x * 10.0 + v.y; }",
            n=4, stream_inputs={"x": x},
        )
        np.testing.assert_allclose(result, x * 10.0 + x + 1.0)


class TestControlFlow:
    def test_divergent_if(self):
        x = np.array([-3.0, 5.0, -1.0, 2.0], dtype=np.float32)
        result, evaluator = run_single_output(
            "kernel void f(float x<>, out float o<>) {"
            " if (x < 0.0) { o = 0.0; } else { o = x; } }",
            n=4, stream_inputs={"x": x},
        )
        np.testing.assert_allclose(result, np.maximum(x, 0.0))
        assert evaluator.stats.divergent_branches >= 1

    def test_uniform_counted_loop(self):
        x = np.ones(4, dtype=np.float32)
        result, _ = run_single_output(
            "kernel void f(float x<>, out float o<>) {"
            " o = 0.0; for (int i = 0; i < 10; i = i + 1) { o += x; } }",
            n=4, stream_inputs={"x": x},
        )
        np.testing.assert_allclose(result, 10.0)

    def test_data_dependent_loop_bound(self):
        x = np.array([1.0, 3.0, 5.0, 0.0], dtype=np.float32)
        result, _ = run_single_output(
            "kernel void f(float x<>, out float o<>) {"
            " o = 0.0; for (float i = 0.0; i < x; i = i + 1.0) { o += 1.0; } }",
            n=4, stream_inputs={"x": x},
        )
        np.testing.assert_allclose(result, x)

    def test_break_statement(self):
        x = np.array([2.0, 4.0, 8.0, 100.0], dtype=np.float32)
        result, _ = run_single_output(
            "kernel void f(float x<>, out float o<>) {"
            " o = 0.0;"
            " for (int i = 0; i < 10; i = i + 1) {"
            "   if (o >= x) { break; }"
            "   o += 1.0; } }",
            n=4, stream_inputs={"x": x},
        )
        np.testing.assert_allclose(result, np.minimum(x, 10.0))

    def test_continue_statement(self):
        x = np.ones(4, dtype=np.float32)
        result, _ = run_single_output(
            "kernel void f(float x<>, out float o<>) {"
            " o = 0.0;"
            " for (int i = 0; i < 6; i = i + 1) {"
            "   if (float(i) % 2.0 == 1.0) { continue; }"
            "   o += x; } }",
            n=4, stream_inputs={"x": x},
        )
        np.testing.assert_allclose(result, 3.0)

    def test_early_return_freezes_lane(self):
        x = np.array([-1.0, 2.0, -3.0, 4.0], dtype=np.float32)
        result, _ = run_single_output(
            "kernel void f(float x<>, out float o<>) {"
            " o = 99.0;"
            " if (x < 0.0) { o = -99.0; return; }"
            " o = x; }",
            n=4, stream_inputs={"x": x},
        )
        np.testing.assert_allclose(result, np.where(x < 0, -99.0, x))

    def test_nested_loops(self):
        x = np.ones(3, dtype=np.float32)
        result, _ = run_single_output(
            "kernel void f(float x<>, out float o<>) {"
            " o = 0.0;"
            " for (int i = 0; i < 3; i = i + 1) {"
            "   for (int j = 0; j < 4; j = j + 1) { o += x; } } }",
            n=3, stream_inputs={"x": x},
        )
        np.testing.assert_allclose(result, 12.0)

    def test_while_loop_execution(self):
        x = np.array([3.0, 1.0, 6.0], dtype=np.float32)
        result, _ = run_single_output(
            "kernel void f(float x<>, out float o<>) {"
            " float i = 0.0; o = 0.0;"
            " while (i < x) { o += 2.0; i += 1.0; } }",
            n=3, stream_inputs={"x": x},
        )
        np.testing.assert_allclose(result, 2.0 * x)

    def test_runaway_loop_guard(self):
        evaluator = make_evaluator(
            "kernel void f(float x<>, out float o<>) {"
            " o = 0.0; while (x > -1.0) { o += 1.0; } }",
            max_steps=100,
        )
        with pytest.raises(RuntimeBrookError):
            evaluator.run(4, stream_inputs={"x": np.ones(4, dtype=np.float32)})


class TestHelpersAndGathers:
    def test_helper_function_call(self):
        x = np.arange(4, dtype=np.float32)
        result, _ = run_single_output(
            "float cube(float v) { return v * v * v; }\n"
            "kernel void f(float x<>, out float o<>) { o = cube(x) + 1.0; }",
            n=4, stream_inputs={"x": x},
        )
        np.testing.assert_allclose(result, x ** 3 + 1.0)

    def test_helper_with_branch(self):
        x = np.array([-2.0, 3.0], dtype=np.float32)
        result, _ = run_single_output(
            "float relu(float v) { if (v < 0.0) { return 0.0; } return v; }\n"
            "kernel void f(float x<>, out float o<>) { o = relu(x); }",
            n=2, stream_inputs={"x": x},
        )
        np.testing.assert_allclose(result, np.maximum(x, 0.0))

    def test_gather_1d(self):
        lut = np.arange(10, dtype=np.float32) * 10
        idx = np.array([0.0, 3.0, 9.0, 5.0], dtype=np.float32)
        result, evaluator = run_single_output(
            "kernel void f(float i<>, float lut[], out float o<>) { o = lut[i]; }",
            n=4, stream_inputs={"i": idx},
            gathers={"lut": NumpyGatherSource(lut)},
        )
        np.testing.assert_allclose(result, lut[idx.astype(int)])
        assert evaluator.stats.gather_fetches == 4

    def test_gather_2d_chained(self):
        table = np.arange(12, dtype=np.float32).reshape(3, 4)
        rows = np.array([0.0, 1.0, 2.0], dtype=np.float32)
        result, _ = run_single_output(
            "kernel void f(float r<>, float t[][], out float o<>) {"
            " o = t[r][2.0]; }",
            n=3, stream_inputs={"r": rows},
            gathers={"t": NumpyGatherSource(table)},
        )
        np.testing.assert_allclose(result, table[:, 2])

    def test_gather_out_of_bounds_raises_on_cpu_source(self):
        lut = np.arange(4, dtype=np.float32)
        with pytest.raises(StreamError):
            run_single_output(
                "kernel void f(float i<>, float lut[], out float o<>) {"
                " o = lut[i + 10.0]; }",
                n=4,
                stream_inputs={"i": np.arange(4, dtype=np.float32)},
                gathers={"lut": NumpyGatherSource(lut)},
            )

    def test_gather_out_of_bounds_clamps_on_texture_source(self):
        lut = np.arange(4, dtype=np.float32)
        result, _ = run_single_output(
            "kernel void f(float i<>, float lut[], out float o<>) {"
            " o = lut[i + 10.0]; }",
            n=4,
            stream_inputs={"i": np.arange(4, dtype=np.float32)},
            gathers={"lut": ClampingGatherSource(lut)},
        )
        np.testing.assert_allclose(result, 3.0)

    def test_indexof_values(self):
        index = np.stack([np.arange(6, dtype=np.float32) % 3,
                          np.arange(6, dtype=np.float32) // 3], axis=1)
        result, _ = run_single_output(
            "kernel void f(float x<>, out float o<>) {"
            " float2 p = indexof(x); o = p.y * 10.0 + p.x; }",
            n=6, stream_inputs={"x": np.zeros(6, dtype=np.float32)},
            index=index,
        )
        np.testing.assert_allclose(result, index[:, 1] * 10 + index[:, 0])


class TestReductionsAndErrors:
    def test_reduce_kernel_combines_accumulator(self):
        unit = parse("reduce void total(float a<>, reduce float r) { r += a; }")
        analyze(unit)
        evaluator = KernelEvaluator(unit.kernels[0])
        outputs = evaluator.run(
            4,
            stream_inputs={"a": np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32)},
            reduce_inputs={"r": np.array([10.0, 20.0, 30.0, 40.0], dtype=np.float32)},
        )
        np.testing.assert_allclose(outputs["r"], [11.0, 22.0, 33.0, 44.0])

    def test_missing_stream_argument(self):
        evaluator = make_evaluator(
            "kernel void f(float x<>, out float o<>) { o = x; }"
        )
        with pytest.raises(KernelLaunchError):
            evaluator.run(4)

    def test_missing_scalar_argument(self):
        evaluator = make_evaluator(
            "kernel void f(float x<>, float k, out float o<>) { o = x * k; }"
        )
        with pytest.raises(KernelLaunchError):
            evaluator.run(2, stream_inputs={"x": np.zeros(2, dtype=np.float32)})

    def test_missing_gather_argument(self):
        evaluator = make_evaluator(
            "kernel void f(float x<>, float lut[], out float o<>) { o = lut[x]; }"
        )
        with pytest.raises(KernelLaunchError):
            evaluator.run(2, stream_inputs={"x": np.zeros(2, dtype=np.float32)})

    def test_statistics_counters(self):
        x = np.ones(16, dtype=np.float32)
        _, evaluator = run_single_output(
            "kernel void f(float x<>, out float o<>) {"
            " o = 0.0; for (int i = 0; i < 4; i = i + 1) { o += x * 2.0; } }",
            n=16, stream_inputs={"x": x},
        )
        stats = evaluator.stats
        assert stats.elements == 16
        assert stats.simt_loop_steps == 4
        assert stats.flops > 16 * 4
        assert stats.stream_reads == 16
        assert stats.stream_writes == 16
