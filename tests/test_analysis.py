"""Unit tests for the static analyses (loop bounds, call graph, stack depth,
kernel resources, memory usage)."""

import pytest

from repro.core.analysis.call_graph import build_call_graph
from repro.core.analysis.loop_bounds import analyze_loop_bounds
from repro.core.analysis.memory_usage import (
    StreamDeclaration,
    estimate_memory_usage,
    padded_texture_extent,
)
from repro.core.analysis.resources import TargetLimits, estimate_resources
from repro.core.analysis import stack_depth
from repro.core.analysis.stack_depth import estimate_stack_depth
from repro.core.compiler import compile_source
from repro.core.parser import parse
from repro.core.semantic import analyze
from repro.core.types import FLOAT, FLOAT4


def kernel_from(body, params="float a<>, out float o<>"):
    unit = parse(f"kernel void f({params}) {{ {body} }}")
    return unit.kernels[0]


class TestLoopBounds:
    def test_no_loops(self):
        analysis = analyze_loop_bounds(kernel_from("o = a;"))
        assert analysis.all_bounded
        assert analysis.max_total_iterations == 1

    def test_constant_counted_loop(self):
        analysis = analyze_loop_bounds(kernel_from(
            "o = 0.0; for (int i = 0; i < 16; i = i + 1) { o += a; }"
        ))
        assert analysis.all_bounded
        assert analysis.loops[0].max_trip_count == 16

    def test_less_equal_loop(self):
        analysis = analyze_loop_bounds(kernel_from(
            "o = 0.0; for (int i = 0; i <= 16; i = i + 1) { o += a; }"
        ))
        assert analysis.loops[0].max_trip_count == 17

    def test_step_greater_than_one(self):
        analysis = analyze_loop_bounds(kernel_from(
            "o = 0.0; for (int i = 0; i < 16; i = i + 4) { o += a; }"
        ))
        assert analysis.loops[0].max_trip_count == 4

    def test_descending_loop(self):
        analysis = analyze_loop_bounds(kernel_from(
            "o = 0.0; for (int i = 15; i >= 0; i = i - 1) { o += a; }"
        ))
        assert analysis.loops[0].max_trip_count == 16

    def test_increment_operator_loop(self):
        analysis = analyze_loop_bounds(kernel_from(
            "o = 0.0; for (int i = 0; i < 8; i++) { o += a; }"
        ))
        assert analysis.loops[0].max_trip_count == 8

    def test_geometric_loop(self):
        analysis = analyze_loop_bounds(kernel_from(
            "o = 0.0; for (int i = 1; i < 256; i = i * 2) { o += a; }"
        ))
        assert analysis.loops[0].max_trip_count == 8

    def test_nested_loops_multiply(self):
        analysis = analyze_loop_bounds(kernel_from(
            "o = 0.0;"
            "for (int i = 0; i < 4; i = i + 1) {"
            "  for (int j = 0; j < 8; j = j + 1) { o += a; } }"
        ))
        assert analysis.max_total_iterations == 32

    def test_parameter_bound_requires_declaration(self):
        kernel = kernel_from(
            "o = 0.0; for (int i = 0; i < n; i = i + 1) { o += a; }",
            params="float a<>, float n, out float o<>",
        )
        undeclared = analyze_loop_bounds(kernel)
        assert not undeclared.all_bounded
        declared = analyze_loop_bounds(kernel, {"params": {"n": (1, 64)}})
        assert declared.all_bounded
        assert declared.loops[0].max_trip_count == 64

    def test_while_loop_is_unbounded(self):
        analysis = analyze_loop_bounds(kernel_from(
            "o = 0.0; float i = 0.0; while (i < a) { i += 1.0; o += 1.0; }"
        ))
        assert not analysis.all_bounded
        assert analysis.max_total_iterations is None

    def test_do_while_is_unbounded(self):
        analysis = analyze_loop_bounds(kernel_from(
            "o = 0.0; float i = 0.0; do { i += 1.0; } while (i < a); o = i;"
        ))
        assert not analysis.all_bounded

    def test_loop_stepping_away_from_limit(self):
        analysis = analyze_loop_bounds(kernel_from(
            "o = 0.0; for (int i = 0; i < 8; i = i - 1) { o += a; }"
        ))
        assert not analysis.all_bounded

    def test_non_constant_step_is_unbounded(self):
        analysis = analyze_loop_bounds(kernel_from(
            "o = 0.0; for (int i = 0; i < 8; i = i + i) { o += a; }"
        ))
        assert not analysis.all_bounded

    def test_unbounded_reason_is_reported(self):
        analysis = analyze_loop_bounds(kernel_from(
            "o = 0.0; float i = 0.0; while (i < a) { i += 1.0; }"
        ))
        assert "trip count" in analysis.unbounded[0].reason


class TestCallGraph:
    def test_simple_call_chain(self):
        program = analyze(parse(
            "float leaf(float x) { return x; }\n"
            "float mid(float x) { return leaf(x); }\n"
            "kernel void f(float a<>, out float o<>) { o = mid(a); }"
        ))
        graph = build_call_graph(program)
        assert graph.callees("f") == ["mid"]
        assert graph.callees("mid") == ["leaf"]
        assert not graph.is_recursive
        assert graph.max_depth_from("f") == 3

    def test_direct_recursion_detected(self):
        program = analyze(parse(
            "float rec(float x) { return rec(x); }\n"
            "kernel void f(float a<>, out float o<>) { o = rec(a); }"
        ))
        graph = build_call_graph(program)
        assert graph.is_recursive
        assert "rec" in graph.recursive_functions()
        assert graph.max_depth_from("f") is None

    def test_mutual_recursion_detected(self):
        program = analyze(parse(
            "float even(float x) { return odd(x - 1.0); }\n"
            "float odd(float x) { return even(x - 1.0); }\n"
            "kernel void f(float a<>, out float o<>) { o = even(a); }"
        ))
        graph = build_call_graph(program)
        assert {"even", "odd"} <= graph.recursive_functions()

    def test_kernel_without_calls(self):
        program = analyze(parse(
            "kernel void f(float a<>, out float o<>) { o = a; }"
        ))
        graph = build_call_graph(program)
        assert graph.max_depth_from("f") == 1


class TestStackDepth:
    def test_leaf_kernel_bounded(self):
        program = analyze(parse(
            "kernel void f(float a<>, out float o<>) { float x = a; o = x; }"
        ))
        report = estimate_stack_depth(program, "f")
        assert report.is_bounded
        assert report.max_stack_bytes > 0
        assert report.worst_chain == ["f"]

    def test_helper_chain_adds_frames(self):
        program = analyze(parse(
            "float leaf(float x) { float y = x; return y; }\n"
            "float mid(float x) { return leaf(x) + 1.0; }\n"
            "kernel void f(float a<>, out float o<>) { o = mid(a); }"
        ))
        deep = estimate_stack_depth(program, "f")
        assert deep.worst_chain == ["f", "mid", "leaf"]
        shallow_program = analyze(parse(
            "kernel void f(float a<>, out float o<>) { o = a; }"
        ))
        shallow = estimate_stack_depth(shallow_program, "f")
        assert deep.max_stack_bytes > shallow.max_stack_bytes

    def test_recursion_is_unbounded(self):
        program = analyze(parse(
            "float rec(float x) { return rec(x); }\n"
            "kernel void f(float a<>, out float o<>) { o = rec(a); }"
        ))
        report = estimate_stack_depth(program, "f")
        assert not report.is_bounded

    def test_certification_sizes_each_frame_once(self, monkeypatch):
        # Every kernel's stack check shares the program's call graph and
        # frame sizes, so a compile sizes each function exactly once.
        source = (
            "float leaf(float x) { float y = x; return y; }\n"
            "float mid(float x) { float2 p = float2(x, x); "
            "return leaf(p.x) + 1.0; }\n"
            "kernel void f(float a<>, out float o<>) { o = mid(a); }\n"
            "kernel void g(float a<>, out float o<>) { o = leaf(a); }\n"
            "kernel void h(float a<>, out float o<>) { float t = a; o = t; }"
        )
        sized = []
        real = stack_depth._frame_size

        def counting(func):
            sized.append(func.name)
            return real(func)

        monkeypatch.setattr(stack_depth, "_frame_size", counting)
        compiled = compile_source(source)
        assert sorted(sized) == ["f", "g", "h", "leaf", "mid"]
        program = compiled.program
        graph = build_call_graph(program)
        frames = stack_depth.frame_sizes(program)
        for name in ("f", "g", "h"):
            shared = estimate_stack_depth(program, name, graph, frames)
            assert shared == estimate_stack_depth(program, name)
            assert compiled.certification.kernels[name].max_stack_bytes \
                == shared.max_stack_bytes
        assert estimate_stack_depth(program, "f").worst_chain \
            == ["f", "mid", "leaf"]


class TestResources:
    def test_input_output_counts(self):
        kernel = parse(
            "kernel void f(float a<>, float b<>, float lut[], float s,"
            " out float o<>) { o = a + b + lut[s]; }"
        ).kernels[0]
        resources = estimate_resources(kernel)
        assert resources.input_streams == 2
        assert resources.gather_arrays == 1
        assert resources.output_streams == 1
        assert resources.scalar_constants == 1
        assert resources.total_sampler_inputs == 3

    def test_gather_fetch_counted(self):
        kernel = kernel_from("o = a;", "float a<>, float lut[], out float o<>")
        resources = estimate_resources(kernel)
        assert resources.texture_fetches_per_element >= 1  # positional stream

    def test_loop_multiplies_flops(self):
        kernel_small = kernel_from(
            "o = 0.0; for (int i = 0; i < 2; i = i + 1) { o += a * a; }"
        )
        kernel_large = kernel_from(
            "o = 0.0; for (int i = 0; i < 200; i = i + 1) { o += a * a; }"
        )
        small = estimate_resources(kernel_small, analyze_loop_bounds(kernel_small))
        large = estimate_resources(kernel_large, analyze_loop_bounds(kernel_large))
        assert large.flops_per_element > small.flops_per_element * 10

    def test_fits_minimal_gles2_limits(self):
        kernel = kernel_from("o = a * 2.0;")
        resources = estimate_resources(kernel)
        assert resources.fits(TargetLimits()) == []

    def test_too_many_outputs_reported(self):
        kernel = parse(
            "kernel void f(float a<>, out float o1<>, out float o2<>) {"
            " o1 = a; o2 = a; }"
        ).kernels[0]
        problems = estimate_resources(kernel).fits(TargetLimits(max_kernel_outputs=1))
        assert any("output" in p for p in problems)

    def test_too_many_inputs_reported(self):
        params = ", ".join(f"float s{i}<>" for i in range(10)) + ", out float o<>"
        body = "o = " + " + ".join(f"s{i}" for i in range(10)) + ";"
        kernel = kernel_from(body, params)
        problems = estimate_resources(kernel).fits(TargetLimits(max_kernel_inputs=8))
        assert any("texture units" in p for p in problems)

    def test_instruction_limit_reported(self):
        body = "o = a;" + "o = o * 1.0001 + 0.1;" * 300
        kernel = kernel_from(body)
        problems = estimate_resources(kernel).fits(TargetLimits(max_instructions=100))
        assert any("instructions" in p for p in problems)


class TestMemoryUsage:
    def test_power_of_two_padding(self):
        limits = TargetLimits(requires_power_of_two=True)
        assert padded_texture_extent(100, 100, limits) == (128, 128)
        assert padded_texture_extent(128, 64, limits) == (128, 64)

    def test_square_padding(self):
        limits = TargetLimits(requires_power_of_two=True, requires_square_textures=True)
        assert padded_texture_extent(100, 30, limits) == (128, 128)

    def test_no_padding_on_capable_devices(self):
        limits = TargetLimits(requires_power_of_two=False)
        assert padded_texture_extent(100, 30, limits) == (100, 30)

    def test_total_bytes_accounts_padding(self):
        report = estimate_memory_usage(
            [StreamDeclaration("s", (100, 100), FLOAT)],
            TargetLimits(requires_power_of_two=True),
        )
        assert report.per_stream_bytes["s"] == 128 * 128 * 4
        assert report.total_bytes == 128 * 128 * 4

    def test_vector_elements_use_more_texels(self):
        scalar = estimate_memory_usage([StreamDeclaration("s", (64, 64), FLOAT)])
        vector = estimate_memory_usage([StreamDeclaration("s", (64, 64), FLOAT4)])
        assert vector.total_bytes == 4 * scalar.total_bytes

    def test_reduction_scratch_doubles(self):
        base = estimate_memory_usage([StreamDeclaration("s", (64, 64), FLOAT)])
        with_scratch = estimate_memory_usage(
            [StreamDeclaration("s", (64, 64), FLOAT, reduction_scratch=True)]
        )
        assert with_scratch.total_bytes == 3 * base.total_bytes

    def test_oversized_stream_is_flagged(self):
        report = estimate_memory_usage(
            [StreamDeclaration("s", (4096, 4096), FLOAT)],
            TargetLimits(max_texture_size=2048),
        )
        assert not report.is_certifiable
        assert any("exceeds the maximum texture size" in p for p in report.problems)

    def test_3d_stream_flattens_to_2d(self):
        report = estimate_memory_usage(
            [StreamDeclaration("s", (4, 8, 16), FLOAT)],
            TargetLimits(requires_power_of_two=True),
        )
        assert report.per_stream_bytes["s"] == 32 * 16 * 4

    def test_mebibyte_helper(self):
        report = estimate_memory_usage([StreamDeclaration("s", (512, 512), FLOAT)])
        assert report.total_mebibytes == pytest.approx(1.0)


class TestLoopBoundEdgeCases:
    """Edge cases of the for-loop trip-count derivation that the WCET
    analysis leans on."""

    def test_constant_expression_limit(self):
        analysis = analyze_loop_bounds(kernel_from(
            "o = 0.0; for (int i = 0; i < 4 * 4; i = i + 1) { o += a; }"
        ))
        assert analysis.loops[0].max_trip_count == 16

    def test_min_call_limit_with_parameter_bound(self):
        kernel = kernel_from(
            "o = 0.0; for (int i = 0; i < min(n, 32.0); i = i + 1) { o += a; }",
            params="float a<>, float n, out float o<>",
        )
        analysis = analyze_loop_bounds(kernel, {"params": {"n": (1, 64)}})
        assert analysis.loops[0].max_trip_count == 32

    def test_negative_start(self):
        analysis = analyze_loop_bounds(kernel_from(
            "o = 0.0; for (int i = -4; i < 4; i++) { o += a; }"
        ))
        assert analysis.loops[0].max_trip_count == 8

    def test_variable_on_right_of_condition(self):
        analysis = analyze_loop_bounds(kernel_from(
            "o = 0.0; for (int i = 0; 16 > i; i = i + 1) { o += a; }"
        ))
        assert analysis.loops[0].max_trip_count == 16

    def test_not_equal_condition_counts_like_less_than(self):
        analysis = analyze_loop_bounds(kernel_from(
            "o = 0.0; for (int i = 0; i != 8; i = i + 1) { o += a; }"
        ))
        assert analysis.loops[0].max_trip_count == 8

    def test_not_equal_needs_a_step_dividing_the_distance(self):
        exact = analyze_loop_bounds(kernel_from(
            "o = 0.0; for (int i = 9; i != 0; i -= 3) { o += a; }"))
        assert exact.loops[0].max_trip_count == 3
        skips = analyze_loop_bounds(kernel_from(
            "o = 0.0; for (int i = 0; i != 9; i += 2) { o += a; }"))
        assert not skips.all_bounded
        assert "divide the distance" in skips.loops[0].reason

    def test_descending_with_stride(self):
        analysis = analyze_loop_bounds(kernel_from(
            "o = 0.0; for (int i = 8; i > 0; i = i - 2) { o += a; }"
        ))
        assert analysis.loops[0].max_trip_count == 4

    def test_geometric_compound_assignment(self):
        analysis = analyze_loop_bounds(kernel_from(
            "o = 0.0; for (int i = 1; i < 256; i *= 2) { o += a; }"
        ))
        assert analysis.loops[0].max_trip_count == 8

    def test_geometric_factor_on_left(self):
        analysis = analyze_loop_bounds(kernel_from(
            "o = 0.0; for (int i = 1; i < 256; i = 2 * i) { o += a; }"
        ))
        assert analysis.loops[0].max_trip_count == 8

    def test_geometric_inclusive_limit(self):
        analysis = analyze_loop_bounds(kernel_from(
            "o = 0.0; for (int i = 1; i <= 256; i = i * 2) { o += a; }"
        ))
        assert analysis.loops[0].max_trip_count == 9

    def test_geometric_factor_of_one_is_unbounded(self):
        analysis = analyze_loop_bounds(kernel_from(
            "o = 0.0; for (int i = 1; i < 256; i = i * 1) { o += a; }"
        ))
        assert not analysis.all_bounded
        assert "factor is not above 1" in analysis.loops[0].reason

    def test_geometric_zero_start_is_unbounded(self):
        analysis = analyze_loop_bounds(kernel_from(
            "o = 0.0; for (int i = 0; i < 256; i = i * 2) { o += a; }"
        ))
        assert not analysis.all_bounded

    def test_geometric_trip_cap(self):
        # 100 doublings reach 1e30: past the cap, so no bound (not 64).
        kernel = kernel_from(
            "o = 0.0; for (int i = 1; i < n; i = i * 2) { o += a; }",
            params="float a<>, float n, out float o<>",
        )
        analysis = analyze_loop_bounds(kernel,
                                       {"params": {"n": (1, 1e30)}})
        assert not analysis.all_bounded
        slow = analyze_loop_bounds(kernel_from(
            "o = 0.0; for (float x = 1.0; x < 1000.0; x = x * 1.05) "
            "{ o += a; }"))
        assert "more than 64 steps" in slow.loops[0].reason

    def test_parameter_bound_step(self):
        # The step is bounded by its declared *lower* bound: n = 1 runs
        # 16 trips, and with no lower bound the loop is unbounded.
        kernel = kernel_from(
            "o = 0.0; for (int i = 0; i < 16; i = i + n) { o += a; }",
            params="float a<>, float n, out float o<>",
        )
        assert not analyze_loop_bounds(kernel).all_bounded
        analysis = analyze_loop_bounds(kernel, {"params": {"n": (1, 4)}})
        assert analysis.loops[0].max_trip_count == 16

    def test_nested_loops_with_parameter_bounds(self):
        kernel = kernel_from(
            "o = 0.0;"
            "for (int i = 0; i < n; i = i + 1) {"
            "  for (int j = 0; j < m; j = j + 1) { o += a; } }",
            params="float a<>, float n, float m, out float o<>",
        )
        analysis = analyze_loop_bounds(
            kernel, {"params": {"n": (1, 4), "m": (1, 8)}})
        assert analysis.all_bounded
        assert analysis.max_total_iterations == 32

    def test_unbounded_reason_mentions_kernel_bounds(self):
        kernel = kernel_from(
            "o = 0.0; for (int i = 0; i < n; i = i + 1) { o += a; }",
            params="float a<>, float n, out float o<>",
        )
        analysis = analyze_loop_bounds(kernel)
        assert 'range_specs[kernel]["params"]' in analysis.loops[0].reason

    @pytest.mark.parametrize("body", [
        "if (a > 0.5) { i = 0; }",
        "n = n + 1.0;",
        "i += 1;",
    ], ids=["index", "limit", "index-compound"])
    def test_body_writes_refuse_the_bound(self, body):
        # MISRA C:2012 Rule 14.2: the body must not write the index or a
        # variable the loop condition reads.
        kernel = kernel_from(
            f"o = 0.0; float n = 8.0; for (int i = 0; i < n; i = i + 1) "
            f"{{ o += a; {body} }}")
        analysis = analyze_loop_bounds(kernel)
        assert not analysis.all_bounded
        name = "n" if body.startswith("n") else "i"
        assert "writes" in analysis.loops[0].reason
        assert repr(name) in analysis.loops[0].reason
