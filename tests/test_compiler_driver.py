"""Tests for the compiler driver (BrookAutoCompiler / compile_source)."""

import pytest

from repro.core import TargetLimits, compile_source
from repro.core.compiler import BrookAutoCompiler, CompilerOptions
from repro.errors import CertificationError


TWO_OUTPUT = (
    "kernel void pair(float a<>, out float lo<>, out float hi<>) {"
    " lo = min(a, 0.0); hi = max(a, 0.0); }"
)


class TestDriver:
    def test_compile_simple_kernel(self, sample_source):
        program = compile_source(sample_source)
        assert program.is_certified
        assert set(program.kernels) == {"saxpy", "gather_scale", "total"}
        assert program.kernel_groups["saxpy"] == ["saxpy"]

    def test_artifacts_emitted_for_all_backends(self, sample_source):
        program = compile_source(sample_source)
        kernel = program.kernel("saxpy")
        assert kernel.glsl_es and "gl_FragColor" in kernel.glsl_es
        assert kernel.desktop_glsl and "texture2DRect" not in kernel.glsl_es
        assert kernel.c_source and "brook_cpu_saxpy" in kernel.c_source

    def test_emission_can_be_disabled(self, sample_source):
        program = compile_source(sample_source, emit_c=False,
                                 emit_desktop_glsl=False)
        kernel = program.kernel("saxpy")
        assert kernel.c_source is None
        assert kernel.desktop_glsl is None
        assert kernel.glsl_es is not None

    def test_unknown_option_rejected(self, sample_source):
        with pytest.raises(TypeError):
            compile_source(sample_source, optimise_harder=True)

    def test_unknown_kernel_lookup(self, sample_source):
        program = compile_source(sample_source)
        with pytest.raises(KeyError):
            program.kernel("nope")

    def test_helpers_exposed(self, sample_source):
        program = compile_source(sample_source)
        assert "square" in program.helpers()

    def test_original_definitions_preserved(self, sample_source):
        program = compile_source(sample_source)
        assert set(program.original_definitions) == \
            {"saxpy", "gather_scale", "total"}

    def test_max_loop_iterations_attached(self, sample_source):
        program = compile_source(sample_source)
        assert program.kernel("gather_scale").max_loop_iterations == 4


class TestSplittingAndTargets:
    def test_two_output_kernel_split_for_gles2(self):
        program = compile_source(TWO_OUTPUT)
        assert program.kernel_groups["pair"] == ["pair__lo", "pair__hi"]
        assert program.is_certified
        for name in program.kernel_groups["pair"]:
            assert len(program.kernel(name).definition.output_params) == 1
            assert program.kernel(name).original_name == "pair"

    def test_two_output_kernel_not_split_for_mrt_target(self):
        options = CompilerOptions(target=TargetLimits(name="desktop",
                                                      max_kernel_outputs=4))
        program = BrookAutoCompiler(options).compile(TWO_OUTPUT)
        assert program.kernel_groups["pair"] == ["pair"]

    def test_splitting_can_be_disabled(self):
        program = compile_source(TWO_OUTPUT, split_outputs=False, strict=False)
        assert program.kernel_groups["pair"] == ["pair"]
        assert not program.is_certified   # violates BA-007 on the default target

    def test_range_specs_propagate_to_split_kernels(self):
        source = (
            "kernel void pair(float a<>, float n, out float x<>, out float y<>) {"
            " x = 0.0; y = 0.0;"
            " for (int i = 0; i < n; i = i + 1) { x += a; y -= a; } }"
        )
        program = compile_source(
            source, range_specs={"pair": {"params": {"n": (1, 16)}}})
        assert program.is_certified
        for name in program.kernel_groups["pair"]:
            assert program.kernel(name).max_loop_iterations == 16

    def test_scalarize_option_composes_with_splitting(self):
        source = "kernel void copy(float2 a<>, out float2 o<>) { o.x = a.x; o.y = a.y; }"
        program = compile_source(source, scalarize=True)
        # Scalarization yields two scalar outputs, which the single-render-
        # target default then splits into one kernel per output.
        assert program.kernel_groups["copy"] == ["copy__o_x", "copy__o_y"]
        names = set()
        for piece in program.kernel_groups["copy"]:
            names |= {p.name for p in program.kernel(piece).definition.params}
        assert {"a_x", "a_y"} <= names
        assert program.is_certified

    def test_strict_mode_raises(self):
        with pytest.raises(CertificationError):
            compile_source("kernel void f(float *p, out float o<>) { o = 1.0; }")

    def test_non_strict_mode_returns_report(self):
        program = compile_source(
            "kernel void f(float *p, out float o<>) { o = 1.0; }", strict=False
        )
        assert not program.is_certified
        assert program.certification.violations_for_rule("BA-001")

    def test_constant_folding_applied(self):
        program = compile_source(
            "kernel void f(float a<>, out float o<>) { o = a * (2.0 + 2.0); }"
        )
        assert "4.0" in program.kernel("f").glsl_es
