"""Tests for brookvec (repro.core.analysis.vectorize) and its plumbing.

Covers (a) the verdict taxonomy - BV-300 for divergence-free kernels,
BV-301 for divergent-but-proved ones, BV-302 for constructs outside the
vectorizable subset, BV-303 for unproved speculation obligations,
(b) the verdict/executable consistency contract of ``build_vector_path``,
(c) the ``enable_fast_path`` compiler option that switches the vector
tier (compile-cache fingerprint participation), and
(d) the brooklint integration: BV facts, the BL-110 cross-reference and
the opt-in BV-3xx notes with SARIF rule descriptors.
"""

import json

import numpy as np
import pytest

from repro.core.analysis.lint import (LINT_RULES, lint_program, lint_source,
                                      sarif_json)
from repro.core.analysis.vectorize import (VERDICT_FALLBACK, VERDICT_MASKED,
                                           VERDICT_UNPROVED,
                                           VERDICT_VECTORIZED,
                                           analyze_kernel_vectorization)
from repro.core.compiler import CompilerOptions, compile_source
from repro.core.exec.vectorized import build_vector_path
from repro.runtime import BrookRuntime

SOURCE = """
float double_it(float v) {
    return v * 2.0;
}

kernel void straight(float x<>, float y<>, out float r<>) {
    r = x * 3.0 + y;
}

kernel void uniform_branch(float flag, float x<>, out float r<>) {
    if (flag > 0.0) {
        r = x * 2.0;
    } else {
        r = x * 0.5;
    }
}

kernel void divergent(float x<>, out float r<>) {
    if (x > 0.0) {
        r = x * 2.0;
    } else {
        r = x * 0.5;
    }
}

kernel void masked_div(float x<>, float d, out float r<>) {
    if (x > 0.0) {
        r = x / d;
    } else {
        r = x;
    }
}

kernel void whiles(float x<>, out float r<>) {
    float acc = x;
    while (acc < 4.0) {
        acc = acc + 1.0;
    }
    r = acc;
}

kernel void helped(float x<>, out float r<>) {
    if (x > 0.0) {
        r = double_it(x);
    } else {
        r = x;
    }
}

reduce void total(float v<>, reduce float acc) {
    acc += v;
}

reduce void biggest(float v<>, reduce float acc) {
    if (v > acc) {
        acc = v;
    }
}
"""


@pytest.fixture(scope="module")
def program():
    return compile_source(SOURCE, strict=False,
                          options=CompilerOptions(strict=False))


def _analyze(program, name, spec=None):
    kernel = program.kernel(name).definition
    return analyze_kernel_vectorization(kernel, program.helpers(), spec=spec)


# --------------------------------------------------------------------------- #
# Verdict taxonomy
# --------------------------------------------------------------------------- #
class TestVerdicts:
    def test_straight_line_is_vectorized(self, program):
        report = _analyze(program, "straight")
        assert report.verdict == VERDICT_VECTORIZED == "BV-300"
        assert report.vectorizable and not report.divergent

    def test_uniform_branch_stays_unmasked(self, program):
        # The condition only reads a scalar parameter, so every lane
        # agrees and no mask is needed.
        report = _analyze(program, "uniform_branch")
        assert report.verdict == VERDICT_VECTORIZED
        assert not report.divergent

    def test_divergent_branch_is_masked(self, program):
        report = _analyze(program, "divergent")
        assert report.verdict == VERDICT_MASKED == "BV-301"
        assert report.divergent
        assert sum(1 for b in report.branches
                   if b.kind == "divergent") == 1

    def test_while_loop_falls_back_with_location(self, program):
        report = _analyze(program, "whiles")
        assert report.verdict == VERDICT_FALLBACK == "BV-302"
        assert report.blocking()
        assert report.location is not None

    def test_unproved_division_obligation(self, program):
        # ``d`` is unbounded, so the masked-out lanes of ``x / d`` might
        # divide by zero; the obligation fails and names the interval.
        report = _analyze(program, "masked_div")
        assert report.verdict == VERDICT_UNPROVED == "BV-303"
        failed = [o for o in report.obligations if not o.proved]
        assert failed and failed[0].kind == "division-by-zero"
        assert "zero" in report.blocking()

    def test_bounded_divisor_discharges_the_obligation(self, program):
        spec = {"params": {"d": {"min": 1.0, "max": 8.0}}}
        report = _analyze(program, "masked_div", spec=spec)
        assert report.verdict == VERDICT_MASKED
        assert report.obligations_proved == len(report.obligations)

    def test_facts_counters(self, program):
        facts = _analyze(program, "divergent").to_facts()
        assert facts["vector_verdict"] == VERDICT_MASKED
        assert facts["divergent_branches"] == 1
        assert facts["divergent_loops"] == 0


# --------------------------------------------------------------------------- #
# build_vector_path: verdicts never promise a path that will not run
# --------------------------------------------------------------------------- #
class TestConsistency:
    @pytest.mark.parametrize("name", ["straight", "uniform_branch",
                                      "divergent", "helped"])
    def test_approved_kernels_get_a_program(self, program, name):
        kernel = program.kernel(name).definition
        vec, report = build_vector_path(kernel, program.helpers())
        if report.vectorizable:
            assert vec is not None
        else:
            assert vec is None

    @pytest.mark.parametrize("name", ["whiles", "masked_div"])
    def test_rejected_kernels_get_none(self, program, name):
        kernel = program.kernel(name).definition
        vec, report = build_vector_path(kernel, program.helpers())
        assert vec is None
        assert not report.vectorizable

    def test_reductions_are_vectorized(self, program):
        for name, verdict, want in (("total", VERDICT_VECTORIZED, [6.0, 4.0]),
                                    ("biggest", VERDICT_MASKED, [4.0, 3.0])):
            kernel = program.kernel(name).definition
            vec, report = build_vector_path(kernel, program.helpers())
            assert report.verdict == verdict, name
            outputs, _ = vec.run(
                2, stream_inputs={"v": np.float32([4.0, 1.0])},
                reduce_inputs={"acc": np.float32([2.0, 3.0])})
            np.testing.assert_array_equal(outputs["acc"], want)


# --------------------------------------------------------------------------- #
# Compiler option wiring (satellite: cache fingerprint regression)
# --------------------------------------------------------------------------- #
class TestOptions:
    def test_compile_attaches_vector_paths(self):
        compiled = compile_source(
            SOURCE, options=CompilerOptions(strict=False))
        assert compiled.kernel("straight").vector_path is not None
        assert compiled.kernel("divergent").vector_path is not None
        assert compiled.kernel("whiles").vector_path is None
        assert compiled.kernel("whiles").vector_report is not None

    def test_option_disables_compilation(self):
        disabled = compile_source(
            SOURCE, options=CompilerOptions(strict=False,
                                            enable_fast_path=False))
        assert all(k.vector_path is None for k in disabled.kernels.values())

    def test_option_is_part_of_the_fingerprint(self):
        # Regression: toggling the vector tier must miss the per-runtime
        # compile cache.
        assert CompilerOptions().fingerprint() != \
            CompilerOptions(enable_fast_path=False).fingerprint()
        assert CompilerOptions(enable_fast_path=True).fingerprint() == \
            CompilerOptions().fingerprint()

    def test_runtime_cache_round_trip(self):
        source = ("kernel void scale(float g, float x<>, out float r<>) "
                  "{ r = g * x; }")
        with BrookRuntime(backend="cpu") as rt:
            rt.compile(source)
            before = rt.compile_cache_info()
            rt.compile(source)
            after = rt.compile_cache_info()
            assert after["hits"] == before["hits"] + 1
        vector_off = CompilerOptions(enable_fast_path=False)
        with BrookRuntime(backend="cpu", compiler_options=vector_off) as rt:
            module = rt.compile(source)
            assert module.program.kernel("scale").vector_path is None


# --------------------------------------------------------------------------- #
# Lint integration: facts, BL-110 cross-reference, BV notes, SARIF
# --------------------------------------------------------------------------- #
class TestLintIntegration:
    def test_facts_carry_the_verdict(self, program):
        report = lint_program(program)
        assert report.facts["straight"]["vector_verdict"] == VERDICT_VECTORIZED
        assert report.facts["whiles"]["vector_verdict"] == VERDICT_FALLBACK
        assert report.facts["total"]["vector_verdict"] == VERDICT_VECTORIZED

    def test_bl110_cross_references_the_verdict(self, program):
        report = lint_program(program)
        by_kernel = {d.kernel: d for d in report.diagnostics
                     if d.rule == "BL-110"}
        assert "whole-array" in by_kernel["divergent"].message
        assert "BV-301" in by_kernel["divergent"].message
        assert "masked interpreter" in by_kernel["whiles"].message
        assert "BV-302" in by_kernel["whiles"].message

    def test_bv_notes_are_opt_in(self, program):
        plain = lint_program(program)
        assert not any(d.rule.startswith("BV-") for d in plain.diagnostics)
        vectorized = lint_program(program, vectorize=True)
        rules = {d.kernel: d.rule for d in vectorized.diagnostics
                 if d.rule.startswith("BV-")}
        assert rules["straight"] == "BV-300"
        assert rules["divergent"] == "BV-301"
        assert rules["whiles"] == "BV-302"
        assert rules["masked_div"] == "BV-303"
        assert rules["total"] == "BV-300"
        assert rules["biggest"] == "BV-301"

    def test_bv_rules_are_registered(self):
        for code in ("BV-300", "BV-301", "BV-302", "BV-303"):
            assert code in LINT_RULES

    def test_sarif_carries_bv_rule_descriptors(self, program):
        report = lint_program(program, vectorize=True)
        sarif = json.loads(sarif_json(report))
        run = sarif["runs"][0]
        rule_ids = {rule["id"]
                    for rule in run["tool"]["driver"]["rules"]}
        assert {"BV-301", "BV-302", "BV-303"} <= rule_ids
        assert any(result["ruleId"] == "BV-303"
                   for result in run["results"])

    def test_lint_source_threads_the_flag(self):
        report = lint_source(SOURCE, vectorize=True)
        assert any(d.rule.startswith("BV-") for d in report.diagnostics)
