"""Unit tests for the Brook Auto certification checker (rules BA-001..BA-012)."""

import pytest

from repro.core.analysis.resources import TargetLimits
from repro.core.certification import RULES, Severity, check_program
from repro.core.parser import parse
from repro.core.reporting import (
    report_to_dict,
    report_to_json,
    report_to_markdown,
    report_to_text,
)
from repro.core.semantic import analyze
from repro.errors import CertificationError


def check(source, target=None, range_specs=None, strict=False):
    return check_program(analyze(parse(source)), target=target,
                         range_specs=range_specs, strict=strict)


COMPLIANT = """
kernel void scale(float a<>, float factor, out float o<>) {
    float acc = 0.0;
    for (int i = 0; i < 4; i = i + 1) {
        acc = acc + a * factor;
    }
    o = acc * 0.25;
}
"""


class TestRuleCatalogue:
    def test_twelve_rules_defined(self):
        assert len(RULES) == 12
        assert set(RULES) == {f"BA-{i:03d}" for i in range(1, 13)}

    def test_every_rule_has_iso_reference(self):
        for rule in RULES.values():
            assert rule.iso_reference
            assert rule.severity is Severity.ERROR


class TestCompliantPrograms:
    def test_compliant_kernel_passes(self):
        report = check(COMPLIANT)
        assert report.is_compliant
        assert report.violations == []

    def test_rule_status_all_pass(self):
        status = check(COMPLIANT).rule_status()
        assert all(status.values())

    def test_sample_program_is_compliant(self, sample_source):
        assert check(sample_source).is_compliant

    def test_loop_metadata_recorded(self):
        report = check(COMPLIANT)
        cert = report.kernels["scale"]
        assert cert.max_loop_iterations == 4
        assert cert.max_stack_bytes is not None

    def test_strict_mode_passes_silently(self):
        check(COMPLIANT, strict=True)


class TestPointerRule:
    def test_pointer_parameter_flagged(self):
        report = check("kernel void f(float *p, out float o<>) { o = 1.0; }")
        assert report.violations_for_rule("BA-001")

    def test_pointer_local_flagged(self):
        report = check(
            "kernel void f(float a<>, out float o<>) { float *p; o = a; }"
        )
        assert report.violations_for_rule("BA-001")

    def test_dereference_in_helper_flagged(self):
        report = check(
            "float deref(float p) { return *p; }\n"
            "kernel void f(float a<>, out float o<>) { o = deref(a); }"
        )
        assert report.violations_for_rule("BA-001")


class TestDynamicMemoryRule:
    def test_malloc_flagged(self):
        report = check(
            "kernel void f(float a<>, out float o<>) {"
            " float p = malloc(4.0); o = a + p; }"
        )
        assert report.violations_for_rule("BA-002")

    def test_free_flagged(self):
        report = check(
            "kernel void f(float a<>, out float o<>) { free(a); o = a; }"
        )
        assert report.violations_for_rule("BA-002")


class TestRecursionRule:
    def test_direct_recursion_flagged(self):
        report = check(
            "float rec(float x) { return rec(x - 1.0); }\n"
            "kernel void f(float a<>, out float o<>) { o = rec(a); }"
        )
        assert report.violations_for_rule("BA-003")
        # Recursion also makes the stack unbounded.
        assert report.violations_for_rule("BA-011")

    def test_mutual_recursion_flagged(self):
        report = check(
            "float even(float x) { return odd(x - 1.0); }\n"
            "float odd(float x) { return even(x - 1.0); }\n"
            "kernel void f(float a<>, out float o<>) { o = even(a); }"
        )
        assert report.violations_for_rule("BA-003")

    def test_recursion_in_unreached_helper_not_flagged(self):
        report = check(
            "float rec(float x) { return rec(x); }\n"
            "kernel void f(float a<>, out float o<>) { o = a; }"
        )
        assert not report.violations_for_rule("BA-003")


class TestGotoRule:
    def test_goto_flagged(self):
        report = check(
            "kernel void f(float a<>, out float o<>) { o = a; goto done; }"
        )
        assert report.violations_for_rule("BA-004")


class TestLoopRule:
    def test_while_loop_flagged(self):
        report = check(
            "kernel void f(float a<>, out float o<>) {"
            " o = 0.0; float i = 0.0; while (i < a) { i += 1.0; } }"
        )
        assert report.violations_for_rule("BA-005")

    def test_do_while_flagged_as_loop_and_subset(self):
        report = check(
            "kernel void f(float a<>, out float o<>) {"
            " float i = 0.0; do { i += 1.0; } while (i < a); o = i; }"
        )
        assert report.violations_for_rule("BA-005")
        assert report.violations_for_rule("BA-010")

    def test_data_dependent_for_needs_declared_bound(self):
        source = (
            "kernel void f(float a<>, float n, out float o<>) {"
            " o = 0.0; for (int i = 0; i < n; i = i + 1) { o += a; } }"
        )
        assert check(source).violations_for_rule("BA-005")
        bounded = check(source, range_specs={"f": {"params": {"n": (1, 32)}}})
        assert not bounded.violations_for_rule("BA-005")
        assert bounded.kernels["f"].max_loop_iterations == 32

    @pytest.mark.parametrize("body, name", [
        ("if (i == 5 && again > 0.5) { i = 0; again = 0.0; }", "i"),
        ("n = n + 1.0;", "n"),
    ], ids=["index", "limit"])
    def test_body_writes_are_refused(self, body, name):
        # MISRA C:2012 Rule 14.2: the index restarting at 0 once runs 15
        # trips; a growing limit runs past its declared maximum.
        source = (
            "kernel void f(float again, float x<>, out float o<>) {"
            " float acc = 0.0; float n = 10.0;"
            f" for (int i = 0; i < n; i = i + 1) {{ acc = acc + 1.0; {body} }}"
            " o = acc; }")
        violations = check(source).violations_for_rule("BA-005")
        assert len(violations) == 1 and repr(name) in violations[0].message
        with pytest.raises(CertificationError):
            check(source, strict=True)


class TestStreamAndResourceRules:
    def test_scatter_output_flagged(self):
        report = check(
            "kernel void f(float a<>, out float o[]) { o[0] = a; }"
        )
        assert report.violations_for_rule("BA-006")

    def test_two_outputs_flagged_for_single_rt_target(self):
        report = check(
            "kernel void f(float a<>, out float o1<>, out float o2<>) {"
            " o1 = a; o2 = a; }",
            target=TargetLimits(max_kernel_outputs=1),
        )
        assert report.violations_for_rule("BA-007")

    def test_two_outputs_accepted_on_mrt_target(self):
        report = check(
            "kernel void f(float a<>, out float o1<>, out float o2<>) {"
            " o1 = a; o2 = a; }",
            target=TargetLimits(name="mrt", max_kernel_outputs=4),
        )
        assert not report.violations_for_rule("BA-007")

    def test_too_many_inputs_flagged(self):
        params = ", ".join(f"float s{i}<>" for i in range(6)) + ", out float o<>"
        body = "o = " + " + ".join(f"s{i}" for i in range(6)) + ";"
        report = check(
            f"kernel void f({params}) {{ {body} }}",
            target=TargetLimits(max_kernel_inputs=4),
        )
        assert report.violations_for_rule("BA-008")

    def test_instruction_budget_flagged(self):
        body = "o = a;" + " o = o * 1.0001 + 0.5;" * 200
        report = check(
            f"kernel void f(float a<>, out float o<>) {{ {body} }}",
            target=TargetLimits(max_instructions=64),
        )
        assert report.violations_for_rule("BA-009")

    def test_write_to_input_stream_flagged(self):
        report = check(
            "kernel void f(float a<>, out float o<>) { a = 1.0; o = a; }"
        )
        assert report.violations_for_rule("BA-012")


class TestReportAndStrictMode:
    def test_strict_mode_raises_with_violations(self):
        with pytest.raises(CertificationError) as excinfo:
            check("kernel void f(float *p, out float o<>) { o = 1.0; }",
                  strict=True)
        assert excinfo.value.violations

    def test_violation_str_includes_rule_and_location(self):
        report = check(
            "kernel void f(float a<>, out float o<>) { o = a; goto x; }"
        )
        text = str(report.violations_for_rule("BA-004")[0])
        assert "BA-004" in text and "f" in text

    def test_report_to_dict_structure(self):
        report = check(COMPLIANT)
        data = report_to_dict(report)
        assert data["compliant"] is True
        assert set(data["rules"]) == set(RULES)
        assert "scale" in data["kernels"]

    def test_report_to_json_is_valid(self):
        import json
        report = check(COMPLIANT)
        parsed = json.loads(report_to_json(report))
        assert parsed["compliant"] is True

    def test_report_to_text_mentions_verdict(self):
        assert "COMPLIANT" in report_to_text(check(COMPLIANT))
        non = check("kernel void f(float *p, out float o<>) { o = 1.0; }")
        assert "NON-COMPLIANT" in report_to_text(non)

    def test_report_to_markdown_has_rule_table(self):
        text = report_to_markdown(check(COMPLIANT))
        assert "| Rule |" in text
        assert "BA-001" in text

    def test_multi_kernel_report_isolates_violations(self):
        report = check(
            "kernel void good(float a<>, out float o<>) { o = a; }\n"
            "kernel void bad(float a<>, out float o<>) { o = a; goto x; }"
        )
        assert report.kernels["good"].is_compliant
        assert not report.kernels["bad"].is_compliant
        assert not report.is_compliant
