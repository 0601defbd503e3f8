"""Tests for brooklint (``repro.core.analysis.lint``).

Three contracts:

* every BL rule fires on a minimal kernel exhibiting the defect — with
  the stable code, the right severity and a source location — and stays
  silent on the corresponding clean kernel (no false positives);
* the whole seed application suite is lint-clean at error *and* warning
  severity, with every gather proved in-bounds, while a deliberately
  out-of-bounds fixture is flagged as a BL-101 error; and
* the ``brookauto lint`` CLI and the SARIF serialisation expose the same
  findings (exit code 1 on error severity).
"""

import json

import numpy as np
import pytest

from repro.apps.base import get_application, list_applications
from repro.cli import main
from repro.core.analysis.lint import (
    LINT_RULES,
    LintSeverity,
    lint_source,
    to_sarif,
)
from repro.core.compiler import CompilerOptions, compile_source
from repro.errors import GatherBoundsError, KernelLaunchError, StreamError
from repro.runtime import BrookRuntime

#: A gather that is provably out of bounds: the stream index is 0..3 and
#: the lookup adds 10 against a declared extent of 4.
OOB_SOURCE = """
kernel void oob(float i<>, float lut[], out float o<>) {
    o = lut[i + 10.0];
}
"""

OOB_SPEC = {"oob": {"gathers": {"lut": (4,)},
                    "params": {"i": (0, 3)}}}


def codes(report):
    return [d.rule for d in report.diagnostics]


class TestRuleRegistry:
    def test_codes_are_stable(self):
        assert set(LINT_RULES) == {
            "BL-100", "BL-101", "BL-102", "BL-103", "BL-104", "BL-105",
            "BL-106", "BL-107", "BL-110", "BL-111", "BL-112",
            "BF-200", "BF-201", "BF-202", "BF-203", "BF-204", "BF-205",
            "BF-206",
            "BV-300", "BV-301", "BV-302", "BV-303"}

    def test_severities(self):
        assert LINT_RULES["BL-101"].severity is LintSeverity.ERROR
        assert LINT_RULES["BL-102"].severity is LintSeverity.WARNING
        assert LINT_RULES["BL-110"].severity is LintSeverity.NOTE


class TestRules:
    def test_bl100_skipped_source(self):
        report = lint_source("this is not brook", source_file="junk.br")
        assert codes(report) == ["BL-100"]
        assert not report.has_errors

    def test_bl101_proved_out_of_bounds(self):
        report = lint_source(OOB_SOURCE, specs=OOB_SPEC,
                             source_file="fixture.br")
        oob = [d for d in report.diagnostics if d.rule == "BL-101"]
        assert len(oob) == 1
        assert oob[0].severity is LintSeverity.ERROR
        assert oob[0].kernel == "oob"
        assert oob[0].source_file == "fixture.br"
        assert oob[0].location is not None
        assert (oob[0].location.line, oob[0].location.column) == (3, 12)
        assert report.has_errors

    def test_bl102_unproven_gather(self):
        report = lint_source(
            "kernel void g(float i<>, float lut[], out float o<>) {"
            " o = lut[i]; }",
            specs={"g": {"gathers": {"lut": (16,)}}})
        assert "BL-102" in codes(report)
        assert not report.has_errors

    def test_proved_gather_is_silent(self):
        report = lint_source(
            "kernel void g(float i<>, float lut[], float n, out float o<>) {"
            " o = lut[clamp(i, 0.0, n - 1.0)]; }",
            specs={"g": {"gathers": {"lut": ("n",)},
                         "params": {"n": (1, 16)}}})
        assert "BL-102" not in codes(report)
        assert report.summary()["gathers_proved"] == 1

    def test_bl103_division_range_contains_zero(self):
        report = lint_source(
            "kernel void d(float a<>, float k, out float o<>) {"
            " o = a / k; }",
            specs={"d": {"params": {"k": (-1.0, 1.0)}}})
        bl103 = [d for d in report.diagnostics if d.rule == "BL-103"]
        assert len(bl103) == 1
        assert bl103[0].severity is LintSeverity.WARNING

    def test_bl103_provably_zero_is_error(self):
        report = lint_source(
            "kernel void d(float a<>, out float o<>) {"
            " o = a / 0.0; }")
        bl103 = [d for d in report.diagnostics if d.rule == "BL-103"]
        assert len(bl103) == 1
        assert bl103[0].severity is LintSeverity.ERROR

    def test_bl103_positive_divisor_is_silent(self):
        report = lint_source(
            "kernel void d(float a<>, float k, out float o<>) {"
            " o = a / k; }",
            specs={"d": {"params": {"k": (0.5, 2.0)}}})
        assert "BL-103" not in codes(report)

    def test_bl104_float_equality(self):
        report = lint_source(
            "kernel void e(float a<>, out float o<>) {"
            " o = (a == 0.5) ? 1.0 : 0.0; }")
        assert "BL-104" in codes(report)

    def test_bl104_integer_equality_is_silent(self):
        report = lint_source(
            "kernel void e(float a<>, out float o<>) {"
            " o = a; for (int i = 0; i < 4; i = i + 1) {"
            " if (i == 2) { o = o + 1.0; } } }")
        assert "BL-104" not in codes(report)

    def test_bl105_uninitialized_read(self):
        report = lint_source(
            "kernel void u(float a<>, out float o<>) {"
            " float t; o = a + t; }")
        assert "BL-105" in codes(report)

    def test_bl105_branch_assignment_counts(self):
        # One path assigns before the read: union semantics stay silent.
        report = lint_source(
            "kernel void u(float a<>, out float o<>) {"
            " float t; if (a > 0.0) { t = 1.0; } o = a + t; }")
        assert "BL-105" not in codes(report)

    def test_bl106_dead_store(self):
        report = lint_source(
            "kernel void s(float a<>, out float o<>) {"
            " float unused = a * 2.0; o = a; }")
        assert "BL-106" in codes(report)

    def test_bl107_unassigned_output(self):
        # The compiler itself rejects never-assigned outputs, so the rule
        # is exercised on the raw parse tree (the linter's defence in
        # depth for ASTs that bypass semantic analysis).
        from repro.core.analysis.lint.rules import kernel_diagnostics
        from repro.core.analysis.ranges import (RangeContext,
                                                analyze_kernel_ranges)
        from repro.core.parser import parse

        unit = parse("kernel void w(float a<>, out float o<>, out float p<>)"
                     " { o = a; }")
        kernel = unit.kernels[0]
        diagnostics = kernel_diagnostics(
            kernel, analyze_kernel_ranges(kernel), RangeContext(None),
            "<source>")
        bl107 = [d for d in diagnostics if d.rule == "BL-107"]
        assert len(bl107) == 1
        assert "p" in bl107[0].message

    def test_bl110_fast_path_note(self):
        report = lint_source(
            "kernel void n(float a<>, out float o<>) {"
            " o = 0.0; if (a > 0.0) { o = a; } }")
        assert "BL-110" in codes(report)
        bl110 = [d for d in report.diagnostics if d.rule == "BL-110"]
        assert "straight-line whole-array (BV-300) program" in \
            bl110[0].message

    def test_bl111_fusion_boundary(self):
        # The producer's early return carries a mask that would suppress
        # the consumer's statements, so the pair cannot fuse.
        report = lint_source(
            "kernel void first(float a<>, out float mid<>) {\n"
            "    if (a > 0.0) { mid = a; return; }\n"
            "    mid = 0.0;\n"
            "}\n"
            "kernel void second(float mid<>, out float o<>)"
            " { o = mid * 2.0; }")
        bl111 = [d for d in report.diagnostics if d.rule == "BL-111"]
        assert len(bl111) == 1
        assert "first" in bl111[0].message and "second" in bl111[0].message

    def test_bl111_silent_when_fusable(self):
        report = lint_source(
            "kernel void first(float a<>, out float mid<>) { mid = a; }\n"
            "kernel void second(float mid<>, out float o<>)"
            " { o = mid * 2.0; }")
        assert "BL-111" not in codes(report)


class TestSuiteLintClean:
    """Every reference application is clean; the OOB fixture is not."""

    @pytest.mark.parametrize("name", list_applications())
    def test_app_is_lint_clean(self, name):
        from repro.core.analysis.lint import lint_program

        app = get_application(name)
        options = CompilerOptions(range_specs=dict(app.range_specs),
                                  strict=False)
        program = compile_source(app.brook_source, filename=f"{name}.br",
                                 options=options)
        report = lint_program(program)
        noisy = report.at_severity(LintSeverity.WARNING)
        assert noisy == [], [str(d) for d in noisy]

    @pytest.mark.parametrize("name", list_applications())
    def test_app_gathers_all_proved(self, name):
        from repro.core.analysis.lint import lint_program

        app = get_application(name)
        options = CompilerOptions(range_specs=dict(app.range_specs),
                                  strict=False)
        program = compile_source(app.brook_source, filename=f"{name}.br",
                                 options=options)
        summary = lint_program(program).summary()
        assert summary["gathers_proved"] == summary["gathers"]

    def test_oob_fixture_is_flagged(self):
        report = lint_source(OOB_SOURCE, specs=OOB_SPEC)
        assert report.has_errors
        assert "BL-101" in codes(report)


class TestSarif:
    def test_sarif_structure(self):
        report = lint_source(OOB_SOURCE, specs=OOB_SPEC,
                             source_file="fixture.br")
        doc = to_sarif(report)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "brooklint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "BL-101" in rule_ids
        results = [r for r in run["results"] if r["ruleId"] == "BL-101"]
        assert len(results) == 1
        location = results[0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "fixture.br"
        assert location["region"]["startLine"] == 3

    def test_sarif_only_lists_used_rules(self):
        report = lint_source(
            "kernel void ok(float a<>, out float o<>) { o = a; }")
        doc = to_sarif(report)
        assert doc["runs"][0]["tool"]["driver"]["rules"] == []
        assert doc["runs"][0]["results"] == []


class TestLintCli:
    def test_lint_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.br"
        path.write_text("kernel void ok(float a<>, out float o<>) { o = a; }")
        assert main(["lint", str(path)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_lint_error_file_exits_one(self, tmp_path, capsys):
        # Provably-zero divisor: the only error-severity finding that
        # needs no range spec.
        path = tmp_path / "bad.br"
        path.write_text("kernel void d(float a<>, out float o<>) {"
                        " o = a / 0.0; }")
        assert main(["lint", str(path)]) == 1
        assert "BL-103" in capsys.readouterr().out

    def test_lint_apps_is_clean(self, capsys):
        assert main(["lint", "--apps"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out

    def test_lint_python_file_extraction(self, tmp_path, capsys):
        path = tmp_path / "app.py"
        path.write_text('SOURCE = """\n'
                        'kernel void py(float a<>, out float o<>) {'
                        ' o = (a == 1.0) ? a : 0.0; }\n'
                        '"""\n')
        assert main(["lint", str(path)]) == 0
        assert "BL-104" in capsys.readouterr().out

    def test_lint_json_format(self, tmp_path, capsys):
        path = tmp_path / "ok.br"
        path.write_text("kernel void ok(float a<>, out float o<>) { o = a; }")
        assert main(["lint", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernels"] == ["ok"]

    def test_lint_sarif_output_file(self, tmp_path, capsys):
        path = tmp_path / "ok.br"
        path.write_text("kernel void ok(float a<>, out float o<>) { o = a; }")
        sarif_path = tmp_path / "out.sarif"
        assert main(["lint", str(path), "--format", "sarif",
                     "--output", str(sarif_path)]) == 0
        doc = json.loads(sarif_path.read_text())
        assert doc["runs"][0]["tool"]["driver"]["name"] == "brooklint"

    def test_lint_no_inputs_is_usage_error(self, capsys):
        assert main(["lint"]) == 2
        assert "no inputs" in capsys.readouterr().err

    def test_certify_lint_flag(self, tmp_path, capsys):
        path = tmp_path / "ok.br"
        path.write_text("kernel void ok(float a<>, out float o<>) { o = a; }")
        assert main(["certify", str(path), "--lint"]) == 0
        out = capsys.readouterr().out
        assert "brooklint summary:" in out
        assert "certification COMPLIANT" in out


class TestGatherBoundsCrossBackend:
    """The divergence BL-101/BL-102 warn about, observed at run time.

    The same out-of-bounds gather raises a typed error on the CPU backend
    (host memory is unprotected) and silently edge-clamps on the OpenGL
    ES 2 backend (texture sampler semantics) — see docs/runtime.md.
    """

    SOURCE = OOB_SOURCE

    def _run(self, backend):
        with BrookRuntime(backend=backend) as runtime:
            module = runtime.compile(self.SOURCE)
            lut = runtime.stream_from(
                np.arange(4, dtype=np.float32), name="lut")
            i = runtime.stream_from(
                np.arange(4, dtype=np.float32), name="i")
            out = runtime.stream((4,), name="o")
            module.oob(i, lut, out)
            return out.read()

    def test_cpu_backend_raises_kernel_launch_error(self):
        with pytest.raises(KernelLaunchError):
            self._run("cpu")

    def test_cpu_backend_error_is_also_a_stream_error(self):
        with pytest.raises(StreamError) as excinfo:
            self._run("cpu")
        assert isinstance(excinfo.value, GatherBoundsError)

    def test_gles2_backend_edge_clamps(self):
        result = self._run("gles2")
        np.testing.assert_allclose(result, 3.0)
