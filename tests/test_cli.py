"""Tests for the ``brookauto`` command-line interface."""

import json

import pytest

from repro.cli import main

COMPLIANT = """
kernel void scale(float a<>, float k, out float o<>) {
    o = a * k;
}
"""

NON_COMPLIANT = """
kernel void f(float *p, out float o<>) {
    o = p[0];
}
"""


@pytest.fixture
def compliant_file(tmp_path):
    path = tmp_path / "scale.br"
    path.write_text(COMPLIANT)
    return path


@pytest.fixture
def non_compliant_file(tmp_path):
    path = tmp_path / "legacy.br"
    path.write_text(NON_COMPLIANT)
    return path


class TestCompileCommand:
    def test_compile_writes_artifacts(self, compliant_file, tmp_path, capsys):
        output = tmp_path / "out"
        exit_code = main(["compile", str(compliant_file),
                          "--output-dir", str(output)])
        assert exit_code == 0
        assert (output / "scale.es2.frag").exists()
        assert (output / "scale.gl.frag").exists()
        assert (output / "scale.cpu.c").exists()
        assert "COMPLIANT" in capsys.readouterr().out

    def test_compile_rejects_non_compliant_source(self, non_compliant_file, capsys):
        exit_code = main(["compile", str(non_compliant_file)])
        assert exit_code == 1
        assert "error" in capsys.readouterr().err

    def test_compile_no_strict_accepts_it(self, non_compliant_file, tmp_path):
        exit_code = main(["compile", str(non_compliant_file), "--no-strict",
                          "--output-dir", str(tmp_path / "o")])
        assert exit_code == 0


class TestCheckCommand:
    def test_check_compliant(self, compliant_file, capsys):
        assert main(["check", str(compliant_file)]) == 0
        assert "COMPLIANT" in capsys.readouterr().out

    def test_check_non_compliant_exit_code(self, non_compliant_file, capsys):
        assert main(["check", str(non_compliant_file)]) == 2
        assert "BA-001" in capsys.readouterr().out

    def test_check_json_format(self, compliant_file, capsys):
        main(["check", str(compliant_file), "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert data["compliant"] is True

    def test_check_markdown_format(self, compliant_file, capsys):
        main(["check", str(compliant_file), "--format", "markdown"])
        assert "| Rule |" in capsys.readouterr().out

    def test_check_on_constrained_device(self, compliant_file):
        assert main(["check", str(compliant_file),
                     "--device", "constrained-es2"]) == 0


class TestRunAppAndEvaluate:
    def test_run_app_validates(self, capsys):
        exit_code = main(["run-app", "image_filter", "--backend", "gles2",
                          "--size", "16"])
        assert exit_code == 0
        assert "validation PASSED" in capsys.readouterr().out

    def test_run_app_cpu_backend(self, capsys):
        assert main(["run-app", "sgemm", "--backend", "cpu", "--size", "8"]) == 0

    def test_run_app_unknown_rejected(self):
        with pytest.raises(SystemExit):
            main(["run-app", "raytracer"])

    def test_evaluate_figure1(self, capsys):
        assert main(["evaluate", "figure1"]) == 0
        assert "26.7" in capsys.readouterr().out

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestBackendsCommand:
    def test_lists_registered_backends(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("cpu", "gles2", "cal"):
            assert name in out
        assert "videocore-iv" in out
        assert "aliases" in out

    def test_lists_custom_backend(self, capsys):
        from repro.backends import CPUBackend, register_backend, unregister_backend

        register_backend("cli-test", lambda device=None: CPUBackend(),
                         description="registered by the CLI test")
        try:
            assert main(["backends"]) == 0
            assert "cli-test" in capsys.readouterr().out
        finally:
            unregister_backend("cli-test")


class TestCertifyCommand:
    def test_certify_compliant_exits_zero(self, compliant_file, capsys):
        assert main(["certify", str(compliant_file)]) == 0
        out = capsys.readouterr().out
        assert "certification COMPLIANT" in out

    def test_certify_non_compliant_exits_one(self, non_compliant_file, capsys):
        assert main(["certify", str(non_compliant_file)]) == 1
        assert "NON-COMPLIANT" in capsys.readouterr().out

    def test_certify_wcet_table(self, compliant_file, capsys):
        assert main(["certify", str(compliant_file), "--wcet"]) == 0
        out = capsys.readouterr().out
        assert "Worst-case work bounds" in out
        assert "scale" in out

    def test_certify_wcet_reports_missing_bound(self, tmp_path, capsys):
        path = tmp_path / "spin.br"
        path.write_text("""
kernel void spin(float x<>, out float y<>) {
    float i = 0.0;
    while (i < x) { i += 1.0; }
    y = i;
}
""")
        assert main(["certify", str(path), "--wcet"]) == 1
        assert "NO BOUND" in capsys.readouterr().out

    def test_certify_json_format(self, compliant_file, capsys):
        assert main(["certify", str(compliant_file), "--format", "json"]) == 0
        json.loads(capsys.readouterr().out.split("\n\n")[0])

    def test_certify_unparsable_source(self, tmp_path, capsys):
        path = tmp_path / "broken.br"
        path.write_text("kernel void f( {")
        assert main(["certify", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestAutoplanCommand:
    def test_prints_candidate_table(self, capsys):
        assert main(["autoplan", "--size", "16"]) == 0
        out = capsys.readouterr().out
        assert "auto-plan for" in out
        assert "devices" in out
        assert "modelled_ms" in out
        assert "baseline" in out

    def test_json_format_parses(self, capsys):
        assert main(["autoplan", "--size", "16", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["chosen"]["modelled_ms"] \
            <= payload["baseline"]["modelled_ms"]
        assert payload["candidates"]

    def test_json_file_output(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        assert main(["autoplan", "--size", "16", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["label"].startswith("filter3x3+")

    def test_unmeetable_deadline_exits_one(self, capsys):
        exit_code = main(["autoplan", "--size", "16",
                          "--deadline-ms", "0.000001"])
        assert exit_code == 1
        assert "deadline budget" in capsys.readouterr().err

    def test_meetable_deadline_reports_choice(self, capsys):
        assert main(["autoplan", "--size", "16",
                     "--deadline-ms", "60000"]) == 0
        assert "deadline budget" in capsys.readouterr().out


class TestServeBenchDeadlineMode:
    def test_overload_run_writes_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        exit_code = main(["serve-bench", "--size", "16", "--requests", "8",
                          "--pool-sizes", "1", "--overload", "2.0",
                          "--json", str(tmp_path / "bench.json")])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "edf+admission" in out
        payload = json.loads((tmp_path / "bench.json").read_text())
        assert payload["benchmark"] == "deadline"
        assert payload["bitwise_identical"]
        assert payload["wcet_sound"]
        assert set(payload["configs"]) == {"fifo", "edf", "edf+admission"}

    def test_deadline_ms_axis(self, tmp_path, capsys):
        exit_code = main(["serve-bench", "--size", "16", "--requests", "6",
                          "--pool-sizes", "1", "--deadline-ms", "1000",
                          "--json", str(tmp_path / "bench.json")])
        assert exit_code == 0
        payload = json.loads((tmp_path / "bench.json").read_text())
        assert payload["timing"]["relative_deadline_s"] == pytest.approx(1.0)


class TestDataflowCommand:
    def test_table_reports_race_free_pipeline(self, capsys):
        assert main(["dataflow", "--size", "16"]) == 0
        out = capsys.readouterr().out
        assert "race-free: yes" in out
        assert "RAW on s0" in out
        assert "halo=image" in out

    def test_fused_pipeline_is_single_node(self, capsys):
        assert main(["dataflow", "--size", "16", "--fused"]) == 0
        out = capsys.readouterr().out
        assert "1 launches, 0 dependency edges" in out

    def test_json_format_carries_graph_and_lint(self, capsys):
        assert main(["dataflow", "--size", "16", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["graph"]["race_free"] is True
        assert len(payload["graph"]["nodes"]) == 8
        assert "diagnostics" in payload["lint"]

    def test_sarif_output_file(self, tmp_path, capsys):
        path = tmp_path / "dataflow.sarif"
        assert main(["dataflow", "--size", "16", "--format", "sarif",
                     "--output", str(path)]) == 0
        sarif = json.loads(path.read_text())
        assert sarif["runs"][0]["tool"]["driver"]["name"]

    def test_sharded_runtime_analyzes_clean(self, capsys):
        assert main(["dataflow", "--size", "16", "--backend", "gles2",
                     "--devices", "2"]) == 0
        assert "race-free: yes" in capsys.readouterr().out


class TestLintPipelinesFlag:
    def test_lint_pipelines_merges_bf_rules(self, capsys):
        assert main(["lint", "--pipelines"]) == 0
        out = capsys.readouterr().out
        assert "BF-206" in out      # unfused chain: fusable intermediates
        assert "error(s)" in out


class TestServeBenchSanitize:
    def test_sanitize_overhead_in_report(self, tmp_path, capsys):
        exit_code = main(["serve-bench", "--size", "16", "--requests", "6",
                          "--pool-sizes", "1", "--sanitize",
                          "--json", str(tmp_path / "bench.json")])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "BrookSanitizer (BROOKSAN) overhead:" in out
        payload = json.loads((tmp_path / "bench.json").read_text())
        assert payload["sanitize"] is True
        sanitized = payload["pools"]["1"]["sanitize"]
        assert sanitized["bitwise_identical"] is True
        assert "overhead_pct" in sanitized
        assert sanitized["sanitizer"]["counts"] == {}


class TestServeBenchFuseFlag:
    def test_no_fuse_serves_unfused_plans(self, tmp_path, capsys):
        exit_code = main(["serve-bench", "--size", "16", "--requests", "6",
                          "--pool-sizes", "1", "--no-fuse",
                          "--json", str(tmp_path / "bench.json")])
        assert exit_code == 0
        payload = json.loads((tmp_path / "bench.json").read_text())
        assert payload["fuse"] is False
        assert payload["bitwise_identical"] is True
        report = payload["pools"]["1"]["report"]
        assert report["fuse"] is False
        assert report["device_totals"]["kernels_fused"] == 0


class TestVectorizeCommand:
    DIVERGENT = """
kernel void shade(float knee, float x<>, out float r<>) {
    if (x > knee) { r = x * 0.5; } else { r = x * x; }
}
"""
    UNPROVED = """
kernel void risky(float d, float x<>, out float r<>) {
    if (x > 0.0) { r = x / d; } else { r = x; }
}
"""

    @pytest.fixture
    def divergent_file(self, tmp_path):
        path = tmp_path / "shade.br"
        path.write_text(self.DIVERGENT)
        return path

    def test_no_inputs_rejected(self, capsys):
        assert main(["vectorize"]) == 2
        assert "no inputs" in capsys.readouterr().err

    def test_plain_br_file(self, divergent_file, capsys):
        # Regression: a path without --apps compiles with empty (not
        # None) range_specs.
        assert main(["vectorize", str(divergent_file)]) == 0
        out = capsys.readouterr().out
        assert "BV-301" in out
        assert "1/1 kernel(s) take the vector path" in out

    def test_unproved_obligation_row(self, tmp_path, capsys):
        path = tmp_path / "risky.br"
        path.write_text(self.UNPROVED)
        assert main(["vectorize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "BV-303" in out
        assert "includes zero" in out

    def test_apps_are_vector_clean(self, capsys):
        assert main(["vectorize", "--apps"]) == 0
        out = capsys.readouterr().out
        assert "15/15 kernel(s) take the vector path" in out

    def test_json_format(self, divergent_file, capsys):
        assert main(["vectorize", str(divergent_file),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernels"][0]["verdict"] == "BV-301"
        assert payload["kernels"][0]["file"].endswith("shade.br")

    def test_sarif_format(self, divergent_file, tmp_path, capsys):
        sarif_path = tmp_path / "vectorize.sarif"
        assert main(["vectorize", str(divergent_file), "--format", "sarif",
                     "--output", str(sarif_path)]) == 0
        run = json.loads(sarif_path.read_text())["runs"][0]
        assert any(result["ruleId"] == "BV-301"
                   for result in run["results"])

    def test_certify_vectorize_appends_table(self, divergent_file, capsys):
        assert main(["certify", str(divergent_file), "--vectorize"]) == 0
        out = capsys.readouterr().out
        assert "COMPLIANT" in out
        assert "brookvec vector-path eligibility:" in out
        assert "BV-301" in out

    def test_lint_vectorize_merges_notes(self, divergent_file, capsys):
        assert main(["lint", str(divergent_file), "--vectorize"]) == 0
        assert "BV-301" in capsys.readouterr().out
