"""``brookauto`` command-line interface.

A thin front end over the compiler, mirroring how the original ``brcc``
compiler is used in a build system:

* ``brookauto compile kernel.br`` - compile a Brook source file, print the
  certification verdict and write the generated GLSL ES / desktop GLSL / C
  next to it (or to ``--output-dir``).
* ``brookauto check kernel.br`` - run only the Brook Auto certification
  checker and print the rule-by-rule report (text, Markdown or JSON).
* ``brookauto evaluate [experiment]`` - regenerate the paper's figures
  (same as ``python -m repro.evaluation``).
* ``brookauto run-app <name>`` - run one of the reference applications on
  a chosen backend and validate it against its CPU reference.
* ``brookauto backends`` - list the registered execution backends, their
  aliases and known device profiles (from the backend registry).
* ``brookauto serve-bench`` - benchmark the concurrent serving layer
  (:class:`repro.service.BrookService` pools vs. the serial baseline)
  on the ADAS image pipeline; with ``--overload`` / ``--deadline-ms``
  it benchmarks deadline-aware serving (EDF + WCET admission control
  vs. the FIFO baseline) instead.
* ``brookauto certify`` - certification verdict table for a source file
  (exit code 1 on non-compliance), optionally with the per-kernel WCET
  work bounds the deadline-aware serving layer relies on.
* ``brookauto autoplan`` - run the cost-model auto-planner on the ADAS
  image pipeline and print the per-candidate pricing table (fusion /
  devices) with the chosen configuration and its modelled speedup over
  the unplanned baseline.
* ``brookauto lint`` - run the brooklint interval/range analysis over
  ``.br`` sources, Python files with embedded kernel strings, or the
  registered reference applications (``--apps``), emitting findings as a
  table, JSON or SARIF 2.1.0 (exit code 1 on error-severity findings);
  ``--vectorize`` merges the brookvec BV-3xx verdict notes.
* ``brookauto vectorize`` - brookvec vectorization report: per-kernel
  BV-3xx verdict (vectorized / masked-divergent / fallback reason /
  unproved obligation), divergence counts and speculation-obligation
  proofs, rendered as a table, JSON or SARIF 2.1.0.  Verdicts come off
  the compiled vector path, so BV-300/BV-301 always means the kernel
  really runs whole-array.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Optional

from .apps.base import get_application, list_applications
from .backends.registry import available_backends, backend_entry
from .core.compiler import CompilerOptions, compile_source
from .core.reporting import report_to_json, report_to_markdown, report_to_text
from .errors import BrookError
from .evaluation.__main__ import main as evaluation_main
from .gles2.device import DEVICE_PROFILES, get_device_profile

__all__ = ["main"]


def _target_limits(device: str):
    return get_device_profile(device).limits.to_target_limits()


def _cmd_compile(args: argparse.Namespace) -> int:
    source_path = pathlib.Path(args.source)
    source = source_path.read_text()
    options = CompilerOptions(target=_target_limits(args.device),
                              strict=not args.no_strict)
    try:
        program = compile_source(source, filename=str(source_path), options=options)
    except BrookError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    output_dir = pathlib.Path(args.output_dir or source_path.parent)
    output_dir.mkdir(parents=True, exist_ok=True)
    for name, kernel in program.kernels.items():
        if kernel.glsl_es is not None:
            (output_dir / f"{name}.es2.frag").write_text(kernel.glsl_es)
        if kernel.desktop_glsl is not None:
            (output_dir / f"{name}.gl.frag").write_text(kernel.desktop_glsl)
        if kernel.c_source is not None:
            (output_dir / f"{name}.cpu.c").write_text(kernel.c_source)
    verdict = "COMPLIANT" if program.is_certified else "NON-COMPLIANT"
    print(f"{source_path}: {len(program.kernels)} kernel(s), "
          f"certification {verdict}, artefacts in {output_dir}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    source_path = pathlib.Path(args.source)
    source = source_path.read_text()
    options = CompilerOptions(target=_target_limits(args.device), strict=False)
    program = compile_source(source, filename=str(source_path), options=options)
    report = program.certification
    if args.format == "json":
        print(report_to_json(report))
    elif args.format == "markdown":
        print(report_to_markdown(report))
    else:
        print(report_to_text(report))
    return 0 if report.is_compliant else 2


def _cmd_certify(args: argparse.Namespace) -> int:
    source_path = pathlib.Path(args.source)
    source = source_path.read_text()
    options = CompilerOptions(target=_target_limits(args.device), strict=False)
    try:
        program = compile_source(source, filename=str(source_path),
                                 options=options)
    except BrookError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    report = program.certification
    if args.format == "json":
        print(report_to_json(report))
    elif args.format == "markdown":
        print(report_to_markdown(report))
    else:
        print(report_to_text(report))
    if args.wcet:
        from .core.analysis.wcet import kernel_wcet
        from .errors import WCETError
        print()
        print("Worst-case work bounds (per output element):")
        print(f"{'kernel':>24} {'flops':>8} {'fetches':>8} {'loop iters':>11}")
        for name in program.kernels:
            try:
                bound = kernel_wcet(program, name)
            except WCETError as error:
                print(f"{name:>24}  NO BOUND: {error}")
            else:
                print(f"{name:>24} {bound.flops_per_element:>8} "
                      f"{bound.fetches_per_element:>8} "
                      f"{bound.max_loop_iterations:>11}")
    if args.lint:
        from .core.analysis.lint import lint_program
        lint_report = lint_program(program, source_file=str(source_path))
        print()
        print(_render_lint_summary(lint_report))
    if args.vectorize:
        # Recompile with the vector path on so the verdicts are the
        # build_vector_path ones - consistent with what would execute.
        vector_options = CompilerOptions(
            target=_target_limits(args.device), strict=False,
            emit_glsl_es=False, emit_desktop_glsl=False, emit_c=False)
        vector_program = compile_source(source, filename=str(source_path),
                                        options=vector_options)
        print()
        print("brookvec vector-path eligibility:")
        print(_render_vectorize_table(_vectorize_reports(vector_program)))
    verdict = "COMPLIANT" if report.is_compliant else "NON-COMPLIANT"
    print(f"\n{source_path}: certification {verdict}")
    return 0 if report.is_compliant else 1


def _render_lint_summary(report) -> str:
    """The brooklint block appended to the certification verdict table."""
    summary = report.summary()
    lines = ["brooklint summary:"]
    lines.append(f"  kernels linted: {summary['kernels']}, "
                 f"gathers proved in-bounds: {summary['gathers_proved']}"
                 f"/{summary['gathers']}")
    lines.append(f"  findings: {summary['error']} error(s), "
                 f"{summary['warning']} warning(s), {summary['note']} note(s)")
    for diag in report.diagnostics:
        lines.append(f"  {diag}")
    return "\n".join(lines)


def _python_kernel_snippets(path: pathlib.Path):
    """Extract embedded Brook kernel sources from a Python file.

    Scans the module's AST for string constants that contain ``kernel
    void`` — the convention every reference application uses for its
    ``BROOK_SOURCE`` literal.  Returns ``(line, source)`` pairs; a Python
    syntax error yields no snippets (the caller emits BL-100).
    """
    import ast as python_ast

    try:
        tree = python_ast.parse(path.read_text())
    except SyntaxError:
        return None
    snippets = []
    for node in python_ast.walk(tree):
        if (isinstance(node, python_ast.Constant)
                and isinstance(node.value, str)
                and "kernel void" in node.value):
            snippets.append((node.lineno, node.value))
    return snippets


def _iter_lint_files(paths):
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.br"))
            yield from sorted(p for p in path.rglob("*.py"))
        else:
            yield path


def _analyze_adas_pipeline(backend: str = "cpu",
                           device: Optional[str] = None,
                           size: int = 32, seed: int = 0,
                           devices: int = 1, fused: bool = False):
    """Dataflow-analyze the ADAS serving pipeline; (graph, report).

    Materialises the same launch plans ``BrookService`` prepares for one
    ADAS request (see :func:`~repro.service.bench.build_adas_request`)
    and runs the brookflow whole-pipeline analysis over them - with
    ``fused=True`` over the fused pipeline the service's steady state
    actually launches.
    """
    from .core.analysis.dataflow import analyze_pipeline, build_dataflow_graph
    from .runtime.runtime import BrookRuntime
    from .service.bench import build_adas_request, make_frames
    from .service.service import prepare_request

    frame = make_frames(size, 1, seed=seed)[0]
    request = build_adas_request(size, frame, name="dataflow")
    source_file = "adas-pipeline" + ("(fused)" if fused else "")
    with BrookRuntime(backend=backend,
                      device=device if backend != "cpu" else None,
                      devices=devices) as rt:
        module, streams, plans = prepare_request(rt, request)
        try:
            # The service worker uploads the request inputs before it
            # launches the prepared plans; mirror that so the analysis
            # sees the same initialization state the launches will.
            for name, array in request.inputs.items():
                streams[name].write(array)
            launchables = rt.fuse(plans) if fused else plans
            graph = build_dataflow_graph(launchables,
                                         source_file=source_file)
            report = analyze_pipeline(launchables,
                                      source_file=source_file, graph=graph)
        finally:
            for stream in streams.values():
                stream.release()
    return graph, report


def _cmd_dataflow(args: argparse.Namespace) -> int:
    from .core.analysis.lint import sarif_json

    try:
        graph, report = _analyze_adas_pipeline(
            backend=args.backend, device=args.device, size=args.size,
            seed=args.seed, devices=args.devices, fused=args.fused)
    except BrookError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.format == "json":
        rendered = json.dumps({"graph": graph.to_dict(),
                               "lint": report.to_dict()}, indent=2)
    elif args.format == "sarif":
        rendered = sarif_json(report)
    else:
        lines = [
            f"ADAS pipeline dataflow ({args.size}x{args.size}, backend "
            f"{args.backend}" + (", fused" if args.fused else "") + "): "
            f"{len(graph.nodes)} launches, {len(graph.edges)} dependency "
            f"edges, race-free: {'yes' if graph.race_free else 'NO'}",
        ]
        for node in graph.nodes:
            reads = sorted({*(s.name for s in node.reads.values()),
                            *(s.name for s in node.gathers.values())})
            writes = sorted(s.name for s in node.writes.values())
            extra = ""
            if node.halo_reads:
                extra += " halo=" + ",".join(sorted(node.halo_reads))
            if node.tile_boundaries:
                extra += " tiled=" + ",".join(node.tile_boundaries)
            lines.append(f"  #{node.index} {node.kernel}: "
                         f"{','.join(reads) or '-'} -> "
                         f"{','.join(writes) or '-'}{extra}")
        for edge in graph.edges:
            lines.append(f"  edge #{edge.src} -> #{edge.dst} "
                         f"({edge.kind} on {edge.stream})")
        for diag in report.diagnostics:
            lines.append(f"  {diag}")
        counts = report.counts()
        lines.append(f"findings: {counts['error']} error(s), "
                     f"{counts['warning']} warning(s), "
                     f"{counts['note']} note(s)")
        rendered = "\n".join(lines)
    if args.output:
        pathlib.Path(args.output).write_text(rendered + "\n")
        print(f"dataflow results written to {args.output}")
    else:
        print(rendered)
    return 1 if report.has_errors else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .core.analysis.lint import (LintReport, lint_program, lint_source,
                                     sarif_json, skipped_source_report)

    if not args.paths and not args.apps and not args.pipelines:
        print("error: no inputs (pass .br/.py paths, --apps and/or "
              "--pipelines)", file=sys.stderr)
        return 2

    merged = LintReport()
    if args.apps:
        # Reference applications carry their own range specs, so their
        # gathers and loops are linted with the documented input bounds.
        for name in list_applications():
            app = get_application(name)
            options = CompilerOptions(
                target=_target_limits(args.device), strict=False,
                range_specs=dict(app.range_specs),
                emit_glsl_es=False, emit_desktop_glsl=False, emit_c=False,
                enable_fast_path=False,
            )
            virtual = f"apps/{name}.br"
            try:
                program = compile_source(app.brook_source, filename=virtual,
                                         options=options)
            except BrookError as error:
                merged.extend(skipped_source_report(virtual, str(error)))
            else:
                merged.extend(lint_program(program, source_file=virtual,
                                           vectorize=args.vectorize))

    for path in _iter_lint_files(args.paths):
        if not path.exists():
            print(f"error: no such file: {path}", file=sys.stderr)
            return 2
        if path.suffix == ".py":
            snippets = _python_kernel_snippets(path)
            if snippets is None:
                merged.extend(skipped_source_report(
                    str(path), "not valid Python source"))
                continue
            # Diagnostic line numbers are relative to each embedded
            # kernel string, not to the Python file.
            for _, source in snippets:
                merged.extend(lint_source(source, source_file=str(path),
                                          vectorize=args.vectorize))
        else:
            merged.extend(lint_source(path.read_text(),
                                      source_file=str(path),
                                      vectorize=args.vectorize))

    if args.pipelines:
        # Whole-pipeline dataflow findings (BF-2xx) merge into the same
        # report and SARIF stream as the kernel-level BL rules.
        _, pipeline_report = _analyze_adas_pipeline()
        merged.extend(pipeline_report)
        _, fused_report = _analyze_adas_pipeline(fused=True)
        merged.extend(fused_report)

    if args.format == "json":
        rendered = json.dumps(merged.to_dict(), indent=2)
    elif args.format == "sarif":
        rendered = sarif_json(merged)
    else:
        lines = [str(diag) for diag in merged.diagnostics]
        summary = merged.summary()
        lines.append(f"{summary['kernels']} kernel(s): "
                     f"{summary['error']} error(s), "
                     f"{summary['warning']} warning(s), "
                     f"{summary['note']} note(s); gathers proved "
                     f"{summary['gathers_proved']}/{summary['gathers']}")
        rendered = "\n".join(lines)
    if args.output:
        pathlib.Path(args.output).write_text(rendered + "\n")
        print(f"lint results written to {args.output}")
        if args.format == "table":
            print(rendered.splitlines()[-1])
    else:
        print(rendered)
    return 1 if merged.has_errors else 0


def _vectorize_reports(program):
    """(name, report) per launchable kernel, verdict/executable-consistent.

    Reports come off the compiled kernels, i.e. through
    :func:`~repro.core.exec.vectorized.build_vector_path`, so a
    BV-300/BV-301 verdict always denotes a program that will really run
    and backend-unsupported kernels show the downgraded BV-302.
    """
    return [(name, kernel.vector_report)
            for name, kernel in program.kernels.items()
            if kernel.vector_report is not None]


def _render_vectorize_table(rows) -> str:
    lines = [f"{'kernel':<28}{'verdict':>8}{'div br':>7}{'div lp':>7}"
             f"{'obligations':>12}  why / how"]
    for name, report in rows:
        facts = report.to_facts()
        obligations = (f"{facts['obligations_proved']}"
                       f"/{facts['obligations']}")
        blocking = report.blocking()
        if blocking is not None:
            why = blocking
            if report.location is not None:
                why += f" (line {report.location.line})"
        elif report.divergent:
            why = "whole-array with np.where lane merges"
        else:
            why = "whole-array, unmasked"
        lines.append(f"{name:<28}{report.verdict:>8}"
                     f"{facts['divergent_branches']:>7}"
                     f"{facts['divergent_loops']:>7}"
                     f"{obligations:>12}  {why}")
    vectorized = sum(1 for _, r in rows if r.vectorizable)
    lines.append(f"{vectorized}/{len(rows)} kernel(s) take the vector path")
    return "\n".join(lines)


def _cmd_vectorize(args: argparse.Namespace) -> int:
    from .core.analysis.lint import (LintReport, sarif_json,
                                     skipped_source_report)
    from .core.analysis.lint.rules import vectorization_diagnostics

    if not args.paths and not args.apps:
        print("error: no inputs (pass .br/.py paths and/or --apps)",
              file=sys.stderr)
        return 2

    def compile_options(app=None):
        return CompilerOptions(
            target=_target_limits(args.device), strict=False,
            range_specs=dict(app.range_specs) if app else {},
            emit_glsl_es=False, emit_desktop_glsl=False, emit_c=False,
        )

    rows = []
    skipped = LintReport()

    def add_source(source, virtual, app=None):
        try:
            program = compile_source(source, filename=virtual,
                                     options=compile_options(app))
        except BrookError as error:
            skipped.extend(skipped_source_report(virtual, str(error)))
            return
        for name, report in _vectorize_reports(program):
            rows.append((name, report, virtual,
                         program.kernels[name].definition))

    if args.apps:
        for name in list_applications():
            app = get_application(name)
            add_source(app.brook_source, f"apps/{name}.br", app)
    for path in _iter_lint_files(args.paths):
        if not path.exists():
            print(f"error: no such file: {path}", file=sys.stderr)
            return 2
        if path.suffix == ".py":
            snippets = _python_kernel_snippets(path)
            if snippets is None:
                skipped.extend(skipped_source_report(
                    str(path), "not valid Python source"))
                continue
            for _, source in snippets:
                add_source(source, str(path))
        else:
            add_source(path.read_text(), str(path))

    if args.format == "json":
        rendered = json.dumps(
            {"kernels": [dict(report.to_dict(), file=virtual)
                         for _, report, virtual, _ in rows],
             "skipped": [d.to_dict() for d in skipped.diagnostics]},
            indent=2)
    elif args.format == "sarif":
        # One BV-3xx note per kernel through the shared lint/SARIF
        # machinery - same rule descriptors ``brookauto lint`` emits.
        report = LintReport()
        report.extend(skipped)
        for name, vector_report, virtual, definition in rows:
            report.kernels.append(name)
            report.facts[name] = vector_report.to_facts()
            report.diagnostics.extend(vectorization_diagnostics(
                definition, vector_report, virtual))
        rendered = sarif_json(report)
    else:
        lines = [str(diag) for diag in skipped.diagnostics]
        lines.append(_render_vectorize_table(
            [(name, report) for name, report, _, _ in rows]))
        rendered = "\n".join(lines)
    if args.output:
        pathlib.Path(args.output).write_text(rendered + "\n")
        print(f"vectorization report written to {args.output}")
    else:
        print(rendered)
    return 0


def _cmd_run_app(args: argparse.Namespace) -> int:
    app = get_application(args.app)
    result = app.run(backend=args.backend, size=args.size, seed=args.seed,
                     device=args.device if args.backend != "cpu" else None)
    status = "PASSED" if result.valid else "FAILED"
    print(f"{app.name} on {result.backend} ({result.size}x{result.size}): "
          f"validation {status}, max relative error {result.max_rel_error:.2e}")
    summary = result.statistics.summary()
    print(f"  kernel passes: {summary['passes']}, "
          f"flops: {summary['flops']:.3e}, "
          f"texture fetches: {summary['texture_fetches']:.3e}")
    print(f"  host->device: {summary['bytes_uploaded']} bytes, "
          f"device->host: {summary['bytes_downloaded']} bytes")
    print(f"  functional simulation wall clock: {result.wall_clock_seconds:.3f} s")
    return 0 if result.valid else 1


def _cmd_backends(args: argparse.Namespace) -> int:
    for name in available_backends():
        entry = backend_entry(name)
        print(name)
        if entry.description:
            print(f"  description: {entry.description}")
        if entry.aliases:
            print(f"  aliases: {', '.join(sorted(entry.aliases))}")
        if entry.devices:
            print(f"  devices: {', '.join(entry.devices)}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    return evaluation_main([args.experiment])


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from .service.bench import (render_deadline_report,
                                render_service_report, run_deadline_bench,
                                run_service_bench)

    pool_sizes = tuple(int(p) for p in args.pool_sizes.split(","))
    deadline_mode = args.overload is not None or args.deadline_ms is not None
    try:
        if deadline_mode:
            payload = run_deadline_bench(
                backend=args.backend,
                device=args.device if args.backend != "cpu" else None,
                size=args.size,
                requests=args.requests,
                pool_size=pool_sizes[0],
                overload=(args.overload if args.overload is not None
                          else 2.0),
                deadline_ms=args.deadline_ms,
                fuse=not args.no_fuse,
                devices=args.devices,
                platform=args.platform,
                sanitize=args.sanitize,
            )
        else:
            payload = run_service_bench(
                backend=args.backend,
                device=args.device if args.backend != "cpu" else None,
                size=args.size,
                requests=args.requests,
                pool_sizes=pool_sizes,
                fuse=not args.no_fuse,
                devices=args.devices,
                sanitize=args.sanitize,
            )
    except BrookError as error:
        # Degenerate configurations (pool sizes / device counts < 1,
        # non-positive overload) report a one-line diagnostic instead of
        # a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
    if deadline_mode:
        print(render_deadline_report(payload))
        ok = payload["bitwise_identical"] and payload["wcet_sound"]
    else:
        print(render_service_report(payload))
        ok = payload["bitwise_identical"]
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(payload, indent=2,
                                                      default=str) + "\n")
        print(f"results written to {args.json}")
    return 0 if ok else 1


def _cmd_autoplan(args: argparse.Namespace) -> int:
    from .core.analysis.planner import plan_service_request
    from .errors import PlanningError
    from .runtime.runtime import BrookRuntime
    from .service.bench import build_adas_request, make_frames
    from .service.service import prepare_request

    try:
        frame = make_frames(args.size, 1, seed=args.seed)[0]
        request = build_adas_request(args.size, frame, name="autoplan")
        with BrookRuntime(
            backend=args.backend,
            device=args.device if args.backend != "cpu" else None,
            devices=args.devices,
        ) as rt:
            module, streams, plans = prepare_request(rt, request)
            try:
                decision = plan_service_request(
                    request, module.program, rt, plans,
                    platform=args.platform,
                    executable_devices=rt.device_count,
                    limits=rt.backend.target_limits(),
                )
                deadline_s = (args.deadline_ms * 1e-3
                              if args.deadline_ms is not None else None)
                chosen = decision.choose(deadline_s)
            finally:
                for stream in streams.values():
                    stream.release()
    except PlanningError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrookError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        payload = decision.to_payload()
        payload["deadline_ms"] = args.deadline_ms
        payload["deadline_chosen"] = chosen.to_payload()
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(decision.render_table())
        if args.deadline_ms is not None:
            print(f"  with deadline budget {args.deadline_ms:.3f} ms: "
                  f"{chosen.config.describe()} "
                  f"(wcet {chosen.wcet_s * 1e3:.4f} ms)")
    if args.json:
        payload = decision.to_payload()
        payload["deadline_ms"] = args.deadline_ms
        payload["deadline_chosen"] = chosen.to_payload()
        pathlib.Path(args.json).write_text(json.dumps(payload, indent=2,
                                                      default=str) + "\n")
        print(f"results written to {args.json}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brookauto",
        description="Brook Auto: certification-friendly GPU stream programming "
                    "(DAC 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compile_parser = sub.add_parser("compile", help="compile a .br source file")
    compile_parser.add_argument("source", help="Brook source file")
    compile_parser.add_argument("--device", default="videocore-iv",
                                choices=sorted(DEVICE_PROFILES))
    compile_parser.add_argument("--output-dir", default=None,
                                help="directory for generated shaders")
    compile_parser.add_argument("--no-strict", action="store_true",
                                help="do not fail on certification violations")
    compile_parser.set_defaults(func=_cmd_compile)

    check_parser = sub.add_parser("check", help="run the certification checker")
    check_parser.add_argument("source", help="Brook source file")
    check_parser.add_argument("--device", default="videocore-iv",
                              choices=sorted(DEVICE_PROFILES))
    check_parser.add_argument("--format", default="text",
                              choices=("text", "markdown", "json"))
    check_parser.set_defaults(func=_cmd_check)

    certify_parser = sub.add_parser(
        "certify",
        help="certification verdict table (exit 1 on non-compliance), "
             "optionally with per-kernel WCET work bounds")
    certify_parser.add_argument("source", help="Brook source file")
    certify_parser.add_argument("--device", default="videocore-iv",
                                choices=sorted(DEVICE_PROFILES))
    certify_parser.add_argument("--format", default="text",
                                choices=("text", "markdown", "json"))
    certify_parser.add_argument("--wcet", action="store_true",
                                help="also print each kernel's worst-case "
                                     "work bound (or why none exists)")
    certify_parser.add_argument("--lint", action="store_true",
                                help="also append the brooklint summary "
                                     "(findings + gather bound proofs)")
    certify_parser.add_argument("--vectorize", action="store_true",
                                help="also append the brookvec vector-path "
                                     "eligibility table (BV-3xx verdicts); "
                                     "does not affect the exit code")
    certify_parser.set_defaults(func=_cmd_certify)

    lint_parser = sub.add_parser(
        "lint",
        help="run brooklint (interval/range analysis) over Brook sources; "
             "exit 1 when any error-severity finding is present")
    lint_parser.add_argument("paths", nargs="*",
                             help=".br files, .py files with embedded kernel "
                                  "strings, or directories of either")
    lint_parser.add_argument("--apps", action="store_true",
                             help="lint every registered reference "
                                  "application with its range specs")
    lint_parser.add_argument("--pipelines", action="store_true",
                             help="also run the whole-pipeline dataflow "
                                  "analysis (brookflow BF-2xx rules) over "
                                  "the ADAS serving pipeline, plain and "
                                  "fused")
    lint_parser.add_argument("--vectorize", action="store_true",
                             help="also emit one BV-3xx brookvec verdict "
                                  "note per kernel (vectorized / masked / "
                                  "fallback reason)")
    lint_parser.add_argument("--device", default="videocore-iv",
                             choices=sorted(DEVICE_PROFILES))
    lint_parser.add_argument("--format", default="table",
                             choices=("table", "json", "sarif"))
    lint_parser.add_argument("--output", default=None,
                             help="write the rendered findings to this file "
                                  "instead of stdout")
    lint_parser.set_defaults(func=_cmd_lint)

    vectorize_parser = sub.add_parser(
        "vectorize",
        help="brookvec vectorization report: per-kernel BV-3xx verdict, "
             "divergence counts and speculation obligations, consistent "
             "with the executable vector path")
    vectorize_parser.add_argument("paths", nargs="*",
                                  help=".br files, .py files with embedded "
                                       "kernel strings, or directories of "
                                       "either")
    vectorize_parser.add_argument("--apps", action="store_true",
                                  help="report every registered reference "
                                       "application with its range specs")
    vectorize_parser.add_argument("--device", default="videocore-iv",
                                  choices=sorted(DEVICE_PROFILES))
    vectorize_parser.add_argument("--format", default="table",
                                  choices=("table", "json", "sarif"))
    vectorize_parser.add_argument("--output", default=None,
                                  help="write the rendered report to this "
                                       "file instead of stdout")
    vectorize_parser.set_defaults(func=_cmd_vectorize)

    dataflow_parser = sub.add_parser(
        "dataflow",
        help="static whole-pipeline dataflow analysis (brookflow) of the "
             "ADAS serving pipeline; exit 1 on any error-severity finding")
    dataflow_parser.add_argument("--backend", default="cpu",
                                 choices=available_backends())
    dataflow_parser.add_argument("--device", default=None)
    dataflow_parser.add_argument("--size", type=int, default=32,
                                 help="frame edge length of the ADAS "
                                      "pipeline")
    dataflow_parser.add_argument("--seed", type=int, default=0)
    dataflow_parser.add_argument("--devices", type=int, default=1,
                                 help="devices the runtime opens (covers "
                                      "the sharded leaf-storage path)")
    dataflow_parser.add_argument("--fused", action="store_true",
                                 help="analyze the fused pipeline the "
                                      "service's steady state launches "
                                      "instead of the plain plan chain")
    dataflow_parser.add_argument("--format", default="table",
                                 choices=("table", "json", "sarif"))
    dataflow_parser.add_argument("--output", default=None,
                                 help="write the rendered results to this "
                                      "file instead of stdout")
    dataflow_parser.set_defaults(func=_cmd_dataflow)

    run_parser = sub.add_parser("run-app", help="run a reference application")
    run_parser.add_argument("app", choices=list_applications())
    run_parser.add_argument("--backend", default="gles2",
                            choices=available_backends())
    run_parser.add_argument("--device", default="videocore-iv")
    run_parser.add_argument("--size", type=int, default=64)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.set_defaults(func=_cmd_run_app)

    backends_parser = sub.add_parser(
        "backends", help="list registered execution backends")
    backends_parser.set_defaults(func=_cmd_backends)

    serve_parser = sub.add_parser(
        "serve-bench",
        help="benchmark the concurrent serving layer (BrookService pools)")
    serve_parser.add_argument("--backend", default="cpu",
                              choices=available_backends())
    serve_parser.add_argument("--device", default=None)
    serve_parser.add_argument("--size", type=int, default=32,
                              help="frame edge length of the ADAS pipeline")
    serve_parser.add_argument("--requests", type=int, default=64)
    serve_parser.add_argument("--pool-sizes", default="1,2,4",
                              help="comma-separated worker pool sizes")
    serve_parser.add_argument("--devices", type=int, default=1,
                              help="devices per worker runtime: each request "
                                   "is sharded across a device group")
    serve_parser.add_argument("--no-fuse", action="store_true",
                              help="launch one pass per kernel call instead "
                                   "of one fused pass per request")
    serve_parser.add_argument("--overload", type=float, default=None,
                              help="deadline mode: offered load as a multiple "
                                   "of pool capacity (EDF + WCET admission "
                                   "vs. FIFO; uses the first --pool-sizes "
                                   "entry)")
    serve_parser.add_argument("--deadline-ms", type=float, default=None,
                              help="deadline mode: relative deadline per "
                                   "request in modelled milliseconds "
                                   "(default: derived from the WCET bound)")
    serve_parser.add_argument("--platform", default="target",
                              help="timing platform pricing WCET bounds and "
                                   "modelled times in deadline mode")
    serve_parser.add_argument("--sanitize", action="store_true",
                              help="also measure each pool under "
                                   "BrookSanitizer and report the overhead, "
                                   "finding counts and a bit-exactness check")
    serve_parser.add_argument("--json", default=None,
                              help="also write the raw results to this file")
    serve_parser.set_defaults(func=_cmd_serve_bench)

    autoplan_parser = sub.add_parser(
        "autoplan",
        help="print the cost-model auto-planner's candidate table for the "
             "ADAS image pipeline")
    autoplan_parser.add_argument("--backend", default="cpu",
                                 choices=available_backends())
    autoplan_parser.add_argument("--device", default=None)
    autoplan_parser.add_argument("--size", type=int, default=32,
                                 help="frame edge length of the ADAS pipeline")
    autoplan_parser.add_argument("--seed", type=int, default=0)
    autoplan_parser.add_argument("--devices", type=int, default=1,
                                 help="devices the runtime opens (the "
                                      "executable device count)")
    autoplan_parser.add_argument("--platform", default="target",
                                 help="timing platform pricing the candidates")
    autoplan_parser.add_argument("--deadline-ms", type=float, default=None,
                                 help="also resolve the deadline-constrained "
                                      "choice for this budget (exit 1 when "
                                      "no candidate's WCET bound fits)")
    autoplan_parser.add_argument("--format", default="text",
                                 choices=("text", "json"))
    autoplan_parser.add_argument("--json", default=None,
                                 help="also write the decision to this file")
    autoplan_parser.set_defaults(func=_cmd_autoplan)

    eval_parser = sub.add_parser("evaluate", help="regenerate the paper's figures")
    eval_parser.add_argument("experiment", nargs="?", default="all",
                             choices=["all", "figure1", "figure2", "figure3",
                                      "figure4", "figure2-charts",
                                      "figure3-charts", "productivity",
                                      "compliance"])
    eval_parser.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via entry point
    sys.exit(main())
