"""Wall-clock benchmark of the brookvec whole-array vector path.

Measures the simulator's *real* execution speed (not the analytic
model) on the ``image_filter`` pipeline - the 3x3 convolution the paper
scales in Figure 3 - at sizes up to 1024x1024 on the CPU backend.  Two
variants launch the identical pipeline:

* ``interpreter`` - the masked SIMT interpreter, the bitwise reference
  (``CompilerOptions(enable_fast_path=False)``),
* ``vector``      - the brookvec-approved whole-array NumPy program
  (one evaluation per pass, padded-slice stencil fusion).

A divergent micro-benchmark rides along: a branchy per-pixel kernel
(BV-301) runs masked-vector vs. the masked interpreter, covering the
``np.where`` lane-merge path the pipeline numbers do not exercise.  A
report-only ``sgemm`` row at 128x128 covers the line reads
(``a[row][k]``, ``b[k][col]`` at a uniform loop counter).

Outputs must be bitwise identical in every variant, and the vector path
must beat the interpreter by >= 11x at 1024x1024; the ``sgemm`` row
has no speed gate.  Results are published as
``benchmarks/out/BENCH_vectorize.json`` plus a human-readable table,
``benchmarks/out/vectorize.txt``.
"""

import time

import numpy as np

from repro.apps.base import get_application
from repro.apps.image_filter import BROOK_SOURCE as FILTER_SOURCE, FILTER_3X3
from repro.core.compiler import CompilerOptions, compile_source
from repro.core.exec.evaluator import KernelEvaluator
from repro.core.exec.vectorized import build_vector_path
from repro.runtime import BrookRuntime


SIZES = (256, 512, 1024)
GATE_SIZE = 1024
GATE_SPEEDUP = 11.0
SGEMM_SIZE = 128
ITERATIONS = 5
REPEATS = 5

DIVERGENT_SOURCE = """
kernel void shade(float x<>, float knee, out float r<>) {
    if (x > knee) {
        r = knee + sqrt(x - knee) * 0.5;
    } else {
        r = x * x * (3.0 - 2.0 * x);
    }
}
"""


def _time_best(fn, iterations=ITERATIONS, repeats=REPEATS) -> float:
    """Best-of-``repeats`` mean seconds per call (robust to CI noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iterations):
            fn()
        best = min(best, (time.perf_counter() - start) / iterations)
    return best


def _run_filter_variant(size: int, vector: bool):
    """Seconds per frame + output of the image_filter pipeline."""
    image = np.random.default_rng(0).uniform(0.0, 255.0, (size, size)) \
        .astype(np.float32)
    weights = [float(w) for w in FILTER_3X3.reshape(-1)]
    options = CompilerOptions(enable_fast_path=vector)
    with BrookRuntime(backend="cpu", compiler_options=options) as rt:
        module = rt.compile(FILTER_SOURCE)
        kernel = module.program.kernel("filter3x3")
        assert (kernel.vector_path is not None) is vector
        src = rt.stream_from(image, name="image")
        dst = rt.stream((size, size), name="filtered")
        plan = module.filter3x3.bind(src, float(size), float(size),
                                     *weights, dst)
        plan.launch()  # warm-up (and correctness output)
        seconds = _time_best(plan.launch)
        return seconds, dst.read()


def _sgemm_row():
    """Seconds per ``sgemm`` run at ``SGEMM_SIZE``, vector vs. interpreter."""
    app = get_application("sgemm")
    inputs = app.generate_inputs(SGEMM_SIZE, seed=0)
    row, outputs = {"size": SGEMM_SIZE}, {}
    for label, vector in (("interpreter", False), ("vector", True)):
        options = CompilerOptions(enable_fast_path=vector)
        with BrookRuntime(backend="cpu", compiler_options=options) as rt:
            module = app.compile(rt)
            assert (module.program.kernel("sgemm").vector_path
                    is not None) is vector

            def run():
                return app.run_brook(rt, module, SGEMM_SIZE, inputs)["c"]

            outputs[label] = run()
            seconds = _time_best(run, iterations=1, repeats=3) if not vector \
                else _time_best(run)
        row[f"{label}_ms"] = seconds * 1e3
    row["speedup"] = row["interpreter_ms"] / row["vector_ms"]
    row["bitwise_identical"] = bool(np.array_equal(
        outputs["interpreter"].view(np.uint32),
        outputs["vector"].view(np.uint32)))
    return row


def _divergent_micro():
    """Masked interpreter vs. masked vector program on a BV-301 kernel."""
    program = compile_source(DIVERGENT_SOURCE)
    kernel = program.kernel("shade")
    elements = 512 * 512
    inputs = {"x": np.random.default_rng(2).uniform(0.0, 2.0, elements)
              .astype(np.float32)}
    scalars = {"knee": 0.75}
    vec, report = build_vector_path(kernel.definition, program.helpers())
    assert vec is not None and report.verdict == "BV-301"

    def interpret():
        KernelEvaluator(kernel.definition, program.helpers()).run(
            elements, stream_inputs=inputs, scalar_args=scalars)

    def vectorized():
        vec.run(elements, stream_inputs=inputs, scalar_args=scalars)

    interpreter_s = _time_best(interpret, iterations=3, repeats=3)
    vector_s = _time_best(vectorized)
    reference = KernelEvaluator(kernel.definition, program.helpers()).run(
        elements, stream_inputs=inputs, scalar_args=scalars)
    outputs, _ = vec.run(elements, stream_inputs=inputs,
                         scalar_args=scalars)
    bitwise = np.array_equal(
        np.asarray(reference["r"], dtype=np.float32).view(np.uint32),
        np.asarray(outputs["r"], dtype=np.float32).view(np.uint32))
    return {
        "kernel": "shade",
        "verdict": report.verdict,
        "elements": elements,
        "interpreter_ms": interpreter_s * 1e3,
        "vector_ms": vector_s * 1e3,
        "speedup": interpreter_s / vector_s,
        "bitwise_identical": bool(bitwise),
    }


def _render_table(results, micro, sgemm) -> str:
    lines = [
        "brookvec vector path: wall-clock per frame (CPU backend)",
        "pipeline: image_filter 3x3 convolution, vector vs. masked "
        "interpreter",
        "",
        f"{'size':>6} {'interpreter':>12} {'vector':>12} {'speedup':>8}",
    ]
    for size, row in results.items():
        lines.append(f"{size:>6} {row['interpreter_ms']:>10.3f}ms "
                     f"{row['vector_ms']:>10.3f}ms "
                     f"{row['speedup']:>7.2f}x")
    lines.append("")
    lines.append(
        f"divergent micro ({micro['kernel']}, {micro['verdict']}, "
        f"{micro['elements']} elements): interpreter "
        f"{micro['interpreter_ms']:.2f}ms -> masked vector "
        f"{micro['vector_ms']:.3f}ms ({micro['speedup']:.1f}x)")
    lines.append(
        f"sgemm {sgemm['size']}x{sgemm['size']} (line reads, report only): "
        f"interpreter {sgemm['interpreter_ms']:.2f}ms -> vector "
        f"{sgemm['vector_ms']:.2f}ms ({sgemm['speedup']:.1f}x)")
    return "\n".join(lines)


def test_vectorize_speedup(publish_run):
    results = {}
    bitwise_all = True
    for size in SIZES:
        interp_s, interp_out = _run_filter_variant(size, vector=False)
        vector_s, vector_out = _run_filter_variant(size, vector=True)
        bitwise_all &= bool(np.array_equal(interp_out.view(np.uint32),
                                           vector_out.view(np.uint32)))
        results[size] = {
            "interpreter_ms": interp_s * 1e3,
            "vector_ms": vector_s * 1e3,
            "speedup": interp_s / vector_s,
        }
    micro = _divergent_micro()
    sgemm = _sgemm_row()

    payload = {
        "benchmark": "vectorize",
        "backend": "cpu",
        "pipeline": {
            "app": "image_filter",
            "kernel": "filter3x3",
            "verdict": "BV-300",
            "sizes": {str(size): row for size, row in results.items()},
            "gate_size": GATE_SIZE,
            "gate_speedup": results[GATE_SIZE]["speedup"],
            "bitwise_identical": bitwise_all,
        },
        "divergent_micro": micro,
        "sgemm": sgemm,
        "timing": {"iterations": ITERATIONS, "repeats": REPEATS,
                   "statistic": "best-of-repeats mean"},
    }
    publish_run("vectorize", _render_table(results, micro, sgemm), payload)

    # Acceptance: bitwise identity everywhere, >= 11x real wall-clock
    # at 1024x1024 over the masked interpreter.
    assert bitwise_all, "vector path output differs from the interpreter"
    assert micro["bitwise_identical"], \
        "masked vector output differs from the interpreter"
    assert sgemm["bitwise_identical"], \
        "sgemm vector output differs from the interpreter"
    gate = results[GATE_SIZE]["speedup"]
    assert gate >= GATE_SPEEDUP, (
        f"expected >= {GATE_SPEEDUP:.0f}x at {GATE_SIZE}x{GATE_SIZE}, "
        f"measured {gate:.2f}x "
        f"(sizes: { {s: round(r['speedup'], 2) for s, r in results.items()} })"
    )
