"""Wall-clock benchmark of kernel fusion + the compiled (vector) tier.

Measures the simulator's own execution speed (not the analytic model) on
an ADAS-style post-processing pipeline built around the scalable
``image_filter`` application (Figure 3): a 3x3 convolution followed by
seven straight-line per-pixel stages (normalize, tone map, contrast,
vignette, gamma, highlight boost, quantize).  Four variants run the same
pipeline:

* ``interpreter_unfused`` - the seed execution path: every kernel
  launched separately, every body tree-interpreted,
* ``fastpath_unfused``   - compiled tier (``enable_fast_path=True``: the
  brookvec vector programs), separate passes,
* ``interpreter_fused``  - passes merged by ``rt.fuse``, interpreted,
* ``fastpath_fused``     - fusion + compiled tier (the full path).

Outputs must be bitwise identical across all variants on the CPU
backend, and the combined path must be at least 2x faster than the seed
path on at least one size.  The wall-clock results are written to
``benchmarks/out/BENCH_fusion.json`` (uploaded as a CI artefact) plus a
human-readable table, ``benchmarks/out/fusion.txt``.
"""

import time

import numpy as np
import pytest

from repro.apps.image_filter import BROOK_SOURCE as FILTER_SOURCE, FILTER_3X3
from repro.apps.black_scholes import BROOK_SOURCE as BS_SOURCE
from repro.core.compiler import CompilerOptions, compile_source
from repro.core.exec.evaluator import KernelEvaluator
from repro.runtime import BrookRuntime


#: Straight-line post-processing stages chained after the 3x3 filter.
ADAS_POST_SOURCE = """
float luma_curve(float v) {
    float t = clamp(v, 0.0, 1.0);
    return t * t * (3.0 - 2.0 * t);
}

kernel void normalize_px(float v<>, float inv_range, out float n<>) {
    n = clamp(v * inv_range, 0.0, 1.0);
}

kernel void tone_map(float n<>, float exposure, out float t<>) {
    t = 1.0 - exp(-exposure * n);
}

kernel void contrast(float t<>, float amount, out float c<>) {
    c = lerp(t, luma_curve(t), amount);
}

kernel void vignette(float c<>, float width, float height, float strength,
                     out float v<>) {
    float2 pos = indexof(v);
    float dx = (pos.x / width) - 0.5;
    float dy = (pos.y / height) - 0.5;
    v = c * clamp(1.0 - strength * (dx * dx + dy * dy), 0.0, 1.0);
}

kernel void gamma_px(float c<>, float g, out float o<>) {
    o = pow(c, g);
}

kernel void highlight(float o<>, float threshold, float boost, out float h<>) {
    float over = max(o - threshold, 0.0);
    h = o + boost * over * over;
}

kernel void quantize_px(float o<>, float levels, out float q<>) {
    q = floor(o * levels + 0.5) / levels;
}
"""

STAGES = ["filter3x3", "normalize_px", "tone_map", "contrast", "vignette",
          "gamma_px", "highlight", "quantize_px"]
SIZES = (32, 48, 64)
ITERATIONS = 15
REPEATS = 4


def _time_best(fn, iterations=ITERATIONS, repeats=REPEATS) -> float:
    """Best-of-``repeats`` mean seconds per call (robust to CI noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iterations):
            fn()
        best = min(best, (time.perf_counter() - start) / iterations)
    return best


def _run_pipeline_variant(size: int, fast_path: bool, fuse: bool):
    """Seconds per frame + final output + pass count for one variant."""
    image = np.random.default_rng(0).uniform(0.0, 255.0, (size, size)) \
        .astype(np.float32)
    weights = [float(w) for w in FILTER_3X3.reshape(-1)]
    options = CompilerOptions(enable_fast_path=fast_path)
    with BrookRuntime(backend="cpu", compiler_options=options) as rt:
        filt = rt.compile(FILTER_SOURCE)
        post = rt.compile(ADAS_POST_SOURCE)
        src = rt.stream_from(image, name="image")
        stages = [rt.stream((size, size), name=f"stage{i}") for i in range(8)]
        plans = [
            filt.filter3x3.bind(src, float(size), float(size), *weights,
                                stages[0]),
            post.normalize_px.bind(stages[0], 1.0 / 255.0, stages[1]),
            post.tone_map.bind(stages[1], 2.2, stages[2]),
            post.contrast.bind(stages[2], 0.6, stages[3]),
            post.vignette.bind(stages[3], float(size), float(size), 0.8,
                               stages[4]),
            post.gamma_px.bind(stages[4], 1.8, stages[5]),
            post.highlight.bind(stages[5], 0.7, 0.5, stages[6]),
            post.quantize_px.bind(stages[6], 255.0, stages[7]),
        ]
        if fuse:
            pipeline = rt.fuse(plans)
            launch = pipeline.launch
            passes = pipeline.pass_count
        else:
            def launch():
                for plan in plans:
                    plan.launch()
            passes = len(plans)
        launch()  # warm-up (and correctness output)
        seconds = _time_best(launch)
        return seconds, stages[7].read(), passes


def _render_table(results, best_size, best_speedup) -> str:
    lines = [
        "Fusion + compiled vector tier: wall-clock per frame (CPU backend)",
        "pipeline: " + " -> ".join(STAGES),
        "",
        f"{'size':>6} {'interp/unfused':>15} {'fast/unfused':>13} "
        f"{'interp/fused':>13} {'fast/fused':>11} {'speedup':>8}",
    ]
    for size, row in results.items():
        lines.append(
            f"{size:>6} {row['interpreter_unfused_ms']:>13.3f}ms "
            f"{row['fastpath_unfused_ms']:>11.3f}ms "
            f"{row['interpreter_fused_ms']:>11.3f}ms "
            f"{row['fastpath_fused_ms']:>9.3f}ms {row['speedup']:>7.2f}x"
        )
    lines.append("")
    lines.append(f"best: {best_speedup:.2f}x at size {best_size} "
                 "(vector tier + fusion vs. seed interpreter path)")
    return "\n".join(lines)


@pytest.fixture(scope="module")
def fast_path_micro():
    """Per-kernel vector program vs. interpreter (no runtime, no fusion)."""
    program = compile_source(BS_SOURCE)
    # The two-output kernel is split for single-render-target devices;
    # benchmark the call-pricing piece.
    kernel = program.kernel(program.kernel_groups["black_scholes"][0])
    helpers = program.helpers()
    assert kernel.vector_path is not None
    elements = 64 * 64
    rng = np.random.default_rng(1)
    inputs = {
        "price": rng.uniform(10.0, 100.0, elements).astype(np.float32),
        "strike": rng.uniform(10.0, 100.0, elements).astype(np.float32),
        "years": rng.uniform(0.25, 5.0, elements).astype(np.float32),
    }
    scalars = {"riskfree": 0.02, "volatility": 0.30}

    def interpret():
        KernelEvaluator(kernel.definition, helpers).run(
            elements, stream_inputs=inputs, scalar_args=scalars)

    def compiled():
        kernel.vector_path.run(elements, stream_inputs=inputs,
                               scalar_args=scalars)

    interpreter_s = _time_best(interpret)
    compiled_s = _time_best(compiled)
    reference = KernelEvaluator(kernel.definition, helpers).run(
        elements, stream_inputs=inputs, scalar_args=scalars)
    outputs, _ = kernel.vector_path.run(elements, stream_inputs=inputs,
                                        scalar_args=scalars)
    bitwise = all(
        np.array_equal(np.asarray(reference[key], dtype=np.float32).view(np.uint32),
                       np.asarray(outputs[key], dtype=np.float32).view(np.uint32))
        for key in reference
    )
    return {
        "kernel": "black_scholes",
        "elements": elements,
        "interpreter_ms": interpreter_s * 1e3,
        "compiled_ms": compiled_s * 1e3,
        "speedup": interpreter_s / compiled_s,
        "bitwise_identical": bitwise,
    }


def test_fusion_speedup(publish_run, fast_path_micro):
    results = {}
    bitwise_all = True
    for size in SIZES:
        base_s, base_out, base_passes = _run_pipeline_variant(size, False, False)
        fast_s, fast_out, _ = _run_pipeline_variant(size, True, False)
        fused_s, fused_out, fused_passes = _run_pipeline_variant(size, False, True)
        both_s, both_out, both_passes = _run_pipeline_variant(size, True, True)
        assert base_passes == len(STAGES)
        assert fused_passes == both_passes == 1
        for variant in (fast_out, fused_out, both_out):
            bitwise_all &= bool(np.array_equal(base_out.view(np.uint32),
                                               variant.view(np.uint32)))
        results[size] = {
            "interpreter_unfused_ms": base_s * 1e3,
            "fastpath_unfused_ms": fast_s * 1e3,
            "interpreter_fused_ms": fused_s * 1e3,
            "fastpath_fused_ms": both_s * 1e3,
            "speedup": base_s / both_s,
        }

    best_size = max(results, key=lambda s: results[s]["speedup"])
    best_speedup = results[best_size]["speedup"]
    payload = {
        "benchmark": "fusion",
        "backend": "cpu",
        "pipeline": {
            "app": "image_filter",
            "stages": STAGES,
            "passes_unfused": len(STAGES),
            "passes_fused": 1,
            "sizes": {str(size): row for size, row in results.items()},
            "best_size": best_size,
            "best_speedup": best_speedup,
            "bitwise_identical": bitwise_all,
        },
        "fast_path": fast_path_micro,
        "timing": {"iterations": ITERATIONS, "repeats": REPEATS,
                   "statistic": "best-of-repeats mean"},
    }
    publish_run("fusion", _render_table(results, best_size, best_speedup),
                payload)

    # Acceptance: outputs are bitwise identical on the CPU backend and the
    # combined vector tier + fusion beats the seed interpreter path >= 2x.
    assert bitwise_all, "fused/vector pipeline output differs from seed path"
    assert fast_path_micro["bitwise_identical"]
    assert best_speedup >= 2.0, (
        f"expected >= 2x speedup, measured {best_speedup:.2f}x "
        f"(sizes: { {s: round(r['speedup'], 2) for s, r in results.items()} })"
    )
