"""Differential suite: the vector path vs. the masked interpreter.

Every kernel brookvec marks BV-300/BV-301 must produce *bitwise*
identical outputs (and identical statistics) whether it runs through
``core.exec.vectorized`` or the masked SIMT interpreter - on the cpu and
gles2 backends, through gathers, in-place launches and the fusion /
tiling / sharding compositions.  Every BV-302/BV-303 kernel must fall
back with zero behavior change.

Coverage here mirrors the acceptance criteria: all reference-application
kernels, seeded random kernels, divergent-branch NaN propagation,
integer division, gather edge-clamp semantics, the loop and branch
matrix (uniform loops run unmasked), the composition matrix, the
reduction folds (scalar, block-wise, tiled and sharded) and the ADAS
pipeline across the GLES2 device matrix (untiled fragment passes run
the padded-slice stencil plan).
"""

import dataclasses
import random
import re

import numpy as np
import pytest

from repro.apps.base import get_application, list_applications
from repro.apps.sgemm import BROOK_SOURCE as SGEMM_SOURCE
from repro.backends import base as backend_base
from repro.backends import gles2_backend
from repro.backends.gles2_backend import GLES2Backend
from repro.backends.sharded import ShardedBackend
from repro.core.compiler import CompilerOptions, compile_source
from repro.core.exec import evaluate, layout_positions
from repro.core.exec import evaluator as exec_evaluator
from repro.core.exec import vectorized as vector_tier
from repro.core.exec.evaluator import KernelEvaluator
from repro.core.exec.gather import ClampingGatherSource, NumpyGatherSource
from repro.core.exec.vectorized import build_vector_path
from repro.errors import (GatherBoundsError, KernelLaunchError,
                          RuntimeBrookError)
from repro.gles2.device import GPUDeviceProfile
from repro.gles2.limits import GLES2Limits
from repro.runtime import BrookRuntime, quantize_roundtrip
from repro.runtime import reduction
from repro.runtime.launch import FusedPlan
from repro.service import KernelCall, prepare_request
from repro.service.bench import build_adas_request

INTERP = CompilerOptions(enable_fast_path=False)
VECTOR = CompilerOptions()


def assert_bitwise(got, want, label=""):
    got = np.asarray(got, dtype=np.float32)
    want = np.asarray(want, dtype=np.float32)
    assert got.shape == want.shape, label
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), \
        f"{label}: vector path diverges from the interpreter"


def run_differential(source, kernel, size, stream_inputs, scalar_args=None,
                     gathers=None, layout=None):
    """Interpreter vs. vector path on one kernel; asserts bitwise + stats.

    ``layout=(rows, cols)`` launches the vector program with the domain
    layout a backend hands it (so slice plans and line reads can run)
    and the interpreter with the positions of that layout.
    """
    program = compile_source(source, options=CompilerOptions(strict=False))
    handle = program.kernel(kernel)
    helpers = program.helpers()
    evaluator = KernelEvaluator(handle.definition, helpers)
    interpreted = evaluator.run(
        size, stream_inputs=stream_inputs, scalar_args=scalar_args,
        gathers={k: NumpyGatherSource(v._data) for k, v in
                 (gathers or {}).items()},
        index=None if layout is None else layout_positions(*layout))
    vec, report = build_vector_path(handle.definition, helpers)
    assert vec is not None, \
        f"{kernel}: expected a vector program, got {report.verdict}"
    vectorized, stats = vec.run(
        size, stream_inputs=stream_inputs, scalar_args=scalar_args,
        gathers={k: NumpyGatherSource(v._data) for k, v in
                 (gathers or {}).items()},
        layout=layout)
    assert interpreted.keys() == vectorized.keys()
    for key in interpreted:
        assert_bitwise(vectorized[key], interpreted[key], f"{kernel}.{key}")
    # The whole dataclass, so a counter added later is compared too.
    assert stats == evaluator.stats
    return report


def run_app(app_name, backend, options, size=None, seed=11, devices=1):
    app = get_application(app_name)
    size = size or min(16, app.max_target_size)
    inputs = app.generate_inputs(size, seed=seed)
    with BrookRuntime(backend=backend, compiler_options=options,
                      devices=devices) as rt:
        module = app.compile(rt)
        return app.run_brook(rt, module, size, inputs)


# --------------------------------------------------------------------------- #
# All reference applications, cpu and gles2
# --------------------------------------------------------------------------- #
class TestApplications:
    @pytest.mark.parametrize("backend", ["cpu", "gles2"])
    @pytest.mark.parametrize("app_name", sorted(list_applications()))
    def test_every_app_is_bitwise_identical(self, app_name, backend):
        want = run_app(app_name, backend, INTERP)
        got = run_app(app_name, backend, VECTOR)
        for key in want:
            assert_bitwise(got[key], want[key],
                           f"{app_name}.{key} on {backend}")

    def test_apps_actually_take_the_vector_path(self):
        # Guard against the suite silently passing because everything
        # fell back, and against a kernel silently dropping to the
        # interpreter under default options: every map kernel of the
        # apps and of the ADAS pipeline, fused kernels included, must
        # carry a vector program.
        def check(label, kernel):
            assert kernel.vector_path is not None, \
                f"{label}:{kernel.name} fell back " \
                f"({kernel.vector_report.verdict})"

        for app_name in list_applications():
            app = get_application(app_name)
            with BrookRuntime(backend="cpu",
                              compiler_options=VECTOR) as rt:
                module = app.compile(rt)
                for kernel in module.program.kernels.values():
                    check(app_name, kernel)
        frame = np.zeros((16, 16), dtype=np.float32)
        with BrookRuntime(backend="cpu") as rt:
            module, _, plans = prepare_request(
                rt, build_adas_request(16, frame))
            for kernel in module.program.kernels.values():
                check("adas", kernel)
            fused = [plan for plan, _ in rt.fuse(plans).segments
                     if isinstance(plan, FusedPlan)]
            assert fused
            for plan in fused:
                check("adas-fused", plan.kernel)


# --------------------------------------------------------------------------- #
# Seeded random kernels
# --------------------------------------------------------------------------- #
_OPS = ["+", "-", "*"]
_FUNCS = ["abs", "sqrt", "exp", "floor", "min", "max"]


def _random_expr(rnd, depth, names=("x", "y", "s")):
    if depth <= 0:
        return rnd.choice([*names, f"{rnd.uniform(-2, 2):.3f}",
                           "indexof(r).x", "indexof(r).y"])
    choice = rnd.random()
    if choice < 0.55:
        a = _random_expr(rnd, depth - 1, names)
        b = _random_expr(rnd, depth - 1, names)
        return f"({a} {rnd.choice(_OPS)} {b})"
    if choice < 0.8:
        func = rnd.choice(_FUNCS)
        if func in ("min", "max"):
            return (f"{func}({_random_expr(rnd, depth - 1, names)}, "
                    f"{_random_expr(rnd, depth - 1, names)})")
        return f"{func}({_random_expr(rnd, depth - 1, names)})"
    return f"({_random_expr(rnd, depth - 1, names)} / (abs(y) + 0.5))"


def _random_kernel(seed, tail):
    """A fuzzed kernel covering what the vector tier specialises on
    declared dtypes: int locals, a ``float`` declared from an int
    expression (an implicit ``float()``), int operands mixed with float
    ones, ``int()``/``float()``, ``+=``/``*=``, ``?:``,
    a ``float2`` local with a swizzle read and a member store, a
    straight-line helper call and ``indexof`` columns.  ``tail`` is
    ``"straight"`` or ``"if"``."""
    rnd = random.Random(seed)
    names = ["x", "y", "s"]

    def expr(depth=2):
        return _random_expr(rnd, depth, names)

    threshold = f"{rnd.uniform(-1, 1):.3f}"
    helper = (f"float bump(float v) {{ float w = {rnd.choice(_FUNCS[:4])}(v)"
              f" * 0.5; return w {rnd.choice(_OPS)} 1.0; }}")
    body = [f"int k = int({expr()});",
            f"int m = k {rnd.choice(_OPS)} {rnd.randint(1, 4)};",
            f"float t0 = k {rnd.choice(_OPS)} m;"]
    names += ["k", "t0"]
    body += [f"float t1 = {expr(3)};",
             f"float2 p = float2(t1, {expr()});",
             f"p.y = p.x {rnd.choice(_OPS)} {expr(1)};",
             f"t1 += p.y + {expr(1)};",
             "t1 *= float(m) * 0.125;",
             f"float t2 = (x > {threshold}) ? bump({expr(1)}) : p.x + t0;"]
    merged = "t0 + t1 + t2"
    if tail == "if":
        tail = (f"if (y > {threshold}) {{ r = {merged}; }} "
                f"else {{ r = {expr()} - ({merged}); }}")
    else:
        tail = f"r = {merged};"
    return (helper + " kernel void fuzzed(float s, float x<>, float y<>, "
            "out float r<>) { " + " ".join(body) + " " + tail + " }")


class TestSeededRandomKernels:
    @pytest.mark.parametrize("seed", range(10))
    def test_fuzzed_kernel_bitwise(self, seed, rng):
        size = 255
        inputs = {
            "x": rng.uniform(-3.0, 3.0, size).astype(np.float32),
            "y": rng.uniform(-3.0, 3.0, size).astype(np.float32),
        }
        for tail in ("straight", "if"):
            for layout in (None, (15, 17)):
                run_differential(_random_kernel(seed, tail), "fuzzed", size,
                                 inputs, {"s": 1.25}, layout=layout)


# --------------------------------------------------------------------------- #
# Targeted semantics
# --------------------------------------------------------------------------- #
class TestSemanticEdges:
    def test_gathers_read_float32(self, rng):
        # A gather over float64 data reads float32, so the vector tier
        # divides by the gathered value with the bare float32 operator.
        source = """
        kernel void ratio(float g[], float x<>, out float r<>) {
            float2 p = indexof(r);
            r = x / g[p.x];
        }"""
        program = compile_source(source, options=CompilerOptions(strict=False))
        handle = program.kernel("ratio")
        data = rng.uniform(1.0, 3.0, (1, 32))
        args = dict(stream_inputs={"x": rng.uniform(0.0, 3.0, 32)
                                   .astype(np.float32)})
        want = KernelEvaluator(handle.definition, {}).run(
            32, gathers={"g": NumpyGatherSource(data)}, **args)
        got, _ = handle.vector_path.run(
            32, gathers={"g": NumpyGatherSource(data)}, **args)
        assert got["r"].dtype == want["r"].dtype == np.float32
        assert_bitwise(got["r"], want["r"], "ratio")

    def test_divergent_branch_nan_propagation(self, rng):
        # sqrt of negatives on the speculatively evaluated side must
        # produce the interpreter's exact NaN bit patterns after the
        # np.where merge (and the NaNs must stay confined to the lanes
        # whose branch actually produced them).
        source = """
        kernel void nans(float x<>, out float r<>) {
            if (x > 0.0) {
                r = sqrt(x - 2.0) * 3.0;
            } else {
                r = sqrt(x) - 1.0;
            }
        }
        """
        size = 128
        inputs = {"x": rng.uniform(-4.0, 4.0, size).astype(np.float32)}
        report = run_differential(source, "nans", size, inputs)
        assert report.divergent

    def test_integer_division_truncation(self, rng):
        source = """
        kernel void intdiv(float x<>, out float r<>) {
            int n = int(x);
            if (x > 0.0) {
                r = float(n / 3) + float(n - (n / 3) * 3);
            } else {
                r = float(n / 2);
            }
        }
        """
        size = 200
        inputs = {"x": rng.uniform(-50.0, 50.0, size).astype(np.float32)}
        run_differential(source, "intdiv", size, inputs)

    def test_gather_edge_clamp_on_gles2(self, rng):
        # Unguarded neighbor fetches: the GLES2 gather source clamps to
        # the edge, and the vector path must observe the identical
        # clamped values because it fetches through the same source.
        source = """
        kernel void blur(float x<>, float src[], out float r<>) {
            float2 p = indexof(r);
            r = (src[p.x - 1.0] + src[p.x] + src[p.x + 1.0]) / 3.0;
        }
        """
        data = rng.uniform(0.0, 1.0, (1, 32)).astype(np.float32)
        results = {}
        for label, options in (("interp", INTERP), ("vector", VECTOR)):
            with BrookRuntime(backend="gles2",
                              compiler_options=options) as rt:
                module = rt.compile(source, strict=False)
                src = rt.stream_from(data)
                out = rt.stream((1, 32))
                module.blur(src, src, out)
                results[label] = out.read()
        assert_bitwise(results["vector"], results["interp"], "blur edge")

    def test_in_place_launch(self, rng):
        source = ("kernel void bump(float x<>, out float r<>) "
                  "{ r = x * 1.5 + 0.25; }")
        data = rng.uniform(-1.0, 1.0, (8, 8)).astype(np.float32)
        results = {}
        for label, options in (("interp", INTERP), ("vector", VECTOR)):
            with BrookRuntime(backend="cpu", compiler_options=options) as rt:
                module = rt.compile(source)
                x = rt.stream_from(data)
                module.bump(x, x)  # in-place: output is the input stream
                module.bump(x, x)
                results[label] = x.read()
        assert_bitwise(results["vector"], results["interp"], "in-place")

    def test_member_store_invalidates_index_binding(self, rng):
        # Regression: ``p.y = p.y + 3.0`` must kill the indexof-derived
        # binding, or the stencil slice planner serves shifted rows.
        source = """
        kernel void shifted(float src[][], out float dst<>) {
            float2 p = indexof(dst);
            p.y = p.y + 3.0;
            dst = src[min(p.y, 7.0)][p.x];
        }
        """
        data = rng.uniform(0.0, 1.0, (8, 8)).astype(np.float32)
        program = compile_source(source,
                                 options=CompilerOptions(strict=False))
        kernel = program.kernel("shifted")
        evaluator = KernelEvaluator(kernel.definition, program.helpers())
        layout = (8, 8)
        index = np.stack(np.meshgrid(np.arange(8, dtype=np.float32),
                                     np.arange(8, dtype=np.float32)),
                         axis=-1).reshape(-1, 2)
        want = evaluator.run(64, stream_inputs={},
                             gathers={"src": NumpyGatherSource(data)},
                             index=index)
        vec, report = build_vector_path(kernel.definition, program.helpers())
        assert vec is not None, report.verdict
        got, _ = vec.run(64, stream_inputs={},
                         gathers={"src": NumpyGatherSource(data)},
                         layout=layout)
        assert_bitwise(got["dst"], want["dst"], "member-store kill")

    def test_looping_helper_reassigns_a_float_parameter(self, rng):
        # ``a = a * 0.75 + i`` adds the int counter as ``float(i)``, so
        # the float parameter stays float32 on every trip, and the next
        # trip's reads of ``a`` take the bare ufuncs on both tiers.
        source = """
        float h(float a) {
            for (int i = 0; i < 3; i = i + 1) {
                a = min(a, 2.5) + clamp(sqrt(a), 0.125, 1.75);
                a = a * 0.75 + i;
            }
            return a;
        }
        kernel void k(float x<>, out float r<>) { r = h(x) - h(x * 0.5); }
        """
        size = 96
        inputs = {"x": rng.uniform(0.0, 9.0, size).astype(np.float32)}
        run_differential(source, "k", size, inputs)

    def test_compound_store_of_a_slice_served_gather(self, rng):
        # A compound store evaluates its value twice, so a slice-served
        # gather in it fetches twice per lane, as in the interpreter.
        source = """
        kernel void acc(float src[][], out float dst<>) {
            float2 p = indexof(dst);
            float s = 1.0;
            s += src[p.y][p.x];
            s *= src[max(p.y - 1.0, 0.0)][p.x];
            float t = (s += src[p.y][min(p.x + 1.0, 7.0)]);
            dst = s + t;
        }
        """
        rows, cols = 6, 8
        data = rng.uniform(-1.0, 1.0, (rows, cols)).astype(np.float32)
        vec, _ = build_vector_path(
            compile_source(source, options=CompilerOptions(strict=False))
            .kernel("acc").definition)
        assert vec.uses_slices
        run_differential(source, "acc", rows * cols, {},
                         gathers={"src": NumpyGatherSource(data)},
                         layout=(rows, cols))

    def test_stencil_fusion_on_non_square_layout(self, rng):
        # 3x3 literal-weight stencil on a rows != cols domain: exercises
        # the fused 2-d padded-slice peephole and its reshape ordering.
        source = """
        kernel void filt(float src[][], out float dst<>) {
            float2 p = indexof(dst);
            float acc = 0.0;
            acc = acc + 0.25 * src[p.y - 1.0][p.x];
            acc = acc + 0.50 * src[p.y][p.x - 1.0];
            acc = acc + 1.00 * src[p.y][p.x];
            acc = acc + 0.50 * src[p.y][p.x + 1.0];
            acc = acc + 0.25 * src[p.y + 1.0][p.x];
            dst = acc;
        }
        """
        rows, cols = 5, 9
        data = rng.uniform(-1.0, 1.0, (rows, cols)).astype(np.float32)
        results = {}
        for label, options in (("interp", INTERP), ("vector", VECTOR)):
            with BrookRuntime(backend="gles2",
                              compiler_options=options) as rt:
                module = rt.compile(source, strict=False)
                src = rt.stream_from(data)
                out = rt.stream((rows, cols))
                module.filt(src, out)
                results[label] = out.read()
        assert_bitwise(results["vector"], results["interp"], "stencil")


# --------------------------------------------------------------------------- #
# Fallback: BV-302/BV-303 kernels change nothing
# --------------------------------------------------------------------------- #
class TestFallback:
    SOURCE = """
    kernel void spinner(float x<>, out float r<>) {
        float acc = x;
        while (acc < 2.0) {
            acc = acc + 0.5;
        }
        r = acc;
    }

    kernel void risky(float x<>, float d, out float r<>) {
        if (x > 0.0) {
            r = x / d;
        } else {
            r = x;
        }
    }
    """

    @pytest.mark.parametrize("kernel,args", [("spinner", ()),
                                             ("risky", (2.0,))])
    def test_fallback_is_behavior_free(self, kernel, args, rng):
        data = rng.uniform(-1.0, 1.0, 64).astype(np.float32)
        results = {}
        for label, options in (("interp", INTERP), ("vector", VECTOR)):
            with BrookRuntime(backend="cpu", compiler_options=options) as rt:
                module = rt.compile(self.SOURCE, strict=False)
                handle = module.program.kernel(kernel)
                assert handle.vector_path is None
                if label == "vector":
                    assert handle.vector_report is not None
                    assert not handle.vector_report.vectorizable
                x = rt.stream_from(data)
                out = rt.stream(64)
                module.kernel(kernel)(x, *args, out)
                results[label] = out.read()
        assert_bitwise(results["vector"], results["interp"], kernel)


# --------------------------------------------------------------------------- #
# Compositions: fusion, tiling, sharding
# --------------------------------------------------------------------------- #
PIPE = """
kernel void scale(float x<>, float g, out float y<>) {
    y = x * g;
}

kernel void clamp01(float y<>, out float z<>) {
    if (y > 1.0) {
        z = 1.0;
    } else {
        z = y;
    }
}
"""


def tiny_gles2_backend(max_texture_size=8):
    profile = GPUDeviceProfile(
        name=f"tiny-{max_texture_size}",
        limits=GLES2Limits(name=f"tiny-{max_texture_size}",
                           max_texture_size=max_texture_size),
        effective_gflops=1.0,
        transfer_gib_per_s=1.0,
        pass_overhead_us=100.0,
        texture_fetch_ns=2.0,
        fill_rate_mpixels=100.0,
    )
    return GLES2Backend(profile)


def tiny_gles2_runtime(options, max_texture_size=8):
    return BrookRuntime(backend=tiny_gles2_backend(max_texture_size),
                        compiler_options=options)


class TestCompositions:
    def _run_fused(self, options, data, fuse=True):
        with BrookRuntime(backend="cpu", compiler_options=options) as rt:
            module = rt.compile(PIPE)
            x = rt.stream_from(data)
            y = rt.stream(data.shape)
            z = rt.stream(data.shape)
            plans = [module.scale.bind(x, 1.75, y),
                     module.clamp01.bind(y, z)]
            if fuse:
                rt.fuse(plans).launch()
            else:
                for plan in plans:
                    plan.launch()
            return z.read(), rt.statistics

    def test_fused_pipeline_bitwise(self, rng):
        data = rng.uniform(0.0, 2.0, (16, 16)).astype(np.float32)
        want, _ = self._run_fused(INTERP, data, fuse=False)
        got, stats = self._run_fused(VECTOR, data, fuse=True)
        assert stats.kernels_fused == 1
        assert_bitwise(got, want, "fused")

    def test_tiled_launch_bitwise(self, rng):
        data = rng.uniform(-1.0, 1.0, (16, 16)).astype(np.float32)
        results = {}
        for label, options in (("interp", INTERP), ("vector", VECTOR)):
            with tiny_gles2_runtime(options) as rt:
                module = rt.compile(PIPE)
                x = rt.stream_from(data)
                z = rt.stream((16, 16))
                module.clamp01(x, z)
                results[label] = z.read()
                assert rt.statistics.launches[-1].tiles > 1
        assert_bitwise(results["vector"], results["interp"], "tiled")

    def test_sharded_launch_bitwise(self, rng):
        data = rng.uniform(-1.0, 1.0, (16, 16)).astype(np.float32)
        results = {}
        for label, options in (("interp", INTERP), ("vector", VECTOR)):
            with BrookRuntime(backend="cpu", compiler_options=options,
                              devices=2) as rt:
                module = rt.compile(PIPE)
                x = rt.stream_from(data)
                z = rt.stream((16, 16))
                module.clamp01(x, z)
                results[label] = z.read()
        assert_bitwise(results["vector"], results["interp"], "sharded")


# --------------------------------------------------------------------------- #
# Loops and branches: uniform control flow runs unmasked
# --------------------------------------------------------------------------- #
LOOPS = """
float twice(float v) {
    return v * 2.0 - 1.0;
}

float bump(float v) {
    if (v > 1.0) {
        return v * 0.5;
    }
    return v + 0.25;
}

kernel void for_n(float x<>, float n, out float r<>) {
    float acc = x;
    for (int i = 0; i < n; i = i + 1) {
        acc = acc * 0.5 + 1.0;
    }
    r = acc;
}

kernel void while_n(float x<>, float n, out float r<>) {
    float acc = x;
    float i = 0.0;
    while (i < n) {
        acc = acc + x * i;
        i = i + 1.0;
    }
    r = acc;
}

kernel void do_n(float x<>, float n, out float r<>) {
    float acc = x;
    float i = 0.0;
    do {
        acc = acc * 1.5 - i;
        i = i + 1.0;
    } while (i < n);
    r = acc;
}

kernel void lane_trip(float x<>, float n, out float r<>) {
    float acc = 0.0;
    for (float i = 0.0; i < x; i = i + 1.0) {
        acc = acc + i * 0.5;
    }
    r = acc + n;
}

kernel void branch_in_loop(float x<>, float n, out float r<>) {
    float acc = x;
    for (int i = 0; i < n; i = i + 1) {
        if (acc > 1.0) {
            acc = acc - x * 0.5;
        } else {
            acc = acc + 0.75;
        }
        acc = acc * 0.9;
    }
    r = acc;
}

kernel void nested(float x<>, float n, out float r<>) {
    float acc = x;
    for (int i = 0; i < n; i = i + 1) {
        for (int j = 0; j < 3; j = j + 1) {
            acc = acc * 0.5 + float(j);
        }
        acc = acc + x;
    }
    r = acc;
}

kernel void helper_in_loop(float x<>, float n, out float r<>) {
    float acc = x;
    for (int i = 0; i < n; i = i + 1) {
        acc = bump(twice(acc)) + 0.125;
    }
    r = acc;
}

kernel void int_counter(float x<>, float n, out float r<>) {
    int k = 0;
    for (int i = 0; i < n; i = i + 1) {
        k = k + i * 2;
        if (k > 6) {
            k = k - 5;
        }
    }
    r = x + float(k);
}

kernel void uniform_break(float x<>, float n, out float r<>) {
    float acc = x;
    for (int i = 0; i < 16; i = i + 1) {
        if (float(i) >= n) {
            break;
        }
        if (float(i) == 2.0) {
            continue;
        }
        acc = acc * 0.5 + 1.0;
    }
    r = acc;
}

kernel void loop_return(float x<>, float n, out float r<>) {
    r = x;
    for (int i = 0; i < 16; i = i + 1) {
        if (float(i) >= n) {
            return;
        }
        r = r + x * 0.5;
    }
}

kernel void lane_break(float x<>, float n, out float r<>) {
    float acc = 0.0;
    for (int i = 0; i < 8; i = i + 1) {
        if (acc > x) {
            break;
        }
        acc = acc + 0.5;
    }
    r = acc + n;
}

kernel void lane_continue(float x<>, float n, out float r<>) {
    float acc = 0.0;
    float i = 0.0;
    do {
        for (float j = 0.0; j < 6.0; j = j + 1.0) {
            if (j * 0.5 > x) {
                continue;
            }
            acc = acc + j * 0.25;
        }
        i = i + 1.0;
    } while (i < n);
    while (i < n + n) {
        i = i + 1.0;
        for (float j = 0.0; j < 4.0; j = j + 1.0) {
            if (acc > x * 4.0) {
                continue;
            }
            acc = acc + 0.5;
        }
    }
    r = acc;
}

kernel void lane_return(float x<>, float n, out float r<>) {
    r = x;
    for (int i = 0; i < 6; i = i + 1) {
        if (float(i) * 0.5 > x) {
            return;
        }
        r = r + n * 0.5;
    }
    r = r * 2.0;
}

kernel void nested_break(float x<>, float n, out float r<>) {
    float acc = 0.0;
    for (int i = 0; i < n; i = i + 1) {
        for (float j = 0.0; j < 8.0; j = j + 1.0) {
            if (j > x) {
                break;
            }
            acc = acc + 0.25;
        }
        acc = acc * 0.5 + 1.0;
    }
    r = acc;
}

float settle(float v, float n) {
    float acc = v;
    for (int i = 0; i < n; i = i + 1) {
        if (acc > 2.5) {
            return acc - float(i);
        }
        acc = acc * 1.5 + 0.25;
    }
    return acc;
}

kernel void helper_return(float x<>, float n, out float r<>) {
    r = x;
    if (x > 1.0) {
        r = settle(x, n) + 0.5;
    }
}

kernel void member_branch(float x<>, float n, out float r<>) {
    float2 p = float2(x, n);
    if (x > 1.5) {
        p.y = x * 2.0;
    }
    r = p.x + p.y;
}
"""

#: ``lane_trip`` loops ``ceil(x)`` times per lane (the range spec bounds
#: it); with ``x > 0`` every lane enters, then lanes leave one by one.
#: The ``lane_*``, ``nested_break`` and ``helper_return`` exits test a
#: per-lane value.  A lane-divergent ``while``/``do`` has no static trip
#: bound (BV-302), so ``lane_continue``'s per-lane ``continue`` sits in
#: bounded ``for`` loops inside them.
LOOP_SPECS = {"lane_trip": {"params": {"x": (0, 8)}}}

#: (kernel, trip counts ``n``) of the matrix.
LOOP_CASES = [
    ("for_n", (0, 1, 5)),
    ("while_n", (0, 1, 5)),
    ("do_n", (0, 1, 5)),
    ("lane_trip", (0,)),
    ("branch_in_loop", (1, 6)),
    ("nested", (0, 1, 4)),
    ("helper_in_loop", (1, 4)),
    ("int_counter", (0, 1, 6)),
    ("uniform_break", (0, 1, 5)),
    ("loop_return", (0, 1, 5)),
    ("lane_break", (1,)),
    ("lane_continue", (0, 1, 5)),
    ("lane_return", (0, 1, 5)),
    ("nested_break", (0, 1, 4)),
    ("helper_return", (0, 1, 4)),
    ("member_branch", (1,)),
]


@pytest.fixture
def launch_stats(monkeypatch):
    """Every ``(kernel, KernelExecutionStats)`` the backends evaluate."""
    recorded = []

    def recording(kernel, *args, **kwargs):
        outputs, stats = evaluate(kernel, *args, **kwargs)
        recorded.append((kernel.definition.name, stats))
        return outputs, stats

    monkeypatch.setattr(backend_base, "evaluate", recording)
    monkeypatch.setattr(gles2_backend, "evaluate", recording)
    monkeypatch.setattr(reduction, "evaluate", recording)
    return recorded


def _loop_records(program):
    """``(loops, loops with lane records)`` of a vector program's
    generated source: a loop whose body has a ``break``, ``continue`` or
    ``return`` allocates one break and one continue lane array."""
    source = program.source
    broke = len(re.findall(r"broke\d+ = np\.zeros\(n, dtype=bool\)", source))
    continued = len(re.findall(r"continued\d+ = np\.zeros\(n, dtype=bool\)",
                               source))
    assert broke == continued
    return source.count("while True:"), broke


class TestLoopAndBranchMatrix:
    """Outputs and every stats field equal the interpreter's, per backend."""

    def _run(self, backend, options, kernel, data, n, recorded):
        recorded.clear()
        with BrookRuntime(backend=backend, compiler_options=options) as rt:
            module = rt.compile(LOOPS, strict=False, range_specs=LOOP_SPECS)
            handle = module.program.kernel(kernel)
            assert (handle.vector_path is None) == (options is INTERP), \
                handle.vector_report and handle.vector_report.reason
            x = rt.stream_from(data)
            r = rt.stream(data.shape)
            module.kernel(kernel)(x, n, r)
            return r.read(), list(recorded)

    @pytest.mark.parametrize("backend", ["cpu", "gles2"])
    @pytest.mark.parametrize("kernel,trips", LOOP_CASES)
    def test_bitwise_and_stats(self, backend, kernel, trips, rng,
                               launch_stats):
        data = rng.uniform(0.25, 3.0, (6, 8)).astype(np.float32)
        for n in trips:
            want, want_stats = self._run(backend, INTERP, kernel, data, n,
                                         launch_stats)
            got, got_stats = self._run(backend, VECTOR, kernel, data, n,
                                       launch_stats)
            assert_bitwise(got, want, f"{kernel}(n={n}) on {backend}")
            assert got_stats == want_stats, f"{kernel}(n={n}) on {backend}"
            assert got_stats, "no launch was recorded"

    @pytest.mark.parametrize("options", [INTERP, VECTOR],
                             ids=["interp", "vector"])
    def test_do_tests_its_condition_once_per_step(self, options,
                                                  launch_stats):
        # As in C: body, test; body, test; body, test - c = 3, i = 3.
        source = """
        kernel void count(float x<>, out float r<>) {
            float i = 0.0;
            float c = 0.0;
            do { c = c + 1.0; } while ((i = i + 1.0) < 3.0);
            r = c * 10.0 + i;
        }"""
        with BrookRuntime(backend="cpu", compiler_options=options) as rt:
            module = rt.compile(source, strict=False)
            handle = module.program.kernel("count")
            assert (handle.vector_path is None) == (options is INTERP)
            x = rt.stream_from(np.zeros(4, dtype=np.float32))
            r = rt.stream((4,))
            module.count(x, r)
            np.testing.assert_array_equal(r.read(), 33.0)
        ((_, stats),) = launch_stats
        assert stats.simt_loop_steps == 3
        # Per lane: three body adds and three tests of one add and one
        # compare each, plus the final multiply-add.
        assert stats.flops == 4 * (3 + 3 * 2 + 2)

    def test_exit_free_loops_drop_the_loop_record(self):
        program = compile_source(LOOPS, options=CompilerOptions(
            strict=False, range_specs=LOOP_SPECS))

        def records(kernel):
            return _loop_records(program.kernel(kernel).vector_path)

        assert records("for_n") == (1, 0)
        assert records("nested") == (2, 0)
        assert records("branch_in_loop") == (1, 0)
        assert records("uniform_break") == (1, 1)
        assert records("loop_return") == (1, 1)
        # The outer loop's body holds the inner loop's ``break``.
        assert records("nested_break") == (2, 2)
        # The loop is in the helper's generated function.
        assert records("helper_return") == (1, 1)

    @pytest.mark.parametrize("kernel", [kernel for kernel, _ in LOOP_CASES])
    def test_empty_launch(self, kernel):
        """Like the interpreter, an empty launch runs no statement."""
        program = compile_source(LOOPS, options=CompilerOptions(
            strict=False, range_specs=LOOP_SPECS))
        handle = program.kernel(kernel)
        args = dict(stream_inputs={"x": np.zeros(0, dtype=np.float32)},
                    scalar_args={"n": 3.0})
        evaluator = KernelEvaluator(handle.definition, program.helpers())
        want = evaluator.run(0, **args)
        got, stats = handle.vector_path.run(0, **args)
        assert_bitwise(got["r"], want["r"], kernel)
        assert stats == evaluator.stats

    def test_uniform_loop_stores_without_lane_merges(self, monkeypatch, rng):
        # Under the full mask a store is a plain rebinding; only the
        # first counter update (a 0-d value widening to one per lane)
        # still merges.
        # Both tiers store through the evaluator's ``stored``.
        merges = []
        real_merge = exec_evaluator._merge_masked

        def counting(*args):
            merges.append(1)
            return real_merge(*args)

        monkeypatch.setattr(exec_evaluator, "_merge_masked", counting)
        program = compile_source(LOOPS, options=CompilerOptions(strict=False))
        vec = program.kernel("branch_in_loop").vector_path
        x = rng.uniform(0.25, 3.0, 64).astype(np.float32)
        _, stats = vec.run(64, stream_inputs={"x": x},
                           scalar_args={"n": 12.0})
        assert stats.simt_loop_steps == 12
        # Per trip: two masked stores in the divergent branches; the
        # trailing ``acc = acc * 0.9`` and the counter update merge no
        # lanes once the counter is per-lane.
        assert len(merges) == 1 + 2 * 12


class TestEdgeLaunches:
    SOURCE = """
    kernel void edge(float x<>, float n, out float r<>) {
        float acc = x;
        for (int i = 0; i < n; i = i + 1) {
            if (acc > 1.0) {
                acc = acc * 0.5;
            }
            acc = acc + 0.25;
        }
        r = acc;
    }
    """

    @pytest.mark.parametrize("size", [0, 1])
    @pytest.mark.parametrize("n", [0.0, 3.0])
    def test_empty_and_single_lane_launch(self, size, n, rng):
        x = rng.uniform(0.0, 3.0, size).astype(np.float32)
        run_differential(self.SOURCE, "edge", size, {"x": x}, {"n": n})

    EXIT_ALL = """
    kernel void exit_all(float x<>, float g[][], out float r<>) {
        float2 p = indexof(r);
        r = x;
        for (int i = 0; i < 4; i = i + 1) {
            if (x > float(i)) {
                return;
            }
        }
        r = r + g[p.y][p.x];
    }
    """

    @pytest.mark.parametrize("low", [0.25, -1.0], ids=["every-lane", "some"])
    def test_nothing_runs_after_every_lane_exits(self, low, rng):
        # With every lane returned the trailing gather must not run: a
        # fetch counts every lane, whatever the mask.
        x = rng.uniform(low, 1.0, 48).astype(np.float32)
        data = rng.uniform(0.0, 1.0, (6, 8)).astype(np.float32)
        run_differential(self.EXIT_ALL, "exit_all", 48, {"x": x},
                         gathers={"g": NumpyGatherSource(data)},
                         layout=(6, 8))

    @pytest.mark.parametrize("kernel", ["for_n", "uniform_break"])
    def test_step_limit_error_is_unchanged(self, kernel, monkeypatch):
        monkeypatch.setattr(vector_tier, "_MAX_SIMT_STEPS", 4)
        program = compile_source(LOOPS, options=CompilerOptions(strict=False))
        handle = program.kernel(kernel)
        x = np.ones(8, dtype=np.float32)
        args = dict(stream_inputs={"x": x}, scalar_args={"n": 10.0})
        with pytest.raises(RuntimeBrookError) as want:
            KernelEvaluator(handle.definition, program.helpers(),
                            max_simt_steps=4).run(8, **args)
        with pytest.raises(RuntimeBrookError) as got:
            handle.vector_path.run(8, **args)
        assert str(got.value) == str(want.value)
        assert "exceeded 4 loop steps" in str(got.value)


# --------------------------------------------------------------------------- #
# Loops inside fused, tiled, scalarized and untyped kernels
# --------------------------------------------------------------------------- #
LOOP_PIPE = """
kernel void grow(float x<>, float n, out float y<>) {
    float acc = x;
    for (int i = 0; i < n; i = i + 1) {
        acc = acc * 0.5 + 1.0;
    }
    y = acc;
}

kernel void fold(float y<>, float n, out float z<>) {
    float2 p = indexof(z);
    float acc = y;
    for (int i = 0; i < n; i = i + 1) {
        if (acc > 1.5 + p.x * 0.125) {
            acc = acc - 0.25;
        }
        acc = acc * 1.25 - p.y * 0.0625;
    }
    z = acc;
}
"""

SWIRL = """
kernel void swirl(float2 v<>, float n, out float w<>) {
    float2 acc = float2(v.x, v.y);
    for (int i = 0; i < n; i = i + 1) {
        acc = acc * 0.5 + float2(v.y, 1.0) * v.x;
        if (acc.x > acc.y) {
            acc.y = acc.y + v.x;
        }
    }
    w = acc.x + acc.y * 0.5;
}
"""


class TestLoopCompositions:
    def _fused(self, options, data, recorded):
        recorded.clear()
        with BrookRuntime(backend="cpu", compiler_options=options) as rt:
            module = rt.compile(LOOP_PIPE, strict=False)
            x = rt.stream_from(data)
            y = rt.stream(data.shape)
            z = rt.stream(data.shape)
            plan = rt.fuse([module.grow.bind(x, 3.0, y),
                            module.fold.bind(y, 4.0, z)])
            fused = [seg for seg, _ in plan.segments
                     if isinstance(seg, FusedPlan)]
            assert len(fused) == 1
            assert (fused[0].kernel.vector_path is None) == (options is INTERP)
            plan.launch()
            return z.read(), list(recorded)

    def test_fused_loops(self, rng, launch_stats):
        data = rng.uniform(0.0, 3.0, (8, 8)).astype(np.float32)
        want, want_stats = self._fused(INTERP, data, launch_stats)
        got, got_stats = self._fused(VECTOR, data, launch_stats)
        assert_bitwise(got, want, "fused loops")
        assert got_stats == want_stats

    def test_tiled_loops(self, rng, launch_stats):
        data = rng.uniform(0.0, 3.0, (16, 16)).astype(np.float32)
        results = {}
        for label, options in (("interp", INTERP), ("vector", VECTOR)):
            launch_stats.clear()
            with tiny_gles2_runtime(options) as rt:
                module = rt.compile(LOOP_PIPE, strict=False)
                y = rt.stream_from(data)
                z = rt.stream((16, 16))
                module.fold(y, 5.0, z)
                assert rt.statistics.launches[-1].tiles > 1
                results[label] = (z.read(), list(launch_stats))
        assert_bitwise(results["vector"][0], results["interp"][0], "tiled")
        assert results["vector"][1] == results["interp"][1]

    @pytest.mark.parametrize("positions", ["layout", "index"])
    def test_scalarized_float2_loops(self, positions, rng):
        # The runtime binds the original (float2) signature, so the split
        # kernel runs directly: with a layout as on cpu, and with explicit
        # indexof positions as in a gles2 fragment pass.
        program = compile_source(SWIRL, options=CompilerOptions(
            strict=False, scalarize=True))
        handle = program.kernel("swirl")
        assert [p.name for p in handle.definition.params] == \
            ["v_x", "v_y", "n", "w"]
        layout = (4, 8)
        index = np.stack(np.meshgrid(np.arange(8, dtype=np.float32),
                                     np.arange(4, dtype=np.float32)),
                         axis=-1).reshape(-1, 2)
        inputs = {name: rng.uniform(0.0, 2.0, 32).astype(np.float32)
                  for name in ("v_x", "v_y")}
        evaluator = KernelEvaluator(handle.definition, program.helpers())
        want = evaluator.run(32, stream_inputs=inputs,
                             scalar_args={"n": 3.0}, index=index)
        where = {"layout": layout} if positions == "layout" \
            else {"index": index}
        got, stats = handle.vector_path.run(
            32, stream_inputs=inputs, scalar_args={"n": 3.0}, **where)
        assert_bitwise(got["w"], want["w"], "scalarized swirl")
        assert stats == evaluator.stats

    def test_vector_operands_keep_the_aligning_path(self, rng):
        # ``acc * 0.5`` multiplies a float2 by a float, so that binary op
        # keeps align_pair; the int counter meets ``n`` as ``float(i)``.
        program = compile_source(SWIRL, options=CompilerOptions(strict=False))
        handle = program.kernel("swirl")
        assert "(float(i) < n)" in handle.desktop_glsl
        vec = handle.vector_path
        assert "align_pair(" in vec.source
        size = 32
        inputs = {"v": rng.uniform(0.0, 2.0, (size, 2)).astype(np.float32)}
        evaluator = KernelEvaluator(handle.definition, {})
        want = evaluator.run(size, stream_inputs=inputs,
                             scalar_args={"n": 3.0})
        got, stats = vec.run(size, stream_inputs=inputs,
                             scalar_args={"n": 3.0})
        assert_bitwise(got["w"], want["w"], "swirl")
        assert stats == evaluator.stats


# --------------------------------------------------------------------------- #
# Reductions: every fold runs through evaluate()
# --------------------------------------------------------------------------- #
REDUCE = """
float twice(float v) {
    return v + v;
}

reduce void rsum(float v<>, reduce float acc) {
    acc += v;
}

reduce void rmax(float v<>, reduce float acc) {
    acc = max(acc, v);
}

reduce void rpeak(float v<>, reduce float acc) {
    if (v > acc) {
        acc = v;
    }
}

reduce void rtwice(float v<>, reduce float acc) {
    acc = acc + twice(v);
}
"""
REDUCE_KERNELS = ["rsum", "rmax", "rpeak", "rtwice"]
REDUCE_SHAPES = [(1, 1), (1, 7), (7, 1), (5, 3), (63, 65), (256, 256),
                 (1000,)]
#: Shapes that tile (or fold and tile) on a 16-texel device.
TILED_SHAPES = [(5, 3), (20, 13), (40, 33), (1000,)]


def _reduce_runtime(target, options):
    if target == "tiled":
        return tiny_gles2_runtime(options, max_texture_size=16)
    if target == "sharded-tiled":
        # Two 16-texel devices: every band of a TILED_SHAPES stream
        # past (5, 3) is itself tiled.
        return BrookRuntime(
            backend=ShardedBackend([tiny_gles2_backend(16),
                                    tiny_gles2_backend(16)]),
            compiler_options=options)
    if target == "cpu-x2":
        return BrookRuntime(backend="cpu", devices=2,
                            compiler_options=options)
    return BrookRuntime(backend=target, compiler_options=options)


def _clamped_reference(definition, helpers, data, quantize=None):
    """The 2x2 multipass fold written with clamped fancy indexing."""
    live = np.asarray(data, dtype=np.float32)
    live = live.reshape(1, -1) if live.ndim == 1 else live
    passes = flops = 0
    while live.size > 1:
        height, width = live.shape
        oy, ox = np.mgrid[0:(height + 1) // 2, 0:(width + 1) // 2]
        accumulator = live[2 * oy, 2 * ox]
        for dy, dx in ((0, 1), (1, 0), (1, 1)):
            ys, xs = 2 * oy + dy, 2 * ox + dx
            valid = (ys < height) & (xs < width)
            if not valid.any():
                continue
            neighbour = live[np.minimum(ys, height - 1),
                             np.minimum(xs, width - 1)]
            evaluator = KernelEvaluator(definition, helpers)
            outputs = evaluator.run(
                accumulator.size,
                stream_inputs={"v": neighbour.reshape(-1)},
                reduce_inputs={"acc": accumulator.reshape(-1)})
            combined = outputs["acc"].reshape(accumulator.shape)
            accumulator = np.where(valid, combined,
                                   accumulator).astype(np.float32)
            flops += evaluator.stats.flops
        if quantize is not None:
            accumulator = np.asarray(quantize(accumulator), dtype=np.float32)
        live = accumulator
        passes += 1
    return live.reshape(-1)[0], passes, flops


class TestReductions:
    """Reduced value, ``reduce_into`` output, every launch-record field
    and every fold's stats equal the interpreter's, per backend and
    path."""

    def _run(self, target, options, kernel, data, out_shape, recorded):
        recorded.clear()
        with _reduce_runtime(target, options) as rt:
            module = rt.compile(REDUCE, strict=False)
            handle = module.program.kernel(kernel)
            assert (handle.vector_path is None) == (options is INTERP)
            x = rt.stream_from(data)
            if out_shape is None:
                result = np.float32(module.kernel(kernel)(x, 0.0))
            else:
                accumulator = rt.stream(out_shape)
                module.kernel(kernel)(x, accumulator)
                result = accumulator.read()
            return result, list(rt.statistics.launches), list(recorded)

    def _check(self, target, kernel, data, out_shape, recorded):
        want = self._run(target, INTERP, kernel, data, out_shape, recorded)
        got = self._run(target, VECTOR, kernel, data, out_shape, recorded)
        label = f"{kernel}{data.shape}->{out_shape} on {target}"
        assert_bitwise(got[0], want[0], label)
        assert got[1] == want[1], label
        folds, want_folds = got[2], want[2]
        if target in ("sharded-tiled", "cpu-x2"):
            # Devices fold their bands concurrently, in any order.
            folds, want_folds = sorted(folds, key=repr), \
                sorted(want_folds, key=repr)
        assert folds == want_folds, label
        assert got[1][-1].reduction, label
        # Folds run exactly when the output is smaller than the input.
        out_count = 1 if out_shape is None else int(np.prod(out_shape))
        assert bool(got[2]) == (data.size > out_count), label
        return got[1][-1]

    @pytest.mark.parametrize("target", ["cpu", "gles2", "cal"])
    @pytest.mark.parametrize("kernel", REDUCE_KERNELS)
    def test_scalar(self, target, kernel, rng, launch_stats):
        for shape in REDUCE_SHAPES:
            data = rng.uniform(-4.0, 4.0, shape).astype(np.float32)
            self._check(target, kernel, data, None, launch_stats)

    @pytest.mark.parametrize("target", ["cpu", "gles2", "cal"])
    @pytest.mark.parametrize("kernel", REDUCE_KERNELS)
    def test_reduce_into(self, target, kernel, rng, launch_stats):
        data = rng.uniform(-4.0, 4.0, (12, 18)).astype(np.float32)
        for out_shape in ((3, 6), (4, 9), (1, 1), (12, 18)):
            self._check(target, kernel, data, out_shape, launch_stats)

    #: (elements, flops, texture_fetches, passes, tiles, shards,
    #: halo_bytes) of ``rsum`` over (40, 33): 3x3 tiles on one device;
    #: two bands of 2x3 tiles each on two devices, partials combined on
    #: device 0.
    PINNED = {"tiled": (1793, 1322, 1896, 39, 9, 1, 0),
              "sharded-tiled": (1800, 1321, 1924, 51, 11, 2, 4)}

    @pytest.mark.parametrize("target", ["tiled", "sharded-tiled", "cpu-x2"])
    @pytest.mark.parametrize("kernel", REDUCE_KERNELS)
    def test_tiled_and_sharded(self, target, kernel, rng, launch_stats):
        for shape in TILED_SHAPES:
            data = rng.uniform(-4.0, 4.0, shape).astype(np.float32)
            record = self._check(target, kernel, data, None, launch_stats)
            if kernel == "rsum" and shape == (40, 33) \
                    and target in self.PINNED:
                assert (record.elements, record.flops,
                        record.texture_fetches, record.passes,
                        record.tiles, record.shards,
                        record.halo_bytes) == self.PINNED[target]
        if target != "cpu-x2":
            data = rng.uniform(-4.0, 4.0, (12, 18)).astype(np.float32)
            for out_shape in ((3, 6), (4, 9), (1, 1)):
                self._check(target, kernel, data, out_shape, launch_stats)

    @pytest.mark.parametrize("quantize", [None, quantize_roundtrip])
    @pytest.mark.parametrize("kernel", REDUCE_KERNELS)
    def test_pairing_matches_the_clamped_reference(self, kernel, quantize,
                                                   rng):
        # The strided quadrants of the edge-padded array pair exactly
        # the elements the clamped 2x2 gather pairs.
        program = compile_source(REDUCE, options=CompilerOptions(
            strict=False))
        compiled = program.kernel(kernel)
        for shape in REDUCE_SHAPES[:-2] + [(1000,), (2, 9), (9, 2)]:
            data = rng.uniform(-4.0, 4.0, shape).astype(np.float32)
            want, passes, flops = _clamped_reference(
                compiled.definition, program.helpers(), data, quantize)
            got = reduction.multipass_reduce(compiled, program.helpers(),
                                             data, quantize)
            assert_bitwise(got.value, want, f"{kernel}{shape}")
            assert (got.passes, got.flops) == (passes, flops)

    @pytest.mark.parametrize("target", ["cpu", "gles2", "cal"])
    def test_one_to_one_reduce_into_owns_its_output(self, target):
        # No fold runs: the output receives the input values and keeps
        # them after the input stream is overwritten.
        data = np.arange(6, dtype=np.float32).reshape(2, 3)
        with _reduce_runtime(target, VECTOR) as rt:
            module = rt.compile(REDUCE, strict=False)
            x = rt.stream_from(data)
            accumulator = rt.stream((2, 3))
            module.rsum(x, accumulator)
            x.write(np.zeros_like(data))
            assert_bitwise(accumulator.read(), data, target)

    def test_missing_accumulator_error_is_unchanged(self):
        program = compile_source(REDUCE, options=CompilerOptions(
            strict=False))
        compiled = program.kernel("rsum")
        values = {"v": np.zeros(4, dtype=np.float32)}
        with pytest.raises(KernelLaunchError) as vector_error:
            compiled.vector_path.run(4, stream_inputs=values)
        with pytest.raises(KernelLaunchError) as interp_error:
            KernelEvaluator(compiled.definition, {}).run(
                4, stream_inputs=values)
        assert str(vector_error.value) == str(interp_error.value)


# --------------------------------------------------------------------------- #
# ADAS on the GLES2 device matrix
# --------------------------------------------------------------------------- #
GLES2_DEVICES = ["videocore-iv", "mali-400", "constrained-es2"]
#: Power-of-two, non-power-of-two, single-row and single-column frames.
UNTILED_SHAPES = [(32, 32), (33, 17), (1, 7), (7, 1)]
#: Wider than constrained-es2's 512-texel limit, so every pass tiles.
TILED_SHAPE = (3, 520)


def _adas_request(shape, frame):
    """``build_adas_request`` for a ``rows x cols`` frame."""
    rows, cols = shape
    square = build_adas_request(1, frame)
    calls = []
    for call in square.calls:
        args = list(call.args)
        if call.kernel in ("filter3x3", "vignette"):
            args[1:3] = [float(cols), float(rows)]    # width, height
        calls.append(KernelCall(call.kernel, tuple(args)))
    return dataclasses.replace(
        square, calls=tuple(calls), outputs={"out": shape},
        scratch={name: shape for name in square.scratch})


def _run_adas(device, shape, options, fuse, frame, recorded, sanitize=None):
    """Output, launch records, per-launch stats and sanitizer findings."""
    recorded.clear()
    with BrookRuntime(backend="gles2", device=device, compiler_options=options,
                      sanitize=sanitize) as rt:
        _, streams, plans = prepare_request(rt, _adas_request(shape, frame))
        streams["image"].write(frame)
        if fuse:
            rt.fuse(plans).launch()
        else:
            for plan in plans:
                plan.launch()
        findings = list(rt.sanitizer.findings) if rt.sanitizer else []
        return (streams["out"].read(), list(rt.statistics.launches),
                list(recorded), findings)


@pytest.fixture
def slice_plans(monkeypatch):
    """Whether each vector launch carrying slice plans took them.

    The generated prologue pads a stencil array (``_edge_pad``) only on
    a launch that takes the slice plan, and the ADAS filter reads one
    pixel around each lane, so a taken plan always pads.
    """
    taken, pads = [], []
    run = vector_tier.VectorizedKernelProgram.run
    edge_pad = vector_tier._edge_pad

    def padding(dense, pad):
        pads.append(pad)
        return edge_pad(dense, pad)

    def spy(self, *args, **kwargs):
        pads.clear()
        result = run(self, *args, **kwargs)
        if self.uses_slices:
            taken.append((self.kernel.name, bool(pads)))
        return result

    monkeypatch.setattr(vector_tier, "_edge_pad", padding)
    monkeypatch.setattr(vector_tier.VectorizedKernelProgram, "run", spy)
    return taken


class TestGLES2DeviceMatrix:
    """Untiled fragment passes hand ``evaluate`` their layout, so the
    ADAS stencil runs the slice plan; outputs, launch records and
    per-launch stats equal the interpreter's on every device."""

    @pytest.mark.parametrize("fuse", [False, True], ids=["unfused", "fused"])
    @pytest.mark.parametrize(
        "device,shape",
        [(device, shape) for device in GLES2_DEVICES
         for shape in UNTILED_SHAPES] + [("constrained-es2", TILED_SHAPE)])
    def test_adas_bitwise_and_slice_plan(self, device, shape, fuse, rng,
                                         launch_stats, slice_plans):
        frame = rng.uniform(0.0, 255.0, shape).astype(np.float32)
        label = f"{device} {shape} fuse={fuse}"
        want, want_records, want_stats, _ = _run_adas(
            device, shape, INTERP, fuse, frame, launch_stats)
        got, records, stats, _ = _run_adas(
            device, shape, VECTOR, fuse, frame, launch_stats)
        assert_bitwise(got, want, label)
        assert records == want_records, label
        assert stats == want_stats, label
        tiled = shape == TILED_SHAPE
        assert all((record.tiles > 1) == tiled for record in records), label
        assert slice_plans, f"{label}: no launch carried a slice plan"
        assert all(taken != tiled for _, taken in slice_plans), \
            f"{label}: {slice_plans}"

    def test_sanitized_run_is_clean_and_unchanged(self, rng, launch_stats,
                                                  slice_plans):
        shape = (33, 17)
        frame = rng.uniform(0.0, 255.0, shape).astype(np.float32)
        plain = _run_adas("videocore-iv", shape, VECTOR, True, frame,
                          launch_stats, sanitize=False)
        checked = _run_adas("videocore-iv", shape, VECTOR, True, frame,
                            launch_stats, sanitize=True)
        assert checked[3] == []
        assert_bitwise(checked[0], plain[0], "sanitized")
        assert checked[1:3] == plain[1:3]
        assert slice_plans and all(taken for _, taken in slice_plans)


# --------------------------------------------------------------------------- #
# Line reads: a row or column gathered at a uniform index
# --------------------------------------------------------------------------- #
LINES = """
kernel void row_k(float a[][], float k, out float r<>) {
    float2 idx = indexof(r);
    r = a[idx.y][k];
}

kernel void col_k(float b[][], float k, out float r<>) {
    float2 idx = indexof(r);
    r = b[k][idx.x] * 2.0;
}

kernel void row_loop(float a[][], float n, out float r<>) {
    float2 idx = indexof(r);
    float acc = 0.0;
    for (int k = 0; k < n; k = k + 1) {
        acc = acc * 0.5 + a[idx.y][k];
    }
    r = acc;
}

kernel void relax(float d<>, float dist[][], float k, out float r<>) {
    float2 idx = indexof(d);
    r = min(d, dist[idx.y][k] + dist[k][idx.x]);
}

kernel void lane_k(float ks<>, float a[][], out float r<>) {
    float2 idx = indexof(r);
    r = a[idx.y][ks];
}

kernel void reassigned(float a[][], float k, out float r<>) {
    float2 idx = indexof(r);
    if (k > 1.0) {
        idx.y = 0.0;
    }
    r = a[idx.y][k];
}
""" + SGEMM_SOURCE


def _matrix(rng, rows, cols):
    return rng.uniform(-1.0, 1.0, (rows, cols)).astype(np.float32)


def _line_cases(rng):
    """``(id, kernel, args, out shape, served)``; ``served`` is True when
    every candidate gather must be a line read, False when candidates
    exist but must all take the per-lane fetch, None when the kernel
    has no candidate at all."""
    a = _matrix(rng, 6, 5)           # m x inner
    b = _matrix(rng, 5, 7)           # inner x n
    dist = rng.uniform(0.0, 4.0, (8, 8)).astype(np.float32)
    lanes = rng.integers(0, 5, (6, 7)).astype(np.float32)
    return [
        ("row-scalar", "row_k", [a, 3.0], (6, 7), True),
        ("row-fractional", "row_k", [a, 2.75], (6, 7), True),
        ("row-nan", "row_k", [a, float("nan")], (6, 7), False),
        ("row-out-of-range", "row_k", [a, 5.0], (6, 7), False),
        ("row-negative", "row_k", [a, -0.5], (6, 7), False),
        ("row-taller-than-array", "row_k", [a, 1.0], (8, 7), False),
        ("col-scalar", "col_k", [b, 4.0], (6, 7), True),
        ("col-wider-than-array", "col_k", [b, 1.0], (6, 9), False),
        ("row-loop-counter", "row_loop", [a, 5.0], (6, 7), True),
        ("sgemm-non-square", "sgemm", [a, b, 5.0], (6, 7), True),
        ("floyd", "relax", [dist, dist, 3.0], (8, 8), True),
        ("lane-k-per-lane", "lane_k", [lanes, a], (6, 7), False),
        ("lane-k-uniform", "lane_k", [np.full((6, 7), 2.0, np.float32), a],
         (6, 7), True),
        ("reassigned-idx", "reassigned", [a, 2.0], (6, 7), None),
        ("reassigned-idx-untaken", "reassigned", [a, 0.5], (6, 7), None),
    ]


LINE_CASE_IDS = [case[0] for case in _line_cases(np.random.default_rng(0))]


@pytest.fixture
def line_reads(monkeypatch):
    """``(line, served)`` for every line-read candidate the vector tier met."""
    seen = []
    real = vector_tier._line_read

    def spy(source, ctx, line, rows, cols):
        values = real(source, ctx, line, rows, cols)
        seen.append((line, values is not None))
        return values

    monkeypatch.setattr(vector_tier, "_line_read", spy)
    return seen


def _launch_lines(runtime, options, kernel, args, shape, recorded):
    """Output (or the error) and the launch records and per-launch stats."""
    recorded.clear()
    with runtime as rt:
        module = rt.compile(LINES, strict=False)
        handle = module.program.kernel(kernel)
        assert (handle.vector_path is None) == (options is INTERP), \
            handle.vector_report and handle.vector_report.reason
        bound = [rt.stream_from(arg) if isinstance(arg, np.ndarray) else arg
                 for arg in args]
        out = rt.stream(shape)
        try:
            module.kernel(kernel)(*bound, out)
        except Exception as error:          # compared, not hidden
            result = (type(error), str(error))
        else:
            result = out.read()
        return result, list(rt.statistics.launches), list(recorded)


def _assert_same_launch(got, want, label):
    if isinstance(want[0], tuple):
        assert got[0] == want[0], label
    else:
        assert_bitwise(got[0], want[0], label)
    assert got[1] == want[1], label
    assert got[2] == want[2], label


class TestLineReads:
    """``a[idx.y][k]`` / ``b[k][idx.x]`` with ``k`` uniform are served as one
    row or column read; outputs, errors, launch records and every stats
    field equal the interpreter's, and every other case falls back."""

    @pytest.mark.parametrize("backend", ["cpu", "gles2"])
    @pytest.mark.parametrize("case", LINE_CASE_IDS)
    def test_runtime_bitwise_and_stats(self, backend, case, launch_stats,
                                       line_reads):
        cases = {c[0]: c for c in _line_cases(np.random.default_rng(5))}
        _, kernel, args, shape, served = cases[case]
        label = f"{case} on {backend}"
        want = _launch_lines(BrookRuntime(backend=backend,
                                          compiler_options=INTERP),
                             INTERP, kernel, args, shape, launch_stats)
        line_reads.clear()
        got = _launch_lines(BrookRuntime(backend=backend,
                                         compiler_options=VECTOR),
                            VECTOR, kernel, args, shape, launch_stats)
        _assert_same_launch(got, want, label)
        if served is None:
            assert line_reads == [], label
        else:
            assert line_reads, f"{label}: no line-read candidate"
            assert all(taken == served for _, taken in line_reads), \
                f"{label}: {line_reads}"

    def test_out_of_range_error_text_is_unchanged(self, launch_stats):
        a = _matrix(np.random.default_rng(1), 6, 5)
        want = _launch_lines(BrookRuntime(backend="cpu",
                                          compiler_options=INTERP),
                             INTERP, "row_k", [a, 5.0], (6, 7), launch_stats)
        got = _launch_lines(BrookRuntime(backend="cpu",
                                         compiler_options=VECTOR),
                            VECTOR, "row_k", [a, 5.0], (6, 7), launch_stats)
        assert want[0][0] is GatherBoundsError
        assert got[0] == want[0]

    @pytest.mark.parametrize("kernel,args", [
        ("row_k", "a"), ("col_k", "b"), ("sgemm", "ab"), ("relax", "dd")])
    @pytest.mark.parametrize("runtime", ["tiled", "two-devices"])
    def test_explicit_index_launches_fall_back(self, kernel, args, runtime,
                                               launch_stats, line_reads):
        rng = np.random.default_rng(7)
        arrays = {"a": _matrix(rng, 16, 16), "b": _matrix(rng, 16, 16),
                  "d": rng.uniform(0.0, 4.0, (16, 16)).astype(np.float32)}
        bound = [arrays[name] for name in args] + [3.0]

        def make(options):
            if runtime == "tiled":
                return tiny_gles2_runtime(options, max_texture_size=8)
            return BrookRuntime(backend="cpu", compiler_options=options,
                                devices=2)

        want = _launch_lines(make(INTERP), INTERP, kernel, bound, (16, 16),
                             launch_stats)
        line_reads.clear()
        got = _launch_lines(make(VECTOR), VECTOR, kernel, bound, (16, 16),
                            launch_stats)
        _assert_same_launch(got, want, f"{kernel} {runtime}")
        assert not isinstance(got[0], tuple), got[0]
        if runtime == "tiled":
            assert all(record.tiles > 1 for record in got[1])
        else:
            assert all(record.shards == 2 for record in got[1])
        assert line_reads and not any(taken for _, taken in line_reads)

    @pytest.mark.parametrize("kernel,arrays,scalars,layout", [
        ("row_k", {"a": (6, 5)}, {"k": 2.0}, (6, 7)),
        ("col_k", {"b": (5, 7)}, {"k": 4.5}, (6, 7)),
        ("row_loop", {"a": (6, 5)}, {"n": 5.0}, (6, 7)),
        ("sgemm", {"a": (6, 5), "b": (5, 7)}, {"inner": 5.0}, (6, 7)),
        ("row_k", {"a": (6, 5)}, {"k": 2.0}, None),
    ])
    def test_direct_program_with_layout(self, kernel, arrays, scalars, layout,
                                        line_reads):
        rng = np.random.default_rng(3)
        gathers = {name: NumpyGatherSource(_matrix(rng, *shape))
                   for name, shape in arrays.items()}
        run_differential(LINES, kernel, 42, {}, scalars, gathers,
                         layout=layout)
        assert line_reads
        assert all(taken == (layout is not None) for _, taken in line_reads)

    def test_transformed_source_keeps_the_per_lane_fetch(self, line_reads):
        # A value transform (the RGBA8 round-trip) has no dense array.
        data = _matrix(np.random.default_rng(4), 6, 5)
        program = compile_source(LINES, options=CompilerOptions(strict=False))
        handle = program.kernel("row_k")

        def sources():
            return {"a": ClampingGatherSource(data,
                                              transform=quantize_roundtrip)}

        evaluator = KernelEvaluator(handle.definition, program.helpers())
        want = evaluator.run(42, scalar_args={"k": 2.0}, gathers=sources(),
                             index=layout_positions(6, 7))
        got, stats = handle.vector_path.run(
            42, scalar_args={"k": 2.0}, gathers=sources(), layout=(6, 7))
        assert_bitwise(got["r"], want["r"], "transformed")
        assert stats == evaluator.stats
        assert line_reads == [("y", False)]


class TestLineReadGuard:
    """The paper's row/column apps make no per-lane fetch on the vector
    tier, and count the same fetches as the interpreter."""

    @pytest.mark.parametrize("app_name", ["sgemm", "floyd_warshall"])
    def test_no_per_lane_fetch(self, app_name, monkeypatch, launch_stats):
        fetched = []
        real = NumpyGatherSource.fetch

        def counting(self, rows, cols):
            fetched.append(np.size(rows))
            return real(self, rows, cols)

        monkeypatch.setattr(NumpyGatherSource, "fetch", counting)
        counts = {}
        for label, options in (("interp", INTERP), ("vector", VECTOR)):
            fetched.clear()
            launch_stats.clear()
            run_app(app_name, "cpu", options)
            counts[label] = (len(fetched), sum(
                stats.gather_fetches for _, stats in launch_stats))
        assert counts["interp"][0] > 0
        assert counts["vector"][0] == 0, counts
        assert counts["vector"][1] == counts["interp"][1] > 0
