"""Tests for the compiled execution tier switched by ``enable_fast_path``.

The compiled tier is the brookvec vector program
(repro.core.exec.vectorized).  It must (a) be attached to every kernel
brookvec approves, straight-line or divergent, reductions included,
(b) produce bit-identical outputs and equivalent work statistics to the
masked interpreter, and (c) leave the kernels brookvec rejects, and
every kernel when the switch is off, on the interpreter.
"""

import builtins

import numpy as np
import pytest

from repro.apps.base import get_application, list_applications
from repro.core.compiler import CompilerOptions, compile_source
from repro.core.exec.vectorized import is_straight_line
from repro.core.exec.evaluator import KernelEvaluator
from repro.core.exec.gather import NumpyGatherSource
from repro.errors import KernelLaunchError
from repro.runtime import BrookRuntime
from repro.runtime.launch import FusedPlan
from repro.service import prepare_request
from repro.service.bench import build_adas_request

STRAIGHT_SOURCE = """
float weight(float d) {
    float k = 1.0 / (1.0 + abs(d));
    return (d < 0.0) ? k : 1.0 - k;
}

kernel void mixdown(float x<>, float y<>, float gain, float table[],
                    out float r<>) {
    float2 pos = indexof(r);
    float base = weight(x - y) * gain;
    float looked = table[pos.x];
    float acc = 0.0;
    acc += base * 2.0;
    acc = acc + looked;
    int bucket = int(acc);
    r = acc + float(bucket) * 0.001 + max(x, y);
}

kernel void vec_ops(float a<>, float b<>, out float r<>) {
    float2 v = float2(a, b);
    float2 w = v * 2.0;
    w.y = a - b;
    r = dot(v, w) + length(w);
}

kernel void branching(float x<>, out float r<>) {
    if (x > 0.0) {
        r = x;
    } else {
        r = -x;
    }
}

kernel void looping(float x<>, float n, out float r<>) {
    float acc = x;
    for (int i = 0; i < 4; i = i + 1) {
        acc = acc * 1.5;
    }
    r = acc;
}

kernel void spinning(float x<>, out float r<>) {
    float acc = x;
    while (acc < 4.0) {
        acc = acc + 1.0;
    }
    r = acc;
}

reduce void total(float v<>, reduce float acc) {
    acc += v;
}
"""


REDUCTIONS = """
reduce void total(float v<>, reduce float acc) { acc += v; }
reduce void peak(float v<>, reduce float acc) { acc = max(acc, v); }
reduce void peak_if(float v<>, reduce float acc) {
    if (v > acc) {
        acc = v;
    }
}
"""


LOOPING_RANGE = {"looping": {"params": {"n": (0, 4)}}}


@pytest.fixture(scope="module")
def program():
    return compile_source(STRAIGHT_SOURCE, strict=False,
                          range_specs=LOOPING_RANGE)


# --------------------------------------------------------------------------- #
# Qualification
# --------------------------------------------------------------------------- #
class TestQualification:
    def test_straight_line_kernels_get_a_fast_path(self, program):
        assert program.kernel("mixdown").vector_path is not None
        assert program.kernel("vec_ops").vector_path is not None

    def test_divergent_kernels_fall_back(self, program):
        # Divergence alone no longer forces the interpreter (BV-301
        # kernels run masked vector programs); a kernel brookvec
        # rejects does fall back.
        assert program.kernel("branching").vector_path is not None
        assert program.kernel("looping").vector_path is not None
        assert program.kernel("spinning").vector_path is None
        assert program.kernel("spinning").vector_report.verdict == "BV-302"

    def test_reductions_qualify(self):
        # A reduce kernel's folds run through the same tiers as a map
        # kernel: its vector program binds a copy of the accumulator and
        # returns it updated.
        program = compile_source(REDUCTIONS, strict=False)
        values = np.array([2.0, -1.0, 0.5], dtype=np.float32)
        start = np.array([1.0, -2.0, 3.0], dtype=np.float32)
        for name, verdict, want in (
                ("total", "BV-300", [3.0, -3.0, 3.5]),
                ("peak", "BV-300", [2.0, -1.0, 3.0]),
                ("peak_if", "BV-301", [2.0, -1.0, 3.0])):
            kernel = program.kernel(name)
            assert kernel.vector_report.verdict == verdict, name
            accumulator = start.copy()
            outputs, _ = kernel.vector_path.run(
                3, stream_inputs={"v": values},
                reduce_inputs={"acc": accumulator})
            np.testing.assert_array_equal(outputs["acc"], want)
            np.testing.assert_array_equal(accumulator, start)

    def test_is_straight_line_predicate(self, program):
        assert is_straight_line(program.kernel("mixdown").definition.body)
        assert not is_straight_line(program.kernel("branching").definition.body)
        assert not is_straight_line(program.kernel("looping").definition.body)

    def test_option_disables_compilation(self):
        disabled = compile_source(
            STRAIGHT_SOURCE,
            options=CompilerOptions(enable_fast_path=False, strict=False),
            range_specs=LOOPING_RANGE,
        )
        assert all(k.vector_path is None for k in disabled.kernels.values())

    def test_option_is_part_of_the_fingerprint(self):
        assert CompilerOptions().fingerprint() != \
            CompilerOptions(enable_fast_path=False).fingerprint()


# --------------------------------------------------------------------------- #
# Bitwise equivalence with the interpreter
# --------------------------------------------------------------------------- #
def _run_both(program, name, size, stream_inputs, scalar_args=None,
              gathers=None):
    kernel = program.kernel(name)
    helpers = program.helpers()
    evaluator = KernelEvaluator(kernel.definition, helpers)
    interpreted = evaluator.run(
        size, stream_inputs=stream_inputs, scalar_args=scalar_args,
        gathers=gathers,
    )
    fresh_gathers = {k: NumpyGatherSource(v._data) for k, v in
                     (gathers or {}).items()}
    compiled, stats = kernel.vector_path.run(
        size, stream_inputs=stream_inputs, scalar_args=scalar_args,
        gathers=fresh_gathers,
    )
    return interpreted, evaluator.stats, compiled, stats


class TestEquivalence:
    def test_bitwise_outputs_and_stats(self, program, rng):
        size = 256
        table = rng.uniform(-2.0, 2.0, size).astype(np.float32)
        inputs = {
            "x": rng.uniform(-3.0, 3.0, size).astype(np.float32),
            "y": rng.uniform(-3.0, 3.0, size).astype(np.float32),
        }
        gathers = {"table": NumpyGatherSource(table.reshape(1, -1))}
        interpreted, istats, compiled, cstats = _run_both(
            program, "mixdown", size, inputs, {"gain": 1.5}, gathers)
        assert interpreted.keys() == compiled.keys()
        for key in interpreted:
            a = np.asarray(interpreted[key], dtype=np.float32)
            b = np.asarray(compiled[key], dtype=np.float32)
            assert np.array_equal(a.view(np.uint32), b.view(np.uint32))
        assert cstats.flops == istats.flops
        assert cstats.stream_reads == istats.stream_reads
        assert cstats.stream_writes == istats.stream_writes
        assert cstats.gather_fetches == istats.gather_fetches
        assert cstats.elements == istats.elements

    def test_vector_kernel_bitwise(self, program, rng):
        size = 128
        inputs = {
            "a": rng.uniform(-1.0, 1.0, size).astype(np.float32),
            "b": rng.uniform(-1.0, 1.0, size).astype(np.float32),
        }
        interpreted, istats, compiled, cstats = _run_both(
            program, "vec_ops", size, inputs)
        a = np.asarray(interpreted["r"], dtype=np.float32)
        b = np.asarray(compiled["r"], dtype=np.float32)
        assert np.array_equal(a.view(np.uint32), b.view(np.uint32))
        assert cstats.flops == istats.flops

    def test_error_message_parity_for_missing_stream(self, program):
        kernel = program.kernel("vec_ops")
        with pytest.raises(KernelLaunchError, match="missing input stream"):
            kernel.vector_path.run(8, stream_inputs={"a": np.zeros(8)})

    @pytest.mark.parametrize("app_name", sorted(list_applications()))
    def test_every_app_is_bitwise_identical_on_cpu(self, app_name):
        app = get_application(app_name)
        size = min(16, app.max_target_size)
        inputs = app.generate_inputs(size, seed=7)
        outputs = {}
        for enabled in (False, True):
            options = CompilerOptions(enable_fast_path=enabled)
            with BrookRuntime(backend="cpu", compiler_options=options) as rt:
                module = app.compile(rt)
                outputs[enabled] = app.run_brook(rt, module, size, inputs)
        for key, expected in outputs[False].items():
            got = np.asarray(outputs[True][key], dtype=np.float32)
            want = np.asarray(expected, dtype=np.float32)
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), \
                f"{app_name}.{key} differs between vector path and interpreter"


# --------------------------------------------------------------------------- #
# Backend integration
# --------------------------------------------------------------------------- #
class TestBackendIntegration:
    SRC = ("kernel void saxpy(float a, float x<>, float y<>, out float r<>)"
           " { r = a * x + y; }")

    @pytest.mark.parametrize("backend", ["cpu", "gles2", "cal"])
    def test_fast_path_matches_interpreter_on_backend(self, backend, rng):
        data_x = rng.uniform(0.0, 1.0, (16, 16)).astype(np.float32)
        data_y = rng.uniform(0.0, 1.0, (16, 16)).astype(np.float32)
        results = {}
        for enabled in (False, True):
            options = CompilerOptions(enable_fast_path=enabled)
            with BrookRuntime(backend=backend, compiler_options=options) as rt:
                module = rt.compile(self.SRC)
                assert (module.program.kernel("saxpy").vector_path
                        is not None) is enabled
                x = rt.stream_from(data_x)
                y = rt.stream_from(data_y)
                r = rt.stream((16, 16))
                module.saxpy(2.0, x, y, r)
                results[enabled] = r.read()
        assert np.array_equal(results[True].view(np.uint32),
                              results[False].view(np.uint32))


# --------------------------------------------------------------------------- #
# The generated launch
# --------------------------------------------------------------------------- #
def _vector_kernels():
    """``(label, compiled kernel)`` of every app kernel, every ADAS stage
    and the fused ADAS kernel."""
    kernels = []
    for app_name in sorted(list_applications()):
        with BrookRuntime(backend="cpu") as rt:
            module = get_application(app_name).compile(rt)
            kernels += [(app_name, kernel)
                        for kernel in module.program.kernels.values()]
    frame = np.zeros((16, 16), dtype=np.float32)
    with BrookRuntime(backend="cpu") as rt:
        module, _, plans = prepare_request(rt, build_adas_request(16, frame))
        kernels += [("adas", kernel)
                    for kernel in module.program.kernels.values()]
        kernels += [("adas-fused", plan.kernel)
                    for plan, _ in rt.fuse(plans).segments
                    if isinstance(plan, FusedPlan)]
    return kernels


class TestGeneratedLaunch:
    def test_every_kernel_runs_one_generated_launch_on_locals(self):
        kernels = _vector_kernels()
        assert any(label == "adas-fused" for label, _ in kernels)
        assert any(not is_straight_line(kernel.definition.body)
                   for _, kernel in kernels)
        for label, kernel in kernels:
            program = kernel.vector_path
            assert program is not None, f"{label}:{kernel.name}"
            source = program.source
            assert source.count("def launch(") == 1, f"{label}:{kernel.name}"
            # Every local is a Python local: no ``env`` dict, no region
            # tree driver.
            for word in ("env[", "env.get(", "_run_nodes"):
                assert word not in source, f"{label}:{kernel.name}: {word}"
            with pytest.raises(AttributeError):
                program.source = ""

    def test_second_launch_compiles_nothing(self, monkeypatch):
        frame = np.random.default_rng(3).uniform(0.0, 255.0, (16, 16))
        with BrookRuntime(backend="cpu") as rt:
            _, streams, plans = prepare_request(
                rt, build_adas_request(16, frame.astype(np.float32)))
            fused = rt.fuse(plans)
            fused.launch()
            first = streams["out"].read()
            compiled = []
            real = builtins.compile

            def counting(*args, **kwargs):
                compiled.append(args[1] if len(args) > 1 else None)
                return real(*args, **kwargs)

            monkeypatch.setattr(builtins, "compile", counting)
            fused.launch()
            assert compiled == []
            assert np.array_equal(streams["out"].read(), first)
