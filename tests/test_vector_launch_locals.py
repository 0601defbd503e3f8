"""Straight-line vector launches on Python locals.

A straight-line kernel compiles to one generated ``launch`` whose
parameters and locals are Python locals: each parameter binds once (a
missing argument reaches one ``KeyError`` handler that raises the
interpreter's message), a helper called under the full mask is inlined,
and the statements the slice and per-lane bodies end with are emitted
once after them.  None of that may change a bit: every straight-line
app kernel and the fused ADAS kernel must match the masked interpreter
on outputs, statistics and launch records, across square, single-row,
empty, explicit-index and tiled launches.
"""

import dataclasses

import numpy as np
import pytest

from repro.apps.base import get_application, list_applications
from repro.core.compiler import CompilerOptions, compile_source
from repro.core.exec import layout_positions
from repro.core.exec import vectorized
from repro.core.exec.evaluator import KernelEvaluator
from repro.core.exec.gather import ClampingGatherSource, NumpyGatherSource
from repro.core.exec.vectorized import build_vector_path, is_straight_line
from repro.core.types import ParamKind, ScalarKind
from repro.errors import KernelLaunchError
from repro.runtime import BrookRuntime
from repro.runtime.launch import FusedPlan
from repro.service import KernelCall, prepare_request
from repro.service.bench import build_adas_request

INTERP = CompilerOptions(enable_fast_path=False)
VECTOR = CompilerOptions()


def _straight_line_kernels():
    """``(label, compiled kernel, helpers)`` of every straight-line app
    kernel and of the fused ADAS kernel."""
    kernels = []
    for app_name in sorted(list_applications()):
        with BrookRuntime(backend="cpu") as rt:
            program = get_application(app_name).compile(rt).program
            kernels += [(f"{app_name}:{kernel.name}", kernel,
                         program.helpers())
                        for kernel in program.kernels.values()
                        if is_straight_line(kernel.definition.body)]
    frame = np.zeros((16, 16), dtype=np.float32)
    with BrookRuntime(backend="cpu") as rt:
        module, _, plans = prepare_request(rt, build_adas_request(16, frame))
        kernels += [("adas-fused", plan.kernel, module.program.helpers())
                    for plan, _ in rt.fuse(plans).segments
                    if isinstance(plan, FusedPlan)]
    return kernels


KERNELS = _straight_line_kernels()
KERNEL_IDS = [label for label, _, _ in KERNELS]

#: ``(label, rows, cols, how)``: ``layout`` hands the vector program the
#: domain layout (the slice plan may run), ``index`` explicit positions
#: (a fragment or tile pass: the per-lane body), ``none`` neither.
GEOMETRIES = [("16x16", 16, 16, "layout"), ("32x32", 32, 32, "layout"),
              ("1xn", 1, 37, "layout"), ("empty", 1, 0, "none"),
              ("explicit-index", 8, 12, "index")]


def _arguments(kernel, rows, cols, rng):
    """Seeded arguments of every parameter for a ``rows x cols`` launch."""
    n = rows * cols
    streams, scalars, gathers, reduces = {}, {}, {}, {}
    for param in kernel.definition.params:
        width = param.type.width
        shape = (n,) if width == 1 else (n, width)
        if param.kind in (ParamKind.STREAM, ParamKind.ITERATOR):
            streams[param.name] = rng.uniform(0.0, 4.0, shape) \
                .astype(np.float32)
        elif param.kind is ParamKind.SCALAR:
            if param.type.kind is ScalarKind.INT:
                scalars[param.name] = 3
            elif width > 1:
                scalars[param.name] = rng.uniform(0.25, 2.0, width) \
                    .astype(np.float32)
            elif param.name.endswith("width"):
                scalars[param.name] = float(cols)
            elif param.name.endswith("height"):
                scalars[param.name] = float(rows)
            else:
                scalars[param.name] = float(rng.uniform(0.25, 2.0))
        elif param.kind is ParamKind.GATHER:
            gathers[param.name] = rng.uniform(
                0.0, 4.0, (max(rows, 1), max(cols, 1))).astype(np.float32)
        elif param.kind is ParamKind.REDUCE:
            reduces[param.name] = rng.uniform(0.0, 4.0, shape) \
                .astype(np.float32)
    return streams, scalars, gathers, reduces


def _outcome(run):
    """Outputs as ``(dtype, shape, bytes)`` plus the stats, or the error."""
    try:
        outputs, stats = run()
    except Exception as error:      # compared, not hidden
        return type(error), str(error)
    return ({key: (value.dtype, value.shape, value.tobytes())
             for key, value in outputs.items()}, dataclasses.asdict(stats))


def _both_tiers(kernel, helpers, n, args, layout, index):
    streams, scalars, gathers, reduces = args

    def sources():      # fresh fetch counters per run
        return {name: ClampingGatherSource(data)
                for name, data in gathers.items()}

    def interpreted():
        evaluator = KernelEvaluator(kernel.definition, helpers)
        positions = index
        if positions is None and layout is not None:
            positions = layout_positions(*layout)
        outputs = evaluator.run(n, stream_inputs=streams,
                                scalar_args=scalars, gathers=sources(),
                                index=positions, reduce_inputs=reduces)
        return outputs, evaluator.stats

    def vector():
        return kernel.vector_path.run(n, stream_inputs=streams,
                                      scalar_args=scalars, gathers=sources(),
                                      index=index, layout=layout,
                                      reduce_inputs=reduces)

    return _outcome(vector), _outcome(interpreted)


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=[g[0] for g in GEOMETRIES])
@pytest.mark.parametrize("label,kernel,helpers", KERNELS, ids=KERNEL_IDS)
def test_launch_matches_the_interpreter(label, kernel, helpers, geometry):
    _, rows, cols, how = geometry
    assert kernel.vector_path is not None, label
    args = _arguments(kernel, rows, cols, np.random.default_rng(7))
    layout = (rows, cols) if how == "layout" else None
    index = layout_positions(rows, cols) if how == "index" else None
    got, want = _both_tiers(kernel, helpers, rows * cols, args, layout, index)
    assert got == want, label


def test_the_suite_covers_slice_and_plain_launches():
    sources = {label: kernel.vector_path.source
               for label, kernel, _ in KERNELS}
    fused = sources["adas-fused"]
    assert "if ok:" in fused and "else:" in fused
    assert any("if ok:" not in source for source in sources.values())


# --------------------------------------------------------------------------- #
# Launch records on the runtime, the tiled per-lane branch included
# --------------------------------------------------------------------------- #
def _adas_request(rows, cols, frame):
    """``build_adas_request`` for a ``rows x cols`` frame."""
    square = build_adas_request(1, frame)
    calls = []
    for call in square.calls:
        args = list(call.args)
        if call.kernel in ("filter3x3", "vignette"):
            args[1:3] = [float(cols), float(rows)]    # width, height
        calls.append(KernelCall(call.kernel, tuple(args)))
    shape = (rows, cols)
    return dataclasses.replace(
        square, calls=tuple(calls), outputs={"out": shape},
        scratch={name: shape for name in square.scratch})


def _run_adas(backend, device, options, rows, cols):
    frame = np.random.default_rng(rows * cols).uniform(
        0.0, 255.0, (rows, cols)).astype(np.float32)
    with BrookRuntime(backend=backend, device=device,
                      compiler_options=options) as rt:
        _, streams, plans = prepare_request(rt, _adas_request(rows, cols,
                                                              frame))
        rt.fuse(plans).launch()
        return (streams["out"].read().tobytes(),
                list(rt.statistics.launches))


@pytest.mark.parametrize("backend,device,rows,cols,sliced", [
    ("cpu", None, 32, 32, True),
    ("cpu", None, 1, 40, True),
    ("gles2", "videocore-iv", 16, 16, True),
    ("gles2", "constrained-es2", 3, 520, False),
])
def test_fused_adas_records_match_the_interpreter(backend, device, rows,
                                                  cols, sliced, monkeypatch):
    pads = []
    real = vectorized._edge_pad

    def counting(dense, pad):
        pads.append(pad)
        return real(dense, pad)

    monkeypatch.setattr(vectorized, "_edge_pad", counting)
    want = _run_adas(backend, device, INTERP, rows, cols)
    assert pads == []
    got = _run_adas(backend, device, VECTOR, rows, cols)
    assert got == want
    # The slice branch pads the frame; a tile pass (explicit positions)
    # takes the per-lane branch.
    assert bool(pads) is sliced
    if device == "constrained-es2":
        assert all(record.tiles > 1 for record in got[1])


# --------------------------------------------------------------------------- #
# Binding errors
# --------------------------------------------------------------------------- #
BINDING = """
kernel void k(float x<>, float a, float g[][], out float r<>) {
    float2 p = indexof(r);
    r = x * a + g[p.y][p.x];
}
reduce void fold(float x<>, reduce float acc) { acc += x; }
"""


@pytest.mark.parametrize("kernel_name,missing", [
    ("k", ("x",)), ("k", ("a",)), ("k", ("g",)), ("k", ("a", "g")),
    ("k", ("x", "g")), ("k", ("x", "a", "g")), ("fold", ("acc",)),
    ("fold", ("x", "acc"))])
def test_missing_argument_message_is_the_interpreters(kernel_name, missing):
    program = compile_source(BINDING, options=CompilerOptions(strict=False))
    kernel = program.kernel(kernel_name)
    vector, report = build_vector_path(kernel.definition, program.helpers())
    assert vector is not None, report.reason
    n = 4
    tables = {"x": ("stream_inputs", np.ones(n, np.float32)),
              "a": ("scalar_args", 2.0),
              "g": ("gathers", NumpyGatherSource(np.ones((1, n), np.float32))),
              "acc": ("reduce_inputs", np.zeros(n, np.float32))}
    params = {param.name for param in kernel.definition.params}
    args = {"stream_inputs": {}, "scalar_args": {}, "gathers": {},
            "reduce_inputs": {}}
    for name, (table, value) in tables.items():
        if name in params and name not in missing:
            args[table][name] = value
    messages = []
    for run in (KernelEvaluator(kernel.definition, {}).run, vector.run):
        with pytest.raises(KernelLaunchError) as error:
            run(n, **args)
        messages.append(str(error.value))
    assert messages[0] == messages[1]
    assert repr(missing[0]) in messages[1]


# --------------------------------------------------------------------------- #
# The generated source
# --------------------------------------------------------------------------- #
def test_straight_line_sources_have_no_env():
    for label, kernel, _ in KERNELS:
        assert "env[" not in kernel.vector_path.source, label


def test_fused_adas_source_emits_the_shared_tail_once():
    source = dict((label, kernel) for label, kernel, _ in KERNELS)[
        "adas-fused"].vector_path.source
    launch = source.split("def launch(", 1)[1]
    assert launch.count("np.power(") == 1
    # Every value has its declared dtype: no cast before the clamp, and
    # the contrast helper's body runs inline.
    assert launch.count("np.asarray(") == 22 + 1   # binding, acc
    assert "helper" not in source


# --------------------------------------------------------------------------- #
# Locals semantics the apps do not reach
# --------------------------------------------------------------------------- #
EDGES = """
float sq(float v) { return v * v; }
float2 pair(float v) { return float2(v, v + 1.0); }
int whole(float v) { int i = v; return i; }
float twice(float v) { float w = sq(v); w = w + v; return w * 2.0; }
float2 shift(float2 p, float d) { return p + float2(d, d); }
float2 keep(float2 p) { return p; }

kernel void nested(float x<>, out float r<>) {
    float a = 1.0;
    float b = (a = x * 2.0) + a;
    r = b + a;
}
kernel void member(float x<>, out float r<>) {
    float2 p = float2(x, 1.0);
    p.y = x * 3.0;
    r = p.x + p.y;
}
kernel void compound(float x<>, out float r<>) {
    float a = x;
    a += sq(a);
    r = a;
}
kernel void calls(float x<>, float k, out float r<>) {
    r = lerp(x, sq(x) + sq(k), 0.5) + sq(sq(x)) + twice(k);
}
kernel void after_fetch(float g[][], float x<>, out float r<>) {
    float2 p = indexof(r);
    r = g[p.y][p.x] + sq(x);
}
kernel void typed(float x<>, out float r<>) {
    r = whole(x) * 2;
}
kernel void swizzled(float x<>, out float r<>) {
    float2 q = pair(x);
    r = q.y;
}
kernel void uniform(float k, out float r<>) {
    float u = sq(k);
    r = u;
}
kernel void uniform_vector(float2 c, float x<>, out float r<>) {
    float2 q = shift(c, x);
    float2 k = keep(c);
    r = q.x + sq(c.y) + k.y * x;
}
kernel void branchy(float x<>, out float r<>) {
    int i = 3;
    r = i * 2;
    if (x > 0.5) { r = r + whole(x); }
}
kernel void truth(float x<>, out float r<>) {
    bool big = x;
    float f = big;
    int h = whole(x) / 2;
    r = f + float(x && big) + h;
}
kernel void ints(float x<>, float n, out float r<>) {
    int2 v = float2(x * 4.0, -x * 4.0);
    int2 w;
    if (n > 0.0) { w = v; w.y *= 0.5; }
    r = v.x + v.y * 10 + w.x * 100 + w.y * 1000;
}
"""


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=[g[0] for g in GEOMETRIES])
@pytest.mark.parametrize("name", ["nested", "member", "compound", "calls",
                                  "after_fetch", "typed", "swizzled",
                                  "uniform", "uniform_vector", "branchy",
                                  "truth", "ints"])
def test_locals_edges_match_the_interpreter(name, geometry):
    """Nested and member stores, compound stores around a helper, nested
    and non-float helpers, a helper after a per-lane fetch, int results
    converted into a float output (also on an empty launch, which runs
    no statement), bool conversions and truncated int vectors, masked
    and compound-stored, straight-line and with control flow alike."""
    _, rows, cols, how = geometry
    program = compile_source(EDGES, options=CompilerOptions(strict=False))
    kernel = program.kernel(name)
    helpers = program.helpers()
    kernel.vector_path, report = build_vector_path(kernel.definition, helpers)
    assert kernel.vector_path is not None, report.reason
    # Control flow included, every local is a Python local.
    assert "env[" not in kernel.vector_path.source
    args = _arguments(kernel, rows, cols, np.random.default_rng(5))
    layout = (rows, cols) if how == "layout" else None
    index = layout_positions(rows, cols) if how == "index" else None
    got, want = _both_tiers(kernel, helpers, rows * cols, args, layout, index)
    assert got == want, name
