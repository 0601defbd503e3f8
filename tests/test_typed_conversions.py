"""Declared types decide every dtype.

GLSL ES 1.00 has no implicit conversions and MISRA C:2012 rule 10.4
forbids mixing essential types, so the semantic analyzer makes every
``int``/``float``/``bool`` conversion explicit, once.  The printers then
emit operands of one base type, and both execution tiers hold every
value at the dtype its type declares (``float`` is float32, ``int`` is
int32).
"""

import pathlib

import numpy as np
import pytest

from repro.apps import get_application, list_applications
from repro.cli import _python_kernel_snippets
from repro.core import ast_nodes as ast
from repro.core.analysis.sharding import classify_kernel
from repro.core.analysis.wcet import kernel_wcet
from repro.core.builtins import lookup_builtin
from repro.core.compiler import CompilerOptions, compile_source
from repro.core.types import ScalarKind
from repro.runtime import BrookRuntime
from repro.service.bench import ADAS_SERVICE_SOURCE
from test_vectorized_differential import _random_kernel

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _sources():
    for name in list_applications():
        yield f"apps/{name}", get_application(name).brook_source
    yield "adas", ADAS_SERVICE_SOURCE
    for path in sorted(EXAMPLES.glob("*.py")):
        for line, source in _python_kernel_snippets(path):
            yield f"{path.name}:{line}", source
    for seed in range(10):
        for tail in ("straight", "if"):
            yield f"fuzzed-{seed}-{tail}", _random_kernel(seed, tail)


SOURCES = dict(_sources())


def _mixed_operations(function, helpers):
    """Every operation of ``function`` whose operand has another base type
    than its context: the other operand, the stored-to target, the other
    ``?:`` branch, the declared local, the return type, the helper's
    parameter or a math builtin's ``float``."""
    for node in function.body.walk():
        pairs = []
        if isinstance(node, ast.BinaryOp):
            pairs = [(node.left, node.right.type.kind)]
        elif isinstance(node, ast.Assignment):
            pairs = [(node.value, node.target.type.kind)]
        elif isinstance(node, ast.Conditional):
            pairs = [(node.then, node.otherwise.type.kind)]
        elif isinstance(node, ast.DeclStatement) and node.init is not None:
            pairs = [(node.init, node.decl_type.kind)]
        elif isinstance(node, ast.ReturnStatement) and node.value is not None:
            pairs = [(node.value, function.return_type.kind)]
        elif isinstance(node, ast.CallExpr) and node.callee in helpers:
            pairs = [(arg, param.type.kind) for arg, param
                     in zip(node.args, helpers[node.callee].params)]
        elif isinstance(node, ast.CallExpr) \
                and lookup_builtin(node.callee) is not None \
                and node.callee not in ("any", "all"):
            pairs = [(arg, ScalarKind.FLOAT) for arg in node.args]
        for operand, expected in pairs:
            if operand.type.kind is not expected:
                yield node.to_source()


@pytest.mark.parametrize("label", sorted(SOURCES))
def test_no_operation_mixes_base_types(label):
    program = compile_source(SOURCES[label],
                             options=CompilerOptions(strict=False))
    helpers = program.helpers()
    functions = [kernel.definition for kernel in program.kernels.values()]
    mixed = [site for function in functions + list(helpers.values())
             for site in _mixed_operations(function, helpers)]
    assert mixed == []


@pytest.mark.parametrize("app, header", [
    ("sgemm", "(float(k) < inner)"),
    ("binary_search", "(float(probe) < probes)"),
    ("binomial", "(float(i) <= num_steps)"),
    ("flops", "(float(i) < niters)"),
    ("spmv", "(float(j) < nnz)"),
])
def test_app_loop_headers_compare_floats(app, header):
    application = get_application(app)
    program = compile_source(
        application.brook_source,
        range_specs=dict(application.range_specs))
    assert any(header in kernel.glsl_es for kernel in program.kernels.values()
               if kernel.glsl_es is not None)


#: One kernel written with int literals where float ones belong, and its
#: ``float`` spelling (``{one}`` etc. below).  The analyses read through
#: the implicit conversions: the loop bounds (an ``int`` counter stepped
#: by a float, a geometric one), the counters' ranges in the divergent
#: branches (every gather there is proved in bounds), the clamps the
#: sharding classifier bounds ``a``'s offsets with, and the helper's
#: division by a nonzero literal.
SPELLED = """
float half(float v) {{ return v / {two}; }}
kernel void spelled(float a[][], float b[][], float x<>, float n, int w,
                    out float o<>) {{
    float2 p = indexof(o);
    int d = 1;
    float acc = a[p.y][min(p.x + {one}, w - {one})]
        + a[p.y][min(p.x + d, {seven})];
    float j = {zero};
    float m = {zero};
    for (float i = {zero}; i < n; i = i + {one}) {{
        if (x > i) {{
            acc = acc + half(b[0][i + {one}]) + b[0][j + {one}]
                + b[0][m + {one}];
        }}
        j += {one};
        m = m + {one};
    }}
    for (int k = 0; k < n; k = k + {one}) {{
        if (x > {one}) {{ acc = acc + b[0][k + {two}]; }}
    }}
    for (int g = 1; g < n; g = g * {two}) {{ acc = acc * {two}; }}
    o = acc;
}}
"""


def _analysis_facts(source):
    program = compile_source(source, options=CompilerOptions(
        strict=False,
        range_specs={"spelled": {"gathers": {"b": (1, 9)},
                                 "params": {"n": (0, 7)}}}))
    kernel = program.kernel("spelled")
    report = kernel.vector_report
    return (kernel.resources.flops_per_element,
            kernel.resources.instruction_estimate,
            kernel.max_loop_iterations, kernel_wcet(program, "spelled"),
            classify_kernel(kernel.definition).arguments, report.verdict,
            [(o.kind, o.subject, o.proved) for o in report.obligations])


def test_analyses_read_through_conversions():
    mixed = _analysis_facts(
        SPELLED.format(zero="0", one="1", two="2", seven="7"))
    assert mixed == _analysis_facts(
        SPELLED.format(zero="0.0", one="1.0", two="2.0", seven="7.0"))
    arguments, verdict, obligations = mixed[-3:]
    assert arguments["a"].mode == "halo"
    assert arguments["a"].col_access.bound == 1
    assert verdict == "BV-301"
    assert len(obligations) == 5 and all(proved for *_, proved in obligations)


WIDENED = """
kernel void widened(float b[][], float x<>, float n, out float o<>) {
    float2 p = indexof(o);
    float acc = 0.0;
    for (int k = 0; %s < n; k = k + 1) {
        if (x > 1.0) { acc = acc + b[p.y][k + 1]; }
    }
    o = acc;
}
"""


@pytest.mark.parametrize("index", ["float(k)", "k"])
def test_explicit_widening_is_read_through(index):
    # The trip deduction and the branch refinement read through an
    # explicit float(k) of an int k as through the implicit one.
    program = compile_source(WIDENED % index, options=CompilerOptions(
        strict=False, range_specs={"widened": {
            "domain": ("rows", 8), "gathers": {"b": ("rows", 8)},
            "params": {"n": (0, 7)}}}))
    kernel = program.kernel("widened")
    assert kernel.max_loop_iterations == 7
    assert kernel.vector_report.verdict == "BV-301"


def test_narrowing_is_not_read_through():
    # int(f) < n does not bound f by n: f = 6.5 still passes for n = 7.
    source = ("kernel void narrowed(float n, out float o<>) { o = 0.0;"
              " for (float f = 0.5; int(f) < n; f = f + 1.0) { o += 1.0; } }")
    program = compile_source(source, options=CompilerOptions(
        strict=False, range_specs={"narrowed": {"params": {"n": (0, 7)}}}))
    assert program.kernel("narrowed").max_loop_iterations is None


FALL_OFF = """
int above(float v) { if (v > 100.0) { return 1; } }
kernel void fall_off(float x<>, out float o<>) { o = above(x) / 0; }
"""


@pytest.mark.parametrize("fast_path", [False, True],
                         ids=["interpreter", "vector"])
def test_a_call_no_lane_returns_from_is_a_typed_zero(fast_path):
    # An int zero: an int division by zero gives 0, a float one NaN.
    options = CompilerOptions(enable_fast_path=fast_path)
    with BrookRuntime(backend="cpu", compiler_options=options) as rt:
        module = rt.compile(FALL_OFF, strict=False)
        assert (module.program.kernel("fall_off").vector_path is not None) \
            == fast_path
        x = rt.stream_from(np.zeros(8, dtype=np.float32))
        o = rt.stream((8,))
        module.fall_off(x, o)
        np.testing.assert_array_equal(o.read(), 0.0)


DIVIDE = """
kernel void halve(float x<>, out float o<>) {
    int a = 7;
    int b = 2;
    float t = a;
    o = t / b;
}
"""


TRUTH = """
kernel void truth(float x<>, float big, out float o<>) {
    bool b = x;
    int i = 3;
    i *= 0.5;
    o = (x && big) ? i : 0.0;
}
"""


def test_printers_spell_the_conversions():
    kernel = compile_source(DIVIDE).kernel("halve")
    assert "float t = float(a);" in kernel.glsl_es
    assert "o = (t / float(b));" in kernel.glsl_es
    # C spells a conversion as a cast; Brook source leaves it out.
    assert "float t = ((float)(a));" in kernel.c_source
    assert "o = (t / ((float)(b)));" in kernel.c_source
    assert "float t = a;" in kernel.definition.to_source()
    # C's ``bool`` is an ``int``: a conversion to it compares with zero,
    # as the CPU tiers and GLSL's ``bool(x)`` do, where a cast would
    # truncate 0.5 to false.  A compound int store of a float value
    # computes in float and converts the result.
    kernel = compile_source(TRUTH).kernel("truth")
    assert "int b = ((x) != 0);" in kernel.c_source
    assert "(((x) != 0) && ((big) != 0))" in kernel.c_source
    assert "i = ((int)((((float)(i)) * 0.5)));" in kernel.c_source
    assert "(bool(x) && bool(big))" in kernel.glsl_es
    assert "i = int((float(i) * 0.5));" in kernel.glsl_es


@pytest.mark.parametrize("fast_path", [False, True],
                         ids=["interpreter", "vector"])
@pytest.mark.parametrize("backend, device", [
    ("cpu", None), ("gles2", "videocore-iv"), ("cal", None)])
def test_float_local_of_an_int_divides_as_float(backend, device, fast_path):
    options = CompilerOptions(enable_fast_path=fast_path)
    with BrookRuntime(backend=backend, device=device,
                      compiler_options=options) as rt:
        module = rt.compile(DIVIDE)
        assert (module.program.kernel("halve").vector_path is not None) \
            == fast_path
        x = rt.stream_from(np.zeros((4, 4), dtype=np.float32))
        o = rt.stream((4, 4))
        module.halve(x, o)
        np.testing.assert_array_equal(o.read(), 3.5)


@pytest.mark.parametrize("fast_path", [False, True],
                         ids=["interpreter", "vector"])
@pytest.mark.parametrize("body, want", [
    ("int i = 3; i *= 0.5; o = i;", 1.0),
    ("int i = 1; i -= 0.5; o = i;", 0.0),
    ("int i = 3; i /= 0.5; o = i;", 6.0),
    ("int2 v = float2(1.5, -2.5); o = v.x + v.y * 10;", -19.0),
])
def test_int_stores_of_float_values_follow_c(body, want, fast_path):
    # ``i op= v`` computes in float and truncates the result, as C does,
    # and an ``int2`` holds truncated components.
    options = CompilerOptions(enable_fast_path=fast_path)
    source = f"kernel void store(float x<>, out float o<>) {{ {body} }}"
    with BrookRuntime(backend="cpu", compiler_options=options) as rt:
        module = rt.compile(source)
        assert (module.program.kernel("store").vector_path is not None) \
            == fast_path
        x = rt.stream_from(np.zeros(8, dtype=np.float32))
        o = rt.stream((8,))
        module.store(x, o)
        np.testing.assert_array_equal(o.read(), want)


def test_a_masked_int_vector_store_keeps_int32():
    # A divergent store into an ``int2`` merges truncated int32 columns
    # into the local's int32 zeros (the kernel stays on the interpreter:
    # the range analysis bounds no vector local).
    source = """
    kernel void store(float x<>, out float o<>) {
        int2 w;
        if (x > 0.5) { w = float2(x, 2.5); }
        o = w.x + w.y * 10;
    }
    """
    with BrookRuntime(backend="cpu") as rt:
        module = rt.compile(source)
        x = rt.stream_from(np.array([0.0, 1.5, 2.25, 0.25], dtype=np.float32))
        o = rt.stream((4,))
        module.store(x, o)
        np.testing.assert_array_equal(o.read(), [0.0, 21.0, 22.0, 0.0])
