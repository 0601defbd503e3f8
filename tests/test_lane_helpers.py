"""The lane helpers' arithmetic: Brook ``fmod``, float ``%`` and C integers.

``evaluator.fmod`` computes float32 remainders in float64 (exact inside
its quotient bound) and must equal ``np.fmod`` bit for bit everywhere,
dtype included.  Both execution tiers call it, and the GLSL printers
spell the same C semantics through ``brook_fmod``.  Integer ``/``, ``%``
and ``int`` conversion truncate toward zero, as C does, in both tiers
and in constant folding.
"""

import numpy as np
import pytest

from repro.core import analyze, ast_nodes as ast, parse
from repro.core.compiler import CompilerOptions, compile_source
from repro.core.exec.evaluator import KernelEvaluator, fmod
from repro.core.exec.vectorized import build_vector_path
from repro.core.transforms.constant_fold import fold_constants
from repro.runtime import BrookRuntime

FLT_MAX = np.finfo(np.float32).max
FLT_TRUE_MIN = np.float32(1e-45)
SPECIALS = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 2.0, -3.5,
     FLT_MAX, -FLT_MAX, FLT_TRUE_MIN, -FLT_TRUE_MIN,
     np.float32(1.17549435e-38), np.float32(-1.1754942e-38),
     np.float32(3e-39), 16777216.0, -16777215.0],
    dtype=np.float32)


def assert_same_fmod(left, right):
    """``fmod(left, right)`` is ``np.fmod(left, right)``: type, dtype,
    shape and every bit."""
    with np.errstate(all="ignore"):
        got = fmod(left, right)
        want = np.fmod(left, right)
    assert type(got) is type(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.shape(got) == np.shape(want)
    got_bits = np.atleast_1d(got).view(np.uint8)
    want_bits = np.atleast_1d(want).view(np.uint8)
    assert np.array_equal(got_bits, want_bits), (left, right, got, want)


class TestFmodOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_bit_patterns(self, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 1 << 32, size=(2, 200_000), dtype=np.uint64)
        left, right = bits.astype(np.uint32).view(np.float32)
        assert_same_fmod(left, right)

    def test_random_patterns_with_small_quotients(self):
        # Uniform bit patterns rarely land inside the exact bound; keep
        # the exponents close so most lanes take the float64 path.
        rng = np.random.default_rng(7)
        right = (rng.standard_normal(100_000) * 8).astype(np.float32)
        left = (right * rng.uniform(-5000, 5000, 100_000)).astype(np.float32)
        assert_same_fmod(left, right)
        assert_same_fmod(-left, right)

    def test_every_special_value_pair(self):
        left, right = np.meshgrid(SPECIALS, SPECIALS)
        assert_same_fmod(left.ravel(), right.ravel())

    def test_near_integer_quotients(self):
        rng = np.random.default_rng(3)
        right = rng.uniform(0.01, 1000, 20_000).astype(np.float32)
        k = rng.integers(1, 1 << 20, 20_000).astype(np.float32)
        exact = (k * right).astype(np.float32)
        for ulps in (-2, -1, 0, 1, 2):
            left = (exact.view(np.int32) + ulps).view(np.float32)
            assert_same_fmod(left, right)
            assert_same_fmod(-left, right)
            assert_same_fmod(left, -right)

    def test_quotients_at_the_exact_bound(self):
        edge = float(1 << 24)
        right = np.array([1.0, 3.0, 0.75, 1.5, 2.0 ** -10, 7.0],
                         dtype=np.float32)
        for quotient in (edge - 2, edge - 1, edge, edge + 2, 2 * edge):
            left = (np.float64(quotient) * right).astype(np.float32)
            for step in (-1, 0, 1):
                probe = (left.view(np.int32) + step).view(np.float32)
                assert_same_fmod(probe, right)
                assert_same_fmod(-probe, right)

    def test_zero_dimensional_and_broadcast_shapes(self):
        x = np.float32(-7.5)
        y = np.float32(2.0)
        assert_same_fmod(x, y)
        assert_same_fmod(np.asarray(x), np.asarray(y))
        column = np.linspace(-9, 9, 12, dtype=np.float32)
        assert_same_fmod(column, y)
        assert_same_fmod(x, column)
        assert_same_fmod(column.reshape(3, 4), column[:4])
        assert_same_fmod(column.reshape(12, 1), SPECIALS)
        assert_same_fmod(column[::3], np.float32(0.0))

    @pytest.mark.parametrize("left, right", [
        (np.array([-7, 7, -8, 9], dtype=np.int32), np.int32(3)),
        (np.array([-7.5, 7.25], dtype=np.float64), np.float32(2.0)),
        (np.array([-7.5, 7.25], dtype=np.float32), np.float64(2.0)),
        (np.array([-7.5, 7.25], dtype=np.float32), 2.0),
        (np.array([-7.5, 7.25], dtype=np.float32), 2),
        (np.array([-7, 7], dtype=np.int32), np.float32(2.5)),
        (-7.5, 2.0),
        (np.array([-7.5, 7.25], dtype=np.float16), np.float32(2.0)),
    ])
    def test_other_dtype_mixes_are_np_fmod(self, left, right):
        assert_same_fmod(left, right)


# A BV-300 kernel: straight-line, every value proved float32, so the
# vector tier emits the helper as a bare call for both spellings.
FMOD_KERNEL = """
kernel void rem(float a<>, float b<>, out float o<>) {
    o = fmod(a, b);
}
kernel void rem_op(float a<>, float b<>, out float o<>) {
    o = (a % b) + fmod(a * 3.0, 2.5);
}
"""


def _mixed_sign_inputs(n=1024, seed=5):
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal(n) * 300).astype(np.float32)
    b = (rng.standard_normal(n) * 7).astype(np.float32)
    a[:len(SPECIALS)] = SPECIALS
    b[len(SPECIALS):2 * len(SPECIALS)] = SPECIALS
    b[::97] = 0.0
    return a, b


class TestFmodAcrossTiers:
    def test_both_tiers_are_bitwise_np_fmod(self):
        a, b = _mixed_sign_inputs()
        with np.errstate(all="ignore"):
            want = {"rem": np.fmod(a, b),
                    "rem_op": np.fmod(a, b) + np.fmod(a * np.float32(3.0),
                                                      np.float32(2.5))}
        program = compile_source(FMOD_KERNEL,
                                 options=CompilerOptions(strict=False))
        for name, expected in want.items():
            definition = program.kernel(name).definition
            evaluator = KernelEvaluator(definition, program.helpers())
            interpreted = evaluator.run(a.size,
                                        stream_inputs={"a": a, "b": b})
            vec, report = build_vector_path(definition, program.helpers())
            assert vec is not None and report.verdict == "BV-300"
            vectorized, stats = vec.run(a.size,
                                        stream_inputs={"a": a, "b": b})
            assert stats == evaluator.stats
            for outputs in (interpreted, vectorized):
                assert np.array_equal(outputs["o"].view(np.uint32),
                                      expected.view(np.uint32)), name

    @pytest.mark.parametrize("backend", ["cpu", "cal"])
    def test_runtime_tiers_agree(self, backend):
        a, b = _mixed_sign_inputs(256)
        results = []
        for options in (CompilerOptions(enable_fast_path=False),
                        CompilerOptions()):
            with BrookRuntime(backend=backend,
                              compiler_options=options) as rt:
                module = rt.compile(FMOD_KERNEL)
                streams = [rt.stream_from(v.reshape(16, 16)) for v in (a, b)]
                reads = []
                for name in ("rem", "rem_op"):
                    out = rt.stream((16, 16))
                    getattr(module, name)(*streams, out)
                    reads.append(out.read())
                results.append(reads)
        for got, want in zip(*results):
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def _glsl_model(a, b):
    """NumPy model of the printed ``sign(a) * mod(abs(a), abs(b))``, with
    GLSL's ``mod(x, y) = x - y * floor(x / y)``."""
    x, y = np.abs(a), np.abs(b)
    return np.sign(a) * (x - y * np.floor(x / y))


class TestGLSLFmod:
    SOURCE = """
    kernel void f(float a<>, out float o<>) {
        int i = 7;
        int j = i % 3;
        float4 v = float4(a, -a, a * 3.0, 1.0);
        float4 w = fmod(v, v.yzwx) + v % 2.0;
        float t = a;
        t %= 2.5;
        o = fmod(a, 2.0) + a % 1.5 + float(j) + w.x + t;
    }
    """

    @pytest.mark.parametrize("field", ["glsl_es", "desktop_glsl"])
    def test_brook_fmod_printed_and_defined(self, field):
        program = compile_source(self.SOURCE,
                                 options=CompilerOptions(strict=False))
        shader = getattr(program.kernel("f"), field)
        assert shader is not None
        assert "brook_fmod(a, 2.0)" in shader
        assert "brook_fmod(a, 1.5)" in shader
        assert "brook_fmod(v, v.yzwx)" in shader
        assert "brook_fmod(v, 2.0)" in shader
        assert "t = brook_fmod(t, 2.5);" in shader and "%" not in shader
        # Integer % keeps its spelling.
        assert "mod(i, 3)" in shader and "brook_fmod(i" not in shader
        for t in ("float", "vec2", "vec3", "vec4"):
            assert f"{t} brook_fmod({t} a, {t} b)" in shader
        for t in ("vec2", "vec3", "vec4"):
            assert f"{t} brook_fmod({t} a, float b)" in shader

    def test_c_prints_compound_modulo_as_fmodf(self):
        program = compile_source(self.SOURCE,
                                 options=CompilerOptions(strict=False))
        c_source = program.kernel("f").c_source
        assert "t = fmodf(t, 2.5);" in c_source and "%=" not in c_source

    def test_printed_formula_is_c_fmod_and_bare_mod_is_not(self):
        rng = np.random.default_rng(11)
        a = (rng.standard_normal(10_000) * 50).astype(np.float64)
        b = (rng.standard_normal(10_000) * 6).astype(np.float64)
        b[b == 0] = 1.0
        model = _glsl_model(a, b)
        np.testing.assert_allclose(model, np.fmod(a, b), rtol=0, atol=1e-9)
        bare = a - b * np.floor(a / b)
        assert not np.allclose(bare, np.fmod(a, b))
        assert _glsl_model(-1.0, 2.0) == -1.0
        assert -1.0 - 2.0 * np.floor(-1.0 / 2.0) == 1.0


INT_KERNEL = """
kernel void ints(float a<>, out float4 o<>) {
    int n = -7;
    int d = 2;
    int k = a;
    int zero = 0;
    o = float4(float(n / d) + float(k / d) * 100.0,
               float(n % d) + float(k % 3) * 100.0,
               float(k) + float(int(a)) * 100.0,
               float(n / zero) + float(n % zero));
}
"""


class TestCIntegerSemantics:
    def _tiers(self, a):
        program = compile_source(INT_KERNEL,
                                 options=CompilerOptions(strict=False))
        definition = program.kernel("ints").definition
        evaluator = KernelEvaluator(definition, program.helpers())
        interpreted = evaluator.run(a.size, stream_inputs={"a": a})
        vec, report = build_vector_path(definition, program.helpers())
        assert vec is not None, report.verdict
        vectorized, stats = vec.run(a.size, stream_inputs={"a": a})
        assert stats == evaluator.stats
        return interpreted, vectorized

    def test_truncation_toward_zero_on_both_tiers(self):
        a = np.array([-7.5, 7.5, -0.5, 5.0], dtype=np.float32)
        k = np.array([-7, 7, 0, 5])
        interpreted, vectorized = self._tiers(a)
        assert np.array_equal(interpreted["o"].view(np.uint32),
                              vectorized["o"].view(np.uint32))
        o = interpreted["o"]
        np.testing.assert_array_equal(o[:, 0],
                                      -3 + 100 * np.array([-3, 3, 0, 2]))
        np.testing.assert_array_equal(o[:, 1],
                                      -1 + 100 * np.array([-1, 1, 0, 2]))
        np.testing.assert_array_equal(o[:, 2], k + 100 * k)
        np.testing.assert_array_equal(o[:, 3], 0.0)

    @pytest.mark.parametrize("expr, value", [
        ("-7 / 2", -3.0), ("7 / -2", -3.0), ("-7 / -2", 3.0), ("7 / 2", 3.0),
        ("-7 % 2", -1.0), ("7 % -2", 1.0), ("-7 % -2", -1.0), ("7 % 2", 1.0),
        ("-7.0 % 2.0", -1.0),
    ])
    def test_folded_literals(self, expr, value):
        unit = parse("kernel void f(float a<>, out float o<>) "
                     f"{{ o = a + float({expr}); }}")
        folded = fold_constants(unit.kernels[0])
        # Semantic analysis runs after the source-to-source passes.
        analyze(ast.TranslationUnit(functions=[folded]))
        call = folded.body.statements[0].expr.value.right
        (literal,) = call.args
        assert literal.value == value
        zeros = np.zeros(2, dtype=np.float32)
        output = KernelEvaluator(folded).run(2, stream_inputs={"a": zeros})
        np.testing.assert_array_equal(output["o"], value)
