"""Per-layout launch set-up of the vector program.

A vector launch serves ``indexof`` from read-only columns shared by every
launch on the same layout, pads its slice-gather arrays with a direct
edge fill, and calls straight-line helpers without a frame under the
full mask.  These tests pin the three invariants that make this safe:

* outputs are fresh and writable and never alias a cached column, so a
  caller mutating one cannot change a later launch;
* the edge fill is bitwise ``np.pad(..., mode="edge")``;
* frame-free helper calls are bitwise the masked interpreter, in outputs
  and in every :class:`KernelExecutionStats` field.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.core.compiler import CompilerOptions, compile_source
from repro.core.exec import evaluate
from repro.core.exec import vectorized
from repro.core.exec.gather import NumpyGatherSource
from repro.core.exec.vectorized import (_edge_pad, _index_columns,
                                        _index_pairs, build_vector_path)

INTERP = CompilerOptions(enable_fast_path=False, strict=False)
VECTOR = CompilerOptions(strict=False)


def bits(array):
    array = np.ascontiguousarray(array)
    return array.dtype, array.shape, array.tobytes()


def vector_program(source, kernel):
    program = compile_source(source, options=VECTOR)
    vec, report = build_vector_path(program.kernel(kernel).definition,
                                    program.helpers())
    assert vec is not None, report.verdict
    return vec


# --------------------------------------------------------------------------- #
# Output freshness against the cached indexof columns
# --------------------------------------------------------------------------- #
INDEX_X = "kernel void ix(out float o<>) { o = indexof(o).x; }"
INDEX_XY = "kernel void ixy(out float2 o<>) { o = indexof(o); }"


class TestCachedColumnsNeverEscape:
    @pytest.mark.parametrize("layout", [(4, 6), None])
    def test_column_output_is_fresh(self, layout):
        vec = vector_program(INDEX_X, "ix")
        outputs, _ = vec.run(24, layout=layout)
        out = outputs["o"]
        assert out.flags.writeable and out.flags.owndata
        rows, cols = layout or (1, 24)
        for cached in (*_index_columns(rows, cols), _index_pairs(rows, cols)):
            assert not cached.flags.writeable
            assert not np.shares_memory(out, cached)
        assert bits(out) == bits(np.tile(np.arange(cols), rows)
                                 .astype(np.float32))

    def test_pair_output_is_fresh(self):
        vec = vector_program(INDEX_XY, "ixy")
        outputs, _ = vec.run(24, layout=(4, 6))
        out = outputs["o"]
        assert out.shape == (24, 2)
        assert out.flags.writeable
        for cached in (*_index_columns(4, 6), _index_pairs(4, 6)):
            assert not np.shares_memory(out, cached)

    @pytest.mark.parametrize("source,kernel", [(INDEX_X, "ix"),
                                               (INDEX_XY, "ixy")])
    def test_mutating_an_output_leaves_the_next_launch_alone(self, source,
                                                             kernel):
        vec = vector_program(source, kernel)
        first, _ = vec.run(24, layout=(4, 6))
        want = bits(first["o"])
        first["o"][...] = -7.0
        second, _ = vec.run(24, layout=(4, 6))
        assert bits(second["o"]) == want


    def test_layout_cache_shared_across_threads(self):
        # Service workers share the cache.  More threads than cores and
        # more layouts than cache entries force concurrent misses and
        # evictions; every launch must still see its own layout.
        vec = vector_program(INDEX_X, "ix")
        layouts = [(rows, rows + 1) for rows in range(1, 12)]
        errors = []

        def worker(seed):
            try:
                for step in range(40):
                    rows, cols = layouts[(seed + step) % len(layouts)]
                    out = vec.run(rows * cols, layout=(rows, cols))[0]["o"]
                    want = np.tile(np.arange(cols), rows).astype(np.float32)
                    if bits(out) != bits(want):
                        errors.append((rows, cols))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


# --------------------------------------------------------------------------- #
# Direct edge fill
# --------------------------------------------------------------------------- #
class TestEdgePad:
    @pytest.mark.parametrize("pad", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (5, 9)])
    @pytest.mark.parametrize("dtype", [np.float32, np.int32])
    def test_matches_np_pad_edge(self, pad, shape, dtype, rng):
        dense = rng.uniform(-1e6, 1e6, shape).astype(dtype)
        if dtype is np.float32:
            # A NaN with a payload must be copied bit for bit.
            dense.view(np.uint32).flat[0] = 0x7FC01234
        assert bits(_edge_pad(dense, pad)) \
            == bits(np.pad(dense, pad, mode="edge"))


# --------------------------------------------------------------------------- #
# Frame-free helper calls
# --------------------------------------------------------------------------- #
HELPERS = """
float smooth(float v) {
    float t = clamp(v, 0.0, 1.0);
    return t * t * (3.0 - 2.0 * t);
}
int bucket(float v) {
    int k = int(v * 4.0);
    return k * 2 + 1;
}
float2 spread(float v) {
    float2 p = float2(v, v * 2.0);
    return p * 0.5;
}
float uniform_c(float v) {
    float c = 1.5;
    return c * 2.0;
}
"""

#: (name, result expression for ``r``) of each helper under test.
CALLS = [
    ("float", "smooth(x)"),
    # The return merge promotes the int result to float, so the
    # division below must be a float division, not an int one.
    ("int", "float(bucket(x) / 4)"),
    ("float2", "dot(spread(x), float2(1.0, 3.0))"),
    ("uniform", "uniform_c(x)"),
]


def helper_kernel(call, divergent):
    # The (un-diverged) gather keeps gather_fetches non-zero, so the
    # stats comparison covers every counter.
    body = f"r = {call} + g;"
    if divergent:
        body = f"if (x > 0.5) {{ {body} }} else {{ r = -x; }}"
    return (HELPERS + "kernel void k(float x<>, float src[], out float r<>)"
            " { float g = src[indexof(r).x]; " + body + " }")


def run_with(options, source, size, x, src):
    program = compile_source(source, options=options)
    kernel = program.kernel("k")
    assert (kernel.vector_path is not None) == options.enable_fast_path
    return evaluate(kernel, program.helpers(), size, {"x": x},
                    {"src": NumpyGatherSource(src)}, {}, layout=(1, size))


class TestStraightLineHelpers:
    @pytest.mark.parametrize("divergent", [False, True],
                             ids=["top-level", "divergent-if"])
    @pytest.mark.parametrize("label,call", CALLS, ids=[c[0] for c in CALLS])
    def test_bitwise_and_stats_equal_to_interpreter(self, label, call,
                                                    divergent, rng):
        size = 97
        source = helper_kernel(call, divergent)
        x = rng.uniform(-1.0, 2.0, size).astype(np.float32)
        src = rng.uniform(-1.0, 1.0, size).astype(np.float32)
        want, want_stats = run_with(INTERP, source, size, x, src)
        got, got_stats = run_with(VECTOR, source, size, x, src)
        assert got.keys() == want.keys()
        for key in want:
            assert bits(got[key]) == bits(want[key]), f"{label}.{key}"
        assert dataclasses.asdict(got_stats) == dataclasses.asdict(want_stats)
        assert got_stats.flops > 0 and got_stats.gather_fetches == size

    @pytest.mark.parametrize("divergent,frames", [(False, 0), (True, 1)])
    def test_full_mask_call_builds_no_frame(self, divergent, frames,
                                            monkeypatch, rng):
        # A straight-line kernel is one generated launch with the helper
        # inlined: no frame, no masked ``return``.  Inside a divergent
        # ``if`` the helper's function takes its masked path, whose frame
        # is in locals, and returns once.
        returns = []
        real = vectorized._return

        def counting(*args):
            returns.append(args[1] is None)
            return real(*args)

        monkeypatch.setattr(vectorized, "_return", counting)
        size = 16
        x = rng.uniform(0.0, 1.0, size).astype(np.float32)
        x[0], x[1] = 0.0, 1.0  # both branches live
        source = helper_kernel("smooth(x)", divergent)
        run_with(VECTOR, source, size, x, np.zeros(size, dtype=np.float32))
        assert returns == [False] * frames
        program = compile_source(source, options=VECTOR)
        assert ("def helper" in program.kernel("k").vector_path.source) \
            is divergent
