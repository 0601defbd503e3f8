"""Tests for kernel fusion: legality, AST merging, runtime pipelines.

Covers the AST transform (repro.core.transforms.fuse), the runtime entry
point (``rt.fuse``), equivalence of fused and
unfused pipelines on the CPU and OpenGL ES 2 backends, fallback
behaviour for illegal pairs and the statistics/timing accounting of the
saved passes and stream traffic.
"""

import numpy as np
import pytest

from repro.core.compiler import CompilerOptions, compile_source
from repro.core.transforms.fuse import (
    check_fusable,
    fuse_compiled,
    fuse_definitions,
)
from repro.errors import FusionError, KernelLaunchError
from repro.runtime import BrookRuntime, FusedPipeline, FusedPlan
from repro.timing import GPUModel, GPUCostParameters

PIPELINE_SOURCE = """
kernel void scale(float x<>, float a, out float y<>) {
    y = a * x;
}

kernel void offset(float y<>, float b, out float z<>) {
    z = y + b;
}

kernel void blend(float p<>, float q<>, out float r<>) {
    r = 0.5 * (p + q);
}

kernel void probe(float src<>, float table[], out float r<>) {
    float2 pos = indexof(r);
    r = src + table[pos.x];
}

reduce void total(float v<>, reduce float acc) {
    acc += v;
}
"""

SIZE = 24


@pytest.fixture(scope="module")
def pipeline_program():
    return compile_source(PIPELINE_SOURCE)


@pytest.fixture
def pipeline_data(rng):
    return rng.uniform(0.5, 2.0, (SIZE, SIZE)).astype(np.float32)


# --------------------------------------------------------------------------- #
# AST-level transform
# --------------------------------------------------------------------------- #
class TestFuseDefinitions:
    def test_merges_into_single_kernel(self, pipeline_program):
        result = fuse_definitions(
            pipeline_program.kernel("scale").definition,
            pipeline_program.kernel("offset").definition,
            {"y": "y"},
        )
        fused = result.definition
        assert fused.is_kernel and not fused.is_reduction
        assert fused.name == "scale__offset"
        # The intermediate is no longer a parameter...
        param_names = [p.name for p in fused.params]
        assert "y" not in param_names
        assert len(fused.output_params) == 1
        # ...but a local declaration carrying the producer's value.
        declared = [node.name for node in fused.body.walk()
                    if type(node).__name__ == "DeclStatement"]
        assert result.consumer_renames["y"] in declared
        assert result.eliminated_widths == (1,)

    def test_fused_kernel_compiles_and_gets_fast_path(self, pipeline_program):
        fused, _ = fuse_compiled(
            pipeline_program.kernel("scale"),
            pipeline_program.kernel("offset"),
            {"y": "y"}, pipeline_program.helpers(),
        )
        assert fused.glsl_es is not None
        assert fused.c_source is not None
        assert fused.vector_path is not None
        assert fused.fused_from == ("scale", "offset")
        assert fused.fused_saved_components == 1

    def test_rejects_reductions(self, pipeline_program):
        reason = check_fusable(
            pipeline_program.kernel("scale").definition,
            pipeline_program.kernel("total").definition,
            {"v": "y"},
        )
        assert reason is not None and "map kernel" in reason

    def test_rejects_gather_on_the_intermediate(self, pipeline_program):
        reason = check_fusable(
            pipeline_program.kernel("scale").definition,
            pipeline_program.kernel("probe").definition,
            {"table": "y"},
        )
        assert reason is not None and "gather" in reason

    def test_rejects_unknown_connections(self, pipeline_program):
        scale = pipeline_program.kernel("scale").definition
        offset = pipeline_program.kernel("offset").definition
        assert check_fusable(scale, offset, {}) is not None
        assert check_fusable(scale, offset, {"y": "x"}) is not None
        assert check_fusable(scale, offset, {"nope": "y"}) is not None
        with pytest.raises(FusionError):
            fuse_definitions(scale, offset, {"y": "x"})


# --------------------------------------------------------------------------- #
# Runtime pipelines
# --------------------------------------------------------------------------- #
def _run_pipeline(backend, data, fuse):
    with BrookRuntime(backend=backend) as rt:
        module = rt.compile(PIPELINE_SOURCE)
        x = rt.stream_from(data, name="x")
        y = rt.stream((SIZE, SIZE), name="y")
        z = rt.stream((SIZE, SIZE), name="z")
        plans = [module.scale.bind(x, 2.0, y), module.offset.bind(y, 0.25, z)]
        if fuse:
            pipeline = rt.fuse(plans)
            pipeline.launch()
        else:
            for plan in plans:
                plan.launch()
        return z.read(), rt.statistics


class TestRuntimeFusion:
    @pytest.mark.parametrize("backend", ["cpu", "gles2"])
    def test_fused_pipeline_is_bitwise_identical(self, backend, pipeline_data):
        unfused, _ = _run_pipeline(backend, pipeline_data, fuse=False)
        fused, stats = _run_pipeline(backend, pipeline_data, fuse=True)
        assert np.array_equal(fused.view(np.uint32), unfused.view(np.uint32))
        assert stats.total_passes == 1
        assert stats.kernels_fused == 1
        assert stats.saved_intermediate_bytes == SIZE * SIZE * 4 * 2

    def test_three_stage_chain_becomes_one_pass(self, pipeline_data):
        with BrookRuntime() as rt:
            module = rt.compile(PIPELINE_SOURCE)
            x = rt.stream_from(pipeline_data)
            y = rt.stream((SIZE, SIZE))
            z = rt.stream((SIZE, SIZE))
            w = rt.stream((SIZE, SIZE))
            pipeline = rt.fuse([
                module.scale.bind(x, 2.0, y),
                module.offset.bind(y, 0.25, z),
                module.scale.bind(z, 0.5, w),
            ])
            assert isinstance(pipeline, FusedPipeline)
            assert pipeline.pass_count == 1
            assert pipeline.kernels_fused == 2
            plan = pipeline.segments[0][0]
            assert isinstance(plan, FusedPlan)
            assert plan.fused_kernel_names == ("scale", "offset", "scale")
            pipeline.launch()
            expected = (2.0 * pipeline_data + 0.25) * 0.5
            np.testing.assert_allclose(w.read(), expected, rtol=1e-6)

    def test_intermediate_needed_later_blocks_fusion(self, pipeline_data):
        with BrookRuntime() as rt:
            module = rt.compile(PIPELINE_SOURCE)
            x = rt.stream_from(pipeline_data)
            y = rt.stream((SIZE, SIZE))
            z = rt.stream((SIZE, SIZE))
            r = rt.stream((SIZE, SIZE))
            # `blend` re-reads y after `offset` consumed it, so scale->offset
            # must materialise y and stay unfused; offset->blend (over z)
            # remains legal and still merges.
            pipeline = rt.fuse([
                module.scale.bind(x, 2.0, y),
                module.offset.bind(y, 0.25, z),
                module.blend.bind(y, z, r),
            ])
            assert pipeline.pass_count == 2
            assert pipeline.kernels_fused == 1
            assert pipeline.kernel_names[0] == "scale"
            pipeline.launch()
            scaled = 2.0 * pipeline_data
            np.testing.assert_allclose(y.read(), scaled, rtol=1e-6)
            np.testing.assert_allclose(
                r.read(), 0.5 * (scaled + (scaled + 0.25)), rtol=1e-6)

    def test_gather_consumer_falls_back_to_two_passes(self, pipeline_data):
        flat = pipeline_data.reshape(1, -1)
        with BrookRuntime() as rt:
            module = rt.compile(PIPELINE_SOURCE)
            x = rt.stream_from(flat)
            y = rt.stream(flat.shape)
            r = rt.stream(flat.shape)
            src = rt.stream_from(np.zeros(flat.shape, dtype=np.float32))
            pipeline = rt.fuse([
                module.scale.bind(x, 2.0, y),
                module.probe.bind(src, y, r),  # gathers from y
            ])
            assert pipeline.pass_count == 2
            assert pipeline.kernels_fused == 0
            pipeline.launch()
            np.testing.assert_allclose(r.read(), 2.0 * flat, rtol=1e-6)

    def test_early_return_producer_blocks_fusion(self):
        """A producer's early return must not mask the consumer's body.

        Regression test: fused, the producer's return would set the SIMT
        returned-mask and suppress the consumer statements for those
        threads; the pair has to stay two passes.
        """
        source = """
        kernel void gate(float x<>, out float tmp<>) {
            if (x < 0.0) {
                return;
            }
            tmp = x * 2.0;
        }

        kernel void inc(float tmp<>, out float y<>) {
            y = tmp + 1.0;
        }
        """
        data = np.array([[-1.0, 1.0, -2.0, 2.0]], dtype=np.float32)
        with BrookRuntime() as rt:
            module = rt.compile(source)
            x = rt.stream_from(data)
            tmp = rt.stream((1, 4))
            y = rt.stream((1, 4))
            pipeline = rt.fuse([
                module.gate.bind(x, tmp),
                module.inc.bind(tmp, y),
            ])
            assert pipeline.kernels_fused == 0
            pipeline.launch()
            np.testing.assert_allclose(y.read(),
                                       [[1.0, 3.0, 1.0, 5.0]], rtol=1e-6)

    def test_gather_from_unconnected_producer_output_blocks_fusion(self):
        """A consumer gathering from ANY producer output needs two passes.

        Regression test: `twin` writes both `a` (consumed positionally)
        and `b` (gathered).  Fusing would snapshot `b` before the fused
        pass writes it, silently yielding stale values.
        """
        source = PIPELINE_SOURCE + """
        kernel void twin(float x<>, out float a<>, out float b<>) {
            a = x + 1.0;
            b = x * 2.0;
        }

        kernel void consume(float a<>, float b[], out float r<>) {
            float2 pos = indexof(r);
            r = a + b[pos.x];
        }
        """
        data = np.arange(16, dtype=np.float32).reshape(1, 16)
        with BrookRuntime() as rt:
            module = rt.compile(source)
            x = rt.stream_from(data)
            a = rt.stream((1, 16))
            b = rt.stream((1, 16))
            r = rt.stream((1, 16))
            pipeline = rt.fuse([
                module.twin.bind(x, a, b),
                module.consume.bind(a, b, r),
            ])
            assert pipeline.kernels_fused == 0
            pipeline.launch()
            np.testing.assert_allclose(r.read(), (data + 1.0) + (data * 2.0),
                                       rtol=1e-6)

    def test_aliased_consumer_output_blocks_fusion(self, pipeline_data):
        """The consumer writing a producer output must stay a second pass."""
        with BrookRuntime() as rt:
            module = rt.compile(PIPELINE_SOURCE)
            x = rt.stream_from(pipeline_data)
            y = rt.stream((SIZE, SIZE))
            pipeline = rt.fuse([
                module.scale.bind(x, 2.0, y),
                module.offset.bind(y, 0.25, y),  # reads and rewrites y
            ])
            assert pipeline.kernels_fused == 0
            pipeline.launch()
            np.testing.assert_allclose(y.read(), 2.0 * pipeline_data + 0.25,
                                       rtol=1e-6)

    def test_mismatched_domains_block_fusion(self, pipeline_data):
        with BrookRuntime() as rt:
            module = rt.compile(PIPELINE_SOURCE)
            x = rt.stream_from(pipeline_data)
            y = rt.stream((SIZE, SIZE))
            half = rt.stream((SIZE // 2, SIZE))
            pipeline = rt.fuse([
                module.scale.bind(x, 2.0, y),
                module.offset.bind(half, 0.25, rt.stream((SIZE // 2, SIZE))),
            ])
            assert pipeline.kernels_fused == 0

    def test_reduction_tail_runs_as_own_segment(self, pipeline_data):
        with BrookRuntime() as rt:
            module = rt.compile(PIPELINE_SOURCE)
            x = rt.stream_from(pipeline_data)
            y = rt.stream((SIZE, SIZE))
            z = rt.stream((SIZE, SIZE))
            pipeline = rt.fuse([
                module.scale.bind(x, 2.0, y),
                module.offset.bind(y, 0.25, z),
                module.total.bind(z),
            ])
            assert pipeline.pass_count == 2  # fused map pass + reduction
            assert pipeline.kernels_fused == 1
            result = pipeline.launch()
            expected = float(np.sum(2.0 * pipeline_data + 0.25,
                                    dtype=np.float64))
            assert result == pytest.approx(expected, rel=1e-3)

    def test_fuse_validates_inputs(self, pipeline_data):
        with BrookRuntime() as rt:
            module = rt.compile(PIPELINE_SOURCE)
            with pytest.raises(KernelLaunchError):
                rt.fuse([])
            with pytest.raises(KernelLaunchError):
                rt.fuse([module.scale])  # a handle, not a bound plan
            with BrookRuntime() as other:
                other_module = other.compile(PIPELINE_SOURCE)
                x = other.stream_from(pipeline_data)
                y = other.stream((SIZE, SIZE))
                foreign = other_module.scale.bind(x, 2.0, y)
                with pytest.raises(KernelLaunchError):
                    rt.fuse([foreign])

    def test_fast_path_disabled_propagates_to_fused_kernel(self, pipeline_data):
        options = CompilerOptions(enable_fast_path=False)
        with BrookRuntime(compiler_options=options) as rt:
            module = rt.compile(PIPELINE_SOURCE)
            x = rt.stream_from(pipeline_data)
            y = rt.stream((SIZE, SIZE))
            z = rt.stream((SIZE, SIZE))
            pipeline = rt.fuse([
                module.scale.bind(x, 2.0, y),
                module.offset.bind(y, 0.25, z),
            ])
            plan = pipeline.segments[0][0]
            assert isinstance(plan, FusedPlan)
            assert plan.kernel.vector_path is None
            pipeline.launch()
            np.testing.assert_allclose(z.read(), 2.0 * pipeline_data + 0.25,
                                       rtol=1e-6)


# --------------------------------------------------------------------------- #
# Scalable-app pipeline (image_filter, Figure 3)
# --------------------------------------------------------------------------- #
POST_SOURCE = """
kernel void normalize_px(float v<>, float inv_range, out float n<>) {
    n = clamp(v * inv_range, 0.0, 1.0);
}

kernel void gamma_px(float n<>, out float g<>) {
    g = n * n;
}
"""


class TestScalableAppPipeline:
    """filter3x3 -> normalize -> gamma, fused vs. unfused."""

    @pytest.mark.parametrize("backend", ["cpu", "gles2"])
    def test_image_filter_pipeline_equivalence(self, backend):
        from repro.apps.image_filter import BROOK_SOURCE, FILTER_3X3

        size = 32
        image = (np.random.default_rng(3).uniform(0.0, 255.0, (size, size))
                 .astype(np.float32))
        weights = [float(w) for w in FILTER_3X3.reshape(-1)]
        results = {}
        for fuse in (False, True):
            with BrookRuntime(backend=backend) as rt:
                module = rt.compile(BROOK_SOURCE)
                post = rt.compile(POST_SOURCE)
                src = rt.stream_from(image, name="image")
                filtered = rt.stream((size, size), name="filtered")
                norm = rt.stream((size, size), name="norm")
                out = rt.stream((size, size), name="out")
                plans = [
                    module.filter3x3.bind(src, float(size), float(size),
                                          *weights, filtered),
                    post.normalize_px.bind(filtered, 1.0 / 255.0, norm),
                    post.gamma_px.bind(norm, out),
                ]
                if fuse:
                    pipeline = rt.fuse(plans)
                    # The whole three-stage ADAS-style pipeline collapses
                    # into one pass (the gather input survives fusion).
                    assert pipeline.pass_count == 1
                    assert pipeline.kernels_fused == 2
                    pipeline.launch()
                else:
                    for plan in plans:
                        plan.launch()
                results[fuse] = (out.read(), rt.statistics.total_passes)
        fused_out, fused_passes = results[True]
        plain_out, plain_passes = results[False]
        assert plain_passes == 3 and fused_passes == 1
        assert np.array_equal(fused_out.view(np.uint32),
                              plain_out.view(np.uint32))


# --------------------------------------------------------------------------- #
# The per-runtime fusion memo
# --------------------------------------------------------------------------- #
class TestFusionMemo:
    @pytest.fixture
    def counted(self, monkeypatch):
        """Count the merge steps actually performed."""
        import repro.runtime.runtime as runtime_module

        calls = []
        original = runtime_module.merge_compiled

        def counting(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(runtime_module, "merge_compiled", counting)
        return calls

    @staticmethod
    def _fuse_and_run(rt, data):
        """Freshly bound three-stage chain: (output, launch records)."""
        module = rt.compile(PIPELINE_SOURCE)
        x = rt.stream_from(data)
        y, z, w = (rt.stream((SIZE, SIZE)) for _ in range(3))
        pipeline = rt.fuse([module.scale.bind(x, 2.0, y),
                            module.offset.bind(y, 0.25, z),
                            module.scale.bind(z, 0.5, w)])
        marker = rt.statistics.marker()
        pipeline.launch()
        return w.read(), rt.statistics.records_since(marker)[1]

    @pytest.mark.parametrize("backend", ["cpu", "gles2"])
    def test_second_fuse_of_fresh_plans_reuses_the_merges(
            self, backend, counted, pipeline_data):
        with BrookRuntime(backend=backend) as rt:
            first, first_records = self._fuse_and_run(rt, pipeline_data)
            assert len(counted) == 2
            second, second_records = self._fuse_and_run(rt, pipeline_data)
            assert len(counted) == 2            # no new fusion step
        assert np.array_equal(first.view(np.uint32), second.view(np.uint32))
        assert first_records == second_records

    def test_a_different_connection_map_misses(self, counted, pipeline_data):
        with BrookRuntime() as rt:
            module = rt.compile(PIPELINE_SOURCE)
            x = rt.stream_from(pipeline_data)
            other = rt.stream_from(pipeline_data + 1.0)
            y = rt.stream((SIZE, SIZE))
            r = rt.stream((SIZE, SIZE))
            rt.fuse([module.scale.bind(x, 2.0, y),
                     module.blend.bind(y, other, r)]).launch()
            p_feed = r.read()
            rt.fuse([module.scale.bind(x, 2.0, y),
                     module.blend.bind(other, y, r)]).launch()
            q_feed = r.read()
        assert counted == [{"p": "y"}, {"q": "y"}]
        assert np.array_equal(p_feed.view(np.uint32), q_feed.view(np.uint32))

    def test_clear_compile_cache_clears_the_memo(self, counted,
                                                 pipeline_data):
        with BrookRuntime() as rt:
            self._fuse_and_run(rt, pipeline_data)
            rt.clear_compile_cache()
            self._fuse_and_run(rt, pipeline_data)
        assert len(counted) == 4

    def test_legality_is_checked_on_every_call(self, counted, pipeline_data):
        """A memoised pair still stays separate where a later plan reads
        the intermediate."""
        with BrookRuntime() as rt:
            module = rt.compile(PIPELINE_SOURCE)
            x = rt.stream_from(pipeline_data)
            y = rt.stream((SIZE, SIZE))
            z = rt.stream((SIZE, SIZE))
            r = rt.stream((SIZE, SIZE))
            assert rt.fuse([module.scale.bind(x, 2.0, y),
                            module.offset.bind(y, 0.25, z)]).pass_count == 1
            pipeline = rt.fuse([module.scale.bind(x, 2.0, y),
                                module.offset.bind(y, 0.25, z),
                                module.blend.bind(y, z, r)])
        assert pipeline.pass_count == 2
        assert pipeline.kernel_names[0] == "scale"


# --------------------------------------------------------------------------- #
# Fused pipelines against command queues
# --------------------------------------------------------------------------- #
class TestPipelineVersusQueue:
    def test_fused_pipeline_matches_plain_queue(self, pipeline_data):
        results = {}
        for fuse in (False, True):
            with BrookRuntime() as rt:
                module = rt.compile(PIPELINE_SOURCE)
                x = rt.stream_from(pipeline_data)
                y = rt.stream((SIZE, SIZE))
                z = rt.stream((SIZE, SIZE))
                if fuse:
                    pipeline = rt.fuse([module.scale.bind(x, 2.0, y),
                                        module.offset.bind(y, 0.25, z)])
                    pipeline.launch()
                    launched = pipeline.source_count
                else:
                    with rt.queue() as queue:
                        module.scale(x, 2.0, y)
                        module.offset(y, 0.25, z)
                    launched = queue.flushed_launches
                results[fuse] = (z.read(), rt.statistics.total_passes,
                                 launched)
        fused_out, fused_passes, fused_launched = results[True]
        plain_out, plain_passes, plain_launched = results[False]
        assert np.array_equal(fused_out.view(np.uint32),
                              plain_out.view(np.uint32))
        assert plain_passes == 2 and fused_passes == 1
        assert fused_launched == plain_launched == 2

    def test_fused_pipeline_keeps_reduction_results(self, pipeline_data):
        with BrookRuntime() as rt:
            module = rt.compile(PIPELINE_SOURCE)
            x = rt.stream_from(pipeline_data)
            y = rt.stream((SIZE, SIZE))
            z = rt.stream((SIZE, SIZE))
            pipeline = rt.fuse([module.scale.bind(x, 2.0, y),
                                module.offset.bind(y, 0.25, z),
                                module.total.bind(z)])
            assert pipeline.pass_count == 2
            expected = float(np.sum(2.0 * pipeline_data + 0.25,
                                    dtype=np.float64))
            assert pipeline.launch() == pytest.approx(expected, rel=1e-3)


# --------------------------------------------------------------------------- #
# Timing accounting
# --------------------------------------------------------------------------- #
class TestFusionTiming:
    PARAMS = GPUCostParameters(
        name="test", effective_gflops=1.0, transfer_gib_per_s=1.0,
        pass_overhead_us=100.0, texture_fetch_ns=10.0, fill_rate_mpixels=100.0,
    )

    def test_savings_are_positive_and_scale(self):
        model = GPUModel(self.PARAMS)
        small = model.fusion_savings(1, 1024)
        large = model.fusion_savings(2, 1024 * 1024)
        assert 0.0 < small < large
        # One saved pass contributes at least its fixed overhead.
        assert small >= 100.0 * 1e-6

    def test_zero_fusion_saves_nothing(self):
        model = GPUModel(self.PARAMS)
        assert model.fusion_savings(0, 0) == 0.0

    def test_statistics_feed_the_model(self, pipeline_data):
        _, stats = _run_pipeline("gles2", pipeline_data, fuse=True)
        model = GPUModel(self.PARAMS)
        saved = model.fusion_savings(stats.kernels_fused,
                                     stats.saved_intermediate_bytes)
        assert saved > 0.0


# --------------------------------------------------------------------------- #
# Cold-start fusion: bare merges, one completion per launched kernel
# --------------------------------------------------------------------------- #
def _oracle_fuse_definitions(producer, consumer, connections):
    """The merge as ``fuse_definitions`` made it before the structural
    clone: ``copy.deepcopy`` of both kernels, then a rename walk."""
    import copy

    from repro.core import ast_nodes as ast

    def names(kernel):
        return [param.name for param in kernel.params] + [
            node.name for node in kernel.body.walk()
            if isinstance(node, (ast.DeclStatement, ast.Identifier))]

    counter = 0
    taken = set(names(producer) + names(consumer))
    while any(name.startswith(f"f{counter}_") for name in taken):
        counter += 1
    prefix = f"f{counter}_"

    def rename(kernel, renames):
        for node in kernel.walk():
            if isinstance(node, (ast.Identifier, ast.DeclStatement,
                                 ast.KernelParam)) and node.name in renames:
                node.name = renames[node.name]
            elif isinstance(node, ast.IndexOfExpr) \
                    and node.stream in renames:
                node.stream = renames[node.stream]

    producer_renames = {n: prefix + n for n in {
        param.name for param in producer.params
    } | {node.name for node in producer.body.walk()
         if isinstance(node, ast.DeclStatement)}}
    producer_copy = copy.deepcopy(producer)
    rename(producer_copy, producer_renames)
    eliminated = {producer_renames[n] for n in connections.values()}
    decls, producer_params = [], []
    for param in producer_copy.params:
        if param.name in eliminated:
            decls.append(ast.DeclStatement(location=param.location,
                                           decl_type=param.type,
                                           name=param.name, init=None))
        else:
            producer_params.append(param)
    consumer_renames = {c: producer_renames[p] for c, p in connections.items()}
    consumer_copy = copy.deepcopy(consumer)
    consumer_copy.params = [param for param in consumer_copy.params
                            if param.name not in consumer_renames]
    rename(consumer_copy, consumer_renames)
    return ast.FunctionDef(
        location=producer.location,
        name=f"{producer.name}__{consumer.name}",
        return_type=producer.return_type,
        params=producer_params + consumer_copy.params,
        body=ast.Block(location=producer.body.location,
                       statements=(decls + producer_copy.body.statements
                                   + consumer_copy.body.statements)),
        is_kernel=True, is_reduction=False)


def _adas_plans(rt, stages, size=16):
    """The first ``stages`` calls of the ADAS request, bound on ``rt``."""
    from repro.service.bench import build_adas_request, make_frames
    from repro.service.service import prepare_request

    frame = make_frames(size, 1, seed=11)[0]
    request = build_adas_request(size, frame)
    _, streams, plans = prepare_request(rt, request)
    streams["image"].write(frame)
    output = "out" if stages == 8 else f"s{stages - 1}"
    return plans[:stages], streams[output]


@pytest.fixture
def fusion_counts(monkeypatch):
    """Count merge steps and vector-program builds made by ``rt.fuse``."""
    import repro.core.exec.vectorized as vectorized
    import repro.runtime.runtime as runtime_module

    counts = {"merges": 0, "vector_builds": 0}
    merge = runtime_module.merge_compiled
    build = vectorized.build_vector_path

    def counting_merge(*args, **kwargs):
        counts["merges"] += 1
        return merge(*args, **kwargs)

    def counting_build(*args, **kwargs):
        counts["vector_builds"] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(runtime_module, "merge_compiled", counting_merge)
    monkeypatch.setattr(vectorized, "build_vector_path", counting_build)
    return counts


class TestColdStartFusion:
    @pytest.mark.parametrize("stages", [3, 8])
    def test_merged_kernel_matches_the_deepcopy_oracle(self, stages):
        from repro.core.codegen.c_backend import generate_c
        from repro.core.codegen.glsl_desktop import generate_desktop_glsl
        from repro.core.codegen.glsl_es import generate_glsl_es
        from repro.core.exec.vectorized import build_vector_path

        with BrookRuntime(backend="gles2") as rt:
            plans, _ = _adas_plans(rt, stages)
            pipeline = rt.fuse(plans)
            assert pipeline.pass_count == 1
            fused = pipeline.segments[0][0]
            helpers = fused.helpers
            expected = plans[0].kernel.definition
            for producer, consumer in zip(plans, plans[1:]):
                out_name, out = next(iter(producer.passes[0].out_args.items()))
                connections = {name: out_name for name, stream in
                               consumer.passes[0].stream_args.items()
                               if stream is out}
                expected = _oracle_fuse_definitions(
                    expected, consumer.kernel.definition, connections)
        kernel = fused.kernel
        assert not kernel.bare
        assert kernel.definition == expected
        assert kernel.definition.to_source() == expected.to_source()
        helper_defs = list(helpers.values())
        assert kernel.glsl_es == generate_glsl_es(expected, helper_defs)
        assert kernel.desktop_glsl == generate_desktop_glsl(expected,
                                                            helper_defs)
        assert kernel.c_source == generate_c(expected, helper_defs)
        _, report = build_vector_path(expected, helpers)
        assert kernel.vector_report == report
        assert kernel.vector_path is not None

    def test_cold_fuse_builds_one_vector_program(self, fusion_counts):
        with BrookRuntime(backend="gles2") as rt:
            plans, _ = _adas_plans(rt, 8)
            fusion_counts.update(merges=0, vector_builds=0)
            assert rt.fuse(plans).pass_count == 1
            assert fusion_counts == {"merges": 7, "vector_builds": 1}
            fresh, _ = _adas_plans(rt, 8)
            fusion_counts.update(merges=0, vector_builds=0)
            assert rt.fuse(fresh).pass_count == 1
            assert fusion_counts == {"merges": 0, "vector_builds": 0}

    def test_intermediates_stay_bare(self):
        with BrookRuntime(backend="gles2") as rt:
            plans, _ = _adas_plans(rt, 8)
            launched = rt.fuse(plans).segments[0][0].kernel
            merged = [entry[0][0] for entry in rt._fusion_memo.values()]
        assert len(merged) == 7 and merged[-1] is launched
        for kernel in merged[:-1]:
            assert kernel.bare
            assert kernel.glsl_es is not None
            assert kernel.vector_path is None
            assert kernel.vector_report is None
            assert kernel.desktop_glsl is None and kernel.c_source is None
        assert not launched.bare
        assert launched.vector_path is not None
        assert launched.c_source is not None

    def test_an_intermediate_completes_when_a_pipeline_launches_it(
            self, fusion_counts):
        with BrookRuntime() as rt:
            plans, _ = _adas_plans(rt, 8)
            rt.fuse(plans)
            shorter, _ = _adas_plans(rt, 3)
            fusion_counts.update(merges=0, vector_builds=0)
            kernel = rt.fuse(shorter).segments[0][0].kernel
        assert fusion_counts == {"merges": 0, "vector_builds": 1}
        assert not kernel.bare and kernel.vector_path is not None

    def test_completion_without_fast_path_builds_no_vector_program(
            self, fusion_counts):
        options = CompilerOptions(enable_fast_path=False)
        with BrookRuntime(compiler_options=options) as rt:
            plans, _ = _adas_plans(rt, 8)
            fusion_counts.update(merges=0, vector_builds=0)
            kernel = rt.fuse(plans).segments[0][0].kernel
        assert fusion_counts == {"merges": 7, "vector_builds": 0}
        assert not kernel.bare
        assert kernel.vector_path is None and kernel.vector_report is None
        assert kernel.c_source is not None

    @pytest.mark.parametrize("backend", ["cpu", "gles2", "cal"])
    def test_outputs_match_unfused_and_records_match_a_refuse(self, backend):
        with BrookRuntime(backend=backend) as rt:
            plans, out = _adas_plans(rt, 8)
            for plan in plans:
                plan.launch()
            plain = out.read()
            runs = []
            for _ in range(2):
                fresh, out = _adas_plans(rt, 8)
                pipeline = rt.fuse(fresh)
                marker = rt.statistics.marker()
                pipeline.launch()
                runs.append((out.read(),
                             rt.statistics.records_since(marker)[1]))
        (cold, cold_records), (warm, warm_records) = runs
        assert np.array_equal(cold.view(np.uint32), plain.view(np.uint32))
        assert np.array_equal(warm.view(np.uint32), plain.view(np.uint32))
        assert len(cold_records) == 1
        assert cold_records == warm_records
