"""Unit tests for brookflow: the static whole-pipeline dataflow analysis.

Covers storage resolution (leaf storages, aliasing through shards,
tiles and NumPy views), dependency-DAG construction (RAW/WAW/WAR
edges, halo and tile metadata, in-place gather snapshot nodes) and
every BF-2xx / BL-112 verification rule of
:func:`repro.core.analysis.dataflow.analyze_pipeline`.
"""

import json

import numpy as np
import pytest

from repro.core.analysis.dataflow import (
    analyze_pipeline,
    build_dataflow_graph,
    leaf_storages,
    storage_units,
    streams_alias,
)
from repro.core.analysis.lint.sarif import sarif_json
from repro.runtime import BrookRuntime

PIPELINE_SOURCE = """
kernel void scale(float x<>, float k, out float y<>) {
    y = x * k;
}

kernel void add(float a<>, float b<>, out float o<>) {
    o = a + b;
}

kernel void lookup(float src<>, float table[], out float o<>) {
    float2 position = indexof(o);
    o = src + table[position.x];
}

reduce void total(float value<>, reduce float accumulator) {
    accumulator += value;
}
"""

STENCIL_SOURCE = """
kernel void stencil(float src[][], float h, out float dst<>) {
    float2 p = indexof(dst);
    float y0 = max(p.y - 1.0, 0.0);
    float y2 = min(p.y + 1.0, h - 1.0);
    dst = (src[y0][p.x] + src[p.y][p.x] + src[y2][p.x]) / 4.0;
}
"""


@pytest.fixture
def rt():
    runtime = BrookRuntime(backend="cpu")
    yield runtime
    runtime.close()


@pytest.fixture
def mod(rt):
    return rt.compile(PIPELINE_SOURCE)


def _rules(report):
    """Per-rule finding counts of a LintReport."""
    from collections import Counter
    return Counter(diag.rule for diag in report.diagnostics)


def _stream(rt, value=1.0, shape=(4, 4), name=""):
    stream = rt.stream(shape, name=name)
    stream.write(np.full(shape, value, dtype=np.float32))
    return stream


# --------------------------------------------------------------------- #
# Storage resolution and aliasing
# --------------------------------------------------------------------- #
class TestStorageResolution:
    def test_plain_stream_has_one_leaf(self, rt):
        stream = _stream(rt)
        assert len(leaf_storages(stream)) == 1
        assert storage_units(stream) == (id(stream.storage),)

    def test_distinct_streams_do_not_alias(self, rt):
        assert not streams_alias(_stream(rt), _stream(rt))

    def test_shared_storage_aliases(self, rt):
        a, b = _stream(rt), _stream(rt)
        b.storage = a.storage
        assert streams_alias(a, b)

    def test_numpy_view_aliases_despite_distinct_storages(self, rt):
        a, b = _stream(rt), _stream(rt)
        b.storage.data = a.storage.data[:]
        assert storage_units(a) != storage_units(b)
        assert streams_alias(a, b)

    def test_sharded_stream_expands_to_per_device_leaves(self):
        runtime = BrookRuntime(backend="gles2", devices=2)
        try:
            stream = runtime.stream((8, 8))
            leaves = leaf_storages(stream)
            assert len(leaves) == len(stream.storage.parts)
            band = runtime.stream((4, 8))
            band.storage = stream.storage.parts[0]
            assert streams_alias(band, stream)
        finally:
            runtime.close()


# --------------------------------------------------------------------- #
# DAG construction
# --------------------------------------------------------------------- #
class TestGraphConstruction:
    def test_raw_edge_between_producer_and_consumer(self, rt, mod):
        x, t, z = _stream(rt), _stream(rt), _stream(rt)
        p1 = mod.scale.bind(x, 2.0, t)
        p2 = mod.add.bind(t, x, z)
        graph = build_dataflow_graph([p1, p2])
        kinds = {(e.src, e.dst, e.kind) for e in graph.edges}
        assert (0, 1, "RAW") in kinds
        assert graph.dependencies_of(1) == {0}
        assert graph.race_free

    def test_waw_and_war_edges(self, rt, mod):
        x, y = _stream(rt), _stream(rt)
        out = _stream(rt)
        graph = build_dataflow_graph([
            mod.scale.bind(x, 2.0, out),
            mod.scale.bind(y, 3.0, out),     # WAW on out
            mod.scale.bind(out, 4.0, x),     # RAW on out, WAR on x
        ])
        kinds = {(e.src, e.dst, e.kind) for e in graph.edges}
        assert (0, 1, "WAW") in kinds
        assert (1, 2, "RAW") in kinds
        assert (0, 2, "WAR") in kinds

    def test_reduction_node(self, rt, mod):
        x = _stream(rt)
        plan = mod.total.bind(x)
        graph = build_dataflow_graph([plan])
        (node,) = graph.nodes
        assert node.kind == "reduction"
        assert "<reduce-input>" in node.reads

    def test_command_queue_pending_launches_are_analyzed(self, rt, mod):
        x, t, z = _stream(rt), _stream(rt), _stream(rt)
        queue = rt.queue()
        queue.submit(mod.scale.bind(x, 2.0, t))
        queue.submit(mod.add.bind(t, x, z))
        graph = build_dataflow_graph(queue)
        assert len(graph.nodes) == 2
        assert any(e.kind == "RAW" for e in graph.edges)
        queue.flush()

    def test_fused_pipeline_segments_are_analyzed(self, rt, mod):
        x, t, z = _stream(rt), _stream(rt), _stream(rt)
        pipeline = rt.fuse([mod.scale.bind(x, 2.0, t),
                            mod.scale.bind(t, 3.0, z)])
        graph = build_dataflow_graph(pipeline)
        assert graph.nodes
        assert all(node.fused_context for node in graph.nodes)

    def test_unmodellable_launchable_is_skipped(self, rt, mod):
        x, t = _stream(rt), _stream(rt)
        graph = build_dataflow_graph([mod.scale.bind(x, 2.0, t), object()])
        assert len(graph.nodes) == 1
        assert len(graph.skipped) == 1

    def test_halo_read_metadata(self):
        runtime = BrookRuntime(backend="cpu")
        try:
            module = runtime.compile(STENCIL_SOURCE)
            src = runtime.stream((4, 8))
            src.write(np.ones((4, 8), dtype=np.float32))
            dst = runtime.stream((4, 8))
            plan = module.stencil.bind(src, 4.0, dst)
            graph = build_dataflow_graph([plan])
            (node,) = graph.nodes
            assert node.halo_reads == {"src": (1, 0)}
        finally:
            runtime.close()

    def test_to_dict_is_json_serializable(self, rt, mod):
        x, t = _stream(rt), _stream(rt)
        graph = build_dataflow_graph([mod.scale.bind(x, 2.0, t)])
        payload = json.loads(json.dumps(graph.to_dict()))
        assert payload["race_free"] is True
        assert payload["nodes"][0]["kernel"] == "scale"


# --------------------------------------------------------------------- #
# Verification rules
# --------------------------------------------------------------------- #
class TestVerificationRules:
    def test_clean_pipeline_has_no_error_findings(self, rt, mod):
        x, t, z = _stream(rt), _stream(rt), _stream(rt)
        report = analyze_pipeline([mod.scale.bind(x, 2.0, t),
                                   mod.add.bind(t, x, z)])
        assert not report.has_errors

    def test_bf200_skipped_launchable(self, rt, mod):
        x, t = _stream(rt), _stream(rt)
        report = analyze_pipeline([mod.scale.bind(x, 2.0, t), object()])
        assert _rules(report)["BF-200"] == 1

    def test_bf201_numpy_view_aliasing_is_tracker_blind(self, rt, mod):
        x = _stream(rt)
        y1, y2 = rt.stream((4, 4)), rt.stream((4, 4))
        y2.storage.data = y1.storage.data[:]
        report = analyze_pipeline([mod.scale.bind(x, 2.0, y1),
                                   mod.scale.bind(x, 3.0, y2)])
        assert _rules(report)["BF-201"] == 1
        assert report.has_errors

    def test_bf201_absent_when_tracker_keys_the_conflict(self, rt, mod):
        x, out = _stream(rt), rt.stream((4, 4))
        report = analyze_pipeline([mod.scale.bind(x, 2.0, out),
                                   mod.scale.bind(x, 3.0, out)])
        assert "BF-201" not in _rules(report)

    def test_bf202_use_after_release(self, rt, mod):
        x, t = _stream(rt), _stream(rt)
        plan = mod.scale.bind(x, 2.0, t)
        x.release()
        report = analyze_pipeline([plan])
        assert _rules(report)["BF-202"] >= 1

    def test_bf203_read_before_pipeline_write(self, rt, mod):
        x, t, z = _stream(rt), rt.stream((4, 4)), rt.stream((4, 4))
        report = analyze_pipeline([
            mod.add.bind(t, x, z),           # reads t before it is written
            mod.scale.bind(x, 2.0, t),
        ])
        assert _rules(report)["BF-203"] == 1

    def test_bf204_never_written_input(self, rt, mod):
        t, z = rt.stream((4, 4)), rt.stream((4, 4))
        report = analyze_pipeline([mod.scale.bind(t, 2.0, z)])
        assert _rules(report)["BF-204"] == 1

    def test_host_write_suppresses_bf203_bf204(self, rt, mod):
        x, z = _stream(rt), rt.stream((4, 4))
        report = analyze_pipeline([mod.scale.bind(x, 2.0, z)])
        assert "BF-203" not in _rules(report)
        assert "BF-204" not in _rules(report)

    def test_bf205_dead_write(self, rt, mod):
        x, out = _stream(rt), rt.stream((4, 4))
        report = analyze_pipeline([mod.scale.bind(x, 2.0, out),
                                   mod.scale.bind(x, 3.0, out)])
        assert _rules(report)["BF-205"] == 1

    def test_bf205_quiet_when_read_intervenes(self, rt, mod):
        x, out, z = _stream(rt), rt.stream((4, 4)), rt.stream((4, 4))
        report = analyze_pipeline([
            mod.scale.bind(x, 2.0, out),
            mod.add.bind(out, x, z),
            mod.scale.bind(x, 3.0, out),
        ])
        assert "BF-205" not in _rules(report)

    def test_bf206_fusable_intermediate(self, rt, mod):
        x, t, z = _stream(rt), rt.stream((4, 4)), rt.stream((4, 4))
        report = analyze_pipeline([mod.scale.bind(x, 2.0, t),
                                   mod.scale.bind(t, 3.0, z)])
        assert _rules(report)["BF-206"] == 1

    def test_bf206_quiet_inside_fused_pipeline(self, rt, mod):
        x, t, z = _stream(rt), rt.stream((4, 4)), rt.stream((4, 4))
        pipeline = rt.fuse([mod.scale.bind(x, 2.0, t),
                            mod.scale.bind(t, 3.0, z)])
        report = analyze_pipeline(pipeline)
        assert "BF-206" not in _rules(report)

    def test_bl112_inplace_gather_on_plain_storage(self, rt, mod):
        x = _stream(rt)
        out = _stream(rt)
        # The gathered table ('out') aliases the launch's own output.
        report = analyze_pipeline([mod.lookup.bind(x, out, out)])
        assert _rules(report)["BL-112"] == 1

    def test_bl112_quiet_on_sharded_storage(self, mod):
        runtime = BrookRuntime(backend="gles2", devices=2)
        try:
            module = runtime.compile(PIPELINE_SOURCE)
            x = runtime.stream((8, 8))
            x.write(np.ones((8, 8), dtype=np.float32))
            out = runtime.stream((8, 8))
            out.write(np.ones((8, 8), dtype=np.float32))
            report = analyze_pipeline([module.lookup.bind(x, out, out)])
            assert "BL-112" not in _rules(report)
        finally:
            runtime.close()

    def test_findings_serialize_to_sarif(self, rt, mod):
        x = _stream(rt)
        y1, y2 = rt.stream((4, 4)), rt.stream((4, 4))
        y2.storage.data = y1.storage.data[:]
        report = analyze_pipeline([mod.scale.bind(x, 2.0, y1),
                                   mod.scale.bind(x, 3.0, y2)],
                                  source_file="pipe.br")
        sarif = json.loads(sarif_json(report))
        rule_ids = {result["ruleId"]
                    for result in sarif["runs"][0]["results"]}
        assert "BF-201" in rule_ids
