"""Auto-planner benchmark: chosen configs vs. exhaustive search.

For each benchmarked pipeline signature the bench derives the planner's
:class:`~repro.core.analysis.planner.PlanDecision`, then checks the
three claims BENCH_autoplan.json exists to witness:

* **argmin soundness** - the chosen config matches an independent
  brute-force scan of the full candidate table (the planner cannot
  quietly pick a non-optimal row);
* **never worse than unplanned** - the chosen config's modelled time is
  <= the unplanned baseline (unfused, the runtime's device count),
  because the baseline is itself in the candidate set;
* **bit-exactness** - executing the chosen config (fused groups,
  sharded device groups, tiled textures, in whatever combination the
  planner picked) produces outputs bit-identical to running the same
  pipeline serially, unfused, on a single CPU device.

Modelled times come from the analytic
:class:`~repro.timing.gpu_model.GPUModel` (the repository's headline
figures - see ROADMAP's note on 1-CPU-container benchmarking); the
functional simulator's wall clock is not measured here.  Results land
in ``BENCH_autoplan.json`` at the repository root (uploaded as a CI
artefact) plus a rendered table under ``benchmarks/reports/``.
"""

import json
import pathlib

import numpy as np

from repro.apps.image_filter import FILTER_3X3
from repro.core.analysis.planner import build_launchables
from repro.runtime import BrookRuntime
from repro.service.bench import ADAS_SERVICE_SOURCE, STAGES

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent \
    / "BENCH_autoplan.json"

PLATFORM = "target"
SEED = 12

SPMV_SOURCE = """
kernel void spmv_gather(float columns<>, float vector[], out float gathered<>) {
    gathered = vector[columns];
}

kernel void spmv_multiply(float values<>, float gathered<>, out float product<>) {
    product = values * gathered;
}

kernel void spmv_accumulate(float products[][], float nnz, out float row_sum<>) {
    float2 idx = indexof(row_sum);
    float row = idx.x;
    float total = 0.0;
    for (int j = 0; j < nnz; j = j + 1) {
        total = total + products[row][j];
    }
    row_sum = total;
}
"""

SPMV_NNZ = 8


# --------------------------------------------------------------------------- #
# Pipeline builders: (runtime, size) -> (plans, {name: out_stream})
# --------------------------------------------------------------------------- #
def build_adas(rt, size):
    module = rt.compile(ADAS_SERVICE_SOURCE)
    rng = np.random.default_rng(SEED)
    frame = rng.uniform(0.0, 255.0, (size, size)).astype(np.float32)
    fsize = float(size)
    weights = [float(w) for w in FILTER_3X3.reshape(-1)]
    streams = {"image": rt.stream_from(frame, name="image")}
    for name in ("s0", "s1", "s2", "s3", "s4", "s5", "s6", "out"):
        streams[name] = rt.stream((size, size), name=name)
    plans = [
        module.filter3x3.bind(streams["image"], fsize, fsize, *weights,
                              streams["s0"]),
        module.normalize_px.bind(streams["s0"], 1.0 / 255.0, streams["s1"]),
        module.tone_map.bind(streams["s1"], 2.2, streams["s2"]),
        module.contrast.bind(streams["s2"], 0.6, streams["s3"]),
        module.vignette.bind(streams["s3"], fsize, fsize, 0.8,
                             streams["s4"]),
        module.gamma_px.bind(streams["s4"], 1.8, streams["s5"]),
        module.highlight.bind(streams["s5"], 0.7, 0.5, streams["s6"]),
        module.quantize_px.bind(streams["s6"], 255.0, streams["out"]),
    ]
    return plans, {"out": streams["out"]}


def build_spmv(rt, size):
    module = rt.compile(
        SPMV_SOURCE,
        range_specs={"spmv_accumulate": {"params": {"nnz": (1, SPMV_NNZ)}}})
    rng = np.random.default_rng(SEED)
    values = rng.integers(-4, 4, (size, SPMV_NNZ)).astype(np.float32)
    columns = rng.integers(0, size, (size, SPMV_NNZ)).astype(np.float32)
    vector = rng.integers(-4, 4, size).astype(np.float32)
    values_s = rt.stream_from(values, name="spmv_values")
    columns_s = rt.stream_from(columns, name="spmv_columns")
    vector_s = rt.stream_from(vector, name="spmv_vector")
    gathered = rt.stream((size, SPMV_NNZ), name="spmv_gathered")
    products = rt.stream((size, SPMV_NNZ), name="spmv_products")
    row_sums = rt.stream((size,), name="spmv_row_sums")
    plans = [
        module.kernel("spmv_gather").bind(columns_s, vector_s, gathered),
        module.kernel("spmv_multiply").bind(values_s, gathered, products),
        module.kernel("spmv_accumulate").bind(
            products, float(SPMV_NNZ), row_sums),
    ]
    return plans, {"row_sum": row_sums}


BUILDERS = {"adas": build_adas, "spmv": build_spmv}

#: (row label, builder, size, runtime kwargs)
CONFIGS = (
    ("adas-512-gles2-1dev", "adas", 512,
     dict(backend="gles2", device="videocore-iv")),
    ("adas-512-gles2-2dev", "adas", 512,
     dict(backend="gles2", device="videocore-iv", devices=2)),
    ("adas-256-cpu-1dev", "adas", 256, dict(backend="cpu")),
    ("adas-128-cpu-1dev", "adas", 128, dict(backend="cpu")),
    ("spmv-512-cpu-1dev", "spmv", 512, dict(backend="cpu")),
)


# --------------------------------------------------------------------------- #
def _serial_cpu_reference(builder, size):
    with BrookRuntime(backend="cpu") as rt:
        plans, outs = BUILDERS[builder](rt, size)
        for plan in plans:
            plan.launch()
        return {name: stream.read() for name, stream in outs.items()}


def _run_config(label, builder, size, runtime_kwargs, reference):
    with BrookRuntime(**runtime_kwargs) as rt:
        plans, outs = BUILDERS[builder](rt, size)
        decision = rt.autoplan(plans, platform=PLATFORM, label=label)
        # Independent exhaustive re-scan of the candidate table: the
        # argmin the planner claims must be the argmin that is there.
        selectable = [c for c in decision.candidates if c.selectable]
        exhaustive_best = min(c.modelled_s for c in selectable)
        argmin_ok = decision.chosen.modelled_s == exhaustive_best
        beats_baseline = \
            decision.chosen.modelled_s <= decision.baseline.modelled_s
        for launchable in build_launchables(rt, plans,
                                            decision.chosen.config):
            launchable.launch()
        bitwise = all(
            np.array_equal(outs[name].read().view(np.uint32),
                           reference[name].view(np.uint32))
            for name in reference)
    return {
        "label": label,
        "pipeline": builder,
        "size": size,
        "runtime": {key: str(value)
                    for key, value in runtime_kwargs.items()},
        "devices": decision.executable_devices,
        "chosen": decision.chosen.config.describe(),
        "chosen_modelled_ms": decision.chosen.modelled_s * 1e3,
        "baseline_modelled_ms": decision.baseline.modelled_s * 1e3,
        "chosen_wcet_ms": decision.chosen.wcet_s * 1e3,
        "modelled_speedup": decision.speedup,
        "candidates": len(decision.candidates),
        "fusion_boundaries": list(decision.fusion_boundaries),
        "argmin_ok": argmin_ok,
        "beats_baseline": beats_baseline,
        "bitwise_identical": bitwise,
    }


def _render_table(rows) -> str:
    lines = [
        f"Auto-planner decisions (platform {PLATFORM!r}), "
        "vs. exhaustive candidate search and serial-CPU execution",
        "adas pipeline: " + " -> ".join(STAGES),
        "spmv pipeline: spmv_gather -> spmv_multiply -> spmv_accumulate",
        "",
        f"{'signature':>22} {'chosen':>34} {'modelled':>10} "
        f"{'baseline':>10} {'speedup':>8} {'argmin':>7} {'bitwise':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row['label']:>22} {row['chosen']:>34} "
            f"{row['chosen_modelled_ms']:>8.2f}ms "
            f"{row['baseline_modelled_ms']:>8.2f}ms "
            f"{row['modelled_speedup']:>7.2f}x "
            f"{'ok' if row['argmin_ok'] else 'FAIL':>7} "
            f"{'ok' if row['bitwise_identical'] else 'FAIL':>8}")
    lines.append("")
    lines.append("modelled basis: analytic GPUModel pricing of the "
                 "candidate's bounded work counters; baseline = unfused, "
                 "the runtime's own device count")
    lines.append("bitwise basis: chosen-config execution vs. serial "
                 "unfused single-CPU-device run of the same pipeline")
    return "\n".join(lines)


def test_autoplan_decisions(publish):
    references = {
        (builder, size): _serial_cpu_reference(builder, size)
        for builder, size in {(b, s) for _, b, s, _ in CONFIGS}
    }
    rows = [
        _run_config(label, builder, size, kwargs,
                    references[(builder, size)])
        for label, builder, size, kwargs in CONFIGS
    ]

    argmin_ok = all(row["argmin_ok"] for row in rows)
    beats_baseline = all(row["beats_baseline"] for row in rows)
    bitwise = all(row["bitwise_identical"] for row in rows)
    assert argmin_ok, "a planner choice diverged from exhaustive argmin"
    assert beats_baseline, "a planner choice priced above the baseline"
    assert bitwise, "a planned execution diverged from serial CPU"
    # The planner must find real wins somewhere, not just tie the
    # baseline everywhere.
    assert max(row["modelled_speedup"] for row in rows) >= 2.0

    payload = {
        "benchmark": "autoplan",
        "platform": PLATFORM,
        "signatures": [row["label"] for row in rows],
        "results": {row["label"]: row for row in rows},
        "argmin_matches_exhaustive": argmin_ok,
        "chosen_never_worse_than_baseline": beats_baseline,
        "bitwise_identical": bitwise,
        "speedup_basis": (
            "modelled execution time of the chosen configuration vs. the "
            "unplanned baseline (unfused, same device count), both priced "
            "by the analytic GPUModel on the same platform; no wall-clock "
            "claims"),
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    publish("autoplan", _render_table(rows))
