"""Multi-device scaling bench for the sharded execution engine.

Drives the ADAS ``image_filter`` pipeline (the 3x3 convolution plus the
seven post-processing stages the fusion and serving benchmarks use)
through ``BrookRuntime(backend="gles2", device="videocore-iv",
devices=N)`` for ``N`` in 1/2/4 and records, per device count:

* the functional simulator's own wall-clock per frame (this process is
  single-core Python, so it does not speed up with N - it is tracked
  for simulator-regression purposes, like every other benchmark here),
* the **modelled device-group execution time**: the analytic
  :class:`~repro.timing.gpu_model.GPUModel` applied to the recorded
  work counters, with the balanced shard bands executing concurrently
  (``GPUModel.sharded_time_seconds``) and the recorded shard-dispatch
  and halo-exchange overheads charged in full.  The modelled numbers
  are the repository's headline figures throughout - the reproduction
  replaces wall-clock measurement with the analytic model by design
  (see ``repro.runtime.profiling``), and

* the shard/halo counters from the launch records.

Acceptance: outputs stay bitwise identical across device counts, and
the modelled 4-device execution is at least 2x faster than the
1-device baseline.  Results land in ``benchmarks/out/BENCH_sharding.json``
(uploaded as a CI artefact) plus a rendered table,
``benchmarks/out/sharding.txt``.
"""

import time

import numpy as np

from repro.gles2.device import get_device_profile
from repro.runtime import BrookRuntime
from repro.service.bench import ADAS_SERVICE_SOURCE, STAGES
from repro.apps.image_filter import FILTER_3X3
from repro.timing.gpu_model import GPUCostParameters, GPUModel, GPUWorkload


#: Production ADAS resolution: large enough that the scalable work
#: (texture fetches, ALU, RGBA8 codec, transfers) dominates the fixed
#: per-pass dispatch overhead each device pays regardless of sharding.
SIZE = 1024
DEVICE = "videocore-iv"
DEVICE_COUNTS = (1, 2, 4)
REPEATS = 2


def _build_plans(rt, module, frame):
    """Streams + prepared launch plans for the eight pipeline stages."""
    size = float(SIZE)
    weights = [float(w) for w in FILTER_3X3.reshape(-1)]
    streams = {"image": rt.stream_from(frame, name="image")}
    for name in ("s0", "s1", "s2", "s3", "s4", "s5", "s6", "out"):
        streams[name] = rt.stream((SIZE, SIZE), name=name)
    plans = [
        module.filter3x3.bind(streams["image"], size, size, *weights,
                              streams["s0"]),
        module.normalize_px.bind(streams["s0"], 1.0 / 255.0, streams["s1"]),
        module.tone_map.bind(streams["s1"], 2.2, streams["s2"]),
        module.contrast.bind(streams["s2"], 0.6, streams["s3"]),
        module.vignette.bind(streams["s3"], size, size, 0.8, streams["s4"]),
        module.gamma_px.bind(streams["s4"], 1.8, streams["s5"]),
        module.highlight.bind(streams["s5"], 0.7, 0.5, streams["s6"]),
        module.quantize_px.bind(streams["s6"], 255.0, streams["out"]),
    ]
    return streams, plans


def _run_config(devices: int, frame: np.ndarray):
    with BrookRuntime(backend="gles2", device=DEVICE,
                      devices=devices) as rt:
        module = rt.compile(ADAS_SERVICE_SOURCE)
        streams, plans = _build_plans(rt, module, frame)
        best_wall = float("inf")
        for _ in range(REPEATS):
            rt.reset_statistics()
            streams["image"].write(frame)
            start = time.perf_counter()
            for plan in plans:
                plan.launch()
            best_wall = min(best_wall, time.perf_counter() - start)
        output = streams["out"].read()
        statistics = rt.statistics
        workload = GPUWorkload.from_statistics(statistics)
        model = GPUModel(GPUCostParameters.from_gles2_profile(
            get_device_profile(DEVICE)))
        if devices == 1:
            modeled_s = model.time_seconds(workload)
        else:
            modeled_s = model.sharded_time_seconds(workload, devices)
        return {
            "devices": devices,
            "frame_wall_ms": best_wall * 1e3,
            "modeled_ms": modeled_s * 1e3,
            "modeled_sharding_overhead_ms": model.sharding_overhead(
                workload.shard_dispatches, workload.halo_bytes) * 1e3,
            "extra_shards": statistics.extra_shards,
            "halo_bytes": statistics.halo_bytes,
            "passes": statistics.total_passes,
            "output": output,
        }


def _render_table(rows, speedups) -> str:
    lines = [
        f"Sharded execution: ADAS image pipeline ({SIZE}x{SIZE}, "
        f"{DEVICE} device group)",
        "pipeline: " + " -> ".join(STAGES),
        "",
        f"{'devices':>8} {'modeled':>10} {'speedup':>8} {'halo KiB':>9} "
        f"{'passes':>7} {'sim wall':>10}",
    ]
    for row in rows:
        count = row["devices"]
        lines.append(
            f"{count:>8} {row['modeled_ms']:>8.1f}ms "
            f"{speedups[count]:>7.2f}x "
            f"{row['halo_bytes'] / 1024:>9.1f} {row['passes']:>7} "
            f"{row['frame_wall_ms']:>8.1f}ms"
        )
    lines.append("")
    lines.append("speedup basis: modelled device-group execution time "
                 "(balanced bands run concurrently; shard dispatch + "
                 "halo exchange charged in full)")
    lines.append("outputs bitwise-identical across all device counts")
    return "\n".join(lines)


def test_sharded_scaling(publish_run):
    rng = np.random.default_rng(12)
    frame = rng.uniform(0.0, 255.0, (SIZE, SIZE)).astype(np.float32)

    rows = [_run_config(devices, frame) for devices in DEVICE_COUNTS]
    reference = rows[0].pop("output")
    bitwise = True
    for row in rows[1:]:
        bitwise &= bool(np.array_equal(
            reference.view(np.uint32), row.pop("output").view(np.uint32)))
    assert bitwise, "sharded outputs diverged from the 1-device baseline"

    baseline_ms = rows[0]["modeled_ms"]
    speedups = {row["devices"]: baseline_ms / row["modeled_ms"]
                for row in rows}
    # Sharding must actually have happened, with a thin stencil halo
    # (filter3x3) rather than whole-array replication.
    assert rows[-1]["extra_shards"] == 8 * (DEVICE_COUNTS[-1] - 1)
    assert 0 < rows[-1]["halo_bytes"] <= 2 * DEVICE_COUNTS[-1] * SIZE * 4
    # Acceptance: >= 2x at 4 devices over the 1-device baseline.
    assert speedups[4] >= 2.0, f"4-device speedup {speedups[4]:.2f}x < 2x"

    payload = {
        "benchmark": "sharding",
        "backend": "gles2",
        "device": DEVICE,
        "pipeline": {"app": "image_filter", "stages": list(STAGES),
                     "size": SIZE},
        "device_counts": list(DEVICE_COUNTS),
        "results": {str(row["devices"]): row for row in rows},
        "speedup_vs_1_device": {str(k): v for k, v in speedups.items()},
        "speedup_at_4_devices": speedups[4],
        "speedup_basis": (
            "modelled device-group execution time from the recorded work "
            "counters (GPUModel.sharded_time_seconds: balanced shard bands "
            "execute concurrently, shard-dispatch and halo-exchange "
            "overheads charged serially); frame_wall_ms is the single-core "
            "functional simulator's wall clock, tracked for regression "
            "purposes only"),
        "bitwise_identical": bitwise,
    }
    publish_run("sharding", _render_table(rows, speedups), payload)
