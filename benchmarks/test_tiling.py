"""Large-domain bench smoke for the tiled execution engine.

Launches streams that exceed the embedded device's texture limit - the
issue's acceptance shapes, a ``(4096,)`` signal and a ``(3000, 3000)``
ADAS-resolution frame - on the simulated OpenGL ES 2 backend under two
device profiles:

* ``videocore-iv`` (2048 max texture): the 1-D signal *folds* into a
  single ``2 x 2048`` texture, the frame *tiles* into a 2x2 grid, and
* ``mali-400`` (4096 max texture): both fit without tiling, giving the
  untiled baseline on the same simulator.

For every configuration the smoke records the simulator's own wall-clock
per launch, the tile counts from the launch records, and the modelled
GPU time (including the ``GPUModel`` tiling-overhead term), and checks
the outputs stay bitwise identical to the CPU backend.  Results land in
``benchmarks/out/BENCH_tiling.json`` (uploaded as a CI artefact) plus a
table, ``benchmarks/out/tiling.txt``.
"""

import time

import numpy as np

from repro.gles2.device import get_device_profile
from repro.runtime import BrookRuntime
from repro.timing.gpu_model import GPUCostParameters, GPUModel, GPUWorkload


SOURCE = """
kernel void shade(float gain, float bias, float x<>, out float r<>) {
    r = gain * x + bias;
}

reduce void total(float v<>, reduce float acc) { acc += v; }
"""

SHAPES = {"signal_4096": (4096,), "frame_3000x3000": (3000, 3000)}
DEVICES = ("videocore-iv", "mali-400")
REPEATS = 2


def _cpu_reference(data):
    with BrookRuntime(backend="cpu") as rt:
        module = rt.compile(SOURCE)
        out = rt.stream(data.shape)
        module.shade(1.5, 0.25, rt.stream_from(data), out)
        return out.read()


def _run_device(device, data):
    profile = get_device_profile(device)
    with BrookRuntime(backend="gles2", device=device) as rt:
        module = rt.compile(SOURCE)
        stream = rt.stream_from(data)
        out = rt.stream(data.shape)
        plan = module.shade.bind(1.5, 0.25, stream, out)
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            plan.launch()
            best = min(best, time.perf_counter() - start)
        reduced = module.total(stream)
        record = next(r for r in rt.statistics.launches if r.kernel == "shade")
        workload = GPUWorkload.from_statistics(rt.statistics)
        model = GPUModel(GPUCostParameters.from_gles2_profile(profile))
        return {
            "tiles": record.tiles,
            "extra_tiles": rt.statistics.extra_tiles,
            "launch_wall_ms": best * 1e3,
            "modeled_gpu_ms": model.time_seconds(workload) * 1e3,
            "modeled_tiling_overhead_ms":
                model.tiling_overhead(workload.tile_switches) * 1e3,
            "reduced_value": float(reduced),
            "output": out.read(),
        }


def _render_table(results) -> str:
    lines = [
        "Tiled execution smoke: oversized streams on the GL ES 2 simulator",
        "",
        f"{'shape':>18} {'device':>13} {'tiles':>6} {'wall/launch':>12} "
        f"{'modeled':>10} {'tile ovh':>9}",
    ]
    for shape_name, per_device in results.items():
        for device, row in per_device.items():
            lines.append(
                f"{shape_name:>18} {device:>13} {row['tiles']:>6} "
                f"{row['launch_wall_ms']:>10.1f}ms "
                f"{row['modeled_gpu_ms']:>8.1f}ms "
                f"{row['modeled_tiling_overhead_ms']:>7.3f}ms"
            )
    lines.append("")
    lines.append("outputs bitwise-identical to the CPU backend on every row")
    return "\n".join(lines)


def test_tiling_large_domains(publish_run):
    rng = np.random.default_rng(42)
    results = {}
    for shape_name, shape in SHAPES.items():
        data = rng.uniform(0.0, 8.0, shape).astype(np.float32)
        reference = _cpu_reference(data)
        per_device = {}
        for device in DEVICES:
            row = _run_device(device, data)
            assert np.array_equal(row.pop("output").view(np.uint32),
                                  reference.view(np.uint32)), \
                f"{shape_name} on {device} diverged from the CPU backend"
            np.testing.assert_allclose(row["reduced_value"],
                                       float(data.sum()), rtol=1e-3)
            per_device[device] = row
        results[shape_name] = per_device

    # The 2048-limit device must actually have tiled the frame (2x2) and
    # folded the signal into a single texture; the 4096-limit device
    # needs no tiling at all.
    assert results["frame_3000x3000"]["videocore-iv"]["tiles"] == 4
    assert results["frame_3000x3000"]["videocore-iv"]["extra_tiles"] >= 3
    assert results["signal_4096"]["videocore-iv"]["tiles"] == 1
    assert results["frame_3000x3000"]["mali-400"]["tiles"] == 1
    assert results["signal_4096"]["mali-400"]["tiles"] == 1

    payload = {
        "benchmark": "tiling",
        "backend": "gles2",
        "kernel": "shade (saxpy-style) + total (sum reduction)",
        "shapes": {name: list(shape) for name, shape in SHAPES.items()},
        "results": results,
        "timing": {"repeats": REPEATS, "statistic": "best-of-repeats",
                   "note": "wall-clock of the functional simulator, "
                           "not of real hardware"},
    }
    publish_run("tiling", _render_table(results), payload)
