"""Serving throughput harness: the ADAS pipeline as service requests.

Shared by the ``brookauto serve-bench`` CLI subcommand and the
``benchmarks/bench_service_throughput.py`` benchmark (which publishes the
results as ``BENCH_service.json``).  The workload is the ADAS-style
post-processing pipeline built around the scalable ``image_filter``
application (Figure 3): a 3x3 convolution followed by seven
straight-line per-pixel stages - the same pipeline the fusion benchmark
measures, here packaged as self-contained
:class:`~repro.service.request.ServiceRequest` objects the way a
long-lived vision service would receive camera frames.

The **serial baseline** executes each request the way the seed runtime
is driven: one runtime, direct kernel-handle calls (re-validated per
call), fresh streams per request, no fusion.  The service numbers come
from :class:`~repro.service.service.BrookService` pools; its steady
state launches each cached request signature as a single fused pass.
Every service response is checked bit-identical to the baseline output
for the same frame.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..apps.image_filter import BROOK_SOURCE as FILTER_SOURCE, FILTER_3X3
from ..errors import RuntimeBrookError
from ..runtime import BrookRuntime
from .deadline import DeadlineRejected
from .request import KernelCall, ServiceRequest, ServiceResponse
from .service import BrookService

__all__ = ["ADAS_SERVICE_SOURCE", "build_adas_request", "run_serial_baseline",
           "run_service_bench", "render_service_report",
           "probe_request_times", "run_deadline_bench",
           "render_deadline_report"]

#: Straight-line post-processing stages chained after the 3x3 filter
#: (the fusion benchmark's ADAS pipeline, packaged for serving).
ADAS_POST_SOURCE = """
float luma_curve(float v) {
    float t = clamp(v, 0.0, 1.0);
    return t * t * (3.0 - 2.0 * t);
}

kernel void normalize_px(float v<>, float inv_range, out float n<>) {
    n = clamp(v * inv_range, 0.0, 1.0);
}

kernel void tone_map(float n<>, float exposure, out float t<>) {
    t = 1.0 - exp(-exposure * n);
}

kernel void contrast(float t<>, float amount, out float c<>) {
    c = lerp(t, luma_curve(t), amount);
}

kernel void vignette(float c<>, float width, float height, float strength,
                     out float v<>) {
    float2 pos = indexof(v);
    float dx = (pos.x / width) - 0.5;
    float dy = (pos.y / height) - 0.5;
    v = c * clamp(1.0 - strength * (dx * dx + dy * dy), 0.0, 1.0);
}

kernel void gamma_px(float c<>, float g, out float o<>) {
    o = pow(c, g);
}

kernel void highlight(float o<>, float threshold, float boost, out float h<>) {
    float over = max(o - threshold, 0.0);
    h = o + boost * over * over;
}

kernel void quantize_px(float o<>, float levels, out float q<>) {
    q = floor(o * levels + 0.5) / levels;
}
"""

#: One translation unit containing the whole request pipeline.
ADAS_SERVICE_SOURCE = FILTER_SOURCE + ADAS_POST_SOURCE

STAGES = ("filter3x3", "normalize_px", "tone_map", "contrast", "vignette",
          "gamma_px", "highlight", "quantize_px")


def build_adas_request(size: int, frame: np.ndarray,
                       name: str = "") -> ServiceRequest:
    """Package one camera frame as an ADAS pipeline service request."""
    weights = [float(w) for w in FILTER_3X3.reshape(-1)]
    fsize = float(size)
    calls = (
        KernelCall("filter3x3", ("image", fsize, fsize, *weights, "s0")),
        KernelCall("normalize_px", ("s0", 1.0 / 255.0, "s1")),
        KernelCall("tone_map", ("s1", 2.2, "s2")),
        KernelCall("contrast", ("s2", 0.6, "s3")),
        KernelCall("vignette", ("s3", fsize, fsize, 0.8, "s4")),
        KernelCall("gamma_px", ("s4", 1.8, "s5")),
        KernelCall("highlight", ("s5", 0.7, 0.5, "s6")),
        KernelCall("quantize_px", ("s6", 255.0, "out")),
    )
    shape = (size, size)
    return ServiceRequest(
        source=ADAS_SERVICE_SOURCE,
        calls=calls,
        inputs={"image": frame},
        outputs={"out": shape},
        scratch={name: shape for name in
                 ("s0", "s1", "s2", "s3", "s4", "s5", "s6")},
        name=name,
    )


def make_frames(size: int, count: int, seed: int = 0) -> List[np.ndarray]:
    """Distinct pseudo camera frames cycled through the request stream."""
    rng = np.random.default_rng(seed)
    return [rng.uniform(0.0, 255.0, (size, size)).astype(np.float32)
            for _ in range(count)]


def run_serial_baseline(backend: str, requests: Sequence[ServiceRequest],
                        device: Optional[str] = None) -> Dict[str, object]:
    """Seed-style serial execution of ``requests`` on one runtime.

    Direct kernel-handle calls, per-request stream creation, no fusion,
    no prepared plans - the path an application drives by hand.  Returns
    throughput/latency numbers and each request's output arrays (used as
    the bit-exactness reference for the service runs).
    """
    latencies: List[float] = []
    outputs: List[Dict[str, np.ndarray]] = []
    with BrookRuntime(backend=backend, device=device) as rt:
        started = time.perf_counter()
        for request in requests:
            t0 = time.perf_counter()
            module = rt.compile(request.source)
            streams = {name: rt.stream_from(array, name=name)
                       for name, array in request.inputs.items()}
            for name, dims in request.outputs.items():
                streams[name] = rt.stream(dims, name=name)
            for name, dims in request.scratch.items():
                streams[name] = rt.stream(dims, name=name)
            for one_call in request.calls:
                handle = module.kernel(one_call.kernel)
                args = [streams[arg] if isinstance(arg, str) else arg
                        for arg in one_call.args]
                handle(*args)
            outputs.append({name: streams[name].read()
                            for name in request.outputs})
            for stream in streams.values():
                stream.release()
            latencies.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
    array = np.asarray(latencies) * 1e3
    return {
        "requests": len(requests),
        "elapsed_s": elapsed,
        "requests_per_s": len(requests) / elapsed if elapsed > 0 else 0.0,
        "latency_ms": {
            "mean": float(array.mean()),
            "p50": float(np.percentile(array, 50)),
            "p95": float(np.percentile(array, 95)),
            "max": float(array.max()),
        },
        "outputs": outputs,
    }


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    return a.shape == b.shape and bool(
        np.array_equal(a.view(np.uint32), b.view(np.uint32)))


def run_service_bench(
    backend: str = "cpu",
    device: Optional[str] = None,
    size: int = 32,
    requests: int = 64,
    pool_sizes: Sequence[int] = (1, 2, 4),
    frames: int = 8,
    fuse: bool = True,
    seed: int = 0,
    devices: int = 1,
    sanitize: bool = False,
) -> Dict[str, object]:
    """Benchmark ``BrookService`` pools against the serial baseline.

    Builds ``requests`` ADAS requests cycling over ``frames`` distinct
    camera frames, measures the serial baseline, then each pool size
    (with one warm-up pass over the distinct frames so the steady state
    is measured, like a long-lived service).  Checks every service
    response bit-identical to the baseline output for the same frame.
    With ``devices=N`` every pool worker opens a sharded runtime, so
    each request additionally fans out across a device group - the
    bit-exactness check then also covers the sharded execution path.

    With ``sanitize=True`` each pool configuration is measured a second
    time with every worker runtime under
    :class:`~repro.runtime.sanitizer.BrookSanitizer`; the report then
    carries the sanitized throughput, the measured overhead percentage,
    the aggregated finding counts and a bit-exactness check of the
    sanitized responses (the sanitizer must not change results).
    """
    if int(devices) < 1:
        raise RuntimeBrookError(
            f"serve-bench needs at least one device per worker, got "
            f"devices={devices}")
    for pool_size in pool_sizes:
        if int(pool_size) < 1:
            raise RuntimeBrookError(
                f"serve-bench needs pool sizes >= 1, got {pool_size}")
    frame_data = make_frames(size, frames, seed)
    request_list = [
        build_adas_request(size, frame_data[i % frames], name=f"req{i}")
        for i in range(requests)
    ]
    baseline = run_serial_baseline(backend, request_list, device=device)
    reference = baseline.pop("outputs")

    pools: Dict[str, Dict[str, object]] = {}
    bitwise_all = True
    for pool_size in pool_sizes:
        with BrookService(backend=backend, device=device,
                          pool_size=pool_size, fuse=fuse,
                          devices=devices) as service:
            # Warm-up: let every worker prepare the pipeline signature.
            warmup = [build_adas_request(size, frame_data[0], name="warmup")
                      for _ in range(pool_size)]
            service.map(warmup)
            service.reset_service_stats()
            responses = service.map(request_list)
            report = service.service_report()
        for index, response in enumerate(responses):
            bitwise_all &= _bitwise_equal(reference[index]["out"],
                                          response.outputs["out"])
        pools[str(pool_size)] = {
            "requests_per_s": report["requests_per_s"],
            "latency_ms": report["latency_ms"],
            "speedup_vs_serial": (report["requests_per_s"]
                                  / baseline["requests_per_s"]
                                  if baseline["requests_per_s"] else 0.0),
            "report": report,
        }
        if sanitize:
            with BrookService(backend=backend, device=device,
                              pool_size=pool_size, fuse=fuse,
                              devices=devices, sanitize=True) as service:
                warmup = [build_adas_request(size, frame_data[0],
                                             name="warmup")
                          for _ in range(pool_size)]
                service.map(warmup)
                service.reset_service_stats()
                responses = service.map(request_list)
                sanitized_report = service.service_report()
            sanitized_bitwise = True
            for index, response in enumerate(responses):
                sanitized_bitwise &= _bitwise_equal(
                    reference[index]["out"], response.outputs["out"])
            bitwise_all &= sanitized_bitwise
            plain_rps = pools[str(pool_size)]["requests_per_s"]
            sanitized_rps = sanitized_report["requests_per_s"]
            pools[str(pool_size)]["sanitize"] = {
                "requests_per_s": sanitized_rps,
                "latency_ms": sanitized_report["latency_ms"],
                "overhead_pct": ((plain_rps / sanitized_rps - 1.0) * 100.0
                                 if sanitized_rps else 0.0),
                "bitwise_identical": sanitized_bitwise,
                "sanitizer": sanitized_report["sanitizer"],
            }

    return {
        "benchmark": "service",
        "sanitize": bool(sanitize),
        "backend": backend,
        "device": device,
        "devices": devices,
        "pipeline": {
            "app": "image_filter",
            "stages": list(STAGES),
            "size": size,
            "frames": frames,
        },
        "requests": requests,
        "fuse": fuse,
        "serial_baseline": baseline,
        "pools": pools,
        "bitwise_identical": bitwise_all,
    }


def probe_request_times(backend: str = "cpu",
                        device: Optional[str] = None,
                        size: int = 32,
                        devices: int = 1,
                        platform: str = "target",
                        fuse: bool = True,
                        seed: int = 0) -> Tuple[float, float]:
    """Steady-state (modelled_s, wcet_s) of one ADAS request.

    Runs two identical requests through a single-worker tracking service
    and reads the second (fully cached, steady-state) response.  The
    pair calibrates the deadline benchmark's arrival pattern: offered
    load is expressed in multiples of ``modelled_s`` and the default
    deadline must sit above ``wcet_s`` for admission to accept anything.
    """
    frame = make_frames(size, 1, seed)[0]
    with BrookService(backend=backend, device=device, pool_size=1,
                      fuse=fuse, devices=devices,
                      platform=platform) as service:
        service.process(build_adas_request(size, frame, name="probe0"))
        response = service.process(
            build_adas_request(size, frame, name="probe1"))
    return float(response.modelled_s), float(response.wcet_s)


def run_deadline_bench(
    backend: str = "cpu",
    device: Optional[str] = None,
    size: int = 32,
    requests: int = 48,
    pool_size: int = 2,
    frames: int = 8,
    overload: float = 2.0,
    deadline_ms: Optional[float] = None,
    fuse: bool = True,
    seed: int = 0,
    devices: int = 1,
    platform: str = "target",
    sanitize: bool = False,
) -> Dict[str, object]:
    """Drive the ADAS pipeline past saturation under three schedulers.

    Requests arrive on the modelled timeline at ``overload`` times the
    pool's processing capacity (interarrival = steady-state request time
    / (overload * pool_size)), each with deadline ``release +
    relative_deadline`` where ``relative_deadline`` is ``deadline_ms``
    or, by default, comfortably above one request's WCET bound - so a
    request admitted onto an idle worker always fits, and misses are
    purely a queueing phenomenon.

    Three configurations process the identical request stream:

    * ``fifo`` - submission-order dispatch, no admission: the PR-4/5
      service with deadline accounting bolted on.  Under overload its
      backlog grows without bound and the tail of every burst misses.
    * ``edf`` - earliest-deadline-first worker queues, no admission.
    * ``edf+admission`` - EDF plus WCET-based admission control: work
      that provably cannot meet its deadline is rejected at submit time
      with a typed :class:`DeadlineRejected` response, and every
      *admitted* request provably completes in time (its actual modelled
      cost never exceeds the WCET the projection used).

    Every completed response is checked bit-identical to the serial
    baseline and WCET-sound (modelled actual <= bound).
    """
    if int(pool_size) < 1:
        raise RuntimeBrookError(
            f"deadline-bench needs pool_size >= 1, got {pool_size}")
    if int(devices) < 1:
        raise RuntimeBrookError(
            f"deadline-bench needs at least one device per worker, got "
            f"devices={devices}")
    if not float(overload) > 0:
        raise RuntimeBrookError(
            f"deadline-bench needs overload > 0, got {overload}")

    actual_s, wcet_s = probe_request_times(
        backend=backend, device=device, size=size, devices=devices,
        platform=platform, fuse=fuse, seed=seed)
    interarrival_s = actual_s / (float(overload) * pool_size)
    if deadline_ms is not None:
        relative_deadline_s = float(deadline_ms) / 1e3
    else:
        relative_deadline_s = max(1.5 * actual_s, 1.2 * wcet_s)

    frame_data = make_frames(size, frames, seed)
    request_list = []
    for index in range(requests):
        release = index * interarrival_s
        request = build_adas_request(size, frame_data[index % frames],
                                     name=f"req{index}")
        request.release = release
        request.deadline = release + relative_deadline_s
        request_list.append(request)

    baseline = run_serial_baseline(backend, request_list, device=device)
    reference = baseline.pop("outputs")

    configs = {
        "fifo": dict(scheduler="fifo", admission=False),
        "edf": dict(scheduler="edf", admission=False),
        "edf+admission": dict(scheduler="edf", admission=True),
    }
    results: Dict[str, Dict[str, object]] = {}
    bitwise_all = True
    sound_all = True
    for label, knobs in configs.items():
        with BrookService(backend=backend, device=device,
                          pool_size=pool_size, fuse=fuse, devices=devices,
                          platform=platform, sanitize=sanitize or None,
                          **knobs) as service:
            warmup = [build_adas_request(size, frame_data[0], name="warmup")
                      for _ in range(pool_size)]
            service.map(warmup)
            service.reset_service_stats()
            futures = [service.submit(request) for request in request_list]
            responses = [future.result() for future in futures]
            report = service.service_report()
        completed = [r for r in responses if isinstance(r, ServiceResponse)]
        rejected = [r for r in responses if isinstance(r, DeadlineRejected)]
        for index, response in enumerate(responses):
            if isinstance(response, ServiceResponse):
                bitwise_all &= _bitwise_equal(reference[index]["out"],
                                              response.outputs["out"])
        config_sound = all(r.modelled_s <= r.wcet_s for r in completed)
        sound_all &= config_sound
        hits = sum(1 for r in completed if r.deadline_met)
        misses = len(completed) - hits
        results[label] = {
            "scheduler": knobs["scheduler"],
            "admission": knobs["admission"],
            "offered": len(responses),
            "completed": len(completed),
            "rejected": len(rejected),
            "deadline_hits": hits,
            "deadline_misses": misses,
            # Hit-rate over *admitted* (completed) requests - the number
            # admission control guarantees - plus goodput over offered.
            "hit_rate": (hits / len(completed)) if completed else 0.0,
            "goodput": hits / len(responses) if responses else 0.0,
            "wcet_sound": config_sound,
            "deadline_report": report.get("deadline", {}),
        }
        if sanitize:
            results[label]["sanitizer"] = report.get("sanitizer", {})

    return {
        "benchmark": "deadline",
        "sanitize": bool(sanitize),
        "backend": backend,
        "device": device,
        "devices": devices,
        "platform": platform,
        "pipeline": {
            "app": "image_filter",
            "stages": list(STAGES),
            "size": size,
            "frames": frames,
        },
        "requests": requests,
        "pool_size": pool_size,
        "overload": float(overload),
        "fuse": fuse,
        "timing": {
            "request_modelled_s": actual_s,
            "request_wcet_s": wcet_s,
            "wcet_over_actual": (wcet_s / actual_s) if actual_s else 0.0,
            "interarrival_s": interarrival_s,
            "relative_deadline_s": relative_deadline_s,
        },
        "configs": results,
        "bitwise_identical": bitwise_all,
        "wcet_sound": sound_all,
    }


def render_deadline_report(payload: Dict[str, object]) -> str:
    """Human-readable table of a :func:`run_deadline_bench` payload."""
    timing = payload["timing"]
    lines = [
        f"Deadline serving: {payload['requests']} ADAS pipeline requests "
        f"({payload['pipeline']['size']}x{payload['pipeline']['size']}, "
        f"backend {payload['backend']}, platform {payload['platform']}, "
        f"{payload['overload']:.1f}x overload, pool={payload['pool_size']})",
        (f"request modelled {timing['request_modelled_s'] * 1e3:.3f}ms, "
         f"WCET bound {timing['request_wcet_s'] * 1e3:.3f}ms "
         f"({timing['wcet_over_actual']:.2f}x), deadline "
         f"{timing['relative_deadline_s'] * 1e3:.3f}ms after release"),
        "",
        (f"{'config':>15} {'offered':>8} {'rejected':>9} {'done':>6} "
         f"{'hits':>6} {'misses':>7} {'hit-rate':>9} {'goodput':>8}"),
    ]
    for label, row in payload["configs"].items():
        lines.append(
            f"{label:>15} {row['offered']:>8} {row['rejected']:>9} "
            f"{row['completed']:>6} {row['deadline_hits']:>6} "
            f"{row['deadline_misses']:>7} {row['hit_rate']:>9.1%} "
            f"{row['goodput']:>8.1%}"
        )
    lines.append("")
    lines.append("WCET bounds sound on every completed request: "
                 + ("yes" if payload["wcet_sound"] else "NO"))
    lines.append("completed responses bit-identical to serial baseline: "
                 + ("yes" if payload["bitwise_identical"] else "NO"))
    return "\n".join(lines)


def render_service_report(payload: Dict[str, object]) -> str:
    """Human-readable table of a :func:`run_service_bench` payload."""
    baseline = payload["serial_baseline"]
    lines = [
        f"Concurrent serving: {payload['requests']} ADAS pipeline requests "
        f"({payload['pipeline']['size']}x{payload['pipeline']['size']}, "
        f"backend {payload['backend']})",
        "pipeline: " + " -> ".join(payload["pipeline"]["stages"]),
        "",
        f"{'config':>14} {'req/s':>9} {'p50':>9} {'p95':>9} {'speedup':>8}",
        (f"{'serial':>14} {baseline['requests_per_s']:>9.1f} "
         f"{baseline['latency_ms']['p50']:>7.2f}ms "
         f"{baseline['latency_ms']['p95']:>7.2f}ms {'1.00x':>8}"),
    ]
    for pool_size, row in payload["pools"].items():
        lines.append(
            f"{'pool=' + pool_size:>14} {row['requests_per_s']:>9.1f} "
            f"{row['latency_ms']['p50']:>7.2f}ms "
            f"{row['latency_ms']['p95']:>7.2f}ms "
            f"{row['speedup_vs_serial']:>7.2f}x"
        )
    if payload.get("sanitize"):
        lines.append("")
        lines.append("BrookSanitizer (BROOKSAN) overhead:")
        lines.append(f"{'config':>14} {'req/s':>9} {'overhead':>9} "
                     f"{'findings':>9} {'bitwise':>8}")
        for pool_size, row in payload["pools"].items():
            sanitized = row.get("sanitize")
            if not sanitized:
                continue
            findings = sum(sanitized["sanitizer"]["counts"].values())
            lines.append(
                f"{'pool=' + pool_size:>14} "
                f"{sanitized['requests_per_s']:>9.1f} "
                f"{sanitized['overhead_pct']:>8.1f}% "
                f"{findings:>9} "
                f"{'yes' if sanitized['bitwise_identical'] else 'NO':>8}"
            )
    lines.append("")
    lines.append("service responses bit-identical to serial baseline: "
                 + ("yes" if payload["bitwise_identical"] else "NO"))
    return "\n".join(lines)
