"""Deadline-aware serving benchmark: EDF + WCET admission vs. FIFO.

Drives the ADAS image pipeline past saturation: requests arrive on the
service's modelled timeline at ``OVERLOAD`` times the pool's processing
capacity, each carrying an absolute deadline.  Three schedulers process
the identical stream:

* **fifo** - the PR-4/5 service with deadline accounting only: no
  admission, submission-order dispatch.  The backlog grows without
  bound, so the tail of the stream misses its deadlines - the silent
  tail-latency blowup a real ADAS serving tier cannot afford.
* **edf** - earliest-deadline-first worker queues, still no admission.
* **edf+admission** - EDF plus WCET-based admission control: each
  request's statically derived worst-case execution bound is stacked on
  the worker's committed backlog, and work that provably cannot meet
  its deadline is rejected at submit time with a typed
  ``DeadlineRejected`` response.  Every *admitted* request is then
  guaranteed to finish in time (the modelled actual never exceeds the
  WCET bound the projection used).

A separate soundness matrix checks the WCET bounds on every execution
mode the runtime has: plain serial launches, fused pipelines, tiled
launches on the constrained GLES2 device, sharded multi-device launches
and the auto-planner's chosen configuration (plain and tiled).

Publishes ``BENCH_deadline.json`` at the repository root (uploaded as a
CI artefact) and a human-readable table under ``benchmarks/reports/``.

Acceptance: under overload, EDF + admission keeps the admitted-request
deadline-hit-rate at >= 95% while the FIFO baseline measurably misses;
completed responses stay bit-identical to the serial baseline; no
completed request's modelled time exceeds its WCET bound anywhere.
"""

import json
import pathlib

import pytest

from repro.service import BrookService
from repro.service.bench import (build_adas_request, make_frames,
                                 render_deadline_report, run_deadline_bench)

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_deadline.json"

SIZE = 32
REQUESTS = 48
POOL_SIZE = 2
OVERLOAD = 2.0
FRAMES = 8


def _soundness_case(label, **service_kwargs):
    """Serve a few ADAS frames and return per-request margin facts."""
    size = service_kwargs.pop("size", SIZE)
    frames = make_frames(size, 3)
    with BrookService(platform="target", pool_size=1,
                      **service_kwargs) as service:
        responses = [
            service.process(build_adas_request(size, frame, name=f"{label}{i}"))
            for i, frame in enumerate(frames)
        ]
    margins = [(r.wcet_s - r.modelled_s) / r.wcet_s for r in responses]
    return {
        "case": label,
        "requests": len(responses),
        "min_margin": min(margins),
        "sound": all(r.modelled_s <= r.wcet_s for r in responses),
    }


@pytest.fixture(scope="module")
def soundness_matrix(publish):
    cases = [
        _soundness_case("plain", backend="cpu", fuse=False),
        _soundness_case("fused", backend="cpu", fuse=True),
        _soundness_case("sharded", backend="cpu", fuse=True, devices=2),
        # 40x40 frames on the constrained ES2 profile (512 max texture,
        # square/power-of-two only) force the tiled execution engine.
        _soundness_case("tiled-gles2", backend="gles2",
                        device="constrained-es2", fuse=False, size=40),
        # The auto-planner's chosen configuration, bounded by its own
        # launch list (one merged pass per fused group).
        _soundness_case("auto-gles2", backend="gles2", plan="auto"),
        _soundness_case("auto-tiled", backend="gles2",
                        device="constrained-es2", plan="auto", size=40),
    ]
    lines = ["WCET soundness matrix (modelled actual vs static bound):",
             f"{'case':>14} {'requests':>9} {'min margin':>11} {'sound':>6}"]
    for case in cases:
        lines.append(f"{case['case']:>14} {case['requests']:>9} "
                     f"{case['min_margin']:>10.1%} "
                     f"{'yes' if case['sound'] else 'NO':>6}")
    publish("deadline_soundness", "\n".join(lines))
    return cases


def test_wcet_soundness_matrix(soundness_matrix):
    """Modelled time never exceeds the WCET bound on any execution mode."""
    for case in soundness_matrix:
        assert case["sound"], (
            f"WCET bound violated in case {case['case']}: "
            f"min margin {case['min_margin']:.3f}")


def test_deadline_serving(publish, soundness_matrix):
    payload = run_deadline_bench(
        backend="cpu",
        size=SIZE,
        requests=REQUESTS,
        pool_size=POOL_SIZE,
        frames=FRAMES,
        overload=OVERLOAD,
        fuse=True,
    )

    # Attach the soundness matrix so the CI artefact carries both halves
    # of the story (hit-rates under overload + bound soundness).
    payload["soundness_matrix"] = soundness_matrix

    BENCH_PATH.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    publish("deadline", render_deadline_report(payload))

    assert payload["bitwise_identical"], \
        "completed responses diverged from the serial baseline"
    assert payload["wcet_sound"], \
        "a completed request's modelled time exceeded its WCET bound"

    fifo = payload["configs"]["fifo"]
    edf_admit = payload["configs"]["edf+admission"]
    assert fifo["deadline_misses"] > 0 and fifo["hit_rate"] < 0.9, (
        f"FIFO baseline should measurably miss under {OVERLOAD}x overload, "
        f"measured hit-rate {fifo['hit_rate']:.1%}")
    assert edf_admit["hit_rate"] >= 0.95, (
        f"EDF + admission should hold admitted hit-rate >= 95%, "
        f"measured {edf_admit['hit_rate']:.1%}")
    assert edf_admit["rejected"] > 0, \
        "admission control should reject work under overload"
    # The WCET bound is conservative but must not be vacuous: modelled
    # actuals stay within two orders of magnitude of the bound.
    timing = payload["timing"]
    assert timing["wcet_over_actual"] < 100, (
        f"WCET bound is vacuous: {timing['wcet_over_actual']:.1f}x the "
        "modelled actual")
