"""Planner optimality, determinism, caching and deadline tests.

The headline risk of an auto-planner is *silently wrong decisions*, so
this suite pins down the decision procedure itself: the chosen config
is the argmin of the full candidate table (brute-force re-scan), the
decision is identical across processes (no dict-order or hash-seed
dependence), cached decisions cannot survive a platform or device-count
change, and deadline-constrained selection never returns a candidate
whose WCET bound exceeds the deadline - raising the typed
:class:`~repro.errors.PlanningError` when none fits.
"""

import dataclasses
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.analysis.planner import (
    CandidateConfig,
    PlanDecision,
    build_launchables,
    plan_pipeline,
)
from repro.errors import BrookError, PlanningError
from repro.runtime import BrookRuntime
from repro.service import BrookService
from repro.service.bench import build_adas_request, make_frames

SRC = """
kernel void scale(float x<>, float k, out float y<>) { y = x * k; }
kernel void offset(float x<>, float d, out float y<>) { y = x + d; }
reduce void total(float v<>, reduce float acc) { acc += v; }
"""


def make_plans(rt, size=16):
    module = rt.compile(SRC)
    x = rt.stream((size, size), name="x")
    tmp = rt.stream((size, size), name="tmp")
    out = rt.stream((size, size), name="out")
    x.write(np.arange(size * size, dtype=np.float32).reshape(size, size))
    return [module.scale.bind(x, 2.0, tmp),
            module.offset.bind(tmp, 1.0, out)], (x, tmp, out)


# --------------------------------------------------------------------------- #
# Optimality: the chosen config is the argmin of the candidate table
# --------------------------------------------------------------------------- #
class TestArgminSoundness:
    def test_chosen_matches_brute_force_scan(self):
        with BrookRuntime(backend="cpu") as rt:
            plans, _ = make_plans(rt)
            decision = rt.autoplan(plans)
        selectable = [c for c in decision.candidates if c.selectable]
        assert selectable, "candidate table has no selectable rows"
        best = min(c.modelled_s for c in selectable)
        assert decision.chosen.modelled_s == best
        assert decision.chosen.selectable

    def test_chosen_never_worse_than_baseline(self):
        with BrookRuntime(backend="cpu") as rt:
            plans, _ = make_plans(rt)
            decision = rt.autoplan(plans)
        assert decision.chosen.modelled_s <= decision.baseline.modelled_s
        assert decision.speedup >= 1.0

    def test_candidate_space_covers_every_knob(self):
        with BrookRuntime(backend="cpu") as rt:
            plans, _ = make_plans(rt)
            decision = rt.autoplan(plans)
        configs = {c.config.key() for c in decision.candidates}
        # 2 fuse subsets x (1 device count with 1 axis + 2 with 2 axes)
        # = 2 * (1 + 2 + 2) rows, all distinct.
        assert len(configs) == len(decision.candidates) == 10
        assert {c.config.devices for c in decision.candidates} == {1, 2, 4}
        assert {c.config.axis for c in decision.candidates} == {"rows", "cols"}
        assert {c.config.fused_groups
                for c in decision.candidates} == {(), ((0, 1),)}

    def test_fusion_prices_below_unfused(self):
        with BrookRuntime(backend="cpu") as rt:
            plans, _ = make_plans(rt)
            decision = rt.autoplan(plans)
        by_key = {c.config.key(): c for c in decision.candidates}
        fused = by_key[(1, "rows", ((0, 1),))]
        unfused = by_key[(1, "rows", ())]
        assert fused.modelled_s < unfused.modelled_s

    def test_reduction_tail_stays_unfused_with_reason(self):
        with BrookRuntime(backend="cpu") as rt:
            module = rt.compile(SRC)
            x = rt.stream((8, 8))
            y = rt.stream((8, 8))
            x.write(np.ones((8, 8), dtype=np.float32))
            plans = [module.scale.bind(x, 2.0, y), module.total.bind(y)]
            decision = rt.autoplan(plans)
        assert decision.chosen.config.fused_groups == ()
        assert any("reduction" in boundary
                   for boundary in decision.fusion_boundaries)

    def test_infeasible_axis_is_annotated_not_hidden(self):
        with BrookRuntime(backend="cpu") as rt:
            plans, _ = make_plans(rt)
            decision = rt.autoplan(plans)
        col_rows = [c for c in decision.candidates if c.config.axis == "cols"]
        assert col_rows
        for candidate in col_rows:
            assert not candidate.feasible
            assert "rows bands" in candidate.reason

    def test_empty_pipeline_rejected(self):
        with BrookRuntime(backend="cpu") as rt:
            with pytest.raises(PlanningError):
                plan_pipeline(rt, [])


# --------------------------------------------------------------------------- #
# Determinism: same signature + platform -> same decision, any process
# --------------------------------------------------------------------------- #
DETERMINISM_SCRIPT = textwrap.dedent("""
    import json
    import numpy as np
    from repro.runtime import BrookRuntime

    SRC = '''
    kernel void scale(float x<>, float k, out float y<>) { y = x * k; }
    kernel void offset(float x<>, float d, out float y<>) { y = x + d; }
    '''

    with BrookRuntime(backend="cpu") as rt:
        module = rt.compile(SRC)
        x = rt.stream((16, 16))
        tmp = rt.stream((16, 16))
        out = rt.stream((16, 16))
        x.write(np.zeros((16, 16), dtype=np.float32))
        plans = [module.scale.bind(x, 2.0, tmp),
                 module.offset.bind(tmp, 1.0, out)]
        decision = rt.autoplan(plans)
    print(json.dumps(decision.to_payload(), sort_keys=True))
""")


class TestDeterminism:
    def test_same_decision_across_processes(self, tmp_path):
        script = tmp_path / "decide.py"
        script.write_text(DETERMINISM_SCRIPT)
        payloads = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = "src" + os.pathsep \
                + env.get("PYTHONPATH", "")
            result = subprocess.run(
                [sys.executable, str(script)], env=env, cwd=os.getcwd(),
                capture_output=True, text=True, check=True)
            payloads.append(result.stdout.strip())
        assert payloads[0] == payloads[1]
        decoded = json.loads(payloads[0])
        assert decoded["chosen"]["fused_groups"] == [[0, 1]]

    def test_same_decision_within_process(self):
        with BrookRuntime(backend="cpu") as rt:
            plans, _ = make_plans(rt)
            first = rt.autoplan(plans)
            second = rt.autoplan(plans)
        assert first.to_payload() == second.to_payload()
        assert first.chosen.config == second.chosen.config


# --------------------------------------------------------------------------- #
# Decision caching: platform / device-count changes invalidate
# --------------------------------------------------------------------------- #
class TestDecisionCache:
    def test_decision_cached_per_signature(self):
        frames = make_frames(16, 2, seed=5)
        with BrookService(backend="cpu", pool_size=1, plan="auto") as service:
            service.process(build_adas_request(16, frames[0], name="f0"))
            service.process(build_adas_request(16, frames[1], name="f1"))
            report = service.service_report()
        cache = report["autoplan"]["decision_cache"]
        assert cache == {"entries": 1, "hits": 1, "misses": 1}
        decision = report["autoplan"]["decisions"][0]
        assert decision["chosen_modelled_ms"] \
            <= decision["baseline_modelled_ms"]
        assert decision["modelled_speedup"] >= 1.0

    def test_device_count_change_invalidates_decision(self):
        # The cache key carries (platform, devices): a service built for
        # a different device count derives a fresh decision whose chosen
        # config matches *its* runtime, never the other service's.
        frames = make_frames(16, 1, seed=5)
        chosen_devices = {}
        for devices in (1, 2):
            with BrookService(backend="cpu", pool_size=1, devices=devices,
                              plan="auto") as service:
                service.process(build_adas_request(16, frames[0], name="f"))
                report = service.service_report()
            row = report["autoplan"]["decisions"][0]
            assert report["autoplan"]["decision_cache"]["misses"] == 1
            chosen_devices[devices] = row["chosen"]
        assert "devices=1" in chosen_devices[1]
        assert "devices=2" in chosen_devices[2]

    def test_platform_change_reprices_decision(self):
        frames = make_frames(16, 1, seed=5)
        modelled = {}
        for platform in ("arm-videocore-iv", "x86-core2-hd3400"):
            with BrookService(backend="cpu", pool_size=1, plan="auto",
                              platform=platform) as service:
                service.process(build_adas_request(16, frames[0], name="f"))
                report = service.service_report()
            assert report["autoplan"]["platform"] == platform
            assert report["autoplan"]["decision_cache"]["misses"] == 1
            modelled[platform] = \
                report["autoplan"]["decisions"][0]["chosen_modelled_ms"]
        # The two fleet profiles genuinely price differently.
        assert modelled["arm-videocore-iv"] != modelled["x86-core2-hd3400"]

    def test_auto_mode_does_not_enable_deadline_tracking(self):
        with BrookService(backend="cpu", pool_size=1, plan="auto") as service:
            assert service.platform == "target"
            assert not service._track_deadlines
            report_keys = set(service.service_report())
        assert "autoplan" in report_keys
        assert "deadline" not in report_keys

    def test_unknown_plan_mode_rejected(self):
        from repro.errors import RuntimeBrookError
        with pytest.raises(RuntimeBrookError, match="plan mode"):
            BrookService(backend="cpu", plan="aggressive")


# --------------------------------------------------------------------------- #
# Deadline-constrained selection
# --------------------------------------------------------------------------- #
class TestDeadlineSelection:
    def _decision(self, rt) -> PlanDecision:
        plans, _ = make_plans(rt)
        return rt.autoplan(plans)

    def test_selected_candidate_always_fits_budget(self):
        with BrookRuntime(backend="cpu") as rt:
            decision = self._decision(rt)
        budgets = sorted({c.wcet_s for c in decision.candidates
                          if c.selectable})
        for budget in budgets:
            chosen = decision.choose(budget)
            assert chosen.wcet_s <= budget

    def test_impossible_budget_raises_typed_error(self):
        with BrookRuntime(backend="cpu") as rt:
            decision = self._decision(rt)
        with pytest.raises(PlanningError, match="deadline budget"):
            decision.choose(1e-12)
        assert issubclass(PlanningError, BrookError)

    def test_no_budget_returns_unconstrained_argmin(self):
        with BrookRuntime(backend="cpu") as rt:
            decision = self._decision(rt)
        assert decision.choose(None) == decision.chosen

    def test_service_rejects_unmeetable_deadline_request(self):
        frames = make_frames(16, 1, seed=7)
        request = build_adas_request(16, frames[0], name="doomed")
        doomed = dataclasses.replace(request, deadline=1e-9)
        with BrookService(backend="cpu", pool_size=1, plan="auto") as service:
            future = service.submit(doomed)
            with pytest.raises(PlanningError):
                future.result()
            # The service stays healthy for later plannable requests.
            response = service.process(
                build_adas_request(16, frames[0], name="fine"))
        assert response.outputs

    def test_service_runs_meetable_deadline_request(self):
        frames = make_frames(16, 1, seed=7)
        request = build_adas_request(16, frames[0], name="relaxed")
        relaxed = dataclasses.replace(request, deadline=60.0)
        with BrookService(backend="cpu", pool_size=1, plan="auto") as service:
            response = service.process(relaxed)
            baseline = service.process(
                build_adas_request(16, frames[0], name="plain"))
        for name in response.outputs:
            assert np.array_equal(response.outputs[name].view(np.uint32),
                                  baseline.outputs[name].view(np.uint32))


# --------------------------------------------------------------------------- #
# Materialisation: build_launchables reproduces the plans' results
# --------------------------------------------------------------------------- #
class TestBuildLaunchables:
    def test_fused_config_builds_single_pipeline(self):
        with BrookRuntime(backend="cpu") as rt:
            plans, (_, _, out) = make_plans(rt, size=8)
            config = CandidateConfig(devices=1, axis="rows",
                                     fused_groups=((0, 1),))
            launchables = build_launchables(rt, plans, config)
            assert len(launchables) == 1
            launchables[-1].launch()
            expected = np.arange(64, dtype=np.float32).reshape(8, 8) * 2 + 1
            assert np.array_equal(out.read(), expected)

    def test_unfused_config_keeps_plans(self):
        with BrookRuntime(backend="cpu") as rt:
            plans, (_, _, out) = make_plans(rt, size=8)
            config = CandidateConfig(devices=1, axis="rows",
                                     fused_groups=())
            launchables = build_launchables(rt, plans, config)
            assert launchables == plans
