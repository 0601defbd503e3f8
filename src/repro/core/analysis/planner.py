"""Cost-model-driven auto-planner: pick the execution config by pricing it.

Fusion, tiling and multi-device sharding each expose a knob the caller
has had to pick by hand per platform.  This module turns those manual
knobs into one self-driving decision: enumerate the candidate execution
configurations of a prepared pipeline, price every candidate with the
same analytic :class:`~repro.timing.gpu_model.GPUModel` that prices
recorded work and WCET bounds, and return the argmin as a
:class:`PlanDecision`.

The candidate space per pipeline signature:

* **fusion** - each *legal* fuse group (discovered by dry-running the
  greedy fusion pass; boundaries between groups are annotated with the
  :func:`~repro.core.transforms.fuse.check_fusable` reason) toggles on
  or off;
* **devices** - the device-group sizes to consider (default 1/2/4),
  with the row/column shard axis; the non-natural axis for the
  pipeline's layout is enumerated but marked infeasible, since
  :class:`~repro.core.analysis.sharding.ShardPlan` cuts multi-row
  layouts into row bands only (the table shows *why* the knob is not
  available rather than hiding it);
* **tile geometry** - not a free knob: the tile decomposition is a pure
  function of (shape, device limits), so each candidate is priced with
  the tile count its launches would actually use
  (:meth:`GPUModel.tiling_overhead` per switch).

Each candidate additionally carries ``host_eval_s``: the predicted host
functional-simulation cost of its launches, priced per element by the
execution path each kernel actually takes (brookvec whole-array vector
path / masked interpreter).  Modelled GPU
time stays the primary objective; ``host_eval_s`` breaks its ties, so
``plan="auto"`` never fuses away the vector path for zero modelled
gain - a merged kernel only loses BV-300/BV-301 status when the fusion
actually pays on the target model.

Pricing composes the same bounded counters the WCET derivation uses
(:mod:`repro.core.analysis.wcet`) with host-transfer terms (pipeline
inputs uploaded once, live-out outputs read back once) and the sharding
halo/replication traffic predicted from the per-kernel access
classification (:func:`~repro.core.analysis.sharding.classify_kernel`),
then prices through ``GPUModel.time_seconds`` /
``sharded_time_seconds`` and subtracts ``fusion_savings`` for the fused
groups of the candidate (on several devices, the launches a group folds
away also stop paying their shard dispatch hand-offs).  Because the
un-fused configuration is always in the candidate set, the chosen
config's modelled time is never worse than the unplanned baseline.

Every candidate also carries ``wcet_s``, the WCET bound of its own
launch list: each fused group is one pass of its merged kernel, bounded
by :func:`~repro.core.analysis.wcet.analyze_kernel_wcet` of the merged
definition (or by its members' un-fused pieces when the merged kernel
has no bound of its own), every other plan keeps its per-piece bound.
:func:`plan_service_request` takes that bound from ``request_wcet`` of
the candidate's launch list, with the request's exact transfers.

Deadline interaction: when a request carries a deadline,
:meth:`PlanDecision.choose` first drops every candidate whose WCET
bound exceeds the deadline budget and takes the argmin of the survivors
- a plan is only ever picked if it *provably* fits.  When nothing fits,
a typed :class:`~repro.errors.PlanningError` is raised instead of
returning a hopeful guess.  A deadline-aware service admits a request
against the bound of the candidate it picks, so admission, deadline
filtering and execution agree on one configuration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ...errors import PlanningError, WCETError
from ..transforms.fuse import check_fusable
from .resources import TargetLimits
from .sharding import ArgumentClass, classify_kernel
from .wcet import (KernelWCET, _WorkBound, _add_map_launch,
                   _add_reduction_launch, _tile_count, analyze_kernel_wcet,
                   kernel_wcet)

__all__ = [
    "DEFAULT_DEVICE_COUNTS",
    "CandidateConfig",
    "PlanCandidate",
    "PlanDecision",
    "plan_pipeline",
    "plan_service_request",
    "build_launchables",
]

#: Device-group sizes enumerated by default (the fleet profile of the
#: sharding benchmark).
DEFAULT_DEVICE_COUNTS = (1, 2, 4)

#: With at most this many legal fuse groups every subset is enumerated;
#: beyond it only all-on / all-off (the subset count is exponential and
#: the per-group pricing is monotone anyway).
_MAX_FREE_GROUPS = 3

#: Calibrated host-side functional-simulation throughput (seconds per
#: element) of the two per-launch execution paths.  ``modelled_ms``
#: prices *target GPU* time; this second axis prices what the simulator
#: itself pays per launch, so candidates with equal modelled time
#: tie-break toward the configuration that keeps the brookvec
#: whole-array vector path alive (a fusion subset whose merged kernels
#: all stay BV-300/BV-301 beats one that forces a merged kernel back
#: onto the masked interpreter).
_HOST_EVAL_S_PER_ELEMENT = {
    "vector": 15e-9,
    "interpreter": 300e-9,
}


def _host_path(piece) -> str:
    """Which host execution path a compiled kernel piece takes."""
    if getattr(piece, "vector_path", None) is not None:
        return "vector"
    return "interpreter"


def _host_eval_seconds(infos, fused_groups) -> float:
    """Predicted host functional-simulation seconds of one candidate.

    Fusion keeps the vector path only when *every* member kernel has it
    (mirroring the runtime's fuse gating); a mixed group drops the
    merged kernel to the masked interpreter, and that real cost is what
    this term charges.
    """
    grouped: Dict[int, Tuple[int, ...]] = {}
    for group in fused_groups:
        for index in group:
            grouped[index] = group
    total = 0.0
    priced = set()
    for info in infos:
        group = grouped.get(info.index)
        if group is None:
            for path in info.piece_paths:
                total += (_HOST_EVAL_S_PER_ELEMENT[path]
                          * info.domain.element_count)
            continue
        if group in priced:
            continue
        priced.add(group)
        fused_path = "vector" if all(
            path == "vector" for index in group
            for path in infos[index].piece_paths) else "interpreter"
        for index in group:
            total += (_HOST_EVAL_S_PER_ELEMENT[fused_path]
                      * infos[index].domain.element_count)
    return total


# --------------------------------------------------------------------------- #
# Candidate / decision data model
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CandidateConfig:
    """One executable configuration of a pipeline."""

    #: Device-group size the pipeline shards across.
    devices: int
    #: Shard axis of the pipeline's layout ("rows" or "cols").
    axis: str
    #: Fuse groups toggled *on*, as tuples of contiguous plan indices.
    fused_groups: Tuple[Tuple[int, ...], ...]

    def key(self) -> Tuple:
        """Hashable identity (stable across processes)."""
        return (self.devices, self.axis, self.fused_groups)

    def describe(self) -> str:
        fused = ",".join(f"{g[0]}-{g[-1]}" for g in self.fused_groups) or "-"
        return f"devices={self.devices} axis={self.axis} fused=[{fused}]"


@dataclass(frozen=True)
class PlanCandidate:
    """One priced candidate row of a :class:`PlanDecision`."""

    config: CandidateConfig
    #: Modelled seconds of the configuration (fusion savings applied).
    modelled_s: float
    #: WCET bound in modelled seconds of this candidate's own launch
    #: list (one merged pass per fused group); deadline filtering
    #: compares it against the request's budget.
    wcet_s: float
    #: Whether the configuration can be built at all (the non-natural
    #: shard axis, for example, cannot).
    feasible: bool
    #: Whether the runtime this decision was made for can execute it
    #: (its device count matches the candidate's).
    executable: bool
    #: Why the candidate is not feasible/executable (``None`` when it is).
    reason: Optional[str] = None
    #: Predicted host functional-simulation seconds (vector /
    #: interpreter per-launch paths); the modelled-time tie-breaker.
    host_eval_s: float = 0.0

    @property
    def selectable(self) -> bool:
        return self.feasible and self.executable

    def to_payload(self) -> Dict[str, object]:
        return {
            "devices": self.config.devices,
            "axis": self.config.axis,
            "fused_groups": [list(group) for group in
                             self.config.fused_groups],
            "modelled_ms": self.modelled_s * 1e3,
            "wcet_ms": self.wcet_s * 1e3,
            "host_eval_ms": self.host_eval_s * 1e3,
            "feasible": self.feasible,
            "executable": self.executable,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class PlanDecision:
    """The planner's verdict for one pipeline signature.

    ``candidates`` is the full priced table in enumeration order (most
    fused first, then devices ascending, natural axis first); ``chosen``
    is the argmin over the selectable rows with first-wins tie-breaking,
    so the same signature on the same platform always yields the same
    decision regardless of dict iteration order.
    """

    label: str
    platform: str
    #: Device count of the runtime the decision was made for (``None``
    #: when the decision is fleet-advisory only).
    executable_devices: Optional[int]
    #: The axis :class:`ShardPlan` actually cuts this layout along.
    natural_axis: str
    baseline: PlanCandidate
    chosen: PlanCandidate
    candidates: Tuple[PlanCandidate, ...]
    #: Why each un-fused adjacent pair stays separate ("i->j: reason").
    fusion_boundaries: Tuple[str, ...]

    # ------------------------------------------------------------------ #
    @property
    def speedup(self) -> float:
        """Modelled baseline-over-chosen ratio (>= 1 by construction)."""
        if self.chosen.modelled_s <= 0.0:
            return 1.0
        return self.baseline.modelled_s / self.chosen.modelled_s

    def choose(self, deadline_s: Optional[float] = None) -> PlanCandidate:
        """The best selectable candidate, optionally deadline-filtered.

        With a ``deadline_s`` budget every candidate whose WCET bound
        exceeds it is excluded *before* the argmin; raises
        :class:`~repro.errors.PlanningError` when no candidate fits.
        """
        best: Optional[PlanCandidate] = None
        for candidate in self.candidates:
            if not candidate.selectable:
                continue
            if deadline_s is not None and candidate.wcet_s > deadline_s:
                continue
            if best is None \
                    or candidate.modelled_s < best.modelled_s \
                    or (candidate.modelled_s == best.modelled_s
                        and candidate.host_eval_s < best.host_eval_s):
                best = candidate
        if best is not None:
            return best
        if deadline_s is not None:
            bounds = [c.wcet_s for c in self.candidates if c.selectable]
            tightest = (f"{min(bounds) * 1e3:.3f} ms" if bounds
                        else "unbounded")
            raise PlanningError(
                f"no candidate plan for {self.label!r} fits the deadline "
                f"budget {deadline_s * 1e3:.3f} ms (tightest WCET bound: "
                f"{tightest})")
        raise PlanningError(
            f"no feasible executable candidate plan for {self.label!r}")

    # ------------------------------------------------------------------ #
    def to_payload(self) -> Dict[str, object]:
        """Deterministic JSON-ready form of the decision."""
        return {
            "label": self.label,
            "platform": self.platform,
            "executable_devices": self.executable_devices,
            "natural_axis": self.natural_axis,
            "baseline": self.baseline.to_payload(),
            "chosen": self.chosen.to_payload(),
            "speedup": self.speedup,
            "candidates": [c.to_payload() for c in self.candidates],
            "fusion_boundaries": list(self.fusion_boundaries),
        }

    def render_table(self) -> str:
        """The per-candidate table, human-oriented."""
        lines = [
            f"auto-plan for {self.label!r} on platform {self.platform!r}"
            + (f" (runtime opens {self.executable_devices} device(s))"
               if self.executable_devices is not None else ""),
            f"  natural shard axis: {self.natural_axis}",
        ]
        header = (f"  {'':2}{'devices':>7} {'axis':>5} {'fused':>12} "
                  f"{'modelled_ms':>12} {'wcet_ms':>10}  status")
        lines.append(header)
        for candidate in self.candidates:
            config = candidate.config
            fused = ",".join(f"{g[0]}-{g[-1]}"
                             for g in config.fused_groups) or "-"
            if candidate.selectable:
                status = "ok"
            else:
                status = candidate.reason or "unavailable"
            mark = "* " if candidate is self.chosen else "  "
            lines.append(
                f"  {mark}{config.devices:>7} {config.axis:>5} {fused:>12} "
                f"{candidate.modelled_s * 1e3:>12.4f} "
                f"{candidate.wcet_s * 1e3:>10.4f}  {status}")
        for boundary in self.fusion_boundaries:
            lines.append(f"  boundary {boundary}")
        lines.append(
            f"  baseline {self.baseline.modelled_s * 1e3:.4f} ms -> chosen "
            f"{self.chosen.modelled_s * 1e3:.4f} ms "
            f"({self.speedup:.2f}x modelled)")
        lines.append(
            f"  host functional simulation: baseline "
            f"{self.baseline.host_eval_s * 1e3:.4f} ms -> chosen "
            f"{self.chosen.host_eval_s * 1e3:.4f} ms "
            f"(vector/interpreter path pricing)")
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Pipeline introspection
# --------------------------------------------------------------------------- #
class _PlanInfo:
    """Static pricing view of one prepared :class:`LaunchPlan`."""

    __slots__ = ("index", "label", "is_reduction", "domain", "pieces",
                 "gathers", "definition", "in_streams", "gather_streams",
                 "out_streams", "piece_paths")

    def reads(self):
        yield from self.in_streams.values()
        yield from self.gather_streams.values()


def _plan_infos(plans: Sequence[object]) -> List["_PlanInfo"]:
    from ...runtime.launch import LaunchPlan
    infos: List[_PlanInfo] = []
    for index, plan in enumerate(plans):
        if not isinstance(plan, LaunchPlan) or plan.handle is None:
            raise PlanningError(
                f"the auto-planner expects prepared LaunchPlans (from "
                f"kernel.bind(...)), got {type(plan).__name__}")
        program = plan.handle.program
        info = _PlanInfo()
        info.index = index
        info.label = plan.kernel_name
        info.is_reduction = plan.is_reduction
        info.gathers = []
        info.in_streams, info.gather_streams, info.out_streams = {}, {}, {}
        if plan.is_reduction:
            info.domain = plan.reduce_input.shape
            info.pieces = [kernel_wcet(program, plan.kernel.name)]
            info.definition = None
            info.piece_paths = [_host_path(plan.kernel)]
            stream_param = plan.handle.original.stream_params[0]
            info.in_streams[stream_param.name] = plan.reduce_input
        else:
            info.domain = plan.domain
            info.pieces = []
            # A split kernel's passes together read and write the
            # streams of the source kernel.
            for launch_pass in plan.passes:
                kernel = launch_pass.kernel
                info.pieces.append(kernel_wcet(program, kernel.name))
                spec = classify_kernel(kernel.definition)
                for name, stream in launch_pass.gather_args.items():
                    info.gathers.append((spec.argument(name), stream.shape,
                                         launch_pass.scalar_args))
                info.in_streams.update(launch_pass.stream_args)
                info.gather_streams.update(launch_pass.gather_args)
                info.out_streams.update(launch_pass.out_args)
            info.definition = (plan.kernel.definition
                               if len(plan.passes) == 1 else None)
            info.piece_paths = [_host_path(launch_pass.kernel)
                                for launch_pass in plan.passes]
        infos.append(info)
    return infos


def _transfer_streams(infos: Sequence[_PlanInfo]):
    """(uploads, downloads): pipeline live-in and live-out streams.

    A stream read before any plan writes it must come from the host; a
    stream written and never read by a later plan carries a result the
    host will read back.  Matches what a service request transfers: its
    inputs up once, its outputs down once, scratch intermediates never.
    """
    uploads: List[object] = []
    upload_ids = set()
    written = set()
    for info in infos:
        for stream in info.reads():
            sid = id(stream)
            if sid not in written and sid not in upload_ids:
                upload_ids.add(sid)
                uploads.append(stream)
        for stream in info.out_streams.values():
            written.add(id(stream))
    downloads: List[object] = []
    seen = set()
    for info in infos:
        for stream in info.out_streams.values():
            sid = id(stream)
            if sid in seen:
                continue
            seen.add(sid)
            read_later = any(
                any(s is stream for s in later.reads())
                for later in infos[info.index + 1:])
            if not read_later:
                downloads.append(stream)
    return uploads, downloads


def _legal_fuse_groups(runtime, plans
                       ) -> Dict[Tuple[int, ...], Optional[KernelWCET]]:
    """Dry-run the greedy fusion pass; groups are its merged segments.

    Maps each group to the work bound of its merged kernel, or ``None``
    when the merged kernel cannot be bounded on its own (a member loop
    bounded only through declared parameter bounds or range specs, which
    the merged kernel does not carry); such a group is bounded by its
    members' un-fused pieces instead.
    """
    from ...runtime.launch import build_fused_pipeline
    pipeline = build_fused_pipeline(runtime, list(plans))
    groups: Dict[Tuple[int, ...], Optional[KernelWCET]] = {}
    for plan, indices in pipeline.segments:
        if len(indices) < 2:
            continue
        try:
            bound = analyze_kernel_wcet(plan.kernel.definition, plan.helpers)
        except WCETError:
            bound = None
        groups[tuple(indices)] = bound
    return groups


def _boundary_reason(prev: _PlanInfo, nxt: _PlanInfo) -> str:
    """Best-effort diagnosis of why two adjacent plans stay separate."""
    if prev.is_reduction:
        return f"{prev.label!r} is a reduction (no fusable output stream)"
    if nxt.is_reduction:
        return f"{nxt.label!r} is a reduction kernel"
    if prev.definition is None or nxt.definition is None:
        return "compiler-split kernels cannot fuse"
    connections: Dict[str, str] = {}
    for in_name, stream in nxt.in_streams.items():
        for out_name, out_stream in prev.out_streams.items():
            if stream is out_stream:
                connections[in_name] = out_name
    if not connections:
        # A gathered intermediate is still a connection for diagnostic
        # purposes - check_fusable names the gather as the blocker.
        for in_name, stream in nxt.gather_streams.items():
            for out_name, out_stream in prev.out_streams.items():
                if stream is out_stream:
                    connections[in_name] = out_name
    if not connections:
        return "no producer output stream feeds the consumer"
    reason = check_fusable(prev.definition, nxt.definition, connections)
    if reason:
        return reason
    if prev.domain.dims != nxt.domain.dims:
        return (f"launch domains differ "
                f"({prev.domain.dims} vs {nxt.domain.dims})")
    return ("intermediate still live downstream or the merged kernel "
            "exceeds the device limits")


# --------------------------------------------------------------------------- #
# Candidate enumeration and pricing
# --------------------------------------------------------------------------- #
def _fuse_subsets(groups: Tuple[Tuple[int, ...], ...]):
    """Deterministic most-fused-first subsets of the legal fuse groups."""
    n = len(groups)
    if n == 0:
        return [()]
    if n > _MAX_FREE_GROUPS:
        return [tuple(groups), ()]
    subsets = []
    for size in range(n, -1, -1):
        for combo in itertools.combinations(range(n), size):
            subsets.append(tuple(groups[i] for i in combo))
    return subsets


def _natural_axis(layout: Tuple[int, int]) -> str:
    return "rows" if layout[0] > 1 else "cols"


def _effective_shards(layout: Tuple[int, int], devices: int) -> int:
    """Shards a :class:`ShardPlan` would actually cut for this layout."""
    if devices <= 1:
        return 1
    extent = layout[0] if layout[0] > 1 else layout[1]
    return max(1, min(devices, extent))


def _gather_exchange_bytes(arg_class: Optional[ArgumentClass], shape,
                           scalar_args: Dict[str, float],
                           devices: int) -> int:
    """Predicted inter-device traffic of one gather argument.

    Mirrors the execution engine's accounting
    (:mod:`repro.runtime.sharding`): a provable stencil with guards
    covering the far edge exchanges its halo bands (``2*bound`` lines
    per interior boundary); anything else replicates the whole array to
    every non-owning shard.
    """
    layout = shape.layout_2d
    axis = _natural_axis(layout)
    extent = layout[0] if axis == "rows" else layout[1]
    line_bytes = (layout[1] if axis == "rows" else layout[0]) * 4
    shards = max(1, min(devices, extent))
    if shards <= 1:
        return 0
    if arg_class is not None and arg_class.mode == "halo":
        access = arg_class.axis_access(axis)
        if access is not None:
            guards_hold = all(
                (value := guard.value(scalar_args)) is not None
                and value >= extent - 1 - access.bound
                for guard in access.guards)
            if guards_hold:
                return 2 * access.bound * (shards - 1) * line_bytes
    return (shards - 1) * shape.element_count * 4


def _bounded_work(infos, uploads, downloads, limits: Optional[TargetLimits],
                  devices: int, fused) -> _WorkBound:
    """Bounded counters of one launch list at one device count.

    The WCET-style composition plus transfers and predicted halo
    traffic.  ``fused`` maps groups of plan indices to their merged
    kernel's work bound: each such group runs as one pass of the merged
    kernel, every other plan as its own pieces.
    """
    merged_at = {group[0]: kw for group, kw in fused.items()}
    folded = {index for group in fused for index in group[1:]}
    work = _WorkBound()
    for info in infos:
        tiles = _tile_count(info.domain, limits)
        shards = _effective_shards(info.domain.layout_2d, devices)
        if info.is_reduction:
            _add_reduction_launch(work, info.pieces[0],
                                  info.domain.element_count,
                                  max(info.domain.dims), tiles, shards)
            continue
        if info.index in merged_at:
            _add_map_launch(work, merged_at[info.index],
                            info.domain.element_count, tiles, shards)
        elif info.index not in folded:
            for kw in info.pieces:
                _add_map_launch(work, kw, info.domain.element_count,
                                tiles, shards)
        if devices > 1:
            for arg_class, shape, scalar_args in info.gathers:
                work.halo_bytes += _gather_exchange_bytes(
                    arg_class, shape, scalar_args, devices)
    for stream in uploads:
        work.bytes_up += stream.shape.element_count * 4
        work.transfer_calls += _tile_count(stream.shape, limits) * devices
    for stream in downloads:
        work.bytes_down += stream.shape.element_count * 4
        work.transfer_calls += _tile_count(stream.shape, limits) * devices
    return work


def _price_configuration(infos, uploads, downloads, model,
                         limits: Optional[TargetLimits], devices: int,
                         fused_groups, merged) -> Tuple[float, float]:
    """(bound_s, modelled_s) of one candidate at one device count.

    ``bound_s`` prices the bounded counters of the candidate's own
    launch list, in which each group of ``merged`` (the fused groups
    whose merged kernel has a bound) runs as one pass; see
    :func:`_bounded_work`.  ``modelled_s`` prices the candidate's launch
    list as the un-fused counters without the cross-device dispatch
    hand-offs of the launches its ``fused_groups`` fold away, minus the
    :meth:`GPUModel.fusion_savings` of those groups, floored at zero.
    """
    def price(work: _WorkBound) -> float:
        if devices > 1:
            return model.sharded_time_seconds(work.workload(), devices)
        return model.time_seconds(work.workload())

    work = _bounded_work(infos, uploads, downloads, limits, devices, {})
    unfused_s = price(work)
    if not fused_groups:
        return unfused_s, unfused_s
    bound_s = unfused_s
    if merged:
        bound_s = price(_bounded_work(infos, uploads, downloads, limits,
                                      devices, merged))

    passes_saved = 0
    intermediate_bytes = 0.0
    for group in fused_groups:
        domain = infos[group[0]].domain
        pairs = len(group) - 1
        passes_saved += pairs * _tile_count(domain, limits)
        # Each eliminated connection saves the intermediate's device
        # write and the consumer's read of it - per device, its band.
        intermediate_bytes += pairs * 2.0 * 4.0 \
            * (domain.element_count / max(1, devices))
        # A folded launch no longer hands its shards to the other devices.
        work.shard_dispatches -= pairs * (
            _effective_shards(domain.layout_2d, devices) - 1)
    saved_s = model.fusion_savings(passes_saved, intermediate_bytes)
    return bound_s, max(price(work) - saved_s, 0.0)


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #
def plan_pipeline(
    runtime,
    plans: Sequence[object],
    platform: str = "target",
    device_counts: Sequence[int] = DEFAULT_DEVICE_COUNTS,
    executable_devices: Optional[int] = None,
    limits: Optional[TargetLimits] = None,
    label: Optional[str] = None,
) -> PlanDecision:
    """Enumerate, price and argmin the candidate configs of a pipeline.

    Every candidate's ``wcet_s`` prices the bounded counters of its own
    launch list: one pass of the merged kernel per fused group, the
    un-fused pieces elsewhere, plus pipeline transfers and predicted
    halo traffic.

    Args:
        runtime: The :class:`~repro.runtime.runtime.BrookRuntime` the
            plans belong to (fusion legality is checked against its
            backend).
        plans: Prepared :class:`~repro.runtime.launch.LaunchPlan` list.
        platform: Timing platform name/alias pricing the candidates.
        device_counts: Device-group sizes to enumerate.
        executable_devices: The runtime's actual device count; only
            candidates matching it are selectable (the rest stay in the
            table as fleet advice).  ``None`` makes every enumerated
            count selectable.
        limits: Target limits bounding the tile decomposition (defaults
            to the runtime backend's).
        label: Decision label (defaults to the kernel chain).

    Raises:
        PlanningError: Empty/non-plan input.
        WCETError: A kernel in the pipeline cannot be statically priced
            (unbounded loop, certification violation) - the planner
            refuses to guess, exactly like the deadline machinery.
    """
    return _decide(runtime, plans, platform, device_counts,
                   executable_devices, limits, label, request_bound=None)


def _decide(runtime, plans, platform, device_counts, executable_devices,
            limits, label, request_bound) -> PlanDecision:
    """:func:`plan_pipeline`, optionally bounding candidates per request.

    ``request_bound(merged, devices)`` returns the WCET seconds of the
    candidate whose groups in ``merged`` (group -> merged-kernel work
    bound) each run as one pass; ``None`` uses the candidate's priced
    bounded counters.
    """
    from ...timing.platforms import get_platform
    if not plans:
        raise PlanningError("cannot auto-plan an empty pipeline")
    plat = get_platform(platform)
    model = plat.gpu
    if limits is None:
        limits = runtime.backend.target_limits()

    infos = _plan_infos(plans)
    uploads, downloads = _transfer_streams(infos)
    groups = _legal_fuse_groups(runtime, plans)
    boundaries = []
    for position in range(len(infos) - 1):
        same_group = any(position in group and position + 1 in group
                         for group in groups)
        if not same_group:
            boundaries.append(
                f"{position}->{position + 1}: "
                + _boundary_reason(infos[position], infos[position + 1]))

    counts = sorted({max(1, int(count)) for count in device_counts})
    if executable_devices is not None and executable_devices not in counts:
        counts = sorted(set(counts) | {int(executable_devices)})
    map_layouts = [info.domain.layout_2d for info in infos
                   if not info.is_reduction]
    layout = map_layouts[0] if map_layouts else infos[0].domain.layout_2d
    natural = _natural_axis(layout)
    other_axis = "cols" if natural == "rows" else "rows"

    candidates: List[PlanCandidate] = []
    for subset in _fuse_subsets(tuple(groups)):
        host_eval_s = _host_eval_seconds(infos, subset)
        # Groups whose merged kernel has no bound keep their members'.
        merged = {group: groups[group] for group in subset
                  if groups[group] is not None}
        for devices in counts:
            wcet_s, modelled_s = _price_configuration(
                infos, uploads, downloads, model, limits, devices, subset,
                merged)
            if request_bound is not None:
                wcet_s = request_bound(merged, devices)
            executable = (executable_devices is None
                          or devices == int(executable_devices))
            exec_reason = (None if executable else
                           f"runtime opens {executable_devices} device(s)")
            axes = (natural,) if devices == 1 else (natural, other_axis)
            for axis in axes:
                feasible = axis == natural
                reason = exec_reason
                if not feasible:
                    reason = (f"layout {layout} shards into {natural} bands; "
                              f"{axis} bands are not available")
                candidates.append(PlanCandidate(
                    config=CandidateConfig(
                        devices=devices, axis=axis, fused_groups=subset),
                    modelled_s=modelled_s,
                    wcet_s=wcet_s,
                    feasible=feasible,
                    executable=executable,
                    reason=reason,
                    host_eval_s=host_eval_s,
                ))

    base_devices = (int(executable_devices)
                    if executable_devices is not None else counts[0])
    baseline = next(
        c for c in candidates
        if not c.config.fused_groups and c.config.devices == base_devices
        and c.config.axis == natural)

    chosen: Optional[PlanCandidate] = None
    for candidate in candidates:
        if not candidate.selectable:
            continue
        if chosen is None \
                or candidate.modelled_s < chosen.modelled_s \
                or (candidate.modelled_s == chosen.modelled_s
                    and candidate.host_eval_s < chosen.host_eval_s):
            chosen = candidate
    if chosen is None:
        raise PlanningError(
            "no selectable candidate configuration "
            f"(device counts {counts}, runtime opens {executable_devices})")

    return PlanDecision(
        label=label or "+".join(info.label for info in infos),
        platform=plat.name,
        executable_devices=(int(executable_devices)
                            if executable_devices is not None else None),
        natural_axis=natural,
        baseline=baseline,
        chosen=chosen,
        candidates=tuple(candidates),
        fusion_boundaries=tuple(boundaries),
    )


def plan_service_request(
    request,
    program,
    runtime,
    plans: Sequence[object],
    platform: str = "target",
    device_counts: Sequence[int] = DEFAULT_DEVICE_COUNTS,
    executable_devices: Optional[int] = None,
    limits: Optional[TargetLimits] = None,
) -> PlanDecision:
    """:func:`plan_pipeline` with per-candidate ``request_wcet`` bounds.

    ``plans`` are the request's calls bound in order (see
    :func:`~repro.service.service.prepare_request`).  Each candidate's
    ``wcet_s`` is ``request_wcet`` of the launch list it executes - its
    fused groups as one merged pass each, with the request's exact
    transfers - so deadline-constrained selection, admission control and
    execution all agree on one configuration and its bound.
    """
    from . import wcet

    def request_bound(merged, devices: int) -> float:
        # Resolved through the module, so a wrapper installed on
        # ``wcet.request_wcet`` sees every call.
        return wcet.request_wcet(request, program, platform=platform,
                                 devices=devices, limits=limits,
                                 fused=merged).seconds

    label = "+".join(one_call.kernel for one_call in request.calls)
    return _decide(runtime, plans, platform, device_counts,
                   executable_devices, limits, label, request_bound)


def build_launchables(runtime, plans: Sequence[object],
                      config: CandidateConfig) -> List[object]:
    """Materialise a candidate config: fuse its groups, keep the rest.

    Returns the pipeline as an ordered list of launchables (fused
    pipelines for the config's groups, the original plans elsewhere);
    launching them in order is bit-identical to launching ``plans``
    serially, whatever the config - fusion never changes results, it
    only removes passes.
    """
    starts = {group[0]: group for group in config.fused_groups}
    launchables: List[object] = []
    index = 0
    while index < len(plans):
        group = starts.get(index)
        if group is not None \
                and tuple(group) == tuple(range(group[0], group[-1] + 1)):
            launchables.append(runtime.fuse([plans[i] for i in group]))
            index = group[-1] + 1
        else:
            launchables.append(plans[index])
            index += 1
    return launchables
