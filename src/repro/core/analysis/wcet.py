"""Worst-case execution time bounds from the certified subset.

The Brook Auto subset exists so that *static* guarantees can be made
about kernel execution: every loop has a deducible maximum trip count
(:mod:`repro.core.analysis.loop_bounds`), the call graph is acyclic, and
resource usage is bounded.  This module turns those guarantees into a
worst-case **work** bound per kernel - an upper bound on the floating
point operations and texture fetches any element can cost - and composes
it into a worst-case **time** bound per launch plan or service request
by pricing the bounded work through the same analytic
:class:`~repro.timing.gpu_model.GPUModel` that prices recorded work,
including the tiling and sharding overhead terms.

Composition follows the structure that executes: a fused launch is one
pass of its merged kernel, bounded by that kernel's own walk, and a
request's host transfers are counted exactly (one per stream write or
read the request makes), so a planner candidate's bound is the bound of
its own launch list rather than of the un-fused chain.

Soundness contract
------------------

``analyze_kernel_wcet`` over-approximates every dynamic cost accounting
the execution engines perform:

* the masked interpreter executes **both** branches of an ``if`` (and
  both arms of ``?:``), so the walker sums them;
* loop conditions are evaluated ``trips + 1`` times, loop bodies and
  updates ``trips`` times, with ``trips`` the loop bound the
  certification checker reads (:mod:`repro.core.analysis.ranges`
  records it; a kernel is bounded under its range spec, a helper
  standalone);
* helper calls are **inlined** with their full body cost (the static
  resource estimate's flat per-call charge would under-count helpers,
  which the interpreter executes at full cost);
* compound assignments charge the value expression twice, matching the
  interpreter and the vector program;
* declarations, plain assignments and constructors are charged one
  operation of slack each (the engines charge nothing for them).

Kernels containing ``while``/``do-while`` loops, ``for`` loops without a
deducible bound, recursion or unknown calls raise
:class:`~repro.errors.WCETError` - they are rejected, never bounded.
The program-level entry points additionally reject kernels whose
certification report carries violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

from ...errors import WCETError
from .. import ast_nodes as ast
from ..builtins import lookup_builtin
from .loop_bounds import LoopBound
from .ranges import ProgramRanges
from .resources import TargetLimits
from .tiling import folded_layout, tile_grid

__all__ = [
    "KernelWCET",
    "WCETBound",
    "analyze_kernel_wcet",
    "kernel_wcet",
    "program_wcet",
    "plan_wcet",
    "request_wcet",
    "platform_limits",
]


# --------------------------------------------------------------------------- #
# Per-kernel work bounds
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class KernelWCET:
    """Worst-case per-element work of one kernel (or kernel piece)."""

    kernel_name: str
    #: Upper bound on floating point operations per output element.
    flops_per_element: int
    #: Upper bound on gather fetches per output element.
    gather_fetches_per_element: int
    #: Input stream parameters; each costs one texture fetch per element
    #: on the GPU backends (one sampler read per fragment).
    stream_inputs: int
    #: Worst-case product of every loop bound (1 for loop-free kernels).
    max_loop_iterations: int
    is_reduction: bool = False

    @property
    def fetches_per_element(self) -> int:
        return self.gather_fetches_per_element + self.stream_inputs


class _CostWalker:
    """AST walker computing (flops, fetches) upper bounds per element."""

    def __init__(self, helpers: Dict[str, ast.FunctionDef],
                 ranges: ProgramRanges):
        self.helpers = helpers
        self.ranges = ranges
        #: The bound of every loop of the functions walked so far.
        self.bounds: Dict[int, LoopBound] = {}
        self._helper_cache: Dict[str, Tuple[int, int]] = {}
        self._inlining: List[str] = []

    def function(self, func: ast.FunctionDef) -> Tuple[int, int]:
        for bound in self.ranges.loop_bounds(func.name).loops:
            self.bounds[id(bound.loop)] = bound
        return self.statement(func.body)

    # -- statements ------------------------------------------------------ #
    def statement(self, stmt: ast.Statement) -> Tuple[int, int]:
        if isinstance(stmt, ast.Block):
            return _sum(self.statement(child) for child in stmt.statements)
        if isinstance(stmt, ast.DeclStatement):
            if stmt.init is None:
                return (0, 0)
            flops, fetches = self.expression(stmt.init)
            return (flops + 1, fetches)          # +1 slack for the store
        if isinstance(stmt, ast.ExprStatement):
            return self.expression(stmt.expr)
        if isinstance(stmt, ast.IfStatement):
            # The masked interpreter executes both branches.
            cost = self.expression(stmt.cond)
            cost = _add(cost, self.statement(stmt.then_branch))
            if stmt.else_branch is not None:
                cost = _add(cost, self.statement(stmt.else_branch))
            return _add(cost, (1, 0))
        if isinstance(stmt, ast.ForStatement):
            return self._for_cost(stmt)
        if isinstance(stmt, (ast.WhileStatement, ast.DoWhileStatement)):
            kind = "while" if isinstance(stmt, ast.WhileStatement) else "do-while"
            raise WCETError(
                f"{kind} loops have no statically deducible trip count; "
                "no WCET bound exists",
                reasons=[f"{kind} loop is unbounded"],
            )
        if isinstance(stmt, ast.ReturnStatement):
            if stmt.value is None:
                return (0, 0)
            return self.expression(stmt.value)
        if isinstance(stmt, (ast.BreakStatement, ast.ContinueStatement)):
            # Early exits only ever shorten loops; pricing the full trip
            # count already dominates them.
            return (0, 0)
        raise WCETError(
            f"cannot bound statement {type(stmt).__name__} statically")

    def _for_cost(self, stmt: ast.ForStatement) -> Tuple[int, int]:
        bound = self.bounds[id(stmt)]
        if not bound.is_bounded:
            raise WCETError(
                f"for loop has no deducible trip count: {bound.reason}",
                reasons=[bound.reason],
            )
        trips = bound.max_trip_count
        init_cost = (0, 0)
        if stmt.init is not None:
            init_cost = self.statement(stmt.init)
        cond_cost = self.expression(stmt.cond) if stmt.cond is not None else (0, 0)
        update_cost = self.expression(stmt.update) if stmt.update is not None \
            else (0, 0)
        body_cost = self.statement(stmt.body)
        # The condition is evaluated once more than the body runs.
        total = _add(init_cost, _scale(cond_cost, trips + 1))
        total = _add(total, _scale(_add(body_cost, update_cost), trips))
        return total

    # -- expressions ----------------------------------------------------- #
    def expression(self, expr: ast.Expression) -> Tuple[int, int]:
        if isinstance(expr, (ast.NumberLiteral, ast.BoolLiteral,
                             ast.Identifier, ast.IndexOfExpr)):
            return (0, 0)
        if isinstance(expr, ast.UnaryOp):
            return _add(self.expression(expr.operand), (1, 0))
        if isinstance(expr, ast.BinaryOp):
            cost = _add(self.expression(expr.left), self.expression(expr.right))
            return _add(cost, (1, 0))
        if isinstance(expr, ast.Conditional):
            # Both arms are evaluated (masked select).
            cost = self.expression(expr.cond)
            cost = _add(cost, self.expression(expr.then))
            cost = _add(cost, self.expression(expr.otherwise))
            return _add(cost, (1, 0))
        if isinstance(expr, ast.Assignment):
            value_cost = self.expression(expr.value)
            if expr.op == "=":
                return _add(value_cost, (1, 0))  # +1 slack for the store
            # Compound assignment re-evaluates the value expression (the
            # interpreter and the vector program both charge it twice) plus
            # the target read and the combining operation.
            target_cost = self.expression(expr.target)
            cost = _add(_scale(value_cost, 2), target_cost)
            return _add(cost, (2, 0))
        if isinstance(expr, ast.CallExpr):
            return self._call_cost(expr)
        if isinstance(expr, ast.ConstructorExpr):
            cost = _sum(self.expression(arg) for arg in expr.args)
            if expr.implicit:
                return cost
            return _add(cost, (1, 0))            # +1 slack for the pack
        if isinstance(expr, ast.IndexExpr):
            cost = _add(self.expression(expr.base), self.expression(expr.index))
            if not isinstance(expr.base, ast.IndexExpr):
                # One gather fetch per (possibly multi-dimensional) chain.
                cost = _add(cost, (0, 1))
            return cost
        if isinstance(expr, ast.MemberExpr):
            return self.expression(expr.base)
        raise WCETError(
            f"cannot bound expression {type(expr).__name__} statically")

    def _call_cost(self, expr: ast.CallExpr) -> Tuple[int, int]:
        args_cost = _sum(self.expression(arg) for arg in expr.args)
        builtin = lookup_builtin(expr.callee)
        if builtin is not None:
            return _add(args_cost, (builtin.flop_cost, 0))
        return _add(args_cost, self._helper_cost(expr.callee))

    def _helper_cost(self, name: str) -> Tuple[int, int]:
        if name in self._helper_cache:
            return self._helper_cache[name]
        helper = self.helpers.get(name)
        if helper is None:
            raise WCETError(f"call to unknown function {name!r}; no cost model")
        if name in self._inlining:
            raise WCETError(f"recursive helper {name!r} cannot be bounded")
        self._inlining.append(name)
        try:
            cost = self.function(helper)
        finally:
            self._inlining.pop()
        self._helper_cache[name] = cost
        return cost


def _add(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
    return (a[0] + b[0], a[1] + b[1])


def _scale(cost: Tuple[int, int], factor: int) -> Tuple[int, int]:
    return (cost[0] * factor, cost[1] * factor)


def _sum(costs: Iterable[Tuple[int, int]]) -> Tuple[int, int]:
    total = (0, 0)
    for cost in costs:
        total = _add(total, cost)
    return total


def analyze_kernel_wcet(
    kernel: ast.FunctionDef,
    helpers: Optional[Dict[str, ast.FunctionDef]] = None,
    range_spec: Optional[dict] = None,
) -> KernelWCET:
    """Derive the worst-case per-element work bound of one kernel.

    Args:
        kernel: The (transformed) kernel definition.
        helpers: Helper functions callable from the kernel; their bodies
            are inlined at full cost.
        range_spec: The kernel's range spec for the interval analysis
            (see :func:`repro.core.analysis.ranges.analyze_kernel_ranges`),
            which bounds its loops; a ``params`` entry declares the range
            of a scalar parameter a data-dependent loop counts to.

    Raises:
        WCETError: When the kernel contains an unbounded loop, recursion,
            an unknown call or a construct the walker cannot price.
    """
    helpers = dict(helpers or {})
    ranges = ProgramRanges({**helpers, kernel.name: kernel},
                           {kernel.name: range_spec})
    return _kernel_wcet(kernel, helpers, ranges)


def _kernel_wcet(kernel: ast.FunctionDef,
                 helpers: Dict[str, ast.FunctionDef],
                 ranges: ProgramRanges) -> KernelWCET:
    """:func:`analyze_kernel_wcet` with the loop bounds of ``ranges``."""
    walker = _CostWalker(helpers, ranges)
    flops, fetches = walker.function(kernel)
    # Loop-iteration product, for reporting; the per-element costs above
    # already fold the trip counts in.
    iterations = ranges.loop_bounds(kernel.name).max_total_iterations
    return KernelWCET(
        kernel_name=kernel.name,
        flops_per_element=flops,
        gather_fetches_per_element=fetches,
        stream_inputs=len(kernel.stream_params),
        max_loop_iterations=iterations or 1,
        is_reduction=kernel.is_reduction,
    )


# --------------------------------------------------------------------------- #
# Program-level entry points (certification-gated)
# --------------------------------------------------------------------------- #
def kernel_wcet(program, kernel_name: str) -> KernelWCET:
    """WCET work bound for one compiled kernel piece, certification-gated.

    ``program`` is a :class:`~repro.core.compiler.CompiledProgram`;
    ``kernel_name`` names one of its (transformed) kernels.  Raises
    :class:`~repro.errors.WCETError` when the kernel's certification
    report carries violations or its loops cannot be bounded.  The loop
    bounds are the ones the certification checker read.
    """
    compiled = program.kernel(kernel_name)
    cert = program.certification.kernels.get(kernel_name)
    if cert is not None and not cert.is_compliant:
        reasons = [f"{v.rule_id}: {v.message}" for v in cert.violations]
        raise WCETError(
            f"kernel {kernel_name!r} violates the Brook Auto subset; "
            "no WCET bound exists (" + "; ".join(reasons) + ")",
            reasons=reasons,
        )
    return _kernel_wcet(compiled.definition, program.helpers(),
                        program.certification.ranges)


def program_wcet(program) -> Dict[str, KernelWCET]:
    """Per-kernel WCET work bounds for every kernel of a compiled program.

    Raises on the first kernel without a bound; use :func:`kernel_wcet`
    per kernel to get individual diagnostics.
    """
    return {name: kernel_wcet(program, name) for name in program.kernels}


# --------------------------------------------------------------------------- #
# Workload composition: bounded GPU counters for plans and requests
# --------------------------------------------------------------------------- #
class _WorkBound:
    """Mutable accumulator of bounded :class:`GPUWorkload` counters."""

    __slots__ = ("passes", "elements", "flops", "fetches", "bytes_up",
                 "bytes_down", "transfer_calls", "tile_switches",
                 "shard_dispatches", "halo_bytes")

    def __init__(self) -> None:
        self.passes = 0
        self.elements = 0
        self.flops = 0
        self.fetches = 0
        self.bytes_up = 0
        self.bytes_down = 0
        self.transfer_calls = 0
        self.tile_switches = 0
        self.shard_dispatches = 0
        self.halo_bytes = 0

    def workload(self):
        from ...timing.gpu_model import GPUWorkload
        return GPUWorkload(
            passes=self.passes,
            elements=float(self.elements),
            flops=float(self.flops),
            texture_fetches=float(self.fetches),
            bytes_to_device=float(self.bytes_up),
            bytes_from_device=float(self.bytes_down),
            transfer_calls=self.transfer_calls,
            tile_switches=self.tile_switches,
            shard_dispatches=self.shard_dispatches,
            halo_bytes=float(self.halo_bytes),
        )


def platform_limits(platform) -> TargetLimits:
    """Conservative :class:`TargetLimits` for a timing platform.

    Used to bound the tile decomposition a launch *could* need on that
    platform; callers that know the executing backend should pass its
    ``backend.target_limits()`` instead for an exact tile geometry.
    """
    return TargetLimits(
        name=platform.name,
        max_texture_size=platform.max_stream_dimension,
        requires_power_of_two=(platform.backend_name == "gles2"),
        supports_float_textures=(platform.backend_name != "gles2"),
    )


def _tile_count(shape, limits: Optional[TargetLimits]) -> int:
    if limits is None:
        return 1
    return len(tile_grid(folded_layout(shape.layout_2d, limits), limits))


def _add_map_launch(work: _WorkBound, kw: KernelWCET, elements: int,
                    tiles: int, devices: int) -> None:
    tiles = max(1, tiles)
    devices = max(1, devices)
    work.passes += tiles * devices
    work.tile_switches += devices * (tiles - 1)
    work.elements += elements
    work.flops += kw.flops_per_element * elements
    work.fetches += kw.fetches_per_element * elements
    if devices > 1:
        work.shard_dispatches += devices - 1


def _add_reduction_launch(work: _WorkBound, kw: KernelWCET, elements: int,
                          max_extent: int, tiles: int, devices: int) -> None:
    tiles = max(1, tiles)
    devices = max(1, devices)
    # The multipass engine folds 2x2 blocks: per pass it runs the kernel
    # body three times over the shrinking output grid and samples four
    # inputs per output element.  The geometric series over the passes is
    # bounded by the input size; the slack terms cover per-pass ceils,
    # tiled per-tile partials and sharded per-device combines.
    n_eff = elements + 4 * (tiles + devices) + 64
    depth = max(1, math.ceil(math.log2(max(2, max_extent)))) + 1
    work.passes += depth * tiles * devices + 8
    work.elements += 2 * n_eff
    work.flops += 3 * kw.flops_per_element * n_eff
    work.fetches += kw.gather_fetches_per_element * n_eff + 4 * n_eff
    if devices > 1:
        work.shard_dispatches += devices - 1
        work.halo_bytes += 4 * (devices - 1)
    if tiles > 1:
        work.tile_switches += devices * (tiles - 1)


@dataclass(frozen=True)
class WCETBound:
    """A priced worst-case execution time bound."""

    #: What the bound covers (kernel chain, request name, plan repr).
    name: str
    #: Timing platform the bound is priced for.
    platform: str
    #: Devices the work is assumed to shard across.
    devices: int
    #: Bounded GPU work counters (upper bounds on what a run records).
    workload: object
    #: Modelled worst-case seconds (``GPUModel.time_seconds`` of the
    #: bounded counters; ``sharded_time_seconds`` when ``devices > 1``).
    seconds: float

    def scaled(self, factor: float) -> "WCETBound":
        """A copy with the priced bound multiplied by a safety factor."""
        return replace(self, seconds=self.seconds * float(factor))


def _price(work: _WorkBound, platform_name: str, devices: int,
           name: str) -> WCETBound:
    from ...timing.platforms import get_platform
    platform = get_platform(platform_name)
    workload = work.workload()
    if devices > 1:
        seconds = platform.gpu.sharded_time_seconds(workload, devices)
    else:
        seconds = platform.gpu.time_seconds(workload)
    return WCETBound(name=name, platform=platform.name, devices=devices,
                     workload=workload, seconds=seconds)


def _plan_into(work: _WorkBound, plan, devices: int,
               limits: Optional[TargetLimits]) -> List[str]:
    """Accumulate one plan's bounded kernel work; returns kernel names."""
    from ...runtime.launch import FusedPipeline, LaunchPlan

    names: List[str] = []
    if isinstance(plan, FusedPipeline):
        for segment, indices in plan.segments:
            try:
                names.extend(_plan_into(work, segment, devices, limits))
            except WCETError:
                if len(indices) < 2:
                    raise
                # A merged kernel has no bound of its own when a member
                # loop is bounded only by declared parameter bounds; its
                # members' un-fused passes bound it (fusion only removes
                # passes and traffic).  The one-pass segment raised
                # before adding any work.
                for index in indices:
                    names.extend(_plan_into(work, plan.plans[index],
                                            devices, limits))
        return names
    if not isinstance(plan, LaunchPlan):
        raise WCETError(
            f"cannot derive a WCET bound for {type(plan).__name__}")
    if plan.is_reduction:
        kw = kernel_wcet(plan.handle.program, plan.kernel.name)
        shape = plan.reduce_input.shape
        tiles = _tile_count(shape, limits)
        _add_reduction_launch(work, kw, shape.element_count,
                              max(shape.dims), tiles, devices)
        names.append(plan.kernel.name)
        return names
    domain = plan.domain
    tiles = _tile_count(domain, limits)
    if plan.tile_plan is not None:
        tiles = max(tiles, len(plan.tile_plan.pieces))
    for launch_pass in plan.passes:
        kernel = launch_pass.kernel
        if plan.handle is None:
            # A merged kernel is in no program's certification report.
            kw = analyze_kernel_wcet(kernel.definition, plan.helpers)
        else:
            kw = kernel_wcet(plan.handle.program, kernel.name)
        _add_map_launch(work, kw, domain.element_count, tiles, devices)
        names.append(kernel.name)
    return names


def plan_wcet(plan, platform: str = "target", devices: Optional[int] = None,
              limits: Optional[TargetLimits] = None) -> WCETBound:
    """Worst-case kernel time of a prepared launch plan.

    Accepts a :class:`~repro.runtime.launch.LaunchPlan` (map, fused or
    reduction) or a whole :class:`~repro.runtime.launch.FusedPipeline`.
    The bound covers kernel passes only (no host transfers - plans do
    not move data); :func:`request_wcet` adds the transfer terms for a
    full service request.

    Args:
        plan: The prepared plan.
        platform: Timing platform name/alias for pricing.
        devices: Device-group size (defaults to the plan runtime's
            ``device_count``).
        limits: Target limits bounding the tile decomposition (defaults
            to conservative limits derived from the platform).
    """
    from ...timing.platforms import get_platform
    if devices is None:
        devices = getattr(plan.runtime, "device_count", 1)
    if limits is None:
        limits = platform_limits(get_platform(platform))
    work = _WorkBound()
    names = _plan_into(work, plan, devices, limits)
    return _price(work, platform, devices, "+".join(names))


def request_wcet(request, program, platform: str = "target",
                 devices: int = 1,
                 limits: Optional[TargetLimits] = None,
                 fused: Optional[Dict[Tuple[int, ...], KernelWCET]] = None,
                 ) -> WCETBound:
    """Worst-case end-to-end time of a service request.

    Composes the per-call kernel bounds with the request's host transfer
    traffic, priced per tile and per device the way the runtime records
    them.  By default every call runs as its own pass(es): the un-fused
    chain, which bounds every execution mode because fusion only ever
    removes passes and traffic.  ``fused`` bounds one planner candidate
    instead: each listed group of call indices runs as one pass of its
    merged kernel, priced with the given merged-kernel bound.

    Transfers are counted exactly, one per ``Stream.write`` or
    ``Stream.read`` a served request makes: every input is uploaded
    once, every output read back once, and a reduction into a stream
    transfers its accumulator (a multi-element accumulator is read back,
    a one-element one is written with the reduced value).

    Args:
        request: A :class:`~repro.service.request.ServiceRequest`.
        program: The :class:`~repro.core.compiler.CompiledProgram`
            compiled from ``request.source``.
        platform: Timing platform name/alias for pricing.
        devices: Devices the executing runtime shards across.
        limits: Executing backend's target limits (bounds the tile
            decomposition); defaults to platform-derived limits.
        fused: Merged-kernel work bounds keyed by contiguous groups of
            call indices (one pass per group).
    """
    from ...runtime.shape import StreamShape
    from ...timing.platforms import get_platform
    if limits is None:
        limits = platform_limits(get_platform(platform))
    devices = max(1, int(devices))
    fused = fused or {}
    merged_at = {group[0]: kw for group, kw in fused.items()}
    folded = {index for group in fused for index in group[1:]}

    shapes: Dict[str, Tuple[int, ...]] = {}
    for name, array in request.inputs.items():
        shapes[name] = tuple(array.shape)
    shapes.update(request.outputs)
    shapes.update(request.scratch)

    work = _WorkBound()
    names: List[str] = []
    gather_halo_bytes = 0
    uploads = list(request.inputs)
    downloads = list(request.outputs)
    for index, one_call in enumerate(request.calls):
        definition = program.original_definitions.get(one_call.kernel)
        if definition is None:
            raise WCETError(
                f"request calls unknown kernel {one_call.kernel!r}")
        if len(one_call.args) != len(definition.params):
            raise WCETError(
                f"kernel {one_call.kernel!r} takes {len(definition.params)} "
                f"arguments, request call passes {len(one_call.args)}")
        bindings = dict(zip((p.name for p in definition.params),
                            one_call.args))
        domain_dims: Optional[Tuple[int, ...]] = None
        params = definition.output_params or definition.stream_params
        for param in params:
            arg = bindings.get(param.name)
            if isinstance(arg, str) and arg in shapes:
                domain_dims = shapes[arg]
                break
        if domain_dims is None:
            raise WCETError(
                f"kernel {one_call.kernel!r}: cannot resolve the launch "
                "domain from the request's stream shapes")
        domain = StreamShape.of(domain_dims)
        tiles = _tile_count(domain, limits)
        if devices > 1:
            for param in definition.gather_params:
                arg = bindings.get(param.name)
                if isinstance(arg, str) and arg in shapes:
                    count = 1
                    for extent in shapes[arg]:
                        count *= int(extent)
                    gather_halo_bytes += 4 * count * (devices - 1)
        for param in definition.reduce_params:
            arg = bindings.get(param.name)
            if isinstance(arg, str) and arg in shapes:
                if StreamShape.of(shapes[arg]).element_count > 1:
                    downloads.append(arg)
                else:
                    uploads.append(arg)
        if index in merged_at:
            kw = merged_at[index]
            _add_map_launch(work, kw, domain.element_count, tiles, devices)
            names.append(kw.kernel_name)
            continue
        if index in folded:
            continue
        for piece_name in program.kernel_groups.get(one_call.kernel,
                                                    [one_call.kernel]):
            kw = kernel_wcet(program, piece_name)
            if definition.is_reduction:
                _add_reduction_launch(work, kw, domain.element_count,
                                      max(domain.dims), tiles, devices)
            else:
                _add_map_launch(work, kw, domain.element_count, tiles,
                                devices)
            names.append(piece_name)
    work.halo_bytes += gather_halo_bytes

    # Host transfers, one per recorded Stream.write / Stream.read.
    for name in uploads:
        shape = StreamShape.of(shapes[name])
        work.bytes_up += shape.element_count * 4
        work.transfer_calls += _tile_count(shape, limits) * devices
    for name in downloads:
        shape = StreamShape.of(shapes[name])
        work.bytes_down += shape.element_count * 4
        work.transfer_calls += _tile_count(shape, limits) * devices

    label = request.name or "+".join(names)
    return _price(work, platform, devices, label)
