"""Prepared kernel launches and deferred command queues.

Calling a :class:`~repro.runtime.kernel.KernelHandle` validates and
classifies its arguments on every call.  For a long-lived service that
launches the same kernel over the same streams thousands of times, that
per-call work is pure overhead, so the handle can *bind* its arguments
once into a :class:`LaunchPlan`:

.. code-block:: python

    plan = module.saxpy.bind(2.0, x, y, out)
    for _ in range(steps):
        plan.launch()              # no re-validation, no re-classification

A :class:`CommandQueue` (obtained from ``rt.queue()``) batches launches:
kernel calls made while the queue is active are recorded instead of
executed, and :meth:`CommandQueue.flush` runs them in submission order in
one pass, recording their statistics in bulk.

**Kernel fusion** builds on prepared launches: :meth:`BrookRuntime.fuse`
takes a list of plans forming a pipeline and merges compatible
producer -> consumer pairs into single fused kernels (see
:mod:`repro.core.transforms.fuse`), eliminating the intermediate
streams' write/read traffic and the per-pass dispatch overhead.  A
fused pair becomes a :class:`FusedPlan`, a one-pass :class:`LaunchPlan`
running the merged kernel.  Pairs that cannot be legally fused
(reductions, gathers on the intermediate, mismatched domains, an
intermediate that is still needed afterwards) simply stay separate
passes - fusion never changes what a pipeline computes, only how many
passes it takes.
"""

from __future__ import annotations

from typing import (Dict, List, NamedTuple, Optional, Sequence, Tuple,
                    TYPE_CHECKING)

import numpy as np

from ..core.compiler import CompiledKernel
from ..errors import FusionError, KernelLaunchError
from .stream import Stream
from .tiling import TiledStorage, launch_tiled

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core import ast_nodes as ast
    from .kernel import KernelHandle
    from .profiling import KernelLaunchRecord
    from .runtime import BrookRuntime
    from .shape import StreamShape
    from .tiling import TilePlan

__all__ = ["LaunchPass", "LaunchPlan", "FusedPlan", "FusedPipeline", "QueuedLaunch",
           "CommandQueue", "build_fused_pipeline"]


class LaunchPass(NamedTuple):
    """One GPU pass of a plan: a compiled kernel and its classified arguments."""

    kernel: CompiledKernel
    stream_args: Dict[str, Stream]
    gather_args: Dict[str, Stream]
    scalar_args: Dict[str, float]
    out_args: Dict[str, Stream]


class LaunchPlan:
    """One logical launch with its arguments validated and classified.

    Created through :meth:`KernelHandle.bind`; the constructor expects
    *already validated* bindings.  The plan resolves the launch domain
    and splits the arguments by parameter kind once, so every subsequent
    :meth:`launch` goes straight to the backend.

    Every plan has the same public shape, which the executor, the
    sanitizer and the dataflow, WCET and planner analyses read:

    * a **map** plan launches ``passes`` in order over ``domain`` (one
      :class:`LaunchPass` per piece of a compiler-split kernel, a single
      pass otherwise), tiled by ``tile_plan`` when the bound storages
      need it;
    * a **reduction** plan (``is_reduction``) folds ``reduce_input`` with
      ``kernel`` into a value, or into ``accumulator`` when that is a
      multi-element stream; its ``passes`` are empty.

    ``kernel`` is the first pass's kernel of a map plan and
    ``bound_streams`` every stream the plan touches.
    """

    #: The kernel handle the plan was bound from (``None`` for a fused plan).
    handle: Optional["KernelHandle"] = None
    passes: Tuple[LaunchPass, ...] = ()
    domain: Optional["StreamShape"] = None
    tile_plan: Optional["TilePlan"] = None
    reduce_input: Optional[Stream] = None
    accumulator: Optional[Stream] = None

    def __init__(self, handle: "KernelHandle", bindings: Dict[str, object]):
        self.handle = handle
        self.runtime: "BrookRuntime" = handle.runtime
        self.kernel_name = handle.original_name
        self.is_reduction = handle.is_reduction
        self.helpers = handle._helpers
        self.enable_fast_path = handle.program.options.enable_fast_path
        self.bound_streams = tuple(
            value for value in bindings.values() if isinstance(value, Stream)
        )
        if self.is_reduction:
            self._prepare_reduction(bindings)
            return
        self.domain = handle._output_domain(bindings)
        self.passes = tuple(
            LaunchPass(piece, *handle._classify(piece.definition, bindings))
            for piece in (handle.program.kernel(name)
                          for name in handle.piece_names)
        )
        self.kernel = self.passes[0].kernel
        # Tiled dispatch keys on the bound storages (the CPU backend
        # never tiles, whatever the domain size); resolved once here so
        # repeated launches skip the lookup.  Every piece of a split
        # kernel shares the domain, hence the plan.
        self.tile_plan = TiledStorage.launch_plan(self.passes[0].stream_args,
                                                  self.passes[0].out_args)

    # ------------------------------------------------------------------ #
    @property
    def fused_kernel_names(self) -> Tuple[str, ...]:
        """Names of the source kernels merged into this launch (empty
        unless the plan is fused)."""
        return self.kernel.fused_from

    def launch(self):
        """Execute the plan and record its statistics with the runtime.

        Returns the reduced value for reduction kernels, ``None`` for map
        kernels (outputs land in the bound output streams) - the same
        contract as calling the kernel handle directly.
        """
        records: List["KernelLaunchRecord"] = []
        # Launches that already ran stay recorded even when a later piece
        # of the same plan fails - the statistics feed the performance
        # model and must reflect the work the device actually did.
        try:
            return self.execute(records)
        finally:
            self.runtime.statistics.record_launches(records)

    def execute(self, records: List["KernelLaunchRecord"]):
        """Run the backend work, appending launch records to ``records``.

        Does not register the records with the runtime's statistics -
        :class:`CommandQueue` and :class:`FusedPipeline` use this to
        collect the records of a whole batch and register them in one
        bulk call.  Records are appended as each pass completes, so the
        caller sees the work that ran even when a later pass raises.
        """
        runtime = self.runtime
        runtime._require_open()
        for stream in self.bound_streams:
            stream._require_live()
        sanitizer = getattr(runtime, "sanitizer", None)
        if sanitizer is not None:
            sanitizer.before_launch(self)
        if self.is_reduction:
            result = self._execute_reduction(records)
        else:
            result = None
            backend = runtime.backend
            tile_plan = self.tile_plan
            for kernel, stream_args, gather_args, scalar_args, out_args \
                    in self.passes:
                if tile_plan is None:
                    records.append(backend.launch(
                        kernel, self.helpers, self.domain,
                        stream_args, gather_args, scalar_args, out_args,
                    ))
                else:
                    records.append(launch_tiled(
                        backend, kernel, self.helpers, self.domain,
                        tile_plan, stream_args, gather_args, scalar_args,
                        out_args,
                    ))
        if sanitizer is not None:
            sanitizer.after_launch(self)
        return result

    # ------------------------------------------------------------------ #
    def _prepare_reduction(self, bindings: Dict[str, object]) -> None:
        handle = self.handle
        stream_param = handle.original.stream_params[0]
        input_stream = bindings.get(stream_param.name)
        if not isinstance(input_stream, Stream):
            raise KernelLaunchError(
                f"reduction {handle.original_name!r} needs its input stream "
                f"{stream_param.name!r}"
            )
        self.reduce_input = input_stream
        self.kernel = handle.program.kernel(handle.piece_names[0])

        # Brook distinguishes reductions to a scalar from reductions to a
        # smaller stream (every output element reduces one block of the
        # input); the latter is requested by passing a multi-element stream
        # as the accumulator argument.
        for param in handle.original.reduce_params:
            candidate = bindings.get(param.name)
            if isinstance(candidate, Stream):
                self.accumulator = candidate

    def _execute_reduction(self, records):
        backend = self.runtime.backend
        accumulator = self.accumulator
        if accumulator is not None and accumulator.element_count > 1:
            records.append(backend.reduce_into(
                self.kernel, self.helpers, self.reduce_input, accumulator
            ))
            return accumulator.read()
        value, record = backend.reduce(
            self.kernel, self.helpers, self.reduce_input
        )
        records.append(record)
        # If the caller passed a 1-element stream for the accumulator, fill it.
        if accumulator is not None:
            accumulator.write(np.full(accumulator.dims, value, dtype=np.float32))
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "reduce" if self.is_reduction else "kernel"
        return f"<{type(self).__name__} {kind} {self.kernel_name!r}>"


class FusedPlan(LaunchPlan):
    """A one-pass map :class:`LaunchPlan` running a merged kernel.

    Produced by :func:`build_fused_pipeline` (via ``rt.fuse``); never
    constructed directly by applications.  It launches, tiles and serves
    as the producer of a further fusion step like any map plan.  Its
    kernel is bare while it is only a producer; the pipeline completes
    the kernel of every segment it returns.
    """

    def __init__(
        self,
        runtime: "BrookRuntime",
        helpers: Dict[str, "ast.FunctionDef"],
        domain: "StreamShape",
        launch_pass: LaunchPass,
        enable_fast_path: bool,
    ):
        kernel = launch_pass.kernel
        self.runtime = runtime
        self.kernel_name = kernel.name
        self.is_reduction = False
        self.helpers = helpers
        self.enable_fast_path = enable_fast_path
        self.bound_streams = tuple(
            {id(s): s for s in (*launch_pass.stream_args.values(),
                                *launch_pass.gather_args.values(),
                                *launch_pass.out_args.values())}.values()
        )
        self.domain = domain
        self.passes = (launch_pass,)
        self.kernel = kernel
        self.tile_plan = TiledStorage.launch_plan(launch_pass.stream_args,
                                                  launch_pass.out_args)

    # Instrumentation wraps ``LaunchPlan.execute`` and ``FusedPlan.execute``
    # by name and restores both; an inherited ``execute`` would be wrapped
    # twice and stay patched after the restore.
    execute = LaunchPlan.execute


class FusedPipeline:
    """An ordered sequence of launch segments produced by ``rt.fuse``.

    Each segment is either a :class:`FusedPlan` (several source kernels
    merged into one pass) or an original, unfusable :class:`LaunchPlan`
    (reductions, gather consumers, mismatched domains).  ``launch()``
    runs the segments in order, records all statistics in one bulk
    operation and returns the last segment's result (the reduced value
    when the pipeline ends in a reduction, ``None`` otherwise).
    """

    def __init__(self, runtime: "BrookRuntime",
                 segments: List[Tuple[object, List[int]]],
                 plans: Sequence[LaunchPlan]):
        self.runtime = runtime
        #: ``(plan, source_indices)`` pairs; the indices point into
        #: :attr:`plans`.
        self.segments = segments
        #: The source plans handed to ``rt.fuse``, in order.
        self.plans = list(plans)

    @property
    def source_count(self) -> int:
        """How many source plans the pipeline was built from."""
        return len(self.plans)

    # ------------------------------------------------------------------ #
    @property
    def pass_count(self) -> int:
        """Kernel passes the pipeline launches (after fusion)."""
        return len(self.segments)

    @property
    def kernels_fused(self) -> int:
        """How many passes fusion eliminated from the original pipeline."""
        return self.source_count - len(self.segments)

    @property
    def kernel_names(self) -> List[str]:
        return [plan.kernel_name for plan, _ in self.segments]

    def launch(self):
        records: List["KernelLaunchRecord"] = []
        result = None
        try:
            for plan, _ in self.segments:
                result = plan.execute(records)
        finally:
            self.runtime.statistics.record_launches(records)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FusedPipeline {self.pass_count} passes from "
                f"{self.source_count} kernels>")


def _try_fuse_pair(runtime: "BrookRuntime", current: LaunchPlan,
                   nxt: LaunchPlan,
                   later_plans: Sequence[LaunchPlan]) -> Optional[FusedPlan]:
    """Merge two adjacent plans, or return ``None`` when illegal."""
    # Reductions (no pass) and compiler-split kernels never fuse.
    if len(current.passes) != 1 or len(nxt.passes) != 1:
        return None
    prod_kernel, prod_streams, prod_gathers, prod_scalars, prod_outs = \
        current.passes[0]
    cons_kernel, cons_streams, cons_gathers, cons_scalars, cons_outs = \
        nxt.passes[0]
    if current.domain.dims != nxt.domain.dims:
        return None

    # Which consumer input-stream parameters read a producer output?
    connections: Dict[str, str] = {}
    intermediates: List[Stream] = []
    for out_name, out_stream in prod_outs.items():
        consumed_by = [in_name for in_name, stream in cons_streams.items()
                       if stream is out_stream]
        if consumed_by:
            for in_name in consumed_by:
                connections[in_name] = out_name
            intermediates.append(out_stream)
    if not connections:
        return None

    # Every producer output must only flow producer -> consumer
    # positionally.  A consumer that gathers from *any* producer output
    # (connected or not) would observe the pre-producer snapshot inside
    # the fused pass, and an aliased consumer output would race the
    # producer's write; both require separate passes.
    for stream in prod_outs.values():
        if any(stream is s for s in cons_gathers.values()):
            return None
        if any(stream is s for s in cons_outs.values()):
            return None
    # A fully eliminated intermediate must additionally not be read by
    # the producer itself (in-place kernels) or by any later plan - it
    # will never be materialised.
    for stream in intermediates:
        if any(stream is s for s in (*prod_streams.values(),
                                     *prod_gathers.values())):
            return None
        for later in later_plans:
            if any(stream is s for s in later.bound_streams):
                return None

    # Helper collision across modules: same name must mean the same code.
    helpers = dict(current.helpers)
    for helper_name, definition in nxt.helpers.items():
        if helpers.get(helper_name, definition) is not definition:
            return None
        helpers[helper_name] = definition

    enable_fast_path = current.enable_fast_path and nxt.enable_fast_path
    try:
        fused_kernel, result = runtime._fuse_compiled(
            prod_kernel, cons_kernel, connections, helpers, enable_fast_path)
    except FusionError:
        return None
    if fused_kernel.resources.fits(runtime.backend.target_limits()):
        return None  # merged kernel exceeds the device's limits
    if not runtime.backend.can_execute(fused_kernel):
        return None

    eliminated = set(connections.values())
    renamed = result.producer_renames
    stream_args = {renamed[k]: v for k, v in prod_streams.items()}
    stream_args.update({k: v for k, v in cons_streams.items()
                        if k not in connections})
    gather_args = {renamed[k]: v for k, v in prod_gathers.items()}
    gather_args.update(cons_gathers)
    scalar_args = {renamed[k]: v for k, v in prod_scalars.items()}
    scalar_args.update(cons_scalars)
    out_args = {renamed[k]: v for k, v in prod_outs.items()
                if k not in eliminated}
    out_args.update(cons_outs)
    return FusedPlan(
        runtime, helpers, nxt.domain,
        LaunchPass(fused_kernel, stream_args, gather_args, scalar_args,
                   out_args),
        enable_fast_path,
    )


def build_fused_pipeline(runtime: "BrookRuntime",
                         plans: Sequence[object]) -> FusedPipeline:
    """Greedily merge adjacent compatible plans into fused segments."""
    if not plans:
        raise KernelLaunchError("cannot fuse an empty pipeline")
    for plan in plans:
        if not isinstance(plan, LaunchPlan):
            raise KernelLaunchError(
                "rt.fuse expects prepared launch plans "
                "(use kernel.bind(...) to create them)"
            )
        if plan.runtime is not runtime:
            raise KernelLaunchError(
                "cannot fuse launch plans from a different runtime")
    segments: List[Tuple[object, List[int]]] = []
    current = plans[0]
    current_indices = [0]
    for position in range(1, len(plans)):
        nxt = plans[position]
        merged = _try_fuse_pair(runtime, current, nxt, plans[position + 1:])
        if merged is not None:
            current = merged
            current_indices.append(position)
        else:
            segments.append((current, current_indices))
            current = nxt
            current_indices = [position]
    segments.append((current, current_indices))
    # Only a segment's last merge is launched; the merges before it stay
    # bare producers of the next one.
    for plan, _ in segments:
        if isinstance(plan, FusedPlan):
            runtime._complete_fused(plan.kernel, plan.helpers,
                                    plan.enable_fast_path)
    return FusedPipeline(runtime, segments, plans)


class QueuedLaunch:
    """A launch submitted to a :class:`CommandQueue`, resolved at flush.

    ``result`` holds the launch's return value (the reduced value for
    reductions, ``None`` for map kernels) once ``done`` is ``True``.
    """

    __slots__ = ("plan", "result", "done")

    def __init__(self, plan: LaunchPlan):
        self.plan = plan
        self.result: object = None
        self.done = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "pending"
        return f"<QueuedLaunch {self.plan.kernel_name!r} {state}>"


class CommandQueue:
    """Deferred launch queue batching kernel calls on one runtime.

    While the queue is active (inside ``with rt.queue() as q:``), kernel
    calls on that runtime enqueue a :class:`QueuedLaunch` instead of
    executing.  :meth:`flush` - called automatically when the ``with``
    block exits without an exception - runs everything in submission
    order and records the launch statistics in one bulk operation.

    Command queues are **per-thread** objects: the runtime's
    active-queue stack is thread-local, so a queue only captures kernel
    calls made by the thread that activated it - launches issued
    concurrently by other threads sharing the runtime execute
    immediately instead of being silently deferred.  A queue instance
    itself must not be shared between threads; for cross-thread
    asynchronous execution use
    :class:`~repro.runtime.executor.AsyncExecutor`.
    """

    def __init__(self, runtime: "BrookRuntime"):
        self.runtime = runtime
        self._pending: List[QueuedLaunch] = []
        self.flushed_launches = 0
        # Set while the context-manager exit performs its automatic
        # flush, which is unconditional and must not count as a
        # double-flush under the sanitizer.
        self._exit_flush = False

    # ------------------------------------------------------------------ #
    def submit(self, plan: LaunchPlan) -> QueuedLaunch:
        """Enqueue a prepared launch; it runs at the next :meth:`flush`."""
        if plan.runtime is not self.runtime:
            raise KernelLaunchError(
                "cannot enqueue a launch plan from a different runtime"
            )
        queued = QueuedLaunch(plan)
        self._pending.append(queued)
        return queued

    def __len__(self) -> int:
        return len(self._pending)

    def flush(self) -> List[object]:
        """Execute every pending launch; returns their results in order.

        When a launch in the batch raises, everything that already ran
        stays executed and recorded in the statistics; the remaining
        pending launches are discarded with the exception.
        """
        pending, self._pending = self._pending, []
        sanitizer = getattr(self.runtime, "sanitizer", None)
        if (sanitizer is not None and not pending and self.flushed_launches
                and not self._exit_flush):
            sanitizer.note_double_flush(self)
        records: List["KernelLaunchRecord"] = []
        results: List[object] = []
        try:
            for queued in pending:
                queued.result = queued.plan.execute(records)
                queued.done = True
                results.append(queued.result)
        finally:
            self.flushed_launches += len(results)
            self.runtime.statistics.record_launches(records)
        return results

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "CommandQueue":
        self.runtime._push_queue(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.runtime._pop_queue(self)
        if exc_type is None:
            self._exit_flush = True
            try:
                self.flush()
            finally:
                self._exit_flush = False
        else:
            self._pending.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CommandQueue pending={len(self._pending)} "
                f"flushed={self.flushed_launches}>")
