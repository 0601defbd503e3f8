"""The Brook Auto runtime.

:class:`BrookRuntime` is the host-side entry point an application uses:

.. code-block:: python

    from repro.runtime import BrookRuntime

    with BrookRuntime(backend="gles2", device="videocore-iv") as rt:
        module = rt.compile(BROOK_SOURCE)
        a = rt.stream_from(host_array_a)
        b = rt.stream_from(host_array_b)
        c = rt.stream(host_array_a.shape)
        module.add(a, b, c)      # kernel launch
        result = c.read()        # stream -> host

The runtime owns the backend (resolved through the backend registry:
CPU, simulated OpenGL ES 2.0 device, simulated CAL device, or anything
registered via :func:`repro.backends.register_backend`), compiles ``.br``
source with the target's limits, creates statically sized streams and
accumulates the work statistics that the analytic performance model turns
into modelled execution times.

Service-grade pieces for long-lived processes:

* **Compile cache** - repeated :meth:`BrookRuntime.compile` of the same
  source with equivalent options returns the cached
  :class:`~repro.core.compiler.CompiledProgram` instead of re-running the
  whole lexer -> parser -> semantic -> codegen pipeline.
* **Session lifecycle** - the runtime tracks its streams weakly;
  :meth:`BrookRuntime.close` (or leaving a ``with`` block) releases every
  live stream, and :meth:`memory_usage_report` reflects live streams only.
* **Command queues** - ``with rt.queue() as q:`` batches kernel launches
  and flushes them in one pass, recording statistics in bulk.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..backends.base import Backend, create_backend
from ..core.analysis.memory_usage import StreamDeclaration, estimate_memory_usage
from ..core.compiler import BrookAutoCompiler, CompiledProgram, CompilerOptions
from ..core.transforms.fuse import complete_compiled, merge_compiled
from ..core.types import FLOAT, BrookType
from ..errors import RuntimeBrookError
from .kernel import KernelHandle
from .launch import CommandQueue, FusedPipeline, LaunchPlan, build_fused_pipeline
from .profiling import RunStatistics
from .shape import StreamShape
from .stream import Stream

__all__ = ["BrookModule", "BrookRuntime"]


class BrookModule:
    """A compiled Brook translation unit bound to a runtime.

    Kernels are exposed both as attributes (``module.saxpy``) and through
    :meth:`kernel`.  The module also carries the certification report so
    applications can archive the compliance evidence next to their build.
    """

    def __init__(self, runtime: "BrookRuntime", program: CompiledProgram):
        self._runtime = runtime
        self.program = program
        self._handles: Dict[str, KernelHandle] = {}
        for name in program.original_definitions:
            self._handles[name] = KernelHandle(runtime, program, name)

    @property
    def certification(self):
        return self.program.certification

    @property
    def kernel_names(self):
        return sorted(self._handles)

    def kernel(self, name: str) -> KernelHandle:
        try:
            return self._handles[name]
        except KeyError:
            raise KeyError(
                f"module has no kernel {name!r}; available: {self.kernel_names}"
            )

    def __getattr__(self, name: str) -> KernelHandle:
        handles = object.__getattribute__(self, "_handles")
        if name in handles:
            return handles[name]
        raise AttributeError(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BrookModule kernels={self.kernel_names}>"


#: Fusion steps remembered per runtime (least recently used evicted).
FUSION_MEMO_SIZE = 64


class BrookRuntime:
    """Host-side runtime: backend, streams, compilation and statistics."""

    def __init__(
        self,
        backend: Union[str, Backend] = "cpu",
        device: Optional[str] = None,
        compiler_options: Optional[CompilerOptions] = None,
        compile_cache_size: int = 64,
        devices: int = 1,
        sanitize: Optional[bool] = None,
    ):
        """
        Args:
            backend: A registered backend name or alias (``"cpu"``,
                ``"gles2"``, ``"cal"``, or anything added through
                :func:`repro.backends.register_backend`) or an already
                constructed :class:`~repro.backends.base.Backend`.
            device: Device profile for GPU backends (e.g. ``"videocore-iv"``,
                ``"mali-400"``, ``"radeon-hd3400"``).
            compiler_options: Base compiler options; the target limits are
                always overridden with the backend's limits.
            compile_cache_size: Maximum number of compiled programs kept in
                the compile cache (least recently used entries are evicted;
                ``0`` disables caching).
            devices: Number of devices to open.  With ``devices=N > 1``
                the runtime constructs ``N`` backends of the requested
                kind and shards every stream and launch across them (see
                :mod:`repro.runtime.sharding`); kernel launches stay
                bit-identical to ``devices=1``, and reductions combine
                per-device partials with the same kernel (bit-identical
                for exactly associative operators, reassociated floating
                point otherwise - the tiled-reduction caveat).  Pass an
                already constructed
                :class:`~repro.backends.sharded.ShardedBackend` as
                ``backend`` to use custom device instances.
            sanitize: Enable :class:`~repro.runtime.sanitizer.BrookSanitizer`,
                the instrumented execution mode (per-stream initialization
                tracking, NaN/Inf origins, gather bounds shadow-checks,
                double-flush and use-after-release detection, and the
                executor's static-vs-dynamic order cross-check).  The
                default ``None`` consults the ``BROOKSAN`` environment
                variable, so whole test suites can opt in externally
                (``BROOKSAN=1 pytest``).  Findings are recorded on
                :attr:`sanitizer`, never raised - except a cross-check
                divergence, which raises
                :class:`~repro.errors.SanitizerError`.
        """
        devices = int(devices)
        if devices < 1:
            raise RuntimeBrookError(
                f"BrookRuntime needs at least one device, got devices={devices}"
            )
        if isinstance(backend, Backend):
            if devices != 1:
                raise RuntimeBrookError(
                    "devices=N requires a backend name so the runtime can "
                    "construct one backend per device; wrap pre-built "
                    "instances in repro.backends.sharded.ShardedBackend "
                    "instead"
                )
            self.backend = backend
        elif devices == 1:
            self.backend = create_backend(backend, device)
        else:
            from ..backends.sharded import ShardedBackend

            self.backend = ShardedBackend([
                create_backend(backend, device) for _ in range(devices)
            ])
        if sanitize is None:
            sanitize = os.environ.get("BROOKSAN", "").strip().lower() \
                not in ("", "0", "false", "off")
        #: The :class:`~repro.runtime.sanitizer.BrookSanitizer` of this
        #: runtime, or ``None`` when the instrumented mode is off.
        self.sanitizer = None
        if sanitize:
            from .sanitizer import BrookSanitizer

            self.sanitizer = BrookSanitizer(self)
            # The backend wraps gather sources with the sanitizer's
            # bounds shadow-checks; device groups instrument every
            # member so per-shard launches are covered too.
            self.backend._sanitizer = self.sanitizer
            for device in getattr(self.backend, "devices", ()) or ():
                device._sanitizer = self.sanitizer
        self._base_options = compiler_options
        self.statistics = RunStatistics()
        # Weak references only: a stream freed by the garbage collector
        # (or via Stream.release) must not be kept alive - or reported as
        # memory in use - by the runtime's bookkeeping.
        self._streams: "weakref.WeakSet[Stream]" = weakref.WeakSet()
        self._compile_cache: "OrderedDict[Tuple[str, str, str], CompiledProgram]" = \
            OrderedDict()
        # The LRU OrderedDict is shared by every thread using this
        # runtime; insert/evict/move_to_end are not atomic, so all cache
        # operations (and the hit/miss counters) run under this lock.
        self._compile_cache_lock = threading.Lock()
        self._compile_cache_size = max(0, int(compile_cache_size))
        self._compile_cache_hits = 0
        self._compile_cache_misses = 0
        # Merged kernels of fusion steps already made, keyed by the
        # identity of their inputs (see _fuse_compiled); guarded by the
        # compile cache lock and cleared with the compile cache.
        self._fusion_memo: "OrderedDict[Tuple, tuple]" = OrderedDict()
        # Command queues are *per-thread* state: a ``with rt.queue():``
        # block must only capture kernel launches issued by the thread
        # that opened it, never launches other threads issue concurrently.
        self._queue_tls = threading.local()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Session lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeBrookError("runtime has been closed")

    def close(self) -> None:
        """End the session: release every live stream and drop the caches.

        Safe to call more than once.  Collected statistics stay readable;
        creating streams or compiling on a closed runtime raises.
        """
        if self._closed:
            return
        self._closed = True
        self._queue_stack().clear()
        for stream in list(self._streams):
            stream.release()
        self._streams.clear()
        with self._compile_cache_lock:
            self._compile_cache.clear()
            self._fusion_memo.clear()
        self.backend.close()

    def __enter__(self) -> "BrookRuntime":
        self._require_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    def compile(
        self,
        source: str,
        strict: bool = True,
        filename: str = "<string>",
        scalarize: bool = False,
        range_specs: Optional[Dict[str, dict]] = None,
    ) -> BrookModule:
        """Compile Brook source for this runtime's backend.

        Args:
            source: The ``.br`` kernel source text.
            range_specs: Per-kernel range specs for the interval analysis
                (gather extents, domain symbols, scalar parameter ranges);
                used by brooklint and to bound every loop (rule BA-005,
                WCET): a data-dependent loop needs its limit's parameter
                ranges declared under ``"params"``.
            strict: Raise on Brook Auto rule violations (default).  Legacy
                Brook code can be compiled with ``strict=False`` to obtain
                the certification report without aborting.
            filename: Name used in diagnostics.
            scalarize: Apply the vector-to-scalar transformation pass.

        Compilation results are cached: compiling the same source with an
        equivalent option set (same options fingerprint, which includes
        the backend's target limits) returns the cached
        :class:`~repro.core.compiler.CompiledProgram` wrapped in a fresh
        :class:`BrookModule`, skipping the compiler pipeline entirely.
        """
        self._require_open()
        if self._base_options is not None:
            options = CompilerOptions(**vars(self._base_options))
        else:
            options = CompilerOptions()
        options.target = self.backend.target_limits()
        options.range_specs = dict(range_specs or {})
        options.strict = strict
        options.scalarize = scalarize

        key = (source, filename, options.fingerprint())
        with self._compile_cache_lock:
            program = self._compile_cache.get(key)
            if program is not None:
                self._compile_cache_hits += 1
                self._compile_cache.move_to_end(key)
        if program is None:
            # Compile outside the lock: concurrent compiles of *different*
            # sources overlap instead of serializing on the cache.  Two
            # threads compiling the same source may both miss and compile;
            # the second insert simply wins, which is harmless (the
            # programs are equivalent).
            program = BrookAutoCompiler(options).compile(source, filename)
            with self._compile_cache_lock:
                self._compile_cache_misses += 1
                if self._compile_cache_size > 0:
                    self._compile_cache[key] = program
                    self._compile_cache.move_to_end(key)
                    while len(self._compile_cache) > self._compile_cache_size:
                        self._compile_cache.popitem(last=False)
        return BrookModule(self, program)

    def compile_cache_info(self) -> Dict[str, int]:
        """Hit/miss counters and current occupancy of the compile cache."""
        with self._compile_cache_lock:
            return {
                "hits": self._compile_cache_hits,
                "misses": self._compile_cache_misses,
                "entries": len(self._compile_cache),
                "capacity": self._compile_cache_size,
            }

    def clear_compile_cache(self) -> None:
        """Drop every cached compilation (counters keep accumulating)."""
        with self._compile_cache_lock:
            self._compile_cache.clear()
            self._fusion_memo.clear()

    def _fuse_compiled(self, producer, consumer, connections: Dict[str, str],
                       helpers, enable_fast_path: bool):
        """:func:`~repro.core.transforms.fuse.merge_compiled`, memoised.

        Compiling the same source returns the same compiled kernels, so
        fusing freshly bound plans of a cached program repeats fusion
        steps already made; those return the stored merged kernel, bare
        or completed by :meth:`_complete_fused`.  The key holds the
        identities of the producer, consumer and helper definitions, and
        each entry keeps them alive, so an identity cannot be reused
        while its entry exists.
        """
        key = (id(producer), id(consumer), tuple(sorted(connections.items())),
               tuple(sorted((name, id(definition))
                            for name, definition in helpers.items())),
               enable_fast_path)
        with self._compile_cache_lock:
            entry = self._fusion_memo.get(key)
            if entry is not None:
                self._fusion_memo.move_to_end(key)
                return entry[0]
        merged = merge_compiled(producer, consumer, connections, helpers)
        with self._compile_cache_lock:
            self._fusion_memo[key] = (merged, producer, consumer,
                                      tuple(helpers.values()))
            while len(self._fusion_memo) > FUSION_MEMO_SIZE:
                self._fusion_memo.popitem(last=False)
        return merged

    def _complete_fused(self, kernel, helpers, enable_fast_path: bool) -> None:
        """Complete a merged kernel from :meth:`_fuse_compiled` once.

        Runs :func:`~repro.core.transforms.fuse.complete_compiled` under
        the compile cache lock, so a kernel that two threads launch is
        completed by one of them and a completed memo entry is never
        rebuilt.
        """
        with self._compile_cache_lock:
            if kernel.bare:
                complete_compiled(kernel, helpers, enable_fast_path)

    # ------------------------------------------------------------------ #
    # Streams
    # ------------------------------------------------------------------ #
    def stream(self, shape, element_width: int = 1, name: str = "") -> Stream:
        """Create a statically sized stream filled with zeros."""
        self._require_open()
        stream = Stream(self, StreamShape.of(shape), element_width, name)
        self._streams.add(stream)
        return stream

    def stream_from(self, data: np.ndarray, name: str = "",
                    element_width: int = 1) -> Stream:
        """Create a stream shaped like ``data`` and write ``data`` into it.

        For vector element types pass ``element_width`` explicitly; the
        trailing axis of ``data`` is then the component axis.
        """
        array = np.asarray(data, dtype=np.float32)
        shape = array.shape if element_width == 1 else array.shape[:-1]
        stream = self.stream(shape, element_width, name)
        stream.write(array)
        return stream

    def iterator(self, shape, start: float = 0.0, end: Optional[float] = None,
                 name: str = "") -> Stream:
        """Create an iterator stream with linearly increasing values.

        Brook iterator streams generate their values instead of storing
        host data; the simulated runtime materialises them at creation.
        For a 1-D shape the values run from ``start`` (inclusive) towards
        ``end`` (exclusive), defaulting to the element index.
        """
        stream_shape = StreamShape.of(shape)
        count = stream_shape.element_count
        if end is None:
            end = float(start + count)
        values = (np.arange(count, dtype=np.float32) / max(1, count)
                  * (end - start) + start)
        stream = self.stream(stream_shape, 1, name or "iterator")
        stream.write(values.reshape(stream_shape.dims))
        return stream

    # ------------------------------------------------------------------ #
    # streamRead / streamWrite convenience (Brook naming)
    # ------------------------------------------------------------------ #
    def stream_read(self, stream: Stream, data: np.ndarray) -> None:
        """Brook's ``streamRead``: host memory -> stream."""
        stream.write(data)

    def stream_write(self, stream: Stream) -> np.ndarray:
        """Brook's ``streamWrite``: stream -> host memory."""
        return stream.read()

    # ------------------------------------------------------------------ #
    # Command queues
    # ------------------------------------------------------------------ #
    def queue(self) -> CommandQueue:
        """A deferred launch queue for this runtime.

        Used as a context manager: kernel calls inside the ``with`` block
        are batched and flushed in one pass when the block exits (or when
        :meth:`~repro.runtime.launch.CommandQueue.flush` is called).  To
        merge producer -> consumer launches, prepare them with
        :meth:`fuse` instead.
        """
        self._require_open()
        return CommandQueue(self)

    # ------------------------------------------------------------------ #
    # Kernel fusion
    # ------------------------------------------------------------------ #
    def fuse(self, plans: List[LaunchPlan]) -> FusedPipeline:
        """Fuse a pipeline of prepared launches into fewer kernel passes.

        Adjacent plans are merged whenever the first one's output stream
        is consumed element-for-element by the next one over the same
        domain: the intermediate stream becomes a register-resident local
        of the merged kernel, saving its device write + read (on the
        OpenGL ES 2 backend: the RGBA8 encode/decode and texture traffic)
        and one pass of dispatch overhead.  Illegal pairs - reductions,
        consumers that *gather* from the intermediate, mismatched
        domains, or an intermediate that a later plan still reads - stay
        separate passes, so the pipeline always computes the same result
        as launching the plans one by one (minus the contents of fully
        eliminated intermediates, which are left untouched).

        .. code-block:: python

            blur = module.blur.bind(src, tmp)
            sharpen = module.sharpen.bind(tmp, 0.5, dst)
            pipeline = rt.fuse([blur, sharpen])   # one fused pass
            for _ in range(frames):
                pipeline.launch()

        Returns a :class:`~repro.runtime.launch.FusedPipeline`; fusion
        (legality checks, AST merge, shader regeneration) runs once here,
        so ``pipeline.launch()`` is as cheap as a prepared launch.
        """
        self._require_open()
        return build_fused_pipeline(self, plans)

    def autoplan(self, plans: List[LaunchPlan], platform: str = "target",
                 device_counts=None, label: Optional[str] = None):
        """Cost-model decision for how to execute a prepared pipeline.

        Enumerates the candidate execution configurations of ``plans``
        (fusion on/off per legal group, device-group sizes, shard axis),
        prices each with the ``platform`` timing model, and returns the
        argmin as a
        :class:`~repro.core.analysis.planner.PlanDecision`.  Only
        candidates matching this runtime's :attr:`device_count` are
        selectable; other device counts stay in the decision's table as
        fleet advice.  Materialise the chosen config with
        :func:`~repro.core.analysis.planner.build_launchables`:

        .. code-block:: python

            plans = [module.blur.bind(src, tmp),
                     module.sharpen.bind(tmp, 0.5, dst)]
            decision = rt.autoplan(plans)
            print(decision.render_table())
            for launchable in build_launchables(rt, plans,
                                                decision.chosen.config):
                launchable.launch()
        """
        self._require_open()
        from ..core.analysis.planner import DEFAULT_DEVICE_COUNTS, plan_pipeline
        if device_counts is None:
            device_counts = DEFAULT_DEVICE_COUNTS
        return plan_pipeline(
            self, plans, platform=platform, device_counts=device_counts,
            executable_devices=self.device_count,
            limits=self.backend.target_limits(), label=label,
        )

    def _queue_stack(self) -> List[CommandQueue]:
        """The *calling thread's* stack of active command queues.

        Thread-local on purpose: a queue opened in one thread must not
        silently capture (and defer) kernel launches issued by other
        threads sharing the runtime.
        """
        stack = getattr(self._queue_tls, "stack", None)
        if stack is None:
            stack = []
            self._queue_tls.stack = stack
        return stack

    @property
    def _active_queue(self) -> Optional[CommandQueue]:
        stack = self._queue_stack()
        return stack[-1] if stack else None

    def _push_queue(self, queue: CommandQueue) -> None:
        self._require_open()
        self._queue_stack().append(queue)

    def _pop_queue(self, queue: CommandQueue) -> None:
        stack = self._queue_stack()
        if queue in stack:
            stack.remove(queue)

    # ------------------------------------------------------------------ #
    # Asynchronous execution
    # ------------------------------------------------------------------ #
    def executor(self, workers: int = 2) -> "AsyncExecutor":
        """An :class:`~repro.runtime.executor.AsyncExecutor` for this runtime.

        Submitted launch plans run on a pool of worker threads;
        stream-level hazard tracking overlaps independent launches while
        serializing conflicting ones in submission order, so results are
        bit-identical to launching the plans serially.

        .. code-block:: python

            with rt.executor(workers=4) as ex:
                futures = [ex.submit(plan) for plan in plans]
                for future in futures:
                    future.wait()
        """
        self._require_open()
        from .executor import AsyncExecutor

        return AsyncExecutor(self, workers=workers)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def device_count(self) -> int:
        """Number of devices this runtime executes on (1 unless sharded)."""
        return getattr(self.backend, "device_count", 1)

    def reset_statistics(self) -> None:
        """Clear the run statistics and the backend's own work counters."""
        self.statistics.clear()
        self.backend.reset_statistics()

    def device_memory_in_use(self) -> int:
        return self.backend.device_memory_in_use()

    def live_streams(self) -> List[Stream]:
        """Streams created by this runtime that are still unreleased."""
        return [stream for stream in self._streams if not stream.released]

    def memory_usage_report(self):
        """Static maximum GPU memory usage of the live streams.

        Released (or garbage collected) streams no longer contribute, so
        the report agrees with :meth:`device_memory_in_use`.
        """
        declarations = [
            StreamDeclaration(
                name=stream.name,
                shape=stream.dims,
                element_type=BrookType(FLOAT.kind, stream.element_width),
            )
            for stream in self.live_streams()
        ]
        return estimate_memory_usage(declarations, self.backend.target_limits())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BrookRuntime backend={self.backend.name!r}>"
