"""Asynchronous kernel execution: worker pool + stream hazard tracking.

Long-lived services rarely have one pipeline to run: many independent
request pipelines target the same accelerator concurrently.  The
:class:`AsyncExecutor` makes that workload class first-class on a single
:class:`~repro.runtime.runtime.BrookRuntime`:

.. code-block:: python

    with rt.executor(workers=4) as ex:
        f1 = ex.submit(blur_plan)       # writes tmp_a
        f2 = ex.submit(edge_plan)       # writes tmp_b   (independent: overlaps)
        f3 = ex.submit(merge_plan)      # reads tmp_a+tmp_b (waits for both)
        result = f3.result()

``submit`` accepts anything the runtime can launch - a
:class:`~repro.runtime.launch.LaunchPlan` (fused or not) or a whole
:class:`~repro.runtime.launch.FusedPipeline` - and returns a
:class:`LaunchFuture` immediately.  A pool of worker threads executes the
submissions; **stream-level hazard tracking** decides the order:

* every submission declares which streams it *reads* (input streams,
  gather arrays, a reduction's input) and which it *writes* (output
  streams, a reduction's accumulator),
* a submission waits for the last unfinished writer of every stream it
  touches, and a writer additionally waits for all unfinished readers of
  the streams it overwrites (read-after-write, write-after-write and
  write-after-read hazards),
* submissions with disjoint stream sets run concurrently.

Conflicting launches therefore execute in **submission order**, which
makes the results bit-identical to calling ``plan.launch()`` serially in
the same order - concurrency never changes what a pipeline computes.

On CPython the worker pool overlaps the NumPy portions of independent
launches (and, more importantly, isolates slow requests from fast ones);
the scheduling guarantees are what services rely on, not wall-clock
parallelism on any particular machine.
"""

from __future__ import annotations

import threading
from queue import SimpleQueue
from typing import Dict, List, Optional, Set

from ..core.analysis.dataflow import storage_units
from ..errors import KernelLaunchError, RuntimeBrookError
from .launch import FusedPipeline, LaunchPlan

__all__ = ["AsyncExecutor", "LaunchFuture"]


class LaunchFuture:
    """Completion handle of one asynchronous launch submission."""

    def __init__(self, plan: object):
        self.plan = plan
        self._event = threading.Event()
        self._result: object = None
        self._exception: Optional[BaseException] = None

    # ------------------------------------------------------------------ #
    def done(self) -> bool:
        """Whether the launch has finished (successfully or not)."""
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the launch finishes; returns ``False`` on timeout."""
        return self._event.wait(timeout)

    def result(self, timeout: Optional[float] = None):
        """The launch's return value (the reduced value for reductions,
        ``None`` for map kernels), blocking until it is available.

        Re-raises the launch's exception if it failed; raises
        :class:`TimeoutError` when ``timeout`` elapses first.
        """
        if not self._event.wait(timeout):
            raise TimeoutError("launch has not completed yet")
        if self._exception is not None:
            raise self._exception
        return self._result

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """The exception the launch raised, or ``None`` if it succeeded."""
        if not self._event.wait(timeout):
            raise TimeoutError("launch has not completed yet")
        return self._exception

    # ------------------------------------------------------------------ #
    def _set_result(self, result: object) -> None:
        self._result = result
        self._event.set()

    def _set_exception(self, exception: BaseException) -> None:
        self._exception = exception
        self._event.set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done() else "pending"
        return f"<LaunchFuture {state}>"


class _Task:
    """Internal scheduling node: one submission plus its dependency state."""

    __slots__ = ("plan", "future", "pending", "dependents", "finished",
                 "read_ids", "write_ids", "audit_index")

    def __init__(self, plan: object, future: LaunchFuture):
        self.plan = plan
        self.future = future
        self.pending = 0
        self.dependents: List["_Task"] = []
        self.finished = False
        self.read_ids: List[int] = []
        self.write_ids: List[int] = []
        self.audit_index = -1


def _collect_hazards(plan: object, reads: Set[int], writes: Set[int]) -> None:
    """Fill ``reads``/``writes`` with the hazard units ``plan`` touches.

    The units are the leaf device storages of every bound stream
    (:func:`~repro.core.analysis.dataflow.storage_units`): one per
    tile and per device band, so the tables work at shard/tile
    granularity, and storage identities rather than wrapper identities,
    so two ``Stream`` handles over the same storage collide.
    """
    if isinstance(plan, FusedPipeline):
        for segment, _ in plan.segments:
            _collect_hazards(segment, reads, writes)
        return
    if isinstance(plan, LaunchPlan):
        if plan.is_reduction:
            reads.update(storage_units(plan.reduce_input))
            accumulator = plan.accumulator
            if accumulator is not None:
                # The runtime reads partial-reduction accumulators back
                # after writing them, so they count as both.
                reads.update(storage_units(accumulator))
                writes.update(storage_units(accumulator))
            return
        for launch_pass in plan.passes:
            for stream in (*launch_pass.stream_args.values(),
                           *launch_pass.gather_args.values()):
                reads.update(storage_units(stream))
            for stream in launch_pass.out_args.values():
                writes.update(storage_units(stream))
        return
    # Unknown plan-like object: be conservative and treat every bound
    # stream as read *and* written (full serialization against overlaps).
    for stream in getattr(plan, "bound_streams", ()):
        reads.update(storage_units(stream))
        writes.update(storage_units(stream))


class AsyncExecutor:
    """Worker-thread pool executing launch plans with hazard tracking.

    Created through :meth:`BrookRuntime.executor`.  Use as a context
    manager - leaving the ``with`` block drains every submission and
    stops the workers - or call :meth:`shutdown` explicitly.
    """

    def __init__(self, runtime: "object", workers: int = 2):
        if workers < 1:
            raise RuntimeBrookError("AsyncExecutor needs at least one worker")
        self.runtime = runtime
        self.workers = int(workers)
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._ready: "SimpleQueue[Optional[_Task]]" = SimpleQueue()
        self._last_writer: Dict[int, _Task] = {}
        self._readers: Dict[int, List[_Task]] = {}
        self._outstanding = 0
        self._submitted = 0
        self._shutdown = False
        self._discard = False
        self._stopped = threading.Event()
        # Sanitize mode: audit log of submissions and their observed
        # start/finish order, differentially cross-checked against the
        # static dependency DAG on every drain (see
        # repro.runtime.sanitizer.BrookSanitizer.check_executor_order).
        self._sanitizer = getattr(runtime, "sanitizer", None)
        self._audit_plans: List[object] = []
        # Access sets snapshotted at submission time: backends may
        # replace a storage's buffer on launch, so aliasing through
        # shared NumPy buffers is only observable before launches run.
        self._audit_accesses: List[object] = []
        self._audit_events: List["tuple[str, int]"] = []
        self._threads = [
            threading.Thread(target=self._worker, name=f"brook-exec-{i}",
                             daemon=True)
            for i in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, plan: object) -> LaunchFuture:
        """Schedule ``plan`` for asynchronous execution.

        Accepts a :class:`LaunchPlan` (fused or not) or a
        :class:`FusedPipeline` of this executor's runtime.  Returns a
        :class:`LaunchFuture` immediately; the launch runs as soon as a
        worker is free *and* every conflicting earlier submission has
        finished.
        """
        if not isinstance(plan, (LaunchPlan, FusedPipeline)) and \
                not hasattr(plan, "launch"):
            raise KernelLaunchError(
                "AsyncExecutor.submit expects a prepared launch plan, fused "
                "plan or fused pipeline (use kernel.bind(...) / rt.fuse(...))"
            )
        plan_runtime = getattr(plan, "runtime", None)
        if plan_runtime is not None and plan_runtime is not self.runtime:
            raise KernelLaunchError(
                "cannot submit a launch plan from a different runtime")

        reads: Set[int] = set()
        writes: Set[int] = set()
        _collect_hazards(plan, reads, writes)

        future = LaunchFuture(plan)
        task = _Task(plan, future)
        task.read_ids = list(reads)
        task.write_ids = list(writes)

        with self._lock:
            if self._shutdown:
                raise RuntimeBrookError("executor has been shut down")
            dependencies: Set[_Task] = set()
            for sid in reads:
                writer = self._last_writer.get(sid)
                if writer is not None and not writer.finished:
                    dependencies.add(writer)
            for sid in writes:
                writer = self._last_writer.get(sid)
                if writer is not None and not writer.finished:
                    dependencies.add(writer)
                for reader in self._readers.get(sid, ()):
                    if not reader.finished:
                        dependencies.add(reader)
            task.pending = len(dependencies)
            for dependency in dependencies:
                dependency.dependents.append(task)
            # Update the hazard tables *after* computing the dependencies:
            # reads register as live readers, writes become the stream's
            # new last writer (and clear the reader set - later readers
            # only need the new writer).
            for sid in reads:
                readers = self._readers.setdefault(sid, [])
                readers[:] = [t for t in readers if not t.finished]
                readers.append(task)
            for sid in writes:
                self._last_writer[sid] = task
                self._readers[sid] = []
            self._outstanding += 1
            self._submitted += 1
            if self._sanitizer is not None:
                task.audit_index = len(self._audit_plans)
                self._audit_plans.append(plan)
                self._audit_accesses.append(
                    self._sanitizer.snapshot_accesses(plan))
        if task.pending == 0:
            self._ready.put(task)
        return future

    def submit_all(self, plans) -> List[LaunchFuture]:
        """Submit several plans in order; returns their futures."""
        return [self.submit(plan) for plan in plans]

    # ------------------------------------------------------------------ #
    # Completion plumbing
    # ------------------------------------------------------------------ #
    def _worker(self) -> None:
        while True:
            task = self._ready.get()
            if task is None:
                return
            if self._discard:
                task.future._set_exception(
                    RuntimeBrookError("executor shut down before this "
                                      "launch was executed"))
            else:
                if self._sanitizer is not None:
                    with self._lock:
                        self._audit_events.append(("start", task.audit_index))
                try:
                    result = task.plan.launch()
                except BaseException as exc:  # noqa: BLE001 - forwarded
                    task.future._set_exception(exc)
                else:
                    task.future._set_result(result)
            self._finish(task)

    def _finish(self, task: _Task) -> None:
        worklist = [task]
        while worklist:
            current = worklist.pop()
            newly_ready: List[_Task] = []
            with self._lock:
                current.finished = True
                # Recorded under the lock *before* any dependent can be
                # released, so a dependent's start event always follows
                # its dependency's finish event in the audit log.
                if self._sanitizer is not None and current.audit_index >= 0 \
                        and not self._discard:
                    self._audit_events.append(("finish", current.audit_index))
                # Drop the finished task from the hazard tables so they
                # stay bounded in a long-running service.
                for sid in current.write_ids:
                    if self._last_writer.get(sid) is current:
                        del self._last_writer[sid]
                        if not self._readers.get(sid):
                            self._readers.pop(sid, None)
                for sid in current.read_ids:
                    readers = self._readers.get(sid)
                    if readers and current in readers:
                        readers.remove(current)
                        if not readers and sid not in self._last_writer:
                            del self._readers[sid]
                for dependent in current.dependents:
                    dependent.pending -= 1
                    if dependent.pending == 0:
                        newly_ready.append(dependent)
                self._outstanding -= 1
                if self._outstanding == 0:
                    self._idle.notify_all()
            if self._discard:
                # Workers may already be gone; fail dependents inline
                # instead of enqueueing work nobody will pop.
                for dependent in newly_ready:
                    dependent.future._set_exception(
                        RuntimeBrookError("executor shut down before this "
                                          "launch was executed"))
                    worklist.append(dependent)
            else:
                for dependent in newly_ready:
                    self._ready.put(dependent)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def outstanding(self) -> int:
        """Submissions that have not finished yet."""
        with self._lock:
            return self._outstanding

    @property
    def submitted(self) -> int:
        """Total submissions accepted since construction."""
        with self._lock:
            return self._submitted

    def wait_all(self, timeout: Optional[float] = None) -> bool:
        """Block until every submission so far has finished.

        In sanitize mode a successful drain additionally cross-checks
        the observed launch order against the static dependency DAG,
        raising :class:`~repro.errors.SanitizerError` on divergence.
        """
        drained = self._drain(timeout)
        if drained:
            self._check_divergence()
        return drained

    def _drain(self, timeout: Optional[float] = None) -> bool:
        with self._idle:
            return self._idle.wait_for(lambda: self._outstanding == 0,
                                       timeout)

    def _check_divergence(self) -> None:
        if self._sanitizer is None:
            return
        with self._lock:
            plans = list(self._audit_plans)
            accesses = list(self._audit_accesses)
            events = list(self._audit_events)
        self._sanitizer.check_executor_order(plans, accesses, events)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers.  Safe to call more than once, from any thread.

        With ``wait=True`` (default) every submission drains first; with
        ``wait=False`` launches that have not started fail their futures
        with :class:`RuntimeBrookError` instead of executing.  Exactly
        one caller performs the teardown: a concurrent second call never
        injects the stop sentinels ahead of still-queued launches (which
        would strand them and hang the draining caller); it simply waits
        for the winner to finish.
        """
        with self._lock:
            first = not self._shutdown
            self._shutdown = True
            if first and not wait:
                self._discard = True
        if not first:
            if wait:
                self._stopped.wait()
            return
        try:
            if wait:
                self._drain()
            for _ in self._threads:
                self._ready.put(None)
            for thread in self._threads:
                if thread is not threading.current_thread():
                    thread.join()
            self._threads = []
        finally:
            # Always release concurrent callers blocked on _stopped -
            # even when the winning teardown is interrupted mid-drain
            # (KeyboardInterrupt), a later close() must not hang.
            self._stopped.set()
        # The divergence cross-check runs only after the workers are
        # fully stopped, so a raised SanitizerError never leaks threads.
        if wait:
            self._check_divergence()

    def close(self) -> None:
        """Drain every in-flight submission, then stop the workers.

        Alias of :meth:`shutdown` with ``wait=True``: futures submitted
        before the close complete normally (or carry their launch's
        exception); submitting afterwards raises.  Never hangs on
        concurrent closes and never leaks worker threads.
        """
        self.shutdown(wait=True)

    def __enter__(self) -> "AsyncExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=exc_type is None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<AsyncExecutor workers={self.workers} "
                f"outstanding={self.outstanding}>")
