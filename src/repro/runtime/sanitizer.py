"""BrookSanitizer: opt-in instrumented execution mode.

Enabled with ``BrookRuntime(sanitize=True)`` or the ``BROOKSAN=1``
environment variable, the sanitizer shadow-tracks what the runtime
actually does and records a :class:`SanitizerFinding` for every defect
the normal execution path would hide:

* **uninitialized-read** - a kernel input stream that no host write and
  no earlier kernel ever wrote (it still holds its creation zeros),
* **nan-origin** - the first kernel (name + source line) that turned a
  finite stream non-finite; downstream launches that merely *propagate*
  the NaN/Inf are not re-blamed,
* **gather-oob** - a gather access outside the array extent, recorded
  on *every* backend: the CPU backend additionally raises its usual
  :class:`~repro.errors.GatherBoundsError`, the GL ES 2 backend
  silently edge-clamps - the finding is what makes the divergence
  visible,
* **double-flush** - an explicit :meth:`CommandQueue.flush` with
  nothing pending after the queue already flushed (usually a
  queue-reuse bug; the automatic exit-flush of a ``with`` block is
  exempt),
* **use-after-release** - a launch or host access touching a stream
  whose device storage was freed.

Findings are *recorded*, never raised - sanitized runs behave exactly
like unsanitized ones, so the mode can wrap an entire test suite
(``BROOKSAN=1 pytest``).  The single exception is the **differential
cross-check**: :class:`~repro.runtime.executor.AsyncExecutor` keeps an
audit log of its observed launch order, and on every drain the
sanitizer rebuilds the static dependency DAG of
:mod:`repro.core.analysis.dataflow` and verifies that every
statically-conflicting pair really executed in order.  A divergence
means the static analyzer or the dynamic hazard tracker is wrong (or
they disagree about aliasing) - the run cannot be trusted, so
:class:`~repro.errors.SanitizerError` is raised.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

import numpy as np

from ..errors import SanitizerError, SourceLocation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .launch import LaunchPlan

__all__ = ["BrookSanitizer", "SanitizerFinding"]

#: Finding kinds, in the order they appear in reports.
FINDING_KINDS = ("uninitialized-read", "nan-origin", "gather-oob",
                 "double-flush", "use-after-release", "hazard-divergence")


@dataclass
class SanitizerFinding:
    """One defect observed by the sanitizer during execution."""

    kind: str
    message: str
    kernel: str = ""
    stream: str = ""
    location: Optional[SourceLocation] = None

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "message": self.message,
            "kernel": self.kernel,
            "stream": self.stream,
            "line": self.location.line if self.location else None,
        }

    def __str__(self) -> str:
        where = f" at line {self.location.line}" if self.location else ""
        kernel = f" [{self.kernel}]" if self.kernel else ""
        return f"{self.kind}{kernel}{where}: {self.message}"


class _CheckedGatherSource:
    """Wraps a backend gather source with bounds shadow-checking.

    Delegates every fetch to the real source, so backend semantics are
    preserved exactly (the CPU source still raises, the GL ES 2 source
    still clamps and quantizes) - the wrapper only *observes*.
    """

    def __init__(self, name: str, inner, sanitizer: "BrookSanitizer",
                 kernel: str = ""):
        self._name = name
        self._inner = inner
        self._sanitizer = sanitizer
        self._kernel = kernel

    @property
    def shape(self):
        return self._inner.shape

    @property
    def fetch_count(self) -> int:
        return self._inner.fetch_count

    def dense(self):
        # The slice path only serves accesses proved in-bounds, so
        # delegating cannot hide an out-of-bounds finding.
        dense = getattr(self._inner, "dense", None)
        return dense() if dense is not None else None

    def add_fetches(self, count: int) -> None:
        self._inner.add_fetches(count)

    def fetch(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        height, width = self._inner.shape
        # Checked once on the float indices, where NaN fails every
        # comparison: in bounds they are non-negative, so their floor is
        # in bounds too.  Only a finding needs the floored ranges.
        if rows.size and not (rows.min() >= 0 and rows.max() < height
                              and cols.min() >= 0 and cols.max() < width):
            row_idx = np.asarray(np.floor(rows), dtype=np.int64)
            col_idx = np.asarray(np.floor(cols), dtype=np.int64)
            self._sanitizer.note_gather_oob(
                self._name, self._kernel,
                (int(row_idx.min()), int(row_idx.max())),
                (int(col_idx.min()), int(col_idx.max())),
                (height, width))
        return self._inner.fetch(rows, cols)


class BrookSanitizer:
    """Shadow state and finding log of one sanitized runtime."""

    def __init__(self, runtime: "object"):
        self.runtime = runtime
        self.findings: List[SanitizerFinding] = []
        self._lock = threading.RLock()
        #: Leaf storage ids written by the host or by a kernel.
        self._initialized: Set[int] = set()
        #: Leaf storage id -> (kernel, location) that first produced a
        #: non-finite value now stored there.
        self._taint: Dict[int, Tuple[str, Optional[SourceLocation]]] = {}
        self.counts: Dict[str, int] = {kind: 0 for kind in FINDING_KINDS}
        #: Launches observed (before/after hook pairs).
        self.launches_checked = 0

    # ------------------------------------------------------------------ #
    # Finding log
    # ------------------------------------------------------------------ #
    def _record(self, finding: SanitizerFinding) -> None:
        with self._lock:
            self.counts[finding.kind] = self.counts.get(finding.kind, 0) + 1
            if len(self.findings) < 1000:   # bounded for long services
                self.findings.append(finding)

    def findings_of(self, kind: str) -> List[SanitizerFinding]:
        with self._lock:
            return [f for f in self.findings if f.kind == kind]

    def report(self) -> Dict:
        """Counters + findings, embeddable in service reports."""
        with self._lock:
            return {
                "launches_checked": self.launches_checked,
                "counts": {kind: count for kind, count in self.counts.items()
                           if count},
                "findings": [f.to_dict() for f in self.findings[:50]],
            }

    # ------------------------------------------------------------------ #
    # Stream hooks
    # ------------------------------------------------------------------ #
    def note_host_write(self, stream: object) -> None:
        from ..core.analysis.dataflow import storage_units

        with self._lock:
            self._initialized.update(storage_units(stream))
            # Host data replaces whatever was tainted there.
            for unit in storage_units(stream):
                self._taint.pop(unit, None)

    def note_use_after_release(self, stream: object, context: str = "") -> None:
        self._record(SanitizerFinding(
            kind="use-after-release",
            message=f"stream {stream.name!r} was used after its device "
                    f"storage was released{' ' + context if context else ''}",
            stream=getattr(stream, "name", "")))

    # ------------------------------------------------------------------ #
    # Queue hooks
    # ------------------------------------------------------------------ #
    def note_double_flush(self, queue: object) -> None:
        self._record(SanitizerFinding(
            kind="double-flush",
            message="CommandQueue.flush() called with nothing pending after "
                    f"{queue.flushed_launches} launches already flushed "
                    "(queue reused after its batch ran?)"))

    # ------------------------------------------------------------------ #
    # Gather hooks
    # ------------------------------------------------------------------ #
    def checked_gather(self, name: str, source, kernel: str = ""):
        return _CheckedGatherSource(name, source, self, kernel)

    def note_gather_oob(self, name: str, kernel: str,
                        row_range: Tuple[int, int],
                        col_range: Tuple[int, int],
                        shape: Tuple[int, int]) -> None:
        self._record(SanitizerFinding(
            kind="gather-oob",
            message=f"gather {name!r} accessed rows {row_range}, cols "
                    f"{col_range} of an array of shape {shape}",
            kernel=kernel, stream=name))

    # ------------------------------------------------------------------ #
    # Launch hooks
    # ------------------------------------------------------------------ #
    def _plan_accesses(self, plan: "LaunchPlan"):
        """(reads, writes) name->stream dicts of one plan.

        Reduction accumulators are deliberately *not* treated as reads:
        the runtime overwrites them, so reading their creation zeros is
        part of the contract, not a defect.
        """
        reads: Dict[str, object] = {}
        writes: Dict[str, object] = {}
        if plan.is_reduction:
            reads["<reduce-input>"] = plan.reduce_input
            if plan.accumulator is not None:
                writes["<accumulator>"] = plan.accumulator
        for launch_pass in plan.passes:
            reads.update(launch_pass.stream_args)
            reads.update(launch_pass.gather_args)
            writes.update(launch_pass.out_args)
        return reads, writes

    def _plan_location(self, plan: "LaunchPlan") -> Optional[SourceLocation]:
        return getattr(plan.kernel.definition, "location", None)

    def before_launch(self, plan: "LaunchPlan") -> None:
        """Check initialization state of every input the launch reads."""
        from ..core.analysis.dataflow import storage_units

        reads, _ = self._plan_accesses(plan)
        kernel = getattr(plan, "kernel_name", "")
        with self._lock:
            for name, stream in reads.items():
                units = storage_units(stream)
                if units and not any(unit in self._initialized
                                     for unit in units):
                    self._record(SanitizerFinding(
                        kind="uninitialized-read",
                        message=f"kernel {kernel!r} reads stream "
                                f"{stream.name!r} ({name}), which was never "
                                "written by the host or by a kernel",
                        kernel=kernel, stream=getattr(stream, "name", ""),
                        location=self._plan_location(plan)))

    def after_launch(self, plan: "LaunchPlan") -> None:
        """Mark outputs initialized and track NaN/Inf origins."""
        from ..core.analysis.dataflow import storage_units

        reads, writes = self._plan_accesses(plan)
        kernel = getattr(plan, "kernel_name", "")
        location = self._plan_location(plan)
        backend = getattr(self.runtime, "backend", None)
        with self._lock:
            self.launches_checked += 1
            inputs_tainted: Optional[Tuple[str, Optional[SourceLocation]]] = None
            for stream in reads.values():
                for unit in storage_units(stream):
                    if unit in self._taint:
                        inputs_tainted = self._taint[unit]
                        break
                if inputs_tainted:
                    break
            for stream in writes.values():
                units = storage_units(stream)
                self._initialized.update(units)
                if backend is None:
                    continue
                try:
                    view = backend.device_view(stream.storage)
                except Exception:   # pragma: no cover - defensive
                    continue
                if bool(np.isfinite(view).all()):
                    for unit in units:
                        self._taint.pop(unit, None)
                    continue
                already = any(unit in self._taint for unit in units)
                if already:
                    continue       # still non-finite; origin already known
                if inputs_tainted is not None:
                    # Propagation, not production: inherit the origin.
                    for unit in units:
                        self._taint[unit] = inputs_tainted
                    continue
                origin = (kernel, location)
                for unit in units:
                    self._taint[unit] = origin
                line = f" (line {location.line})" if location else ""
                self._record(SanitizerFinding(
                    kind="nan-origin",
                    message=f"kernel {kernel!r}{line} first produced a "
                            f"non-finite value in stream {stream.name!r}",
                    kernel=kernel, stream=getattr(stream, "name", ""),
                    location=location))

    # ------------------------------------------------------------------ #
    # Differential cross-check (static DAG vs observed executor order)
    # ------------------------------------------------------------------ #
    def snapshot_accesses(self, plan: object):
        """Capture the leaf storages and buffers a plan touches, *now*.

        The executor records this at submission time - the moment the
        static analysis would see the pipeline - because backends may
        replace a storage's buffer on every launch, so aliasing through
        shared NumPy buffers is only observable before the launches run.
        A FusedPipeline submission is one scheduling unit: the union of
        its segments.
        """
        from ..core.analysis.dataflow import build_dataflow_graph, \
            leaf_storages

        def info(streams):
            units: Set[int] = set()
            buffers: List[np.ndarray] = []
            for stream in streams:
                for storage in leaf_storages(stream):
                    units.add(id(storage))
                    data = getattr(storage, "data", None)
                    if isinstance(data, np.ndarray):
                        buffers.append(data)
            return (units, buffers)

        graph = build_dataflow_graph([plan])
        reads: List[object] = []
        writes: List[object] = []
        for node in graph.nodes:
            reads.extend(node.reads.values())
            reads.extend(node.gathers.values())
            writes.extend(node.writes.values())
        return (info(reads), info(writes))

    @staticmethod
    def _sets_alias(a, b) -> bool:
        units_a, buffers_a = a
        units_b, buffers_b = b
        if units_a & units_b:
            return True
        return any(np.shares_memory(x, y)
                   for x in buffers_a for y in buffers_b)

    def check_executor_order(self, submissions: List[object],
                             accesses: List[object],
                             events: List[Tuple[str, int]]) -> None:
        """Verify the executor's observed order against the static DAG.

        ``submissions`` is the executor's audit list (one plan per
        ``submit``, in submission order), ``accesses`` the matching
        :meth:`snapshot_accesses` results, ``events`` the observed
        ``("start"|"finish", index)`` log.  Every pair the static
        analysis proves conflicting must satisfy
        ``finish(earlier) < start(later)`` in the observed log.  Any
        violation raises :class:`~repro.errors.SanitizerError` - the
        static DAG and the dynamic hazard tracker disagree, so one of
        them is wrong and the computed results cannot be trusted.
        """
        if len(submissions) < 2:
            return
        start: Dict[int, int] = {}
        finish: Dict[int, int] = {}
        for position, (op, index) in enumerate(events):
            if op == "start":
                start.setdefault(index, position)
            else:
                finish.setdefault(index, position)

        divergences: List[SanitizerFinding] = []
        for j in range(len(submissions)):
            if j not in start:
                continue
            reads_j, writes_j = accesses[j]
            for i in range(j):
                if i not in finish or i not in start:
                    continue
                reads_i, writes_i = accesses[i]
                conflict = (self._sets_alias(writes_i, reads_j)
                            or self._sets_alias(writes_i, writes_j)
                            or self._sets_alias(reads_i, writes_j))
                if conflict and finish[i] > start[j]:
                    kernel_i = getattr(submissions[i], "kernel_name",
                                       type(submissions[i]).__name__)
                    kernel_j = getattr(submissions[j], "kernel_name",
                                       type(submissions[j]).__name__)
                    divergences.append(SanitizerFinding(
                        kind="hazard-divergence",
                        message=f"submissions #{i} ({kernel_i}) and #{j} "
                                f"({kernel_j}) conflict in the static DAG "
                                "but the executor overlapped them "
                                f"(finish[{i}]={finish[i]} > "
                                f"start[{j}]={start[j]})",
                        kernel=kernel_j))
        if divergences:
            for finding in divergences:
                self._record(finding)
            raise SanitizerError(
                f"executor launch order diverged from the static dependency "
                f"DAG on {len(divergences)} conflicting pair(s): "
                f"{divergences[0]}", findings=divergences)
