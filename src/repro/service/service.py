"""The multi-runtime serving layer.

:class:`BrookService` owns a pool of worker runtimes (one
:class:`~repro.runtime.runtime.BrookRuntime` per worker thread) and
dispatches self-contained :class:`~repro.service.request.ServiceRequest`
objects to the least-loaded worker.  Each worker keeps a bounded LRU
cache of *prepared* requests keyed by request signature: the compiled
module, the input/output streams and the bound launch plans - fused into
a single-pass :class:`~repro.runtime.launch.FusedPipeline` when fusion
is enabled - are built once and reused for every later request with the
same signature, so steady-state serving only pays for writing the input
data, launching the prepared pass(es) and reading the outputs.

Every prepared request holds one ordered launch list, built once on the
cache miss: ``[rt.fuse(plans)]`` with ``fuse=True`` (default), the bare
plans with ``fuse=False`` and, under ``plan="auto"``, the fused groups
and bare plans the planner chose.  A cached request launches that list
in order; every configuration produces bit-identical outputs to
executing the request's calls serially on a single runtime and only
differs in how many passes it pays.  A worker drains up to
``max_batch`` queued requests at a time and serves each one on its own,
so one request's failure never touches another's future.

With ``plan="auto"`` ``fuse`` stops being a knob: the cost-model
auto-planner (:mod:`repro.core.analysis.planner`) prices the candidate
configurations of each request signature on the service's timing
platform and executes the argmin.  Decisions are cached per
``(signature, platform, devices)`` - a service built for a different
platform or device count never reuses a stale decision - and a request
carrying a deadline only ever gets a configuration whose WCET bound
provably fits its budget.

Requests are independent by construction (each signature owns distinct
streams), and the per-runtime state the workers share - compile cache,
statistics, stream table, backend storage accounting - is thread-safe,
so a service is safe to drive from many client threads at once.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict, deque
from queue import Empty, Queue
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.compiler import CompilerOptions
from ..errors import PlanningError, RuntimeBrookError
from ..runtime.profiling import WCETMarginRecord
from ..runtime.runtime import BrookRuntime
from .deadline import DeadlineRejected, DeadlineStats, EDFQueue
from .request import ServiceFuture, ServiceRequest, ServiceResponse

__all__ = ["BrookService", "prepare_request"]

_STOP = object()

#: Completed-request latencies kept for the percentile report.  Bounded
#: so a service handling heavy traffic for days does not grow without
#: limit; the counters stay exact, only the percentile window slides.
LATENCY_WINDOW = 65536


def prepare_request(runtime: BrookRuntime, request: ServiceRequest):
    """Compile and bind a request on ``runtime``: (module, streams, plans).

    The canonical request-preparation recipe shared by the service
    workers, the auto-planner's decision pass, the CLI and the
    benchmarks: one stream per input/output/scratch entry, one prepared
    plan per kernel call with string arguments resolved to streams.
    The caller owns the returned streams (release them when done).
    """
    module = runtime.compile(request.source)
    streams = {}
    for name, array in request.inputs.items():
        streams[name] = runtime.stream(array.shape, name=name)
    for name, dims in request.outputs.items():
        streams[name] = runtime.stream(dims, name=name)
    for name, dims in request.scratch.items():
        streams[name] = runtime.stream(dims, name=name)
    plans = []
    for one_call in request.calls:
        handle = module.kernel(one_call.kernel)
        args = [streams[arg] if isinstance(arg, str) else arg
                for arg in one_call.args]
        plans.append(handle.bind(*args))
    return module, streams, plans


class _RequestKey:
    """A request signature with its hash computed once.

    The service interns one key per signature at submit, so its caches
    (WCET bounds, planner decisions, the workers' prepared plans) find
    their entries by identity: after submit no signature is rebuilt,
    re-hashed or compared call by call.
    """

    __slots__ = ("signature", "_hash")

    def __init__(self, signature: Tuple):
        self.signature = signature
        self._hash = hash(signature)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, _RequestKey)
                                 and self._hash == other._hash
                                 and self.signature == other.signature)


def _signature_label(request: ServiceRequest, key: _RequestKey) -> str:
    """Stable human-readable identity of a request signature.

    The kernel chain plus a short signature digest: readable in reports,
    and distinct signatures sharing a kernel chain (different shapes,
    say) stay distinguishable.
    """
    digest = hashlib.sha1(
        repr(key.signature).encode("utf-8")).hexdigest()[:8]
    return "+".join(one_call.kernel for one_call in request.calls) \
        + "@" + digest


def _budget(request: ServiceRequest) -> Optional[float]:
    """The deadline budget the planner filters candidates against."""
    if request.deadline is None:
        return None
    return request.deadline - request.release


class _PendingItem:
    """One submitted request travelling through a worker queue."""

    __slots__ = ("request", "key", "future", "submitted_at", "wcet_s")

    def __init__(self, request: ServiceRequest, key: _RequestKey,
                 future: ServiceFuture):
        self.request = request
        #: The interned key of the request's signature.
        self.key = key
        self.future = future
        self.submitted_at = time.perf_counter()
        #: The request's WCET bound in modelled seconds (deadline
        #: tracking only; ``None`` otherwise).
        self.wcet_s: Optional[float] = None


class _PreparedRequest:
    """Cache entry: streams + the ordered launch list of one signature."""

    __slots__ = ("streams", "launchables", "label")

    def __init__(self, streams, launchables, label):
        self.streams = streams
        #: What a request of this signature launches, in order: one fused
        #: pipeline, the bare plans, or the auto-planner's mix of both.
        self.launchables = launchables
        #: ``_signature_label`` of the request signature, computed once
        #: on the cache miss that built the entry (hits reuse it).
        self.label = label

    def release(self) -> None:
        for stream in self.streams.values():
            stream.release()


class _ServiceWorker:
    """One pool worker: a runtime, its thread and its prepared-plan cache."""

    def __init__(self, service: "BrookService", index: int):
        self.service = service
        self.index = index
        self.runtime = BrookRuntime(
            backend=service.backend_name,
            device=service.device,
            devices=service.devices,
            compiler_options=service._compiler_options,
            sanitize=service.sanitize,
        )
        self.queue = (EDFQueue() if service.scheduler == "edf"
                      else Queue())
        #: Modelled completion time of the work this worker has actually
        #: executed (the service's virtual timeline, seconds).
        self.virtual_s = 0.0
        #: Modelled completion time of everything *dispatched* to this
        #: worker, projected with WCET bounds (admission control's
        #: backlog clock; always >= the virtual clock).
        self.committed_s = 0.0
        #: Requests dispatched to this worker and not completed yet
        #: (maintained by the service under its dispatch lock).
        self.outstanding = 0
        self.requests_served = 0
        self._cache: "OrderedDict[Tuple, _PreparedRequest]" = OrderedDict()
        self._cache_hits = 0
        self._cache_misses = 0
        #: Per-signature hit/miss counters ({label: [hits, misses]}), so
        #: cache behaviour (and autoplan wins) is attributable per
        #: pipeline rather than only in aggregate.
        self._sig_stats: "OrderedDict[str, List[int]]" = OrderedDict()
        self.thread = threading.Thread(
            target=self._run, name=f"brook-service-{index}", daemon=True)
        self.thread.start()

    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        while True:
            item = self.queue.get()
            if item is _STOP:
                break
            batch: List[_PendingItem] = [item]
            while len(batch) < self.service.max_batch:
                try:
                    extra = self.queue.get_nowait()
                except Empty:
                    break
                if extra is _STOP:
                    # Re-queue the sentinel so the drain still terminates
                    # after this batch is processed.
                    self.queue.put(_STOP)
                    break
                batch.append(extra)
            self._process_batch(batch)
        self.runtime.close()

    # ------------------------------------------------------------------ #
    def _record_sig(self, label: str, hit: bool) -> None:
        counters = self._sig_stats.get(label)
        if counters is None:
            counters = self._sig_stats[label] = [0, 0]
            while len(self._sig_stats) > max(64,
                                             4 * self.service.plan_cache_size):
                self._sig_stats.popitem(last=False)
        counters[0 if hit else 1] += 1

    def _entry_for(self, item: _PendingItem
                   ) -> "Tuple[_PreparedRequest, bool]":
        request = item.request
        key: object = item.key
        chosen = None
        if self.service.plan_mode == "auto":
            # The planner decides first (PlanningError propagates to the
            # request's future); the chosen config joins the cache key,
            # so the same signature under a different deadline budget
            # can legitimately map to a differently-built entry.
            decision = self.service._decision_for(request, item.key)
            chosen = decision.choose(_budget(request))
            key = (key, chosen.config.key())
        entry = self._cache.get(key)
        if entry is not None:
            self._cache_hits += 1
            self._record_sig(entry.label, hit=True)
            self._cache.move_to_end(key)
            return entry, True
        self._cache_misses += 1
        label = _signature_label(request, item.key)
        self._record_sig(label, hit=False)
        rt = self.runtime
        _module, streams, plans = prepare_request(rt, request)
        if chosen is not None:
            from ..core.analysis.planner import build_launchables
            launchables = build_launchables(rt, plans, chosen.config)
        elif self.service.fuse:
            launchables = [rt.fuse(plans)]
        else:
            launchables = plans
        entry = _PreparedRequest(streams, launchables, label)
        self._cache[key] = entry
        while len(self._cache) > self.service.plan_cache_size:
            # The new entry is the most recent, so an evicted one is
            # never the entry about to run.
            self._cache.popitem(last=False)[1].release()
        return entry, False

    def _process_batch(self, batch: List[_PendingItem]) -> None:
        for item in batch:
            try:
                entry, cached = self._entry_for(item)
            except BaseException as exc:  # noqa: BLE001 - forwarded
                self.service._complete(self, item, None, exc)
            else:
                self._run_round(item, entry, cached)

    def _run_round(self, item: _PendingItem, entry: _PreparedRequest,
                   cached: bool) -> None:
        """Serve one request on its prepared entry and resolve its future.

        ``execute_s`` spans the input writes and the launches; the
        output reads are excluded.  With deadline tracking the
        statistics interval since ``marker`` belongs to this request
        alone, which is what prices its modelled execution time.
        """
        tracking = self.service._track_deadlines
        started = time.perf_counter()
        marker = self.runtime.statistics.marker() if tracking else None
        try:
            streams = entry.streams
            for name, array in item.request.inputs.items():
                streams[name].write(array)
            value = None
            for launchable in entry.launchables:
                value = launchable.launch()
            execute_s = time.perf_counter() - started
            response = ServiceResponse(
                name=item.request.name,
                outputs={name: streams[name].read()
                         for name in item.request.outputs},
                value=value,
                worker=self.index,
                latency_s=time.perf_counter() - item.submitted_at,
                execute_s=execute_s,
                cached=cached,
            )
            if tracking:
                self._account_deadline(item, response, marker)
        except BaseException as exc:  # noqa: BLE001 - forwarded
            self.service._complete(self, item, None, exc)
        else:
            self.service._complete(self, item, response, None)

    # ------------------------------------------------------------------ #
    def _account_deadline(self, item: _PendingItem,
                          response: ServiceResponse, marker) -> None:
        """Advance the virtual clock and stamp deadline fields.

        The statistics interval since ``marker`` covers exactly this
        request's input writes, kernel passes and output reads (every
        request runs as its own round); pricing it with the platform
        model gives the modelled execution time the deadline accounting
        runs on.  The stream/plan *preparation* transfers of a cache
        miss happen before the marker and are deliberately excluded -
        the WCET bound covers steady-state serving, and preparation is
        a one-time signature cost, not per-request work.
        """
        service = self.service
        request = item.request
        aggregate = self.runtime.statistics.workload_since(marker)
        modelled_s = service._modelled_seconds(aggregate)
        with service._stats_lock:
            start = max(request.release, self.virtual_s)
            finish = start + modelled_s
            self.virtual_s = finish
            # The backlog clock can never lag the executed clock.
            self.committed_s = max(self.committed_s, finish)
        response.modelled_s = modelled_s
        response.wcet_s = item.wcet_s
        response.virtual_finish_s = finish
        if request.deadline is not None:
            response.deadline_met = finish <= request.deadline
        if item.wcet_s:
            self.runtime.statistics.record_wcet_margin(WCETMarginRecord(
                label=request.name or request.calls[0].kernel,
                wcet_s=item.wcet_s,
                modelled_s=modelled_s,
            ))

    # ------------------------------------------------------------------ #
    def cache_info(self) -> Dict[str, object]:
        return {
            "entries": len(self._cache),
            "capacity": self.service.plan_cache_size,
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "per_signature": {
                label: {"hits": counters[0], "misses": counters[1]}
                for label, counters in self._sig_stats.items()
            },
        }


class BrookService:
    """A pool of worker runtimes serving pipeline requests concurrently.

    .. code-block:: python

        from repro.service import BrookService, ServiceRequest, call

        with BrookService(backend="cpu", pool_size=4) as service:
            future = service.submit(request)       # ServiceFuture
            response = future.result()             # ServiceResponse
            print(service.service_report())

    Args:
        backend: Registered backend name for every worker runtime.
        device: Device profile handed to GPU backends.
        pool_size: Number of worker runtimes (and threads).
        fuse: ``True`` fuses each prepared request once with ``rt.fuse``
            (the fastest steady state); ``False`` launches one pass per
            kernel call.
        max_batch: Upper bound on requests a worker drains from its
            queue at once (each one is still served on its own).
        plan_cache_size: Prepared request signatures kept per worker
            (least recently used entries are evicted and their streams
            released).
        compiler_options: Base compiler options for the worker runtimes.
        devices: Devices per worker runtime.  With ``devices=N > 1``
            each worker opens a sharded runtime
            (``BrookRuntime(devices=N)``), so one big request fans out
            across a device group while the pool still serves requests
            concurrently; responses stay bit-identical to ``devices=1``.
        scheduler: ``"fifo"`` (default, submission order) or ``"edf"``
            (earliest-deadline-first worker queues; best-effort requests
            run after every deadline request).
        admission: Enable WCET-based admission control: a request whose
            deadline provably cannot be met - its static worst-case
            bound stacked on the worker's committed backlog lands past
            the deadline - resolves immediately with a typed
            :class:`~repro.service.deadline.DeadlineRejected` response
            instead of being queued.  Under ``plan="auto"`` the bound is
            that of the configuration the planner picks for the
            request's deadline budget; otherwise it is the un-fused
            bound, sound for every ``fuse`` setting.
        platform: Timing platform pricing the WCET bounds and the
            modelled per-request execution times (deadline accounting
            runs on this modelled timeline).  Defaults to ``"target"``
            when EDF/admission/deadline tracking is active.  Setting it
            explicitly turns deadline *tracking* on even under the FIFO
            scheduler without admission - that is the measurable
            baseline the deadline benchmark compares against.
        plan: ``"manual"`` (default) executes the ``fuse`` setting as
            given; ``"auto"`` lets the cost-model planner pick the
            execution configuration per request signature (which fuse
            groups to merge - priced on the service's timing platform,
            which defaults to ``"target"`` without turning deadline
            tracking on).  Deadline-carrying requests only receive
            configurations whose WCET bound fits the deadline budget;
            when none fits, the request's future raises
            :class:`~repro.errors.PlanningError`.
        sanitize: Run every worker runtime under
            :class:`~repro.runtime.sanitizer.BrookSanitizer` and add an
            aggregated ``"sanitizer"`` section (launches checked,
            finding counts, first findings) to :meth:`service_report`.
            ``None`` (default) defers to the ``BROOKSAN`` environment
            variable, exactly like ``BrookRuntime(sanitize=None)``.
    """

    def __init__(
        self,
        backend: str = "cpu",
        device: Optional[str] = None,
        pool_size: int = 2,
        fuse: bool = True,
        max_batch: int = 8,
        plan_cache_size: int = 32,
        compiler_options: Optional[CompilerOptions] = None,
        devices: int = 1,
        scheduler: str = "fifo",
        admission: bool = False,
        platform: Optional[str] = None,
        plan: str = "manual",
        sanitize: Optional[bool] = None,
    ):
        # Degenerate configurations fail loudly and uniformly with a
        # RuntimeBrookError instead of being silently clamped (or
        # surfacing later as a ZeroDivisionError in batching math).
        if int(pool_size) < 1:
            raise RuntimeBrookError(
                f"BrookService needs at least one worker, got "
                f"pool_size={pool_size}")
        if int(max_batch) < 1:
            raise RuntimeBrookError(
                f"BrookService needs max_batch >= 1, got "
                f"max_batch={max_batch}")
        if int(plan_cache_size) < 1:
            raise RuntimeBrookError(
                f"BrookService needs plan_cache_size >= 1, got "
                f"plan_cache_size={plan_cache_size}")
        if int(devices) < 1:
            raise RuntimeBrookError(
                f"BrookService needs at least one device per worker, got "
                f"devices={devices}")
        if not isinstance(fuse, bool):
            raise RuntimeBrookError(
                f"fuse must be True or False, got {fuse!r}")
        self.fuse = fuse
        if scheduler not in ("fifo", "edf"):
            raise RuntimeBrookError(
                f"unknown scheduler {scheduler!r}; expected 'fifo' or 'edf'")
        if plan not in ("manual", "auto"):
            raise RuntimeBrookError(
                f"unknown plan mode {plan!r}; expected 'manual' or 'auto'")
        self.plan_mode = plan
        self.scheduler = scheduler
        self.admission = bool(admission)
        #: Deadline accounting is active whenever any deadline feature
        #: is requested; a bare FIFO service skips it entirely.  Note
        #: the check uses the *constructor* platform argument: the
        #: auto-planner needing a pricing platform below must not drag
        #: per-request deadline accounting in with it.
        self._track_deadlines = (self.admission or scheduler == "edf"
                                 or platform is not None)
        self.platform = platform or ("target" if self._track_deadlines
                                     else None)
        if self.plan_mode == "auto" and self.platform is None:
            self.platform = "target"
        if self.platform is not None:
            from ..timing.platforms import PLATFORMS
            if self.platform not in PLATFORMS:
                raise RuntimeBrookError(
                    f"unknown timing platform {self.platform!r}; available: "
                    f"{sorted(PLATFORMS)}")
        self.backend_name = backend
        self.device = device
        #: Sanitize mode: every worker runtime runs under BrookSanitizer
        #: and service_report() gains an aggregated "sanitizer" section.
        #: None defers to the BROOKSAN environment variable, exactly as
        #: BrookRuntime(sanitize=None) does.
        self.sanitize = sanitize
        self.pool_size = int(pool_size)
        self.devices = int(devices)
        self.max_batch = int(max_batch)
        self.plan_cache_size = int(plan_cache_size)
        self._compiler_options = compiler_options
        self._dispatch_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._completed = 0
        self._failed = 0
        self._latencies: "deque[float]" = deque(maxlen=LATENCY_WINDOW)
        self._first_submit: Optional[float] = None
        self._last_done: Optional[float] = None
        self._closed = False
        self._deadline_stats = DeadlineStats()
        #: WCET bounds per request signature (admission-path cache; the
        #: bound only depends on the signature, never the input data).
        self._wcet_cache: "OrderedDict[Tuple, object]" = OrderedDict()
        self._wcet_lock = threading.Lock()
        #: Auto-planner decisions keyed (signature, platform, devices):
        #: shared across the pool, and structurally unable to survive a
        #: platform or device-count change.
        self._plan_decisions: "OrderedDict[Tuple, object]" = OrderedDict()
        self._plan_lock = threading.Lock()
        self._autoplan_hits = 0
        self._autoplan_misses = 0
        #: The interned key of each recent request signature.
        self._keys: "OrderedDict[_RequestKey, _RequestKey]" = OrderedDict()
        self._keys_lock = threading.Lock()
        self._round_robin = 0
        self.workers = [_ServiceWorker(self, index)
                        for index in range(self.pool_size)]
        # Resolve the tri-state argument to what the pool actually runs.
        self.sanitize = self.workers[0].runtime.sanitizer is not None

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, request: ServiceRequest) -> ServiceFuture:
        """Dispatch ``request`` to the least-loaded worker runtime.

        With deadline tracking active the request's WCET bound is
        derived first (raising :class:`~repro.errors.WCETError` for
        kernels outside the certified subset - they can never be given a
        bound and are refused synchronously), and with ``admission=True``
        a request whose bound cannot fit before its deadline resolves
        immediately with a :class:`DeadlineRejected` response instead of
        being queued.
        """
        if not isinstance(request, ServiceRequest):
            raise RuntimeBrookError(
                "BrookService.submit expects a ServiceRequest")
        future = ServiceFuture(request)
        item = _PendingItem(request, self._key_for(request), future)
        if self._track_deadlines:
            # Outside the dispatch lock: first derivation per signature
            # compiles the source.  Raises WCETError for unbounded work.
            item.wcet_s = self._request_wcet_seconds(request, item.key)
        rejection: Optional[DeadlineRejected] = None
        # Enqueue under the dispatch lock: a concurrent close() also
        # takes it before appending the stop sentinels, so a request
        # that passed the closed check can never land behind a sentinel
        # (where no worker would ever process it).
        with self._dispatch_lock:
            if self._closed:
                raise RuntimeBrookError("service has been closed")
            if self.admission:
                # Admit onto the worker whose WCET-projected backlog
                # clears first; reject if even the bound cannot make it.
                worker = min(self.workers, key=lambda w: w.committed_s)
                projected = max(request.release, worker.committed_s) \
                    + item.wcet_s
                if request.deadline is not None \
                        and projected > request.deadline:
                    rejection = DeadlineRejected(
                        name=request.name,
                        reason=(
                            f"WCET bound {item.wcet_s:.6f}s on top of the "
                            f"worker backlog projects completion at "
                            f"{projected:.6f}s, past the deadline "
                            f"{request.deadline:.6f}s"),
                        wcet_s=item.wcet_s,
                        deadline_s=request.deadline,
                        projected_s=projected,
                        worker=worker.index,
                    )
                else:
                    worker.committed_s = projected
            elif self._track_deadlines:
                # Deterministic round-robin keeps the FIFO baseline's
                # hit/miss accounting reproducible across runs.
                worker = self.workers[self._round_robin % len(self.workers)]
                self._round_robin += 1
            else:
                worker = min(self.workers, key=lambda w: w.outstanding)
            if rejection is None:
                worker.outstanding += 1
                worker.queue.put(item)
        if rejection is not None:
            with self._stats_lock:
                self._deadline_stats.rejected += 1
            future._set_result(rejection)
            return future
        with self._stats_lock:
            if self._track_deadlines:
                self._deadline_stats.admitted += 1
            if self._first_submit is None:
                self._first_submit = item.submitted_at
        return future

    def process(self, request: ServiceRequest) -> ServiceResponse:
        """Submit one request and block for its response."""
        return self.submit(request).result()

    def map(self, requests) -> List[ServiceResponse]:
        """Submit every request, then collect the responses in order."""
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    def _key_for(self, request: ServiceRequest) -> _RequestKey:
        """The interned key of ``request``'s signature, built once per
        submit."""
        key = _RequestKey(request.signature())
        with self._keys_lock:
            key = self._keys.setdefault(key, key)
            self._keys.move_to_end(key)
            while len(self._keys) > max(64, 4 * self.plan_cache_size):
                self._keys.popitem(last=False)
        return key

    # ------------------------------------------------------------------ #
    # Auto-planning
    # ------------------------------------------------------------------ #
    def _decision_for(self, request: ServiceRequest, key: _RequestKey):
        """The planner's decision for ``request`` (cached service-wide).

        Keyed ``(signature, platform, devices)``: the decision depends
        on exactly those three - never the input data - so every worker
        shares it, and a different platform or device count can never
        see a stale decision.  First derivation per signature prepares a
        throwaway plan set on the first worker's runtime to enumerate and
        price the candidates; the streams are released immediately.  It
        creates streams and dry-run fuses only, so it adds no record to
        any worker's statistics.
        """
        key = (key, self.platform, self.devices)
        with self._plan_lock:
            decision = self._plan_decisions.get(key)
            if decision is not None:
                self._plan_decisions.move_to_end(key)
                self._autoplan_hits += 1
                return decision
            self._autoplan_misses += 1
        from ..core.analysis.planner import plan_service_request
        rt = self.workers[0].runtime
        module, streams, plans = prepare_request(rt, request)
        try:
            decision = plan_service_request(
                request, module.program, rt, plans,
                platform=self.platform,
                executable_devices=self.devices,
                limits=rt.backend.target_limits(),
            )
        finally:
            for stream in streams.values():
                stream.release()
        with self._plan_lock:
            self._plan_decisions[key] = decision
            while len(self._plan_decisions) > max(64,
                                                  4 * self.plan_cache_size):
                self._plan_decisions.popitem(last=False)
        return decision

    # ------------------------------------------------------------------ #
    # Deadline accounting helpers
    # ------------------------------------------------------------------ #
    def _request_wcet_seconds(self, request: ServiceRequest,
                              key: _RequestKey) -> float:
        """WCET bound of ``request`` in modelled seconds (cached).

        Under ``plan="auto"`` this is the bound of the candidate the
        worker will execute, ``decision.choose(budget).wcet_s``; when no
        candidate fits the budget it is the tightest candidate bound (the
        worker then fails the request with
        :class:`~repro.errors.PlanningError`).  Otherwise it is the
        un-fused ``request_wcet`` bound, sound for every serve mode.

        The bound depends only on the request signature (source, calls,
        shapes) and, under ``plan="auto"``, its deadline budget - never
        the input data - so it is derived once per key and reused,
        exactly like the workers' prepared plans.
        """
        budget = _budget(request) if self.plan_mode == "auto" else None
        cache_key = (key, budget)
        with self._wcet_lock:
            cached = self._wcet_cache.get(cache_key)
            if cached is not None:
                self._wcet_cache.move_to_end(cache_key)
                return cached
        if self.plan_mode == "auto":
            decision = self._decision_for(request, key)
            try:
                seconds = decision.choose(budget).wcet_s
            except PlanningError:
                seconds = min(candidate.wcet_s
                              for candidate in decision.candidates
                              if candidate.selectable)
        else:
            from ..core.analysis.wcet import request_wcet
            runtime = self.workers[0].runtime
            module = runtime.compile(request.source)
            seconds = request_wcet(
                request, module.program, platform=self.platform,
                devices=self.devices,
                limits=runtime.backend.target_limits(),
            ).seconds
        with self._wcet_lock:
            self._wcet_cache[cache_key] = seconds
            while len(self._wcet_cache) > max(64, 4 * self.plan_cache_size):
                self._wcet_cache.popitem(last=False)
        return seconds

    def _modelled_seconds(self, aggregate: Dict[str, float]) -> float:
        """Price one request's recorded work on the service platform."""
        from ..timing.gpu_model import GPUWorkload
        from ..timing.platforms import get_platform
        workload = GPUWorkload(
            passes=aggregate["passes"],
            elements=aggregate["elements"],
            flops=aggregate["flops"],
            texture_fetches=aggregate["texture_fetches"],
            bytes_to_device=aggregate["bytes_uploaded"],
            bytes_from_device=aggregate["bytes_downloaded"],
            transfer_calls=aggregate["transfer_calls"],
            tile_switches=aggregate["extra_tiles"],
            shard_dispatches=aggregate["extra_shards"],
            halo_bytes=aggregate["halo_bytes"],
        )
        model = get_platform(self.platform).gpu
        if self.devices > 1:
            return model.sharded_time_seconds(workload, self.devices)
        return model.time_seconds(workload)

    # ------------------------------------------------------------------ #
    # Completion bookkeeping (called from worker threads)
    # ------------------------------------------------------------------ #
    def _complete(self, worker: _ServiceWorker, item: _PendingItem,
                  response: Optional[ServiceResponse],
                  error: Optional[BaseException]) -> None:
        now = time.perf_counter()
        with self._dispatch_lock:
            worker.outstanding -= 1
        with self._stats_lock:
            self._last_done = now
            if error is None:
                worker.requests_served += 1
                self._completed += 1
                self._latencies.append(now - item.submitted_at)
                if self._track_deadlines and response is not None:
                    self._deadline_stats.record_completion(
                        response.deadline_met, response.wcet_s,
                        response.modelled_s)
            else:
                self._failed += 1
        if error is None:
            item.future._set_result(response)
        else:
            item.future._set_exception(error)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def service_report(self) -> Dict[str, object]:
        """Aggregated serving statistics across the worker pool.

        Latency percentiles cover the most recent ``LATENCY_WINDOW``
        completed requests since construction (or the last
        :meth:`reset_service_stats`); the request counters stay exact.
        ``requests_per_s`` divides completions by the span from first
        submission to last completion.  ``device_totals`` sums each
        worker runtime's
        :meth:`~repro.runtime.profiling.RunStatistics.summary`.
        """
        with self._stats_lock:
            latencies = list(self._latencies)
            completed = self._completed
            failed = self._failed
            first = self._first_submit
            last = self._last_done
        elapsed = max(0.0, (last or 0.0) - (first or 0.0))
        latency_ms: Dict[str, float] = {}
        if latencies:
            array = np.asarray(latencies) * 1e3
            latency_ms = {
                "mean": float(array.mean()),
                "p50": float(np.percentile(array, 50)),
                "p95": float(np.percentile(array, 95)),
                "max": float(array.max()),
            }
        device_totals: Dict[str, float] = {}
        worker_rows = []
        for worker in self.workers:
            summary = worker.runtime.statistics.summary()
            for key, value in summary.items():
                device_totals[key] = device_totals.get(key, 0) + value
            worker_rows.append({
                "index": worker.index,
                "requests": worker.requests_served,
                "outstanding": worker.outstanding,
                "plan_cache": worker.cache_info(),
                "compile_cache": worker.runtime.compile_cache_info(),
            })
        report = {
            "backend": self.backend_name,
            "device": self.device,
            "pool_size": self.pool_size,
            "devices": self.devices,
            "fuse": self.fuse,
            "scheduler": self.scheduler,
            "admission": self.admission,
            "requests_completed": completed,
            "requests_failed": failed,
            "elapsed_s": elapsed,
            "requests_per_s": (completed / elapsed) if elapsed > 0 else 0.0,
            "latency_ms": latency_ms,
            "workers": worker_rows,
            "device_totals": device_totals,
        }
        if self.sanitize:
            counts: Dict[str, int] = {}
            launches_checked = 0
            worker_findings = []
            for worker in self.workers:
                sanitizer = worker.runtime.sanitizer
                if sanitizer is None:
                    continue
                worker_report = sanitizer.report()
                launches_checked += worker_report["launches_checked"]
                for kind, count in worker_report["counts"].items():
                    counts[kind] = counts.get(kind, 0) + count
                worker_findings.extend(worker_report["findings"])
            report["sanitizer"] = {
                "launches_checked": launches_checked,
                "counts": counts,
                "findings": worker_findings[:50],
            }
        if self._track_deadlines:
            with self._stats_lock:
                deadline = self._deadline_stats.summary()
                deadline["platform"] = self.platform
                deadline["virtual_s"] = max(
                    (w.virtual_s for w in self.workers), default=0.0)
            report["deadline"] = deadline
        if self.plan_mode == "auto":
            with self._plan_lock:
                decisions = list(self._plan_decisions.values())
                hits, misses = self._autoplan_hits, self._autoplan_misses
            report["autoplan"] = {
                "platform": self.platform,
                "decision_cache": {
                    "entries": len(decisions),
                    "hits": hits,
                    "misses": misses,
                },
                "decisions": [{
                    "label": decision.label,
                    "chosen": decision.chosen.config.describe(),
                    "chosen_modelled_ms":
                        decision.chosen.modelled_s * 1e3,
                    "baseline_modelled_ms":
                        decision.baseline.modelled_s * 1e3,
                    "modelled_speedup": decision.speedup,
                } for decision in decisions],
            }
        return report

    def reset_service_stats(self) -> None:
        """Forget latency/throughput history (worker caches are kept).

        Also rewinds the deadline machinery: hit/miss/rejection counters
        and the per-worker virtual/committed clocks restart from zero,
        so benchmark phases can reuse warmed-up workers on a fresh
        modelled timeline.  WCET bounds stay cached - they depend only
        on request signatures.
        """
        with self._stats_lock:
            self._latencies = deque(maxlen=LATENCY_WINDOW)
            self._completed = 0
            self._failed = 0
            self._first_submit = None
            self._last_done = None
            self._deadline_stats.reset()
            for worker in self.workers:
                worker.virtual_s = 0.0
                worker.committed_s = 0.0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Drain every dispatched request, then stop the worker pool.

        Safe to call more than once.  Requests submitted before the
        close complete normally; submitting afterwards raises.
        """
        with self._dispatch_lock:
            if self._closed:
                return
            self._closed = True
            for worker in self.workers:
                worker.queue.put(_STOP)
        for worker in self.workers:
            worker.thread.join()

    def __enter__(self) -> "BrookService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<BrookService backend={self.backend_name!r} "
                f"pool={self.pool_size} fuse={self.fuse}>")
