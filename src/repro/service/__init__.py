"""Brook Auto serving layer: a pool of worker runtimes behind one API.

The paper's target deployments are long-lived automotive services where
many independent kernel pipelines run concurrently against one
accelerator.  This package provides that serving surface:

* :class:`~repro.service.request.ServiceRequest` - a self-contained
  pipeline request (source + kernel calls + host inputs + output
  shapes), safe to build on any thread.
* :class:`~repro.service.service.BrookService` - ``pool_size`` worker
  runtimes with least-loaded dispatch, per-signature prepared-plan
  caching (each cached request is one ordered launch list, fused by
  default) and aggregated latency/throughput reporting via
  ``service_report()``.
* :mod:`~repro.service.bench` - the ADAS-pipeline serving benchmark
  behind ``brookauto serve-bench`` and ``BENCH_service.json``.
* :mod:`~repro.service.deadline` - deadline-aware serving: static WCET
  bounds drive admission control (typed
  :class:`~repro.service.deadline.DeadlineRejected` responses) and an
  earliest-deadline-first scheduler
  (``BrookService(scheduler="edf", admission=True)``).

.. code-block:: python

    from repro.service import BrookService, ServiceRequest, call

    request = ServiceRequest(
        source=SRC,
        calls=(call("blur", "image", "tmp"), call("sharpen", "tmp", 0.5, "out")),
        inputs={"image": frame},
        outputs={"out": frame.shape},
        scratch={"tmp": frame.shape},
    )
    with BrookService(backend="cpu", pool_size=4) as service:
        response = service.process(request)     # ServiceResponse
"""

from .deadline import DeadlineRejected, DeadlineStats, EDFQueue
from .request import KernelCall, ServiceFuture, ServiceRequest, ServiceResponse, call
from .service import BrookService, prepare_request

__all__ = [
    "BrookService",
    "prepare_request",
    "DeadlineRejected",
    "DeadlineStats",
    "EDFQueue",
    "KernelCall",
    "ServiceFuture",
    "ServiceRequest",
    "ServiceResponse",
    "call",
]
