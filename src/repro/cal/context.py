"""Simulated CAL context: resource management and kernel dispatch accounting."""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import CALError
from .device import CALDeviceProfile, get_cal_device
from .resource import CALResource

__all__ = ["CALContext", "CALDispatchTotals", "CALKernelStats"]


@dataclass
class CALKernelStats:
    """Work counters of one kernel dispatch on the CAL device."""

    kernel: str
    domain_elements: int
    flops: int
    fetches: int


@dataclass
class CALDispatchTotals:
    """Cumulative work counters of every kernel dispatch."""

    calls: int = 0
    domain_elements: int = 0
    flops: int = 0
    fetches: int = 0


@dataclass
class CALTransferStats:
    bytes_uploaded: int = 0
    bytes_downloaded: int = 0


class CALContext:
    """A functional simulation of an AMD CAL device context."""

    def __init__(self, device: Optional[CALDeviceProfile] = None):
        self.device = device or get_cal_device("radeon-hd3400")
        self.resources: List[CALResource] = []
        self.dispatches = CALDispatchTotals()
        self.transfers = CALTransferStats()
        # Resources are allocated/freed and traffic counted from
        # arbitrary threads (stream finalizers included); list mutation
        # and ``+=`` on the counters need the lock to stay exact.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def alloc_resource(self, width: int, height: int, components: int = 1,
                       name: str = "") -> CALResource:
        resource = CALResource(
            width, height, components,
            max_size=self.device.max_resource_size, name=name,
        )
        with self._lock:
            self.resources.append(resource)
        return resource

    def free_resource(self, resource: CALResource) -> None:
        with self._lock:
            if resource in self.resources:
                self.resources.remove(resource)

    # ------------------------------------------------------------------ #
    def upload(self, resource: CALResource, values: np.ndarray) -> None:
        resource.write(values)
        with self._lock:
            self.transfers.bytes_uploaded += resource.size_bytes

    def download(self, resource: CALResource) -> np.ndarray:
        with self._lock:
            self.transfers.bytes_downloaded += resource.size_bytes
        return resource.read()

    # ------------------------------------------------------------------ #
    def record_dispatch(self, kernel: str, domain_elements: int, flops: int,
                        fetches: int) -> CALKernelStats:
        """Record one kernel dispatch (the backend performs the execution)."""
        if domain_elements <= 0:
            raise CALError("kernel dispatch over an empty domain")
        stats = CALKernelStats(
            kernel=kernel, domain_elements=domain_elements,
            flops=flops, fetches=fetches,
        )
        with self._lock:
            totals = self.dispatches
            totals.calls += 1
            totals.domain_elements += domain_elements
            totals.flops += flops
            totals.fetches += fetches
        return stats

    # ------------------------------------------------------------------ #
    @property
    def total_dispatches(self) -> int:
        return self.dispatches.calls

    def device_memory_in_use(self) -> int:
        with self._lock:
            return sum(r.size_bytes for r in self.resources)

    def reset_statistics(self) -> None:
        with self._lock:
            self.dispatches = CALDispatchTotals()
            self.transfers = CALTransferStats()
