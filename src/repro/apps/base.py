"""Common infrastructure of the Brook+ reference applications.

Every application follows the structure the paper describes in section 6:

* the input size is configurable (``size`` is the per-dimension extent;
  most applications work on ``size x size`` elements),
* the random input generator is seeded for reproducibility,
* a CPU implementation of the same algorithm validates the GPU output,
* time measurement / statistics reporting is integrated: a run returns
  the runtime's work statistics, and the analytic platform models turn
  the application's closed-form workload description into modelled GPU
  and CPU times (the quantities plotted in Figures 1-4).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..errors import BrookError
from ..runtime.profiling import RunStatistics, WallClockTimer
from ..runtime.runtime import BrookModule, BrookRuntime
from ..timing.cpu_model import CPUWorkload
from ..timing.gpu_model import GPUWorkload
from ..timing.platforms import Platform, TARGET_PLATFORM

__all__ = ["AppRunResult", "BrookApplication", "register_application",
           "get_application", "list_applications"]


@dataclass
class AppRunResult:
    """Outcome of one functional run of an application."""

    app: str
    backend: str
    size: int
    valid: bool
    max_rel_error: float
    statistics: RunStatistics
    wall_clock_seconds: float
    outputs: Dict[str, np.ndarray] = field(default_factory=dict)
    reference: Dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class ModeledPoint:
    """Modelled GPU/CPU times and speedup for one input size on one platform."""

    size: int
    gpu_seconds: float
    cpu_seconds: float

    @property
    def speedup(self) -> float:
        return self.cpu_seconds / self.gpu_seconds if self.gpu_seconds > 0 else float("inf")


class BrookApplication(abc.ABC):
    """Base class of every reference application."""

    #: Short identifier used by the evaluation harness and the CLI.
    name: str = "application"
    #: One-line description.
    description: str = ""
    #: Which figure of the paper the application appears in.
    figure: str = ""
    #: Brook kernel source of the application.
    brook_source: str = ""
    #: Per-kernel range specs for the interval analysis / brooklint:
    #: gather extents, launch-domain symbols and scalar parameter ranges
    #: (a data-dependent loop's limit needs one, rule BA-005).
    range_specs: Dict[str, dict] = {}
    #: Input sizes explored in the paper (per-dimension extents).
    default_sizes: Sequence[int] = (128, 256, 512, 1024, 2048)
    #: Largest size the target (OpenGL ES 2) backend supports.
    max_target_size: int = 2048
    #: Largest size the reference (CAL) backend supports.
    max_reference_size: int = 2048
    #: Validation tolerance against the CPU reference.  The default covers
    #: the RGBA8 round trip of the OpenGL ES 2 backend.
    validation_rtol: float = 2e-3
    validation_atol: float = 1e-4

    # ------------------------------------------------------------------ #
    # Hooks implemented by each application
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def generate_inputs(self, size: int, seed: int = 0) -> Dict[str, np.ndarray]:
        """Generate the (seeded) input data set for ``size``."""

    @abc.abstractmethod
    def cpu_reference(self, size: int, inputs: Dict[str, np.ndarray]
                      ) -> Dict[str, np.ndarray]:
        """Reference CPU implementation used to validate the GPU output."""

    @abc.abstractmethod
    def run_brook(self, runtime: BrookRuntime, module: BrookModule, size: int,
                  inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Run the Brook implementation through the runtime's backend."""

    @abc.abstractmethod
    def gpu_workload(self, size: int, platform: Platform) -> GPUWorkload:
        """Closed-form GPU work for ``size`` on ``platform`` (figures)."""

    @abc.abstractmethod
    def cpu_workload(self, size: int, platform: Platform) -> CPUWorkload:
        """Closed-form work of the CPU reference implementation."""

    # ------------------------------------------------------------------ #
    # Provided machinery
    # ------------------------------------------------------------------ #
    def create_runtime(self, backend: str = "cpu",
                       device: Optional[str] = None) -> BrookRuntime:
        """Create a runtime suitable for this application."""
        return BrookRuntime(backend=backend, device=device)

    def compile(self, runtime: BrookRuntime) -> BrookModule:
        """Compile the application's kernels for ``runtime``'s backend."""
        return runtime.compile(self.brook_source, strict=True,
                               range_specs=self.range_specs)

    def validate(self, outputs: Dict[str, np.ndarray],
                 reference: Dict[str, np.ndarray]) -> Tuple[bool, float]:
        """Compare GPU outputs against the CPU reference.

        Returns ``(valid, max_relative_error)`` over all output arrays.
        """
        worst = 0.0
        for key, expected in reference.items():
            if key not in outputs:
                return False, float("inf")
            got = np.asarray(outputs[key], dtype=np.float64)
            want = np.asarray(expected, dtype=np.float64)
            if got.shape != want.shape:
                return False, float("inf")
            denom = np.maximum(np.abs(want), 1.0)
            rel = np.max(np.abs(got - want) / denom) if want.size else 0.0
            worst = max(worst, float(rel))
        tolerance = self.validation_rtol + self.validation_atol
        return worst <= tolerance, worst

    def run(self, backend: str = "cpu", size: int = 64, seed: int = 0,
            device: Optional[str] = None, keep_outputs: bool = False,
            runtime: Optional[BrookRuntime] = None) -> AppRunResult:
        """Run the application end to end on ``backend`` and validate it.

        Without an explicit ``runtime`` a fresh one is created for the run
        and closed afterwards, releasing its device memory.  A server loop
        running the same application repeatedly can pass a long-lived
        ``runtime`` instead to reuse its compile cache across runs; the
        caller then owns its lifecycle (and ``backend``/``device`` are
        ignored).  The runtime's statistics are reset at the start of the
        run so the returned statistics describe this run only.
        """
        owns_runtime = runtime is None
        if owns_runtime:
            runtime = self.create_runtime(backend, device)
        try:
            # Fresh statistics per run; a swap (not an in-place clear) keeps
            # the statistics returned by previous runs of a reused runtime
            # intact.
            runtime.statistics = RunStatistics()
            module = self.compile(runtime)
            inputs = self.generate_inputs(size, seed)
            reference = self.cpu_reference(size, inputs)
            with WallClockTimer() as timer:
                outputs = self.run_brook(runtime, module, size, inputs)
            valid, error = self.validate(outputs, reference)
            return AppRunResult(
                app=self.name,
                backend=runtime.backend.name,
                size=size,
                valid=valid,
                max_rel_error=error,
                statistics=runtime.statistics,
                wall_clock_seconds=timer.elapsed,
                outputs=outputs if keep_outputs else {},
                reference=reference if keep_outputs else {},
            )
        finally:
            if owns_runtime:
                runtime.close()

    # ------------------------------------------------------------------ #
    # Modelled performance (the quantities the figures plot)
    # ------------------------------------------------------------------ #
    def max_size_for(self, platform: Platform) -> int:
        if platform.backend_name == "gles2":
            return self.max_target_size
        return self.max_reference_size

    def sizes_for(self, platform: Platform,
                  sizes: Optional[Sequence[int]] = None) -> List[int]:
        limit = self.max_size_for(platform)
        chosen = sizes if sizes is not None else self.default_sizes
        return [size for size in chosen if size <= limit]

    def modeled_point(self, size: int,
                      platform: Platform = TARGET_PLATFORM) -> ModeledPoint:
        """Modelled GPU and CPU times for one size on one platform."""
        gpu = platform.gpu_time(self.gpu_workload(size, platform))
        cpu = platform.cpu_time(self.cpu_workload(size, platform))
        return ModeledPoint(size=size, gpu_seconds=gpu, cpu_seconds=cpu)

    def speedup_series(self, platform: Platform = TARGET_PLATFORM,
                       sizes: Optional[Sequence[int]] = None
                       ) -> List[Tuple[int, float]]:
        """GPU/CPU speedup as a function of input size (one figure line)."""
        return [
            (size, self.modeled_point(size, platform).speedup)
            for size in self.sizes_for(platform, sizes)
        ]


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_REGISTRY: Dict[str, Type[BrookApplication]] = {}


def register_application(cls: Type[BrookApplication]) -> Type[BrookApplication]:
    """Class decorator adding an application to the global registry."""
    if not issubclass(cls, BrookApplication):
        raise TypeError("only BrookApplication subclasses can be registered")
    _REGISTRY[cls.name] = cls
    return cls


def get_application(name: str) -> BrookApplication:
    """Instantiate a registered application by name."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise BrookError(
            f"unknown application {name!r}; available: {sorted(_REGISTRY)}"
        )


def list_applications() -> List[str]:
    """Names of all registered applications."""
    return sorted(_REGISTRY)
