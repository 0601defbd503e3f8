"""Brook Auto reproduction: certification-friendly GPU stream programming.

This package reproduces "Brook Auto: High-Level Certification-Friendly
Programming for GPU-powered Automotive Systems" (Trompouki & Kosmidis,
DAC 2018) as a self-contained Python library:

* :mod:`repro.core` - the Brook Auto language subset: compiler front end,
  ISO 26262 certification checker, GLSL ES 1.0 / desktop GLSL / C code
  generators and the kernel execution engine.
* :mod:`repro.runtime` - the host-side runtime: sessions, statically
  sized streams, kernel launches (direct, prepared and queued), multipass
  reductions, float<->RGBA8 numerics.
* :mod:`repro.backends` - the backend registry plus the CPU, simulated
  OpenGL ES 2.0 and simulated AMD CAL execution backends.
* :mod:`repro.gles2` / :mod:`repro.cal` - the simulated GPU substrates.
* :mod:`repro.apps` - the Brook+ reference application suite used by the
  paper's evaluation.
* :mod:`repro.timing` - the analytic performance models of the two
  evaluation platforms.
* :mod:`repro.evaluation` - the harness regenerating every figure and
  table of the paper.

Quick start::

    import numpy as np
    from repro import BrookRuntime

    with BrookRuntime(backend="gles2", device="videocore-iv") as rt:
        module = rt.compile(\"\"\"
            kernel void saxpy(float alpha, float x<>, float y<>, out float r<>) {
                r = alpha * x + y;
            }
        \"\"\")
        x = rt.stream_from(np.arange(16, dtype=np.float32).reshape(4, 4))
        y = rt.stream_from(np.ones((4, 4), dtype=np.float32))
        r = rt.stream((4, 4))
        module.saxpy(2.0, x, y, r)
        print(r.read())
    # leaving the block releases every stream and the device memory

Service-grade usage, for long-lived processes launching the same kernels
many times::

    with BrookRuntime(backend="gles2") as rt:
        module = rt.compile(SOURCE)          # cached: identical source +
        module = rt.compile(SOURCE)          # options skip the compiler

        plan = module.saxpy.bind(2.0, x, y, r)   # validate/classify once
        for _ in range(1000):
            plan.launch()                        # straight to the backend

        with rt.queue() as q:                # batch launches, flush once
            module.saxpy(1.0, x, y, r)
            module.saxpy(2.0, x, r, y)

        pipeline = rt.fuse([                 # merge producer -> consumer
            module.saxpy.bind(2.0, x, y, tmp),   # kernels into one pass;
            module.saxpy.bind(1.0, tmp, r, out), # tmp never hits memory
        ])
        pipeline.launch()

Kernels that brookvec approves are additionally compiled ahead of time
into a whole-array vector program, bypassing per-launch AST
interpretation with bit-identical results; the rest keep using the
masked SIMT interpreter.

Execution targets are pluggable through the backend registry::

    from repro import register_backend, available_backends

    register_backend("mytarget", MyBackend, aliases=("mt",))
    rt = BrookRuntime(backend="mytarget")

Migration note (pre-registry API): existing code keeps working
unchanged - ``BrookRuntime(...)`` without ``with`` behaves as before
(streams are now additionally freed when garbage collected),
``repro.backends.create_backend`` still accepts the historic names and
aliases (it now resolves them through the registry), and calling a
kernel handle directly still validates on every call.  ``with`` blocks,
``KernelHandle.bind`` and ``rt.queue()`` are opt-in layers on top.
"""

from .core import (
    BrookAutoCompiler,
    CertificationReport,
    CompiledProgram,
    CompilerOptions,
    TargetLimits,
    compile_source,
)
from .errors import (
    BrookError,
    BrookSyntaxError,
    BrookTypeError,
    CertificationError,
    KernelLaunchError,
    StreamError,
)
from .runtime import (
    AsyncExecutor,
    BrookModule,
    BrookRuntime,
    CommandQueue,
    FusedPipeline,
    FusedPlan,
    LaunchFuture,
    LaunchPlan,
    Stream,
    StreamShape,
)

# Imported after .runtime: repro.backends.base depends on the runtime's
# profiling/shape modules, so the runtime package must initialise first.
from .backends import (
    Backend,
    available_backends,
    create_backend,
    register_backend,
    unregister_backend,
)
from .service import BrookService, KernelCall, ServiceRequest, ServiceResponse

__version__ = "1.1.0"

__all__ = [
    "BrookRuntime",
    "BrookModule",
    "Stream",
    "StreamShape",
    "LaunchPlan",
    "FusedPlan",
    "FusedPipeline",
    "CommandQueue",
    "AsyncExecutor",
    "LaunchFuture",
    "BrookService",
    "KernelCall",
    "ServiceRequest",
    "ServiceResponse",
    "Backend",
    "register_backend",
    "unregister_backend",
    "available_backends",
    "create_backend",
    "BrookAutoCompiler",
    "CompilerOptions",
    "CompiledProgram",
    "CertificationReport",
    "TargetLimits",
    "compile_source",
    "BrookError",
    "BrookSyntaxError",
    "BrookTypeError",
    "CertificationError",
    "KernelLaunchError",
    "StreamError",
    "__version__",
]
