#!/usr/bin/env python
"""Certification audit: producing ISO 26262 compliance evidence.

Automotive software must come with evidence that coding guidelines are
met.  This example shows the two sides of Brook Auto's argument:

* a CUDA/OpenCL-style kernel (pointers, dynamic allocation, recursion,
  unbounded loops) is analysed and every rule violation is reported with
  its source location - this is the code that *cannot* be certified;
* the same functionality rewritten in the Brook Auto subset passes every
  rule, and the checker additionally derives the static bounds an
  assessor asks for (maximum loop iterations, worst-case stack usage,
  maximum GPU memory).

Run with::

    python examples/certification_audit.py
"""

from repro import BrookRuntime, CertificationError, compile_source
from repro.core.analysis.memory_usage import StreamDeclaration, estimate_memory_usage
from repro.core.reporting import report_to_markdown, report_to_text
from repro.core.types import FLOAT
from repro.gles2.device import get_device_profile

LEGACY_SOURCE = """
// Legacy accelerator code, the way it would be written for CUDA/OpenCL.
kernel void moving_average(float *samples, float n, out float average<>) {
    float *window;
    float total = 0.0;
    float i = 0.0;
    window = malloc(n);
    while (i < n) {                 // unbounded: n is not statically bounded
        total = total + samples[i]; // pointer arithmetic
        i = i + 1.0;
    }
    free(window);
    average = total / n;
}
"""

BROOK_AUTO_SOURCE = """
// The same moving average in the Brook Auto subset: the sample window is a
// statically sized gather stream and the loop has a declared upper bound.
kernel void moving_average(float samples[], float window_size,
                           out float average<>) {
    float total = 0.0;
    for (int i = 0; i < window_size; i = i + 1) {
        total = total + samples[i];
    }
    average = total / window_size;
}
"""

#: The declared range of the window size: 1 to 64 samples.
WINDOW_RANGE = {"moving_average": {"params": {"window_size": (1, 64)}}}


def main() -> None:
    target = get_device_profile("videocore-iv").limits.to_target_limits()

    print("=" * 72)
    print("1. Legacy CUDA/OpenCL-style kernel")
    print("=" * 72)
    try:
        compile_source(LEGACY_SOURCE, target=target, strict=True)
    except CertificationError as error:
        print(f"strict compilation rejected the kernel with "
              f"{len(error.violations)} violation(s):")
        for violation in error.violations:
            print(f"  {violation}")

    # Non-strict mode produces the full report for the audit trail.
    legacy = compile_source(LEGACY_SOURCE, target=target, strict=False)
    print("\nRule-by-rule report:")
    print(report_to_text(legacy.certification))

    print()
    print("=" * 72)
    print("2. Brook Auto rewrite")
    print("=" * 72)
    # The window size is a scalar parameter; declaring its range makes the
    # loop bound statically known (rule BA-005).
    compliant = compile_source(
        BROOK_AUTO_SOURCE,
        target=target,
        strict=True,
        range_specs=WINDOW_RANGE,
    )
    cert = compliant.certification.kernels["moving_average"]
    print("verdict: COMPLIANT")
    print(f"maximum loop iterations per element: {cert.max_loop_iterations}")
    print(f"worst-case stack usage: {cert.max_stack_bytes} bytes")

    # Static GPU memory bound for the deployment configuration.
    memory = estimate_memory_usage(
        [
            StreamDeclaration("samples", (64,), FLOAT),
            StreamDeclaration("average", (1,), FLOAT),
        ],
        target,
    )
    print(f"maximum GPU memory usage: {memory.total_bytes} bytes "
          f"({memory.total_mebibytes:.4f} MiB)")

    print("\nMarkdown report (for the certification package):\n")
    print(report_to_markdown(compliant.certification))

    # Finally, show that the compliant kernel actually runs on the target.
    runtime = BrookRuntime(backend="gles2", device="videocore-iv")
    module = runtime.compile(BROOK_AUTO_SOURCE, range_specs=WINDOW_RANGE)
    import numpy as np

    samples = runtime.stream_from(np.arange(64, dtype=np.float32), name="samples")
    average = runtime.stream((1,), name="average")
    module.moving_average(samples, 64.0, average)
    print("moving_average(0..63) =", float(average.read()[0]), "(expected 31.5)")


if __name__ == "__main__":
    main()
