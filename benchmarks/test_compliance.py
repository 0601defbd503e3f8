"""Benchmark regenerating the ISO 26262 compliance evidence (sections 2 & 4).

Paper: every Brook Auto application satisfies the certification rules,
while CUDA/OpenCL-style code necessarily violates them (pointers, dynamic
allocation, recursion, unbounded loops).
"""

from repro.evaluation import compliance


def test_compliance_evidence(benchmark, publish):
    result = benchmark(compliance.run)
    publish("compliance", compliance.render(result))

    assert result.all_applications_compliant
    assert result.counter_example_rejected
    assert {"BA-001", "BA-002", "BA-003", "BA-004", "BA-005"} <= set(
        result.counter_example.violated_rules
    )


def test_certification_checker_throughput(benchmark):
    """Time the certification checker itself over the whole suite - the
    compile-time cost a build system would pay per kernel."""
    from repro.apps import get_application, list_applications
    from repro.core import compile_source
    from repro.gles2.device import get_device_profile

    target = get_device_profile("videocore-iv").limits.to_target_limits()
    sources = [(get_application(name).brook_source,
                get_application(name).range_specs)
               for name in list_applications()]

    def compile_all():
        compiled = []
        for source, bounds in sources:
            compiled.append(compile_source(source, target=target,
                                           range_specs=bounds, strict=True))
        return compiled

    programs = benchmark(compile_all)
    assert all(program.is_certified for program in programs)
