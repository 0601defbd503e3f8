"""Static analyses used by the Brook Auto certification front-end.

Each analysis answers one of the static-verification questions that
ISO 26262 / MISRA-style guidelines require an answer to at compile time:

* :mod:`loop_bounds` - can a maximum trip count be deduced for every loop?
* :mod:`call_graph` - is the call graph acyclic (no recursion) and how deep?
* :mod:`stack_depth` - what is the maximum stack usage of a kernel?
* :mod:`resources` - how many inputs/outputs/registers/instructions does a
  kernel need, and does that fit the target GPU without implicit multi-pass
  emulation?
* :mod:`memory_usage` - what is the maximum GPU memory a program can use,
  given that every Brook Auto stream is statically sized?
* :mod:`wcet` - what is the worst-case work (and, priced through the
  platform cost model, time) a kernel launch can cost?
* :mod:`planner` - which execution configuration (fusion, devices)
  should a pipeline use, given the platform cost model and,
  optionally, a deadline its WCET bound must fit?
* :mod:`dataflow` - is a whole launch *pipeline* free of races,
  use-after-release and dead intermediates (stream-level dependency DAG
  + BF-2xx diagnostics)?
"""

from .call_graph import CallGraph, build_call_graph
from .dataflow import (
    DataflowNode,
    DependencyEdge,
    StreamDependencyGraph,
    analyze_decision,
    analyze_pipeline,
    build_dataflow_graph,
    leaf_storages,
    storage_units,
)
from .loop_bounds import LoopBound, LoopBoundAnalysis, analyze_loop_bounds
from .memory_usage import MemoryUsageReport, estimate_memory_usage
from .resources import KernelResources, estimate_resources
from .stack_depth import StackDepthReport, estimate_stack_depth
from .planner import (
    CandidateConfig,
    PlanCandidate,
    PlanDecision,
    build_launchables,
    plan_pipeline,
    plan_service_request,
)
from .wcet import (
    KernelWCET,
    WCETBound,
    analyze_kernel_wcet,
    kernel_wcet,
    plan_wcet,
    program_wcet,
    request_wcet,
)

__all__ = [
    "CallGraph",
    "build_call_graph",
    "DataflowNode",
    "DependencyEdge",
    "StreamDependencyGraph",
    "analyze_decision",
    "analyze_pipeline",
    "build_dataflow_graph",
    "leaf_storages",
    "storage_units",
    "LoopBound",
    "LoopBoundAnalysis",
    "analyze_loop_bounds",
    "KernelResources",
    "estimate_resources",
    "StackDepthReport",
    "estimate_stack_depth",
    "MemoryUsageReport",
    "estimate_memory_usage",
    "CandidateConfig",
    "PlanCandidate",
    "PlanDecision",
    "build_launchables",
    "plan_pipeline",
    "plan_service_request",
    "KernelWCET",
    "WCETBound",
    "analyze_kernel_wcet",
    "kernel_wcet",
    "plan_wcet",
    "program_wcet",
    "request_wcet",
]
