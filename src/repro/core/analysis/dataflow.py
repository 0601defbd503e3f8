"""brookflow: static whole-pipeline dataflow and race analysis.

PR 8's brooklint proves properties *inside* one kernel body; this module
proves properties *across* launches.  Given a sequence of launchables -
a :class:`~repro.runtime.launch.CommandQueue`'s pending launches, a
:class:`~repro.runtime.launch.FusedPipeline`, an
:class:`~repro.runtime.executor.AsyncExecutor` submission set, or the
launchables a planner-built
:class:`~repro.core.analysis.planner.PlanDecision` materialises - it
constructs the stream-level dependency DAG and statically verifies the
properties the dynamic machinery otherwise only enforces at run time:

* **RAW / WAW / WAR edges** between launches that touch the same device
  storage (down to the per-device shard and per-tile leaf storages, and
  through NumPy buffer aliasing the identity-keyed hazard tracker cannot
  see),
* **in-place gather snapshot nodes**: launches that gather from their
  own output rely on the pre-launch snapshot the tiled and sharded
  execution paths pin explicitly (rule BL-112 fires where that guarantee
  is absent),
* **shard-halo read regions** from
  :func:`~repro.core.analysis.sharding.classify_kernel` and
  **tile-stitch boundaries** from the bound storages, recorded as node
  metadata so reports show which launches cross device/tile boundaries.

Verified properties (stable ``BF-2xx`` codes, emitted through the
brooklint diagnostics/SARIF machinery - see ``docs/analysis.md``):

=======  ========================  ========================================
code     name                      meaning
=======  ========================  ========================================
BF-200   dataflow-skipped          launchable could not be modelled
BF-201   hazard-divergence         conflicting pair the executor's dynamic
                                   hazard tracker could legally overlap
BF-202   use-after-release         pending launch captures a released
                                   stream (or a closed runtime)
BF-203   read-before-write         intermediate read before the pipeline
                                   writes it (and never host-written)
BF-204   uninitialised-input       read of a stream that still holds its
                                   creation zeros
BF-205   dead-write                output overwritten before any read
BF-206   fusable-intermediate      intermediate fusion would eliminate
=======  ========================  ========================================

:class:`~repro.runtime.sanitizer.BrookSanitizer` differentially
cross-checks the executor's *observed* launch order against this
module's conflict pairs, raising
:class:`~repro.errors.SanitizerError` on any divergence - the static and
dynamic analyses audit each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ...errors import SourceLocation
from .lint.diagnostics import Diagnostic, LINT_RULES, LintReport
from .sharding import classify_kernel

__all__ = [
    "DataflowNode",
    "DependencyEdge",
    "StreamDependencyGraph",
    "analyze_decision",
    "analyze_pipeline",
    "build_dataflow_graph",
    "leaf_storages",
    "storage_units",
    "streams_alias",
]


# --------------------------------------------------------------------- #
# Storage resolution
# --------------------------------------------------------------------- #
def leaf_storages(stream: object) -> Tuple[object, ...]:
    """The leaf device storages backing ``stream``.

    A plain stream is backed by one storage; a sharded stream by one
    storage per device; a tiled stream by one per tile; a sharded stream
    of tiled bands by the per-tile storages of every band.  This is the
    ground-truth aliasing unit: two launches conflict exactly when their
    leaf storage sets (or the NumPy buffers inside them) intersect.
    ``stream`` may also be a storage itself.
    """
    from ...runtime.partition import PartitionedStorage

    storage = getattr(stream, "storage", None)
    if storage is None:
        storage = stream
    if not isinstance(storage, PartitionedStorage):
        return (storage,)
    return tuple(leaf for part in storage.parts
                 for leaf in leaf_storages(part))


def storage_units(stream: object) -> Tuple[int, ...]:
    """Identity keys of ``stream``'s leaf storages (the aliasing units)."""
    return tuple(id(storage) for storage in leaf_storages(stream))


def _buffers(stream: object) -> List[np.ndarray]:
    """The NumPy arrays inside ``stream``'s leaf storages (if any)."""
    arrays = []
    for storage in leaf_storages(stream):
        data = getattr(storage, "data", None)
        if isinstance(data, np.ndarray):
            arrays.append(data)
    return arrays


def streams_alias(a: object, b: object) -> bool:
    """Whether two streams can touch the same device memory.

    True when their leaf storage sets intersect, or when any pair of
    leaf storages shares a NumPy buffer (two storages constructed over
    views of one array - aliasing that identity-based hazard keys can
    never see).
    """
    units_a, units_b = set(storage_units(a)), set(storage_units(b))
    if units_a & units_b:
        return True
    for array_a in _buffers(a):
        for array_b in _buffers(b):
            if np.shares_memory(array_a, array_b):
                return True
    return False


# --------------------------------------------------------------------- #
# Graph model
# --------------------------------------------------------------------- #
@dataclass
class DataflowNode:
    """One launch of the analyzed pipeline."""

    index: int
    kind: str  # "map" | "reduction" | "fused"
    kernel: str
    #: name -> stream for each access class of the launch.
    reads: Dict[str, object] = field(default_factory=dict)
    gathers: Dict[str, object] = field(default_factory=dict)
    writes: Dict[str, object] = field(default_factory=dict)
    plan: object = None
    location: Optional[SourceLocation] = None
    #: Whether this node came out of a FusedPipeline segment (fusion has
    #: already been attempted on it; BF-206 stays quiet).
    fused_context: bool = False
    #: Gather parameters with a bounded halo access (classify_kernel):
    #: name -> (row_bound, col_bound), None on an unbounded axis.
    halo_reads: Dict[str, Tuple[Optional[float], Optional[float]]] = \
        field(default_factory=dict)
    #: Streams whose storage is tiled: launches over them stitch their
    #: results across tile boundaries (one pass per tile).
    tile_boundaries: Tuple[str, ...] = ()
    #: Gather args that alias an output of this same node, mapped to
    #: whether the execution path pins an explicit pre-launch snapshot.
    inplace_gathers: Dict[str, bool] = field(default_factory=dict)

    def touched(self) -> Dict[str, object]:
        merged: Dict[str, object] = {}
        merged.update(self.reads)
        merged.update(self.gathers)
        merged.update(self.writes)
        return merged

    def read_units(self) -> Set[int]:
        units: Set[int] = set()
        for stream in (*self.reads.values(), *self.gathers.values()):
            units.update(storage_units(stream))
        return units

    def write_units(self) -> Set[int]:
        units: Set[int] = set()
        for stream in self.writes.values():
            units.update(storage_units(stream))
        return units


@dataclass(frozen=True)
class DependencyEdge:
    """One hazard-ordering edge of the dependency DAG."""

    src: int
    dst: int
    kind: str  # "RAW" | "WAW" | "WAR"
    stream: str


class StreamDependencyGraph:
    """The stream-level dependency DAG of one launch sequence."""

    def __init__(self, nodes: List[DataflowNode],
                 skipped: List[Tuple[int, object]],
                 source_file: str = "<pipeline>"):
        self.nodes = nodes
        #: ``(position, launchable)`` pairs the analysis could not model.
        self.skipped = skipped
        self.source_file = source_file
        self.edges: List[DependencyEdge] = []
        self._build_edges()

    # ------------------------------------------------------------------ #
    def _build_edges(self) -> None:
        for j, later in enumerate(self.nodes):
            for i in range(j):
                earlier = self.nodes[i]
                seen: Set[Tuple[str, str]] = set()
                for kind, first, second in (
                        ("RAW", earlier.writes, {**later.reads,
                                                 **later.gathers}),
                        ("WAW", earlier.writes, later.writes),
                        ("WAR", {**earlier.reads, **earlier.gathers},
                         later.writes),
                ):
                    for name_a, stream_a in first.items():
                        for name_b, stream_b in second.items():
                            if not streams_alias(stream_a, stream_b):
                                continue
                            label = stream_name(stream_b) or name_b or name_a
                            if (kind, label) in seen:
                                continue
                            seen.add((kind, label))
                            self.edges.append(
                                DependencyEdge(i, j, kind, label))

    # ------------------------------------------------------------------ #
    def conflicting_pairs(self) -> List[Tuple[int, int, str, str]]:
        """Every ``(i, j, kind, stream)`` pair that must stay ordered."""
        return [(edge.src, edge.dst, edge.kind, edge.stream)
                for edge in self.edges]

    def dependencies_of(self, index: int) -> Set[int]:
        """Indices of the earlier launches node ``index`` must wait for."""
        return {edge.src for edge in self.edges if edge.dst == index}

    @property
    def race_free(self) -> bool:
        """Whether independent-overlap execution is provably safe.

        The DAG itself orders every conflicting pair; the pipeline is
        race-free for the executor exactly when the dynamic hazard
        tracker keys every one of those pairs (no BF-201 finding).
        """
        return not self._tracker_blind_pairs()

    # ------------------------------------------------------------------ #
    def _tracker_blind_pairs(self) -> List[Tuple[DependencyEdge, str]]:
        """Conflicting pairs the executor's hazard keying cannot see."""
        blind: List[Tuple[DependencyEdge, str]] = []
        tracker_keys: List[Tuple[Set[int], Set[int]]] = []
        for node in self.nodes:
            reads: Set[int] = set()
            writes: Set[int] = set()
            for stream in (*node.reads.values(), *node.gathers.values()):
                reads.update(storage_units(stream))
            for stream in node.writes.values():
                writes.update(storage_units(stream))
            tracker_keys.append((reads, writes))
        seen: Set[Tuple[int, int]] = set()
        for edge in self.edges:
            if (edge.src, edge.dst) in seen:
                continue
            reads_i, writes_i = tracker_keys[edge.src]
            reads_j, writes_j = tracker_keys[edge.dst]
            ordered = bool(writes_i & (reads_j | writes_j)
                           or reads_i & writes_j)
            if not ordered:
                seen.add((edge.src, edge.dst))
                blind.append((edge, edge.stream))
        return blind

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        return {
            "source_file": self.source_file,
            "nodes": [{
                "index": node.index,
                "kind": node.kind,
                "kernel": node.kernel,
                "reads": sorted(stream_name(s) for s in node.reads.values()),
                "gathers": sorted(stream_name(s)
                                  for s in node.gathers.values()),
                "writes": sorted(stream_name(s)
                                 for s in node.writes.values()),
                "halo_reads": {name: list(bounds) for name, bounds
                               in node.halo_reads.items()},
                "tile_boundaries": list(node.tile_boundaries),
                "inplace_gathers": dict(node.inplace_gathers),
            } for node in self.nodes],
            "edges": [{
                "src": edge.src, "dst": edge.dst,
                "kind": edge.kind, "stream": edge.stream,
            } for edge in self.edges],
            "skipped": [position for position, _ in self.skipped],
            "race_free": self.race_free,
        }


def stream_name(stream: object) -> str:
    return str(getattr(stream, "name", "") or f"<stream@{id(stream):x}>")


# --------------------------------------------------------------------- #
# Launchable flattening
# --------------------------------------------------------------------- #
def _iter_plans(launchables: object) -> Iterable[object]:
    """Flatten any supported launchable container into plan objects."""
    # A CommandQueue: analyze its pending (not yet flushed) launches.
    pending = getattr(launchables, "_pending", None)
    if pending is not None and hasattr(launchables, "flush"):
        for queued in pending:
            yield queued.plan
        return
    segments = getattr(launchables, "segments", None)
    if segments is not None:
        for plan, _ in segments:
            yield plan
        return
    if isinstance(launchables, (list, tuple)):
        for item in launchables:
            yield from _iter_plans(item)
        return
    yield launchables


def _snapshot_guaranteed(plan: object, stream: object) -> bool:
    """Whether an in-place gather of ``stream`` sees a pinned snapshot.

    The tiled execution engine snapshots every gather once per logical
    launch before any tile pass writes, and the sharded engine pins an
    explicit copy when a gather array is also written by the launch.  A
    plain single-device storage has neither guarantee - the backend may
    or may not buffer its outputs before storing them.
    """
    from ...runtime.partition import PartitionedStorage

    return isinstance(getattr(stream, "storage", None), PartitionedStorage) \
        or plan.tile_plan is not None


def _halo_bounds(definition) -> Dict[str, Tuple[Optional[float],
                                                Optional[float]]]:
    """Bounded halo read regions of ``definition``'s gather parameters."""
    halo: Dict[str, Tuple[Optional[float], Optional[float]]] = {}
    try:
        spec = classify_kernel(definition)
    except Exception:  # pragma: no cover - malformed definitions
        return halo
    for name, argument in spec.arguments.items():
        if argument.mode != "halo":
            continue
        row = argument.row_access.bound if argument.row_access else None
        col = argument.col_access.bound if argument.col_access else None
        halo[name] = (row, col)
    return halo


def _tiled_names(streams: Dict[str, object]) -> Tuple[str, ...]:
    """Names of the streams tiled themselves or in one of their bands."""
    from ...runtime.sharding import ShardedStorage
    from ...runtime.tiling import TiledStorage

    names = []
    for stream in streams.values():
        storage = getattr(stream, "storage", None)
        parts = storage.parts if isinstance(storage, ShardedStorage) \
            else (storage,)
        if any(isinstance(part, TiledStorage) for part in parts):
            names.append(stream_name(stream))
    return tuple(dict.fromkeys(names))


def _node_from_plan(index: int, plan: object,
                    fused_context: bool) -> Optional[DataflowNode]:
    """Model one plan as a dataflow node (``None``: cannot be modelled)."""
    from ...runtime.launch import LaunchPlan

    if not isinstance(plan, LaunchPlan):
        return None
    location = getattr(plan.kernel.definition, "location", None)
    if plan.is_reduction:
        reads = {"<reduce-input>": plan.reduce_input}
        writes: Dict[str, object] = {}
        accumulator = plan.accumulator
        if accumulator is not None:
            # The runtime reads partial accumulators back after
            # writing them: both a read and a write.
            reads["<accumulator>"] = accumulator
            writes["<accumulator>"] = accumulator
        node = DataflowNode(
            index=index, kind="reduction", kernel=plan.kernel_name,
            reads=reads, writes=writes, plan=plan, location=location,
            fused_context=fused_context,
        )
    else:
        reads, gathers, writes = {}, {}, {}
        halo: Dict[str, Tuple[Optional[float], Optional[float]]] = {}
        for launch_pass in plan.passes:
            reads.update(launch_pass.stream_args)
            gathers.update(launch_pass.gather_args)
            writes.update(launch_pass.out_args)
            halo.update(_halo_bounds(launch_pass.kernel.definition))
        fused = bool(plan.fused_kernel_names)
        node = DataflowNode(
            index=index, kind="fused" if fused else "map",
            kernel=plan.kernel_name, reads=reads, gathers=gathers,
            writes=writes, plan=plan, location=location,
            fused_context=fused or fused_context, halo_reads=halo,
        )
    node.tile_boundaries = _tiled_names(node.touched())
    for name, stream in node.gathers.items():
        if any(streams_alias(stream, out) for out in node.writes.values()):
            node.inplace_gathers[name] = _snapshot_guaranteed(node.plan,
                                                              stream)
    return node


def build_dataflow_graph(launchables: object,
                         source_file: str = "<pipeline>"
                         ) -> StreamDependencyGraph:
    """Construct the stream-level dependency DAG of ``launchables``.

    Accepts a list of prepared plans, a
    :class:`~repro.runtime.launch.FusedPipeline`, a
    :class:`~repro.runtime.launch.CommandQueue` with pending launches, an
    executor submission list, or any mix nested in a list.
    """
    from ...runtime.launch import FusedPipeline

    nodes: List[DataflowNode] = []
    skipped: List[Tuple[int, object]] = []
    position = 0
    for container_plan in _iter_plans(launchables):
        fused_context = isinstance(launchables, FusedPipeline)
        node = _node_from_plan(len(nodes), container_plan, fused_context)
        if node is None:
            skipped.append((position, container_plan))
        else:
            nodes.append(node)
        position += 1
    return StreamDependencyGraph(nodes, skipped, source_file)


# --------------------------------------------------------------------- #
# Static verification
# --------------------------------------------------------------------- #
def _diagnostic(code: str, message: str, kernel: str,
                location: Optional[SourceLocation],
                source_file: str) -> Diagnostic:
    rule = LINT_RULES[code]
    return Diagnostic(rule=code, severity=rule.severity, message=message,
                      kernel=kernel, location=location,
                      source_file=source_file)


def _host_written(stream: object) -> bool:
    """Whether the host ever wrote ``stream`` (conservative: unknown=yes)."""
    return bool(getattr(stream, "host_writes", 1))


def _released(stream: object) -> bool:
    if bool(getattr(stream, "released", False)):
        return True
    runtime = getattr(stream, "runtime", None)
    return bool(getattr(runtime, "closed", False))


def analyze_pipeline(launchables: object,
                     source_file: str = "<pipeline>",
                     graph: Optional[StreamDependencyGraph] = None
                     ) -> LintReport:
    """Statically verify a launch sequence; returns a brooklint report.

    The BF-2xx findings ride the same
    :class:`~repro.core.analysis.lint.LintReport` machinery as the
    kernel-level BL rules, so they merge into ``brookauto lint`` output
    and serialize to SARIF unchanged.
    """
    if graph is None:
        graph = build_dataflow_graph(launchables, source_file)
    report = LintReport()
    report.facts["<pipeline>"] = {
        "launches": len(graph.nodes),
        "edges": len(graph.edges),
        "skipped": len(graph.skipped),
    }
    for node in graph.nodes:
        if node.kernel not in report.kernels:
            report.kernels.append(node.kernel)

    for position, launchable in graph.skipped:
        report.diagnostics.append(_diagnostic(
            "BF-200",
            f"launchable #{position} ({type(launchable).__name__}) is not "
            "a prepared launch plan; the dataflow analysis skipped it",
            kernel="", location=None, source_file=source_file))

    # BF-201: conflicting pairs the dynamic hazard tracker cannot key.
    for edge, label in graph._tracker_blind_pairs():
        src, dst = graph.nodes[edge.src], graph.nodes[edge.dst]
        report.diagnostics.append(_diagnostic(
            "BF-201",
            f"launches #{edge.src} ({src.kernel}) and #{edge.dst} "
            f"({dst.kernel}) conflict on stream {label!r} ({edge.kind}) "
            "through storage the executor's hazard tracker does not key, "
            "so it could legally overlap them",
            kernel=dst.kernel, location=dst.location,
            source_file=source_file))

    # BF-202: use-after-release / use-after-close.
    for node in graph.nodes:
        for name, stream in node.touched().items():
            if _released(stream):
                report.diagnostics.append(_diagnostic(
                    "BF-202",
                    f"launch #{node.index} ({node.kernel}) captures stream "
                    f"{stream_name(stream)!r} ({name}) whose device "
                    "storage has been released",
                    kernel=node.kernel, location=node.location,
                    source_file=source_file))

    # Per-stream event timelines (grouped by aliasing class).
    groups: List[Tuple[object, List[Tuple[int, str]]]] = []

    def _events_for(stream: object) -> List[Tuple[int, str]]:
        for exemplar, events in groups:
            if streams_alias(exemplar, stream):
                return events
        events: List[Tuple[int, str]] = []
        groups.append((stream, events))
        return events

    for node in graph.nodes:
        for stream in (*node.reads.values(), *node.gathers.values()):
            _events_for(stream).append((node.index, "r"))
        for stream in node.writes.values():
            _events_for(stream).append((node.index, "w"))

    for exemplar, events in groups:
        label = stream_name(exemplar)
        writer_indices = [index for index, op in events if op == "w"]
        first_write = writer_indices[0] if writer_indices else None
        # BF-203 / BF-204: reads with no earlier writer.
        if not _host_written(exemplar) and not _released(exemplar):
            early_reads = [index for index, op in events if op == "r"
                           and (first_write is None or index < first_write)]
            if early_reads:
                node = graph.nodes[early_reads[0]]
                if first_write is not None:
                    report.diagnostics.append(_diagnostic(
                        "BF-203",
                        f"launch #{node.index} ({node.kernel}) reads "
                        f"stream {label!r} before launch #{first_write} "
                        f"({graph.nodes[first_write].kernel}) writes it, "
                        "and no host write initialised it",
                        kernel=node.kernel, location=node.location,
                        source_file=source_file))
                else:
                    report.diagnostics.append(_diagnostic(
                        "BF-204",
                        f"launch #{node.index} ({node.kernel}) reads "
                        f"stream {label!r}, which still holds its "
                        "creation zeros (never written by the host or "
                        "the pipeline)",
                        kernel=node.kernel, location=node.location,
                        source_file=source_file))
        # BF-205: write immediately overwritten with no read in between.
        previous_write: Optional[int] = None
        for index, op in events:
            if op == "r":
                previous_write = None
            elif op == "w":
                if previous_write is not None and previous_write != index:
                    node = graph.nodes[previous_write]
                    report.diagnostics.append(_diagnostic(
                        "BF-205",
                        f"launch #{previous_write} ({node.kernel}) writes "
                        f"stream {label!r} but launch #{index} "
                        f"({graph.nodes[index].kernel}) overwrites it "
                        "before anything reads it",
                        kernel=node.kernel, location=node.location,
                        source_file=source_file))
                previous_write = index

    # BF-206: intermediates a fusion pass would have eliminated.
    for exemplar, events in groups:
        writes = [index for index, op in events if op == "w"]
        reads = [index for index, op in events if op == "r"]
        if len(writes) != 1 or len(reads) != 1:
            continue
        producer_index, consumer_index = writes[0], reads[0]
        if consumer_index != producer_index + 1:
            continue
        producer = graph.nodes[producer_index]
        consumer = graph.nodes[consumer_index]
        if producer.fused_context or consumer.fused_context:
            continue
        if producer.kind != "map" or consumer.kind != "map":
            continue
        # Only element-for-element consumption fuses; a gather of the
        # intermediate must stay a separate pass.
        if any(streams_alias(exemplar, s)
               for s in consumer.gathers.values()):
            continue
        report.diagnostics.append(_diagnostic(
            "BF-206",
            f"stream {stream_name(exemplar)!r} is written by launch "
            f"#{producer_index} ({producer.kernel}), consumed "
            f"element-for-element by launch #{consumer_index} "
            f"({consumer.kernel}) and never used again; rt.fuse would "
            "eliminate it",
            kernel=producer.kernel, location=producer.location,
            source_file=source_file))

    # BL-112: in-place gathers without a guaranteed snapshot path.
    for node in graph.nodes:
        for name, guaranteed in node.inplace_gathers.items():
            if guaranteed:
                continue
            report.diagnostics.append(_diagnostic(
                "BL-112",
                f"launch #{node.index} ({node.kernel}) gathers {name!r} "
                "from its own output stream on a plain (untiled, "
                "unsharded) storage path, where no pre-launch snapshot "
                "is guaranteed",
                kernel=node.kernel, location=node.location,
                source_file=source_file))

    return report


def analyze_decision(runtime: object, plans: Sequence[object], decision,
                     source_file: str = "<pipeline>") -> LintReport:
    """Analyze the launchables a planner decision would execute.

    Materialises ``decision.chosen.config`` with
    :func:`~repro.core.analysis.planner.build_launchables` and runs
    :func:`analyze_pipeline` over the result, so the verified DAG is the
    one the service would actually launch.
    """
    from .planner import build_launchables

    launchables = build_launchables(runtime, list(plans),
                                    decision.chosen.config)
    return analyze_pipeline(launchables, source_file=source_file)
