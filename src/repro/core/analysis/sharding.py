"""Shard geometry and per-kernel access-pattern analysis for multi-device runs.

A *sharded* launch splits one logical stream domain across ``N`` devices:
each device owns a contiguous band of the stream's 2-D layout and runs
the kernel over its band only.  Two questions decide whether that is
possible without changing what the kernel computes:

1. **Geometry** - how is the layout partitioned?  :class:`ShardPlan`
   cuts multi-row layouts into row bands and single-row (1-D) layouts
   into column bands, balanced to within one row/column.  It is a
   :class:`~repro.core.analysis.tiling.PiecePlan` like the tile plan,
   so slicing, stitching and ``indexof`` positions are the tile ones,
   and it is a pure function of ``(layout, device_count)``: every
   stream of the same shape on the same device group shares one
   decomposition and per-shard launches pair the n-th shard of every
   argument.

2. **Access patterns** - what does each kernel argument need on each
   device?  :func:`classify_kernel` inspects a kernel definition and
   assigns every parameter one of four classes:

   * ``partitioned`` - positional streams (``float s<>``) and outputs:
     element ``i`` of the argument is only touched by element ``i`` of
     the domain, so each device needs exactly its own band.
   * ``replicated`` - scalar constants, broadcast to every device.
   * ``halo`` - gather arrays whose every access is provably within a
     constant offset of the current element's position along the
     sharding axis (a stencil): each device needs its band plus
     ``halo`` extra rows/columns from its neighbours.
   * ``whole`` - gather arrays with any access the analysis cannot
     bound (data-dependent indices, index arithmetic with runtime
     scalars): every device needs the full array.

   The stencil analysis understands the clamp-to-edge idiom Brook
   kernels use at borders (``max(idx.x - 1.0, 0.0)``,
   ``min(idx.y + 1.0, height - 1.0)``): a ``max`` against a small
   literal is statically safe, while a ``min`` against ``height - 1``
   can only be validated once the scalar's runtime value is known, so
   the analysis records it as a :class:`ClampGuard` that the launch
   checks against the actual array extent - failing the guard demotes
   the argument to ``whole``, never to a wrong answer.

The analysis is deliberately conservative: anything it cannot prove
falls back to ``whole``, which is always correct (it is exactly what a
single-device launch reads) and merely costs replication traffic, which
the runtime reports as halo-exchange bytes so the cost model can price
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import ast_nodes as ast
from ..types import ParamKind
from .loop_bounds import _literal, _offset
from .tiling import PiecePlan, PieceRect

__all__ = ["ShardPlan", "ClampGuard", "GatherAxisAccess",
           "ArgumentClass", "KernelShardSpec", "classify_kernel"]


# --------------------------------------------------------------------------- #
# Geometry
# --------------------------------------------------------------------------- #
class ShardPlan(PiecePlan):
    """Balanced band decomposition of one layout across a device group.

    Multi-row layouts shard along rows (each device gets a contiguous,
    full-width row band); single-row layouts - 1-D streams - shard
    along columns.  Bands are balanced to within one row/column: the
    first ``extent % devices`` bands are one unit larger.  A layout
    with fewer rows (columns) than devices produces fewer shards than
    devices; the surplus devices simply receive no band.  Piece ``k``
    is device ``k``'s band, and the folded layout is the logical one.
    """

    def __init__(self, layout: Tuple[int, int], device_count: int):
        rows, cols = int(layout[0]), int(layout[1])
        self.device_count = int(device_count)
        self.axis = "rows" if rows > 1 else "cols"
        extent = rows if self.axis == "rows" else cols
        count = max(1, min(self.device_count, extent))
        base, extra = divmod(extent, count)
        pieces: List[PieceRect] = []
        offset = 0
        for index in range(count):
            size = base + (1 if index < extra else 0)
            if self.axis == "rows":
                pieces.append(PieceRect(index, offset, 0, size, cols))
            else:
                pieces.append(PieceRect(index, 0, offset, 1, size))
            offset += size
        super().__init__((rows, cols), (rows, cols), pieces)

    def piece_dims(self, piece: PieceRect) -> Tuple[int, ...]:
        """Column bands of a 1-D stream stay 1-D, so the owning device
        may fold or tile them exactly as it would a standalone stream of
        that size."""
        if self.axis == "cols":
            return (piece.cols,)
        return (piece.rows, piece.cols)

    def halo_band(self, piece: PieceRect, halo: int) -> Tuple[int, int]:
        """Band ``[lo, hi)`` along the sharding axis including the halo."""
        extent = self.logical[0] if self.axis == "rows" else self.logical[1]
        lo = piece.row0 if self.axis == "rows" else piece.col0
        hi = lo + (piece.rows if self.axis == "rows" else piece.cols)
        return (max(0, lo - halo), min(extent, hi + halo))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ShardPlan layout={self.logical} axis={self.axis} "
                f"shards={len(self.pieces)}>")


# --------------------------------------------------------------------------- #
# Access-pattern analysis
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ClampGuard:
    """A ``min``-style clamp whose safety depends on a runtime value.

    ``min(idx.y + 1.0, height - 1.0)`` keeps stencil reads inside the
    array only when ``height`` really is the array's extent.  The guard
    records the clamp value as ``scalar_param - delta`` (or a plain
    literal with ``param is None``); the launch evaluates it and checks
    ``value >= extent - 1 - bound``.  A failing guard demotes the
    argument to ``whole`` - correctness never rests on the heuristic.
    """

    param: Optional[str]
    delta: float

    def value(self, scalar_args: Dict[str, float]) -> Optional[float]:
        if self.param is None:
            return self.delta
        if self.param not in scalar_args:
            return None
        return float(scalar_args[self.param]) - self.delta


@dataclass(frozen=True)
class GatherAxisAccess:
    """Provable bound of a gather parameter's accesses along one axis."""

    #: Maximum |offset| from the current element's coordinate.
    bound: int = 0
    #: Runtime clamps that must cover the far edge (see ClampGuard).
    guards: Tuple[ClampGuard, ...] = ()


@dataclass(frozen=True)
class ArgumentClass:
    """Sharding class of one kernel parameter."""

    #: "partitioned" | "replicated" | "halo" | "whole"
    mode: str
    #: Per-axis access bound for gather parameters; ``None`` on an axis
    #: means the accesses along it could not be bounded.
    row_access: Optional[GatherAxisAccess] = None
    col_access: Optional[GatherAxisAccess] = None

    def axis_access(self, axis: str) -> Optional[GatherAxisAccess]:
        return self.row_access if axis == "rows" else self.col_access


@dataclass
class KernelShardSpec:
    """Classification of every parameter of one kernel definition."""

    arguments: Dict[str, ArgumentClass] = field(default_factory=dict)

    def argument(self, name: str) -> Optional[ArgumentClass]:
        return self.arguments.get(name)


# Analysis lattice for index expressions ------------------------------------ #
#
#   ("const", v)              literal value v
#   ("free",)                 indexof-independent but unbounded
#   ("rel", axis, b, guards)  within b of the element's axis coordinate
#   ("ivec", b, guards)       a float2 within b of the element's position
#   ("unknown",)              anything else
_UNKNOWN = ("unknown",)


def _rel(axis: str, bound: float, guards: Tuple[ClampGuard, ...]):
    return ("rel", axis, float(bound), tuple(guards))


def _clamp_value(node) -> Optional[ClampGuard]:
    """Recognise a far-edge clamp bound: a literal or ``param - literal``."""
    literal = _literal(node)
    if literal is not None:
        return ClampGuard(param=None, delta=literal)
    offset = _offset(node)
    if offset is not None:
        return ClampGuard(param=offset[0], delta=-offset[1])
    return None


def _analyze_expr(expr, env: Dict[str, tuple]):
    """Abstract-evaluate an index expression into the analysis lattice."""
    expr = ast.unconverted(expr)
    literal = _literal(expr)
    if literal is not None:
        return ("const", literal)
    if isinstance(expr, ast.IndexOfExpr):
        return ("ivec", 0.0, ())
    if isinstance(expr, ast.Identifier):
        return env.get(expr.name, _UNKNOWN)
    if isinstance(expr, ast.MemberExpr):
        base = _analyze_expr(expr.base, env)
        if base[0] == "ivec" and expr.member in ("x", "y"):
            return _rel(expr.member, base[1], base[2])
        return _UNKNOWN
    if isinstance(expr, ast.UnaryOp) and expr.op == "+":
        return _analyze_expr(expr.operand, env)
    if isinstance(expr, ast.BinaryOp) and expr.op in ("+", "-"):
        left = _analyze_expr(expr.left, env)
        right = _analyze_expr(expr.right, env)
        if left[0] == "const" and right[0] == "const":
            return ("const",
                    left[1] + right[1] if expr.op == "+" else left[1] - right[1])
        # A coordinate term shifted by a constant stays a bounded offset
        # - but only when the coordinate is not negated: ``c - coord``
        # is a *reflection*, whose distance from ``coord`` is unbounded,
        # so it must fall through to unknown (gathered-whole).
        candidates = [(left, right)]
        if expr.op == "+":
            candidates.append((right, left))
        for this, other in candidates:
            if other[0] != "const":
                continue
            if this[0] == "rel":
                return _rel(this[1], this[2] + abs(other[1]), this[3])
            if this[0] == "ivec":
                return ("ivec", this[1] + abs(other[1]), this[2])
        if left[0] in ("free", "const") and right[0] in ("free", "const"):
            return ("free",)
        return _UNKNOWN
    if isinstance(expr, ast.CallExpr):
        if expr.callee in ("min", "max", "clamp"):
            return _analyze_clamp_call(expr, env)
        if expr.callee == "floor" and len(expr.args) == 1:
            # Gather fetches floor their indices anyway.
            return _analyze_expr(expr.args[0], env)
    return _UNKNOWN


def _analyze_clamp_call(expr, env: Dict[str, tuple]):
    """``min``/``max``/``clamp`` combining a stencil offset with edge clamps.

    ``max(rel_b, c)`` is statically safe when ``0 <= c <= b``: wherever
    the clamp binds, the result stays within ``b`` of some in-band
    coordinate (the band's own low edge covers it).  ``min(rel_b, C)``
    is safe only when ``C`` covers the far edge
    (``C >= extent - 1 - b``), which depends on runtime values, so it
    becomes a :class:`ClampGuard` checked at launch time.
    """
    parts = [_analyze_expr(arg, env) for arg in expr.args]
    rel_parts = [p for p in parts if p[0] == "rel"]
    if len(rel_parts) != 1:
        return _UNKNOWN
    rel = rel_parts[0]
    axis, bound, guards = rel[1], rel[2], tuple(rel[3])

    if expr.callee == "clamp":
        if len(expr.args) != 3 or parts[0][0] != "rel":
            return _UNKNOWN
        low = _literal(expr.args[1])
        high = _clamp_value(expr.args[2])
        if low is None or high is None or not 0.0 <= low <= bound:
            return _UNKNOWN
        return _rel(axis, bound, guards + (high,))

    others = [arg for arg, part in zip(expr.args, parts) if part[0] != "rel"]
    if expr.callee == "max":
        for other in others:
            literal = _literal(other)
            if literal is None or not 0.0 <= literal <= bound:
                return _UNKNOWN
        return _rel(axis, bound, guards)
    # min
    for other in others:
        guard = _clamp_value(other)
        if guard is None:
            return _UNKNOWN
        guards = guards + (guard,)
    return _rel(axis, bound, guards)


def _build_env(kernel: ast.FunctionDef) -> Dict[str, tuple]:
    """Map single-assignment top-level locals to their analysis values.

    Only straight-line declarations and assignments at the top level of
    the kernel body are tracked; a name assigned twice, or assigned
    anywhere inside control flow, degrades to unknown.  That covers the
    clamp-to-edge stencil idiom (``float2 idx = indexof(out); float y0 =
    max(idx.y - 1.0, 0.0); ...``) and safely gives up on anything else.
    """
    env: Dict[str, tuple] = {}
    killed = set()

    def record(name: str, value: tuple) -> None:
        if name in env or name in killed:
            env.pop(name, None)
            killed.add(name)
        else:
            env[name] = value

    def assignment_root(target) -> "str | None":
        # ``p.y = ...`` invalidates ``p`` just as surely as ``p = ...``;
        # follow member chains down to the named local being mutated.
        while isinstance(target, ast.MemberExpr):
            target = target.base
        if isinstance(target, ast.Identifier):
            return target.name
        return None

    def kill_nested_targets(statement) -> None:
        for node in _walk(statement):
            target = None
            if isinstance(node, ast.Assignment):
                target = assignment_root(node.target)
            elif isinstance(node, ast.DeclStatement):
                target = node.name
            if target is not None:
                env.pop(target, None)
                killed.add(target)

    body = kernel.body.statements if kernel.body is not None else []
    for statement in body:
        if isinstance(statement, ast.DeclStatement):
            if statement.init is None:
                record(statement.name, _UNKNOWN)
            else:
                record(statement.name, _analyze_expr(statement.init, env))
        elif isinstance(statement, ast.ExprStatement) and \
                isinstance(statement.expr, ast.Assignment) and \
                isinstance(statement.expr.target, ast.Identifier):
            assignment = statement.expr
            if assignment.op == "=":
                record(assignment.target.name,
                       _analyze_expr(assignment.value, env))
            else:
                record(assignment.target.name, _UNKNOWN)
        else:
            kill_nested_targets(statement)
    return env


def _walk(node):
    yield node
    if hasattr(node, "children"):
        for child in node.children():
            if child is not None:
                yield from _walk(child)


def _collect_gather_accesses(node, gather_names, out: List[tuple]) -> None:
    """Collect ``(name, [index exprs])`` for every gather access in ``node``.

    Recurses into the index expressions themselves (nested gathers like
    ``a[b[i]]`` yield both accesses) but not into the base chain of an
    ``a[y][x]`` access, so each chain is reported exactly once.
    """
    if isinstance(node, ast.IndexExpr):
        indices: List[ast.Expression] = []
        base = node
        while isinstance(base, ast.IndexExpr):
            indices.append(base.index)
            base = base.base
        if isinstance(base, ast.Identifier) and base.name in gather_names:
            indices.reverse()
            out.append((base.name, indices))
            for index_expr in indices:
                _collect_gather_accesses(index_expr, gather_names, out)
            return
    if hasattr(node, "children"):
        for child in node.children():
            if child is not None:
                _collect_gather_accesses(child, gather_names, out)


def _merge_axis(current: Optional[GatherAxisAccess], value: tuple,
                expected_axis: str) -> Optional[GatherAxisAccess]:
    """Fold one access's analysis into the parameter's per-axis summary.

    ``expected_axis`` is the coordinate axis this index position maps to
    ('y' for the row index, 'x' for the column index): an offset from
    the *other* axis (a transposed access) cannot be covered by a band
    halo, and neither can constants or unbounded values.
    """
    if current is None:
        return None
    if value[0] == "ivec":
        value = _rel(expected_axis, value[1], value[2])
    if value[0] != "rel" or value[1] != expected_axis:
        return None
    return GatherAxisAccess(
        bound=max(current.bound, int(np.ceil(value[2]))),
        guards=tuple(dict.fromkeys(current.guards + tuple(value[3]))),
    )


def classify_kernel(kernel: ast.FunctionDef) -> KernelShardSpec:
    """Classify every parameter of ``kernel`` for sharded execution.

    The result is memoised on the definition object (definitions are
    dataclasses with value equality, so they cannot key a mapping):
    launch plans consult the classification on every launch, while the
    AST walk only runs the first time a kernel is launched on a device
    group.
    """
    cached = getattr(kernel, "_shard_spec", None)
    if cached is not None:
        return cached

    spec = KernelShardSpec()
    gather_names = {param.name for param in kernel.gather_params}
    for param in kernel.params:
        if param.kind in (ParamKind.STREAM, ParamKind.ITERATOR,
                          ParamKind.OUT_STREAM):
            spec.arguments[param.name] = ArgumentClass(mode="partitioned")
        elif param.kind is not ParamKind.GATHER:
            spec.arguments[param.name] = ArgumentClass(mode="replicated")

    env = _build_env(kernel)
    accesses: List[tuple] = []
    if kernel.body is not None:
        _collect_gather_accesses(kernel.body, gather_names, accesses)

    row_access: Dict[str, Optional[GatherAxisAccess]] = {
        name: GatherAxisAccess() for name in gather_names}
    col_access: Dict[str, Optional[GatherAxisAccess]] = {
        name: GatherAxisAccess() for name in gather_names}
    accessed = set()
    for name, indices in accesses:
        accessed.add(name)
        if len(indices) == 1:
            value = _analyze_expr(indices[0], env)
            if value[0] == "ivec":
                # A float2 index addresses (x -> column, y -> row).
                row_access[name] = _merge_axis(row_access[name], value, "y")
                col_access[name] = _merge_axis(col_access[name], value, "x")
            else:
                # A scalar index is a column on a one-row array; the row
                # coordinate is implicitly 0, which only stays in-band
                # for unsharded rows - leave the row axis unanalyzable.
                row_access[name] = None
                col_access[name] = _merge_axis(col_access[name], value, "x")
        else:
            row_access[name] = _merge_axis(
                row_access[name], _analyze_expr(indices[0], env), "y")
            col_access[name] = _merge_axis(
                col_access[name], _analyze_expr(indices[1], env), "x")

    for name in gather_names:
        if name not in accessed:
            # Never read: each device can keep just its own band.
            spec.arguments[name] = ArgumentClass(
                mode="halo", row_access=GatherAxisAccess(),
                col_access=GatherAxisAccess())
            continue
        rows, cols = row_access[name], col_access[name]
        if rows is None and cols is None:
            spec.arguments[name] = ArgumentClass(mode="whole")
        else:
            spec.arguments[name] = ArgumentClass(
                mode="halo", row_access=rows, col_access=cols)

    kernel._shard_spec = spec
    return spec
