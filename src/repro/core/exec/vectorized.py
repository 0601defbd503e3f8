"""Whole-array vectorized execution of brookvec-approved kernels.

This is the compiled execution tier; everything it does not cover runs
on the masked interpreter (:mod:`repro.core.exec.evaluator`), which
stays the bitwise reference.  Every kernel that brookvec
(:mod:`repro.core.analysis.vectorize`) marks BV-300 or BV-301 is
compiled **once** into generated NumPy source: one ``launch`` function
whose parameters and locals are Python locals (one binding per
parameter, then the body), ``compile()``d once per
:class:`VectorizedKernelProgram`, whose read-only ``source`` holds it.

* a straight-line kernel's ``launch`` runs the per-launch check of its
  padded-slice plan, then the whole body - gathers whose indices are
  affine in ``indexof`` and clamped to the array edge read **padded-array
  slices** (one strided read instead of a random fetch per lane), runs
  of ``acc = acc + w * gather`` fuse into one 2-d accumulation, a row or
  column gathered at a uniform index is one line read, straight-line
  helper calls are inlined, and pure declarations nothing reads are
  swept.  The slice body and the per-lane body share their common tail;
* a kernel with control flow keeps its ``if``/``for``/``while``/``do``,
  ``return``, ``break`` and ``continue`` as Python control flow over
  mask locals, and a small runtime helper per construct (:func:`_branch`,
  :func:`_narrow`, :func:`_step`, :func:`_exit`, :func:`_return`)
  replays the masked interpreter's algorithm - same mask algebra, same
  ``np.where`` lane merges, same statistics, same error messages, with
  ``None`` standing for "every lane live" so exit-free loops and
  branches under a full mask skip the merges.  A helper with control
  flow is a generated function that takes the caller's mask and keeps
  its frame (returned lanes, return value, loop records) in locals.

Every value has the dtype its semantic type declares: the semantic
analyzer made each ``int``/``float`` conversion explicit, and a gather
reads float32.  So an operation on operands of width 1 (uniform or one
value per lane) is emitted as the bare operator or ufunc, and anything
wider calls the helper the interpreter uses (:func:`align_pair`,
:func:`apply_builtin`, :func:`stored`, :func:`gather`, ...); results
stay bit-identical, and every straight-line run's flop count is a
compile-time constant multiplied by the live-lane popcount.

Legality is *not* re-derived here: the caller gates compilation on the
brookvec verdict, whose speculation obligations (masked division,
gather bounds, dead-lane overflow) were discharged against the interval
engine (:mod:`repro.core.analysis.ranges`).  Evaluating a masked region
on all lanes is exactly what the masked interpreter itself does, so a
proved obligation guarantees the whole-array program cannot trap or
diverge from it.

``build_vector_path`` keeps verdict and executable consistent: if a
vectorizable kernel uses a construct this backend cannot compile, the
report is downgraded to BV-302 and the kernel keeps the interpreter.
"""

from __future__ import annotations

import operator  # noqa: F401 - read by the generated source
import re
from collections import Counter, namedtuple
from dataclasses import replace
from functools import lru_cache
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ...errors import KernelLaunchError, RuntimeBrookError
from .. import ast_nodes as ast
from ..builtins import lookup_builtin
from ..types import FLOAT, ParamKind, ScalarKind, numpy_dtype, swizzle_indices
from ..analysis.ranges import ProgramRanges
from ..analysis.vectorize import (
    VERDICT_FALLBACK,
    VectorizationReport,
    analyze_kernel_vectorization,
)
from .evaluator import (  # noqa: F401 - the generated source calls them
    UNARY_BUILTINS,
    KernelExecutionStats,
    _merge_masked,
    align_pair,
    apply_builtin,
    as_bool_array,
    construct_vector,
    divide,
    fmod,
    gather,
    materialize,
    modulo,
    no_return,
    return_zeros,
    stored,
    stored_member,
    swizzle,
    where_select,
)
from .gather import GatherSource

__all__ = [
    "VectorizedKernelProgram",
    "build_vector_path",
    "is_straight_line",
]

_MAX_SIMT_STEPS = 1_000_000
#: Above this extent a float32 ``indexof`` coordinate loses integer
#: exactness, so the slice/fancy-index equivalence argument breaks.
_MAX_EXACT_EXTENT = 1 << 24

_STRAIGHT_LINE_STATEMENTS = (ast.Block, ast.DeclStatement, ast.ExprStatement)
_EXITS = (ast.BreakStatement, ast.ContinueStatement, ast.ReturnStatement)


class _Unsupported(Exception):
    """Internal: the kernel uses a construct the vector backend lacks."""


def is_straight_line(body: ast.Statement) -> bool:
    """Whether ``body`` contains only divergence-free statements.

    Declarations, expression statements and nested blocks qualify;
    ``if``/loops/``return``/``break``/``continue``/``goto`` do not.
    Only straight-line kernels take the slice plan, helper inlining and
    the dead-declaration sweep.
    """
    return all(isinstance(node, _STRAIGHT_LINE_STATEMENTS)
               or not isinstance(node, ast.Statement)
               for node in body.walk())


def _has_exit(stmt: ast.Statement) -> bool:
    """Whether ``stmt`` contains a ``break``, ``continue`` or ``return``."""
    return any(isinstance(node, _EXITS) for node in stmt.walk())


def _flatten(body: ast.Statement):
    if isinstance(body, ast.Block):
        for stmt in body.statements:
            yield from _flatten(stmt)
    else:
        yield body


def _straight_helper(helper: ast.FunctionDef) -> bool:
    """Whether a helper body is declarations and expression statements
    ending in ``return value`` (so it has a frame-free full-mask path)."""
    stmts = list(_flatten(helper.body))
    return bool(stmts) and isinstance(stmts[-1], ast.ReturnStatement) \
        and stmts[-1].value is not None \
        and all(isinstance(stmt, (ast.DeclStatement, ast.ExprStatement))
                for stmt in stmts[:-1])


def _indented(lines: List[str], prefix: str) -> List[str]:
    """``lines`` (each one statement, maybe spanning several lines) with
    every line indented by ``prefix``."""
    return [prefix + line for chunk in lines for line in chunk.split("\n")]


# --------------------------------------------------------------------------- #
# Per-launch context
# --------------------------------------------------------------------------- #
@lru_cache(maxsize=8)
def _index_columns(rows: int, cols: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only ``indexof`` x and y columns of a ``rows x cols`` layout.

    They reproduce ``StreamShape.element_positions`` bitwise: x is the
    column (fastest axis), y the row, both int-range values converted to
    float32.  A launch without a layout is the ``1 x size`` layout.
    """
    xs = np.tile(np.arange(cols), rows).astype(np.float32)
    ys = np.repeat(np.arange(rows), cols).astype(np.float32)
    xs.flags.writeable = False
    ys.flags.writeable = False
    return xs, ys


@lru_cache(maxsize=8)
def _index_pairs(rows: int, cols: int) -> np.ndarray:
    """Read-only stacked ``(rows * cols, 2)`` ``indexof`` positions."""
    pairs = np.stack(_index_columns(rows, cols), axis=1)
    pairs.flags.writeable = False
    return pairs


def _edge_pad(dense: np.ndarray, pad: int) -> np.ndarray:
    """``np.pad(dense, pad, mode="edge")`` for a 2-D array, filled directly."""
    rows, cols = dense.shape
    out = np.empty((rows + 2 * pad, cols + 2 * pad), dtype=dense.dtype)
    body = out[pad:pad + rows]
    body[:, pad:pad + cols] = dense
    body[:, :pad] = dense[:, :1]
    body[:, pad + cols:] = dense[:, -1:]
    out[:pad] = body[:1]
    out[pad + rows:] = body[-1:]
    return out


class _VCtx:
    """Per-launch execution context shared by every generated function.

    Holds the ``indexof`` values (per column, so a kernel reading only
    ``idx.x`` never pays for the stack; shared read-only arrays of the
    launch layout unless the caller passed explicit positions) and the
    all-true mask that stands in for a ``None`` mask where an array is
    needed.
    """

    __slots__ = ("size", "stats", "layout", "explicit_index", "_index",
                 "_full")

    def __init__(self, size: int, stats: KernelExecutionStats,
                 index: Optional[np.ndarray] = None,
                 layout: Optional[Tuple[int, int]] = None):
        self.size = size
        self.stats = stats
        self.layout = layout
        self.explicit_index = index is not None
        self._index = None if index is None \
            else np.asarray(index, dtype=np.float32)
        self._full: Optional[np.ndarray] = None

    def _layout(self) -> Tuple[int, int]:
        return self.layout if self.layout is not None else (1, self.size)

    def column(self, axis: str) -> np.ndarray:
        """The ``indexof`` ``"x"`` or ``"y"`` column."""
        position = "xy".index(axis)
        if self.explicit_index:
            return self._index[:, position]
        return _index_columns(*self._layout())[position]

    @property
    def index(self) -> np.ndarray:
        if self._index is None:
            self._index = _index_pairs(*self._layout())
        return self._index

    @property
    def full_mask(self) -> np.ndarray:
        """Cached all-true mask; read-only (merges only)."""
        if self._full is None:
            self._full = np.ones(self.size, dtype=bool)
        return self._full


# --------------------------------------------------------------------------- #
# Control flow: what the masked interpreter does per construct
# --------------------------------------------------------------------------- #
# Generated code keeps the current lane mask in a local (``None``: every
# lane) and never mutates a mask in place, so aliasing one is safe.
def _active(ctx: _VCtx, mask: Optional[np.ndarray]) -> np.ndarray:
    """``mask`` as an array."""
    return ctx.full_mask if mask is None else mask


def _branch(ctx: _VCtx, cond, mask: Optional[np.ndarray]):
    """The ``(then, else)`` lane masks of an ``if`` under ``mask``.

    A per-lane condition splits the lanes and counts a divergent branch
    when both sides keep one, like ``KernelEvaluator._exec_if``; a
    uniform one degenerates to taking one branch under the unchanged
    mask (``None`` included) and gives the other no lane.
    """
    cond = np.asarray(cond)
    if cond.ndim == 0:
        empty = np.zeros(ctx.size, dtype=bool)
        return (mask, empty) if cond else (empty, mask)
    cond = as_bool_array(cond, ctx.size)
    base = _active(ctx, mask)
    then_mask = base & cond
    else_mask = base & ~cond
    if then_mask.any() and else_mask.any():
        ctx.stats.divergent_branches += 1
    return then_mask, else_mask


def _narrow(ctx: _VCtx, cond, mask: Optional[np.ndarray]):
    """``mask & cond`` for a loop condition, staying ``None`` while every
    lane is live."""
    cond = as_bool_array(cond, ctx.size)
    if mask is None:
        if cond.shape == (ctx.size,) and cond.all():
            return None
        mask = ctx.full_mask
    return mask & cond


def _step(stats: KernelExecutionStats, steps: int, kernel_name: str) -> int:
    """Count one more step of a loop that has taken ``steps``."""
    steps += 1
    stats.simt_loop_steps += 1
    if steps > _MAX_SIMT_STEPS:
        raise RuntimeBrookError(
            f"kernel {kernel_name!r} exceeded {_MAX_SIMT_STEPS} loop steps; "
            "the loop is unbounded or the bound is too large for simulation"
        )
    return steps


def _exit(ctx: _VCtx, lanes: np.ndarray, mask: Optional[np.ndarray]):
    """``break``/``continue``: record the lanes of ``mask`` in the
    innermost loop's ``lanes`` (its break or continue record); no lane
    falls through."""
    lanes |= _active(ctx, mask)
    return np.zeros(ctx.size, dtype=bool)


def _return(ctx: _VCtx, mask: Optional[np.ndarray], returned: np.ndarray,
            result, *value):
    """``return [value]`` on the lanes of ``mask``: the function's
    returned lanes and return value after it (merged into the float32
    zeros of its first ``return``), and the fall-through mask."""
    base = _active(ctx, mask)
    if value:
        if result is None:
            result = return_zeros(value[0], ctx.size)
        result = _merge_masked(result, value[0], base)
    return returned | base, result, np.zeros(ctx.size, dtype=bool)


# --------------------------------------------------------------------------- #
# Helpers the generated source calls for what it cannot specialise
# --------------------------------------------------------------------------- #
def _lanes(value, size):
    """A width-1 store under the full mask: the value itself when it has
    one entry per lane (what ``stored`` keeps), else its per-lane
    broadcast (what the merge makes)."""
    return value if value.shape == (size,) else materialize(value, size)


def _logical(combine, left, right, size):
    left, right = align_pair(left, right)
    return combine(as_bool_array(left, size), as_bool_array(right, size))


def _lerp(a, b, t):
    return a + t * (b - a)


def _gather(ctx, source, indices, line):
    if source is None:
        raise RuntimeBrookError(
            "only gather-array parameters can be indexed during execution")
    if line is not None:
        values = _line_read(source, ctx, line, np.asarray(indices[0]),
                            np.asarray(indices[1]))
        if values is not None:
            return values
    return gather(source, indices, ctx.size)


def _line_read(source: GatherSource, ctx: _VCtx, line: str,
               rows: np.ndarray, cols: np.ndarray) -> Optional[np.ndarray]:
    """Serve ``a[idx.y][k]`` (``line == "y"``) or ``b[k][idx.x]`` as one
    column or row of the array, when ``k`` is uniform over all lanes.

    The lane index must be the launch's shared read-only ``indexof``
    column itself, which proves its values; ``k`` must be finite, in range
    and equal on every lane.  The result equals the per-lane fetch
    bitwise (same float32 -> floor -> int64 index arithmetic, a fresh
    array, the same fetch count).  Returns ``None`` to take the per-lane
    fetch, which keeps its errors and clamping.
    """
    lanes, k = (rows, cols) if line == "y" else (cols, rows)
    if ctx.layout is None or ctx.explicit_index or not ctx.size \
            or lanes is not ctx.column(line) \
            or k.ndim > 1 or (k.ndim == 1 and (k.shape[0] != ctx.size
                                               or k.min() != k.max())):
        return None
    k = np.floor(np.asarray(k.reshape(-1)[0], dtype=np.float32))
    dense = source.dense()
    layout_rows, layout_cols = ctx.layout
    if not np.isfinite(k) or dense is None or dense.ndim != 2 \
            or layout_rows * layout_cols != ctx.size:
        return None
    # Row reads repeat a column of ``a`` along each layout row; column
    # reads tile a row of ``b`` (a column of ``b.T``) down the layout.
    lines = dense if line == "y" else dense.T
    extent = layout_rows if line == "y" else layout_cols
    if not (extent <= min(lines.shape[0], _MAX_EXACT_EXTENT)
            and 0 <= k < lines.shape[1]):
        return None
    values = np.empty(ctx.size, dtype=dense.dtype)
    if line == "y":
        values.reshape(extent, -1)[:] = lines[:extent, int(k), None]
    else:
        values.reshape(-1, extent)[:] = lines[:extent, int(k)]
    source.add_fetches(ctx.size)
    return values


def _at_edge(bound, extent) -> bool:
    """Whether a clamp bound is uniform and equal to ``extent - 1``."""
    bound = np.asarray(bound)
    return bound.ndim == 0 and float(bound) == float(extent - 1)


def _fetch_total(gathers) -> int:
    return sum(source.fetch_count for source in gathers.values())


def _owned(value, inputs):
    """The interpreter's merges always produce fresh arrays; an elided
    store may hand back an input array, a slice view or a shared
    read-only indexof column, so restore freshness here."""
    flags = value.flags
    if value.base is not None or not flags.owndata or not flags.writeable \
            or any(value is array for array in inputs):
        return value.copy()
    return value


# --------------------------------------------------------------------------- #
# Operations on declared dtypes
# --------------------------------------------------------------------------- #
#: Builtins emitted as bare ufuncs when every argument has width 1 -
#: exactly ``apply_builtin`` on float32 arguments (the semantic analyzer
#: converts every argument of a math builtin to ``float``), where
#: ``align_pair`` is a no-op: name -> source template over the
#: arguments.  Each template evaluates its arguments once, in order.
_UFUNC_BUILTINS = {
    "min": "np.minimum({0}, {1})", "max": "np.maximum({0}, {1})",
    "pow": "np.power({0}, {1})", "atan2": "np.arctan2({0}, {1})",
    "fmod": "fmod({0}, {1})",
    "clamp": "np.minimum(np.maximum({0}, {1}), {2})",
    "lerp": "_lerp({0}, {1}, {2})", "mix": "_lerp({0}, {1}, {2})",
    "mad": "(({0} * {1}) + {2})",
    **{name: f"np.{ufunc.__name__}({{0}})"
       for name, ufunc in UNARY_BUILTINS.items()},
}

_OPERATOR_NAMES = {"+": "add", "-": "sub", "*": "mul", "<": "lt", ">": "gt",
                   "<=": "le", ">=": "ge", "==": "eq", "!=": "ne"}


def _width1(expr: ast.Expression) -> bool:
    return expr.type.width == 1


def _dtype_code(brook_type) -> str:
    """The NumPy dtype of ``brook_type`` spelled in generated code
    (``np.bool`` is missing from NumPy 1.24-1.26, ``np.bool_`` is not)."""
    dtype = numpy_dtype(brook_type)
    return "np.bool_" if dtype == "bool" else f"np.{dtype}"


def _scalar_pair(left: ast.Expression, right: ast.Expression) -> bool:
    """Whether both operands are typed width 1, so ``align_pair`` is a no-op."""
    return _width1(left) and _width1(right)


def _literal_value(expr: ast.Expression) -> Optional[float]:
    if isinstance(expr, ast.NumberLiteral):
        return float(expr.value)
    return None


def _calls_helper(node: ast.Node) -> bool:
    return isinstance(node, ast.CallExpr) \
        and lookup_builtin(node.callee) is None


# --------------------------------------------------------------------------- #
# Slice-gather planning
# --------------------------------------------------------------------------- #
#: ``indexof`` column plus integer offset, optionally clamped: ``lo`` is
#: the lower clamp (only 0.0 matches the edge padding), ``hi`` the source
#: of the upper clamp bound.
_Affine = namedtuple("_Affine", "axis offset lo hi", defaults=(0, None, None))

#: One gather site proved servable by a padded-array slice.  Validity that
#: depends only on the kernel text (clamp presence vs offset sign,
#: clamp-to-zero constants) is checked at compile time; everything that
#: depends on the launch (layout matches the array shape, the upper clamps
#: ``row_hi``/``col_hi`` equal ``extent - 1``) by the generated prologue.
_SlicePlan = namedtuple("_SlicePlan", "name dy dx row_hi col_hi")


# --------------------------------------------------------------------------- #
# Source generation
# --------------------------------------------------------------------------- #
class _Source:
    """The generated text of one kernel's program: constants, its
    helpers' functions and the launch.

    Everything is emitted inside one factory, ``_program(K)``, whose
    nested functions read the constants ``K`` through closure cells and
    the helpers above through this module's globals.
    """

    def __init__(self, kernel_name: str,
                 helpers: Dict[str, ast.FunctionDef]):
        self.kernel_name = kernel_name
        self.helpers = helpers
        self.consts: List[object] = []
        self._const_names: Dict[str, str] = {}
        self.defs: List[str] = []
        #: Helper name -> its generated function.
        self.helper_functions: Dict[str, str] = {}
        self.compiling: Set[str] = set()
        self._count = 0

    def const(self, value) -> str:
        key = repr(value)
        if key not in self._const_names:
            self._const_names[key] = f"k{len(self.consts)}"
            self.consts.append(value)
        return self._const_names[key]

    def name(self, prefix: str) -> str:
        self._count += 1
        return f"{prefix}{self._count}"

    def function(self, prefix: str, params: str, lines: List[str]) -> str:
        name = self.name(prefix)
        self.defs.append("\n".join([f"def {name}({params}):",
                                    "    n, stats = ctx.size, ctx.stats",
                                    *_indented(lines, "    ")]))
        return name

    def text(self, launch: List[str]) -> str:
        head = ["def _program(K):"]
        if self.consts:
            head.append(f"    {', '.join(self._const_names.values())}, = K")
        chunks = self.defs + ["\n".join(launch), "return launch"]
        body = "\n".join("    " + line if line else line
                         for chunk in chunks for line in chunk.split("\n"))
        return "\n".join(head) + "\n" + body + "\n"


class _Gen:
    """Emits the NumPy source of one function body.

    ``fixed`` is the kernel's :func:`_fixed_locals` (``None`` in helper
    bodies, which have their own names): an ``indexof`` binding there
    holds for the whole launch, so ``idx.x`` is the launch's index
    column.

    Every local ``x`` is the Python local ``prefix + x``: ``v_`` in a
    launch or a helper's function, a name of its own in an inlined
    helper body.  ``lanes`` holds the width-1 locals proved to hold an
    ndarray with one entry per lane.  ``mask`` is the source of the
    current lane mask: ``"None"`` where every lane is statically live
    (straight-line launches and helper bodies under the full mask), else
    the local that :meth:`block` keeps it in.
    """

    def __init__(self, src: _Source, function: ast.FunctionDef,
                 fixed: Optional[Dict[str, ast.DeclStatement]] = None,
                 slice_mode: bool = False, prefix: str = "v_",
                 lanes: Set[str] = frozenset()):
        self.src = src
        self._fixed = fixed
        self.slice_mode = slice_mode
        self.prefix = prefix
        #: The source that reads or writes a local, by name.
        self.ref = prefix.__add__
        self.lanes = set(lanes)
        self.mask = "None"
        #: ``(break record, continue record)`` locals of the enclosing
        #: loops that have exits, innermost last.
        self._loops: List[Tuple[str, str]] = []
        #: Lines hoisted before the statement being generated (the bodies
        #: of inlined helper calls); ``None`` where nothing may be hoisted.
        self._pre: Optional[List[str]] = None
        #: Whether the statement so far evaluates something with an effect
        #: (a fetch, a store, a call that may raise) that a hoisted helper
        #: body must not overtake.
        self._effects = False
        #: Name stem of the statement's inline sites, and their count.
        self._site = ""
        self._sites = 0
        #: Static flop cost of every inlined helper body, per lane.
        self.inline_cost = 0
        #: Per-lane gather sites emitted (fetches the launch cannot count
        #: statically).
        self.fetch_sites = 0
        self.slice_plans: List[_SlicePlan] = []
        self._affine: Dict[str, _Affine] = {}
        #: Names each fast-body statement actually reads at runtime
        #: (slice-served index locals excluded) and overwrites without
        #: reading - feed the dead-decl sweep.
        self._reads: Optional[Set[str]] = None
        self._kills: Set[str] = set()
        #: Width-1 scalar params: provably 0-d at runtime, so a stencil
        #: weight multiplying a 2-d slice broadcasts like the 1-d path.
        self._uniform_scalars: Set[str] = {
            param.name for param in function.params
            if param.kind is ParamKind.SCALAR and param.type.width == 1
        }
        #: Locals declared ``float`` (width 1) in the fast body - the only
        #: accumulators the stencil fuser may bypass the store path for.
        self._float_locals: Set[str] = set()

    def _read_old(self, name: str) -> None:
        """A store that merges into ``name``'s old value reads it, so the
        declaration that bound it is not swept."""
        if self._reads is not None:
            self._reads.add(name)

    # -- statements ------------------------------------------------------ #
    def statement(self, stmt: ast.Statement, defined: Set[str],
                  index: int = 0) -> Tuple[List[str], int]:
        """Lines and static cost of one declaration or expression
        statement under the full mask.  Helper calls may be inlined: their
        bodies are lines of their own before the statement's, named after
        ``index``."""
        pre, (lines, cost) = self._hoisting(
            index, lambda: self._statement(stmt, defined))
        return pre + lines, cost

    def _hoisting(self, index: int, generate):
        """``(hoisted lines, generate())``, generating statement ``index``
        with helper-call inlining on."""
        self._pre, self._effects = [], False
        self._site, self._sites = f"{self.prefix}{index}_", 0
        try:
            result = generate()
            return self._pre, result
        finally:
            self._pre = None

    def _statement(self, stmt: ast.Statement, defined: Set[str]
                   ) -> Tuple[List[str], int]:
        if isinstance(stmt, ast.DeclStatement):
            return self._decl(stmt, defined)
        if not isinstance(stmt, ast.ExprStatement):
            raise _Unsupported(type(stmt).__name__)
        expr = stmt.expr
        if not isinstance(expr, ast.Assignment) \
                or not isinstance(expr.target, ast.Identifier):
            code, cost = self.expr(expr, defined)
            return [code], cost
        lines: List[str] = []
        value, cost = self._assigned_value(expr, defined, lines)
        name = expr.target.name
        target = self.ref(name)
        scalar = _scalar_pair(expr.target, expr.value)
        masked = self.mask != "None"
        if name not in defined and not masked:
            lines.append(f"{target} = materialize({value}, n)")
        elif not masked and scalar:
            # The value has the local's dtype, so the store keeps it.
            if not (self._lane(expr.value)
                    or (expr.op != "=" and self._lane(expr.target))):
                value = f"_lanes({value}, n)"
            lines.append(f"{target} = {value}")
            self._kills.add(name)
        else:
            lines.append(f"{target} = stored({value}, "
                         f"{self._old(name, defined)}, {self.mask}, n)")
        defined.add(name)
        # A full-mask store of one width-1 value leaves one entry per lane.
        if scalar and not masked:
            self.lanes.add(name)
        else:
            self.lanes.discard(name)
        return lines, cost

    def _assigned_value(self, expr: ast.Assignment, defined: Set[str],
                        lines: Optional[List[str]]):
        """The value an assignment stores.  A compound one re-evaluates
        ``target op value`` after the value, like the interpreter (the
        value runs twice and its flops count twice); the first run is a
        line of its own when ``lines`` is given."""
        if expr.op != "=":
            # A hoisted helper body would run once for the two values.
            self._effects = True
        value, cost = self.expr(expr.value, defined)
        if expr.op == "=":
            return value, cost
        target, target_cost = self.expr(expr.target, defined)
        combined = self._binary(expr.op[:-1], expr.target, target,
                                expr.value, value)
        if lines is not None:
            lines.append(value)
        else:
            combined = f"({value}, {combined})[1]"
        return combined, cost + target_cost + cost + 1

    def _decl(self, stmt: ast.DeclStatement, defined: Set[str]):
        lane = stmt.decl_type.width == 1
        if stmt.init is None:
            width = stmt.decl_type.width
            shape = "n" if width == 1 else f"(n, {width})"
            code, cost = (f"np.zeros({shape}, "
                          f"dtype={_dtype_code(stmt.decl_type)})"), 0
        else:
            init, cost = self.expr(stmt.init, defined)
            lane = lane and self._lane(stmt.init)
            code = init if lane else f"np.asarray({init})"
        defined.add(stmt.name)
        if lane:
            self.lanes.add(stmt.name)
        else:
            self.lanes.discard(stmt.name)
        return [f"{self.ref(stmt.name)} = {code}"], cost

    # -- control flow ---------------------------------------------------- #
    def function_body(self, body: ast.Statement, defined: Set[str],
                      entry: str, check: bool) -> Tuple[List[str], int]:
        """Lines running a function ``body`` under the mask ``entry``
        evaluates to (skipped when ``check`` and no lane is live), with
        its frame in locals: ``returned`` lanes and ``result`` value when
        it has exits.  Also the static cost of its own straight-line
        statements."""
        mask = self.src.name("m")
        lines, cost = self.block(body, defined, mask)
        if check:
            lines = [f"if {mask}.any():", *_indented(lines or ["pass"], "    ")]
        frame = ["returned = np.zeros(n, dtype=bool)", "result = None"] \
            if _has_exit(body) else []
        return [f"{mask} = {entry}", *frame, *lines], cost

    def block(self, body: ast.Statement, defined: Set[str], mask: str
              ) -> Tuple[List[str], int]:
        """Lines running ``body`` under the lanes of local ``mask``, which
        they leave holding the fall-through mask, and the static cost of
        its own straight-line statements (nested bodies excluded)."""
        saved, self.mask = self.mask, mask
        try:
            return self._run(list(_flatten(body)), defined)
        finally:
            self.mask = saved

    def _run(self, stmts: List[ast.Statement], defined: Set[str]
             ) -> Tuple[List[str], int]:
        """:meth:`block` over flattened statements.  Like the interpreter,
        the statements after one that may turn lanes off run only while a
        lane is live; those after an exit never run, but are still
        generated for their cost and their constructs."""
        mask = self.mask
        lines: List[str] = []
        run: List[str] = []
        cost = total = 0
        for position, stmt in enumerate(stmts):
            if isinstance(stmt, (ast.DeclStatement, ast.ExprStatement)):
                stmt_lines, stmt_cost = self._statement(stmt, defined)
                run += stmt_lines
                cost += stmt_cost
                continue
            lines += self._flops(cost, mask) + run
            total += cost
            run, cost = [], 0
            if isinstance(stmt, ast.IfStatement):
                lines += self._if(stmt, defined)
            elif isinstance(stmt, ast.ForStatement):
                if stmt.init is not None:
                    lines += self.block(stmt.init, defined, mask)[0]
                lines += self._while(stmt.cond, stmt.body, stmt.update,
                                     True, defined)
            elif isinstance(stmt, ast.WhileStatement):
                lines += self._while(stmt.cond, stmt.body, None, True,
                                     defined)
            elif isinstance(stmt, ast.DoWhileStatement):
                lines += self._while(stmt.cond, stmt.body, None, False,
                                     defined)
            elif isinstance(stmt, _EXITS):
                lines += self._jump(stmt, defined)
                return lines, total + self._run(stmts[position + 1:],
                                                defined)[1]
            else:
                raise _Unsupported(type(stmt).__name__)
            if _has_exit(stmt):
                rest, rest_total = self._run(stmts[position + 1:], defined)
                if rest:
                    lines += [f"if {mask} is None or {mask}.any():",
                              *_indented(rest, "    ")]
                return lines, total + rest_total
        return lines + self._flops(cost, mask) + run, total + cost

    def _flops(self, cost: int, mask: str) -> List[str]:
        """The line counting ``cost`` flops on every lane of ``mask``."""
        if not cost:
            return []
        return [f"stats.flops += {cost} * "
                f"(n if {mask} is None else int({mask}.sum()))"]

    def _if(self, stmt: ast.IfStatement, defined: Set[str]) -> List[str]:
        mask = self.mask
        cond, cond_cost = self.expr(stmt.cond, defined)
        then_mask, else_mask = self.src.name("m"), self.src.name("m")
        lines = [*self._flops(cond_cost, mask),
                 f"{then_mask}, {else_mask} = _branch(ctx, {cond}, {mask})"]
        for branch, lanes in ((stmt.then_branch, then_mask),
                              (stmt.else_branch, else_mask)):
            if branch is not None:
                body = self.block(branch, defined, lanes)[0]
                lines += [f"if {lanes} is None or {lanes}.any():",
                          *_indented(body or ["pass"], "    ")]
        if _has_exit(stmt):
            # Without exits every lane falls through: the mask stays.
            lines.append(f"{mask} = None if {then_mask} is None or "
                         f"{else_mask} is None else {then_mask} | {else_mask}")
        return lines

    def _while(self, cond_expr, body, update_expr, check_before,
              defined: Set[str]) -> List[str]:
        """``KernelEvaluator._run_loop``.  A body without exits needs no
        break/continue records and falls through with the mask it ran
        under, so the loop keeps the caller's mask - ``None`` included -
        until a per-lane condition turns a lane off."""
        mask, lanes = self.mask, self.src.name("m")
        steps = self.src.name("steps")
        exits = _has_exit(body)
        entry = f"np.ones(n, dtype=bool) if {mask} is None else {mask}" \
            if exits else mask
        lines = [f"{lanes} = {entry}", f"{steps} = 0"]
        if exits:
            record = self.src.name("broke"), self.src.name("continued")
            lines += [f"{name} = np.zeros(n, dtype=bool)" for name in record]
        self.mask = lanes
        try:
            narrow = []
            if cond_expr is not None:
                cond, cond_cost = self.expr(cond_expr, defined)
                narrow = [*self._flops(cond_cost, lanes),
                          f"{lanes} = _narrow(ctx, {cond}, {lanes})"]
            # A ``do`` loop tests once per step, at the bottom.
            step = [*(narrow if check_before else []),
                    f"if {lanes} is not None and not {lanes}.any():",
                    "    break",
                    f"{steps} = _step(stats, {steps}, "
                    f"{self.src.const(self.src.kernel_name)})"]
            if exits:
                fall = self.src.name("m")
                self._loops.append(record)
                step += [f"{record[1]}[:] = False", f"{fall} = {lanes}",
                         *self.block(body, defined, fall)[0],
                         f"{lanes} = ({fall} | ({record[1]} & {lanes})) "
                         f"& ~{record[0]} & ~returned"]
                self._loops.pop()
            else:
                step += self.block(body, defined, lanes)[0]
            if update_expr is not None:
                update, update_cost = self.expr(update_expr, defined)
                step += [f"if {lanes} is None or {lanes}.any():",
                         *_indented([*self._flops(update_cost, lanes), update],
                                    "    ")]
            if not check_before:
                step += narrow
        finally:
            self.mask = mask
        lines += ["while True:", *_indented(step, "    ")]
        if exits:
            lines.append(f"{mask} = _active(ctx, {mask}) & ~returned")
        return lines

    def _jump(self, stmt: ast.Statement, defined: Set[str]) -> List[str]:
        """``return``, ``break`` or ``continue``: no lane falls through."""
        mask = self.mask
        if isinstance(stmt, ast.ReturnStatement):
            value = ""
            lines = []
            if stmt.value is not None:
                code, cost = self.expr(stmt.value, defined)
                value = f", {code}"
                lines = self._flops(cost, mask)
            return lines + [f"returned, result, {mask} = _return(ctx, {mask}, "
                            f"returned, result{value})"]
        word = "break" if isinstance(stmt, ast.BreakStatement) else "continue"
        if not self._loops:
            return [f"raise RuntimeBrookError({word + ' outside of a loop'!r})"]
        record = self._loops[-1][word == "continue"]
        return [f"{mask} = _exit(ctx, {record}, {mask})"]

    # -- the straight-line fast body ------------------------------------- #
    def fast_body(self, body: ast.Statement, defined: Set[str]
                  ) -> Tuple[List[str], int]:
        """Lines and static cost of a straight-line body under the full
        mask, with pure declarations nothing reads swept (their cost is
        still charged) and stencil runs fused (slice mode)."""
        stmts = []
        flops = 0
        for index, stmt in enumerate(_flatten(body)):
            self._reads, self._kills = set(), set()
            stencil = None
            if isinstance(stmt, ast.DeclStatement):
                # Track clamped-affine index locals before compiling, so
                # later gathers can resolve them to slice plans; any
                # reassignment kills the binding.
                affine = None
                if self.slice_mode and stmt.decl_type.width == 1 \
                        and stmt.init is not None:
                    affine = self._extract_affine(stmt.init, defined)
                lines, cost = self.statement(stmt, defined, index)
                self._uniform_scalars.discard(stmt.name)
                if stmt.decl_type.width == 1 \
                        and stmt.decl_type.kind is ScalarKind.FLOAT:
                    self._float_locals.add(stmt.name)
                else:
                    self._float_locals.discard(stmt.name)
                if affine is not None:
                    self._affine[stmt.name] = affine
                else:
                    self._affine.pop(stmt.name, None)
                # A helper call counts its flops when it runs, so a
                # declaration calling one is never swept.
                removable = stmt.init is None or not any(
                    isinstance(node, (ast.Assignment, ast.IndexExpr))
                    or _calls_helper(node) for node in stmt.init.walk())
                decl = stmt.name
                self._kills.add(decl)
            elif isinstance(stmt, ast.ExprStatement):
                # A member store (``p.y = ...``) mutates the base vector,
                # so its bindings die too.
                for node in stmt.expr.walk():
                    target = _assigned_target(node)
                    self._affine.pop(target, None)
                    self._uniform_scalars.discard(target)
                match = self._match_stencil(stmt.expr) if self.slice_mode \
                    else None
                plans_before = len(self.slice_plans)
                lines, cost = self.statement(stmt, defined, index)
                if match is not None \
                        and len(self.slice_plans) == plans_before + 1:
                    acc_name, weight_expr, gather_left = match
                    weight = None if weight_expr is None \
                        else self.expr(weight_expr, defined)[0]
                    stencil = (acc_name, weight, gather_left,
                               len(self.slice_plans) - 1)
                decl, removable = None, False
            else:
                raise _Unsupported(type(stmt).__name__)
            flops += cost
            stmts.append((lines, decl, self._reads, removable, stencil,
                          self._kills))
            self._reads = None
        keep = _sweep_dead_decls(stmts)
        return _fuse_stencil_runs(
            [s for s, live in zip(stmts, keep) if live], self.ref), flops

    def _match_stencil(self, expr: ast.Expression
                       ) -> Optional[Tuple[str, Optional[ast.Expression],
                                           bool]]:
        """Match ``acc = acc + [w *] gather`` for the stencil fuser.

        ``acc`` must be a width-1 float local (so the value shape is ()
        or (n,)), and the weight a literal or width-1 scalar param
        (provably 0-d, so multiplying the 2-d slice broadcasts like the
        1-d path); both are then float32, like the slice.
        Returns ``(acc_name, weight_expr, gather_on_left)`` -
        ``gather_on_left`` preserves the operand order of the multiply so
        NaN-payload propagation stays bit-identical.
        """
        if not isinstance(expr, ast.Assignment) or expr.op != "=":
            return None
        if not isinstance(expr.target, ast.Identifier):
            return None
        acc = expr.target.name
        if acc not in self._float_locals:
            return None
        value = expr.value
        if not isinstance(value, ast.BinaryOp) or value.op != "+":
            return None
        if not isinstance(value.left, ast.Identifier) \
                or value.left.name != acc:
            return None
        term = value.right
        if isinstance(term, ast.IndexExpr):
            return acc, None, True
        if isinstance(term, ast.BinaryOp) and term.op == "*":
            if isinstance(term.right, ast.IndexExpr) \
                    and self._is_uniform_weight(term.left):
                return acc, term.left, False
            if isinstance(term.left, ast.IndexExpr) \
                    and self._is_uniform_weight(term.right):
                return acc, term.right, True
        return None

    def _is_uniform_weight(self, expr: ast.Expression) -> bool:
        if isinstance(expr, ast.NumberLiteral):
            return True
        return isinstance(expr, ast.Identifier) \
            and expr.name in self._uniform_scalars

    def _extract_affine(self, expr: ast.Expression, defined: Set[str]
                        ) -> Optional[_Affine]:
        if isinstance(expr, ast.MemberExpr):
            axis = self._index_axis(expr)
            return None if axis is None else _Affine(axis)
        if isinstance(expr, ast.Identifier):
            return self._affine.get(expr.name)
        if isinstance(expr, ast.BinaryOp) and expr.op in ("+", "-"):
            left_lit = _literal_value(expr.left)
            right_lit = _literal_value(expr.right)
            if right_lit is not None and right_lit == int(right_lit):
                base = self._extract_affine(expr.left, defined)
                if base is not None and base.lo is None and base.hi is None:
                    delta = int(right_lit) if expr.op == "+" else -int(right_lit)
                    return _Affine(base.axis, base.offset + delta)
            if expr.op == "+" and left_lit is not None \
                    and left_lit == int(left_lit):
                base = self._extract_affine(expr.right, defined)
                if base is not None and base.lo is None and base.hi is None:
                    return _Affine(base.axis, base.offset + int(left_lit))
            return None
        if isinstance(expr, ast.CallExpr) and expr.callee in ("max", "min") \
                and len(expr.args) == 2:
            for affine_arg, other in ((expr.args[0], expr.args[1]),
                                      (expr.args[1], expr.args[0])):
                base = self._extract_affine(affine_arg, defined)
                if base is None:
                    continue
                if expr.callee == "max":
                    # Only clamp-to-zero matches the edge-padding clip.
                    if base.lo is not None or _literal_value(other) != 0.0:
                        return None
                    return _Affine(base.axis, base.offset, 0.0, base.hi)
                if base.hi is not None:
                    return None
                # The bound is evaluated by the launch prologue, so it
                # must be free of stores, fetches and helper flops.
                if any(isinstance(node, (ast.Assignment, ast.IndexExpr))
                       or _calls_helper(node) for node in other.walk()):
                    return None
                try:
                    hi = self.expr(other, defined)[0]
                except _Unsupported:
                    return None
                return _Affine(base.axis, base.offset, base.lo, hi)
            return None
        return None

    # -- expressions ----------------------------------------------------- #
    def expr(self, expr: ast.Expression, defined: Set[str]
             ) -> Tuple[str, int]:
        """``(source, static cost)`` of an expression."""
        if isinstance(expr, ast.NumberLiteral):
            if expr.is_float:
                return self.src.const(np.float32(expr.value)), 0
            return self.src.const(np.int32(int(expr.value))), 0
        if isinstance(expr, ast.BoolLiteral):
            return self.src.const(np.bool_(expr.value)), 0
        if isinstance(expr, ast.Identifier):
            name = expr.name
            if self._reads is not None:
                self._reads.add(name)
            if name not in defined:
                raise _Unsupported(f"read of undefined name {name!r}")
            return self.ref(name), 0
        if isinstance(expr, ast.UnaryOp):
            code, cost = self.expr(expr.operand, defined)
            if expr.op == "-":
                return f"(-{code})", cost + 1
            if expr.op == "!":
                return f"(~as_bool_array({code}, n))", cost + 1
            if expr.op == "~":
                return f"(~np.asarray({code}, dtype=np.int32))", cost + 1
            raise _Unsupported(f"unary operator {expr.op!r}")
        if isinstance(expr, ast.BinaryOp):
            left, c0 = self.expr(expr.left, defined)
            right, c1 = self.expr(expr.right, defined)
            return self._binary(expr.op, expr.left, left, expr.right,
                                right), c0 + c1 + 1
        if isinstance(expr, ast.Assignment):
            return self._assignment(expr, defined)
        if isinstance(expr, ast.Conditional):
            cond, c0 = self.expr(expr.cond, defined)
            then, c1 = self.expr(expr.then, defined)
            other, c2 = self.expr(expr.otherwise, defined)
            return (f"where_select(as_bool_array({cond}, n), {then}, {other})",
                    c0 + c1 + c2 + 1)
        if isinstance(expr, ast.CallExpr):
            return self._call(expr, defined)
        if isinstance(expr, ast.ConstructorExpr):
            return self._constructor(expr, defined)
        if isinstance(expr, ast.IndexExpr):
            return self._gather(expr, defined)
        if isinstance(expr, ast.MemberExpr):
            # Lazy indexof columns: idx.x / idx.y never build the stacked
            # (n, 2) positions array, and return the launch's shared
            # column, which a line read recognises by identity.
            axis = self._index_axis(expr)
            if axis is not None:
                return f"ctx.column({axis!r})", 0
            base, cost = self.expr(expr.base, defined)
            indices = swizzle_indices(expr.member)
            self._effects = True
            return f"swizzle({base}, {indices!r}, {expr.member!r}, n)", cost
        if isinstance(expr, ast.IndexOfExpr):
            return "ctx.index", 0
        raise _Unsupported(type(expr).__name__)

    def _binary(self, op: str, left_expr: ast.Expression, left: str,
                right_expr: ast.Expression, right: str) -> str:
        """``left op right``; both operands have one base type."""
        scalar_pair = _scalar_pair(left_expr, right_expr)
        if op in _OPERATOR_NAMES:
            if scalar_pair:
                return f"({left} {op} {right})"
            self._effects = True
            return (f"operator.{_OPERATOR_NAMES[op]}"
                    f"(*align_pair({left}, {right}))")
        if op in ("/", "%"):
            if scalar_pair and left_expr.type == FLOAT:
                return f"({left} / {right})" if op == "/" \
                    else f"fmod({left}, {right})"
            helper = "divide" if op == "/" else "modulo"
            return f"{helper}(*align_pair({left}, {right}))"
        if op in ("&&", "||"):
            combine = "and_" if op == "&&" else "or_"
            return f"_logical(operator.{combine}, {left}, {right}, n)"
        raise _Unsupported(f"binary operator {op!r}")

    def _assignment(self, expr: ast.Assignment, defined: Set[str]):
        """An assignment nested in an expression: the generic store."""
        value, cost = self._assigned_value(expr, defined, None)
        target = expr.target
        self._effects = True
        if isinstance(target, ast.MemberExpr) \
                and isinstance(target.base, ast.Identifier):
            name = target.base.name
            indices = swizzle_indices(target.member)
            store = (f"stored_member((_v := {value}), {self._old(name, defined)}"
                     f", {name!r}, {indices!r}, {target.member!r}, "
                     f"_active(ctx, {self.mask}), n)")
        elif isinstance(target, ast.Identifier):
            name = target.name
            store = (f"stored((_v := {value}), {self._old(name, defined)}, "
                     f"{self.mask}, n)")
            defined.add(name)
        else:
            raise _Unsupported("unsupported assignment target")
        # The store rebinds the local and yields the value.
        self.lanes.discard(name)
        return f"(({self.ref(name)} := {store}), _v)[1]", cost

    def _old(self, name: str, defined: Set[str]) -> str:
        """What a store merges into: the local, or ``None`` before its
        first store."""
        if name not in defined:
            return "None"
        self._read_old(name)
        return self.ref(name)

    def _call(self, expr: ast.CallExpr, defined: Set[str]):
        # A helper call may be hoisted when nothing evaluated before it
        # has an effect; its arguments then move along with it.
        hoistable = self._pre is not None and not self._effects
        args = [self.expr(arg, defined) for arg in expr.args]
        codes = [code for code, _ in args]
        cost = sum(arg_cost for _, arg_cost in args)
        builtin = lookup_builtin(expr.callee)
        if builtin is None:
            helper = self.src.helpers.get(expr.callee)
            if hoistable and helper is not None and _straight_helper(helper):
                self._effects = False
                return self._inline(helper, expr.args, codes), cost
            self._effects = True
            return (f"{self._helper(expr.callee)}(ctx, {self.mask}, "
                    f"{', '.join(codes)})"), cost
        cost += builtin.flop_cost
        ufunc = _UFUNC_BUILTINS.get(expr.callee)
        if ufunc is not None and all(_width1(arg) for arg in expr.args):
            return ufunc.format(*codes), cost
        self._effects = True
        return (f"apply_builtin({expr.callee!r}, [{', '.join(codes)}], n)",
                cost)

    def _constructor(self, expr: ast.ConstructorExpr, defined: Set[str]):
        args = [self.expr(arg, defined) for arg in expr.args]
        cost = sum(arg_cost for _, arg_cost in args)
        target = expr.target_type
        value = args[0][0]
        if target.width > 1:
            codes = "".join(f"{code}, " for code, _ in args)
            self._effects = True
            return (f"construct_vector({target.width}, n, ({codes}), "
                    f"{numpy_dtype(target)!r})"), cost
        if target.kind is ScalarKind.BOOL:
            return f"as_bool_array({value}, n)", cost
        if target.kind is ScalarKind.INT:
            return f"np.asarray(np.trunc({value}), dtype=np.int32)", cost
        return f"np.asarray({value}, dtype=np.float32)", cost

    def _index_axis(self, expr: ast.Expression) -> Optional[str]:
        """The ``indexof`` column (``"x"``/``"y"``) ``expr`` reads whole,
        if any: ``indexof(o).y``, or ``idx.y`` / ``row`` through fixed
        kernel locals."""
        if self._fixed is None:
            return None
        if isinstance(expr, ast.Identifier):
            decl = self._fixed.get(expr.name)
            if decl is None or decl.decl_type.width != 1:
                return None
            expr = decl.init
        if not isinstance(expr, ast.MemberExpr) \
                or expr.member not in ("x", "y"):
            return None
        base = expr.base
        if isinstance(base, ast.Identifier) and base.name in self._fixed \
                and self._fixed[base.name].decl_type.width == 2:
            base = self._fixed[base.name].init
        return expr.member if isinstance(base, ast.IndexOfExpr) else None

    def _helper(self, name: str) -> str:
        """The generated function of a helper; it takes the caller's mask
        after ``ctx``.

        Fully general: the body runs with a fresh frame under the
        caller's mask, exactly like KernelEvaluator._call_helper, and
        counts its own flops, so the static call-site cost is zero.  A
        straight-line body ending in ``return value`` also gets a
        frame-free path for the full mask: every lane runs every
        statement once and returns, so the flops are the static cost
        times the lane count and the return merge selects every lane.
        """
        if name in self.src.helper_functions:
            return self.src.helper_functions[name]
        helper = self.src.helpers.get(name)
        if helper is None:
            raise _Unsupported(f"call to unknown function {name!r}")
        if name in self.src.compiling:
            raise _Unsupported(f"recursive helper {name!r}")
        self.src.compiling.add(name)
        try:
            params = [param.name for param in helper.params]
            args = [f"a{i}" for i in range(len(params))]
            body, _ = _Gen(self.src, helper).function_body(
                helper.body, set(params),
                "np.ones(n, dtype=bool) if mask is None else mask", True)
            lines: List[str] = []
            if _straight_helper(helper):
                fast, value, cost = self._straight_body(
                    helper, args, [False] * len(args), "h_")
                lines = ["if mask is None:",
                         f"    stats.flops += {cost} * n",
                         *_indented(fast, "    "),
                         f"    return {value}"]
            zero = self.src.const(no_return(helper))
            lines += [*(f"v_{param} = materialize({arg}, n).copy()"
                        for arg, param in zip(args, params)),
                      *body,
                      f"return {zero} if result is None else result"
                      if _has_exit(helper.body) else f"return {zero}"]
            function = self.src.function(
                "helper", "ctx, mask" + "".join(f", {arg}" for arg in args),
                lines)
        finally:
            self.src.compiling.discard(name)
        self.src.helper_functions[name] = function
        return function

    def _straight_body(self, helper: ast.FunctionDef, args: List[str],
                       arg_lanes: List[bool], prefix: str):
        """``(lines, value, cost)`` of a straight-line helper body under
        the full mask on locals named ``prefix + name``: the lines binding
        the parameters to ``args`` and running the body, the returned
        value as the caller receives it (one entry per lane, or the
        interpreter's merge into zeros for a vector), and the static flop
        cost per lane, inlined helpers included.

        Like the interpreter's frame, a parameter holds one entry per
        lane: an argument not proved so (``arg_lanes``) is materialized.
        """
        params = [param.name for param in helper.params]
        stmts = list(_flatten(helper.body))
        gen = _Gen(self.src, helper, prefix=prefix,
                   lanes={param.name for param in helper.params
                          if param.type.width == 1})
        defined = set(params)
        lines = [f"{prefix}{param} = {arg}" if lane else
                 f"{prefix}{param} = materialize({arg}, n)"
                 for param, arg, lane in zip(params, args, arg_lanes)]
        cost = 0
        for index, stmt in enumerate(stmts[:-1]):
            stmt_lines, stmt_cost = gen.statement(stmt, defined, index)
            lines += stmt_lines
            cost += stmt_cost
        ret = stmts[-1].value
        pre, (value, value_cost) = gen._hoisting(
            len(stmts) - 1, lambda: gen.expr(ret, defined))
        lines += pre
        if _width1(ret):
            # The value has the return type, so the merge keeps its dtype.
            if not gen._lane(ret):
                value = f"_lanes({value}, n)"
        else:
            value = (f"_merge_masked(return_zeros(_v := {value}, n), _v, "
                     "ctx.full_mask)")
        return lines, value, cost + value_cost + gen.inline_cost

    def _inline(self, helper: ast.FunctionDef, args: List[ast.Expression],
                codes: List[str]) -> str:
        """Hoist a straight-line helper call of a launch with lanes: its
        arguments bind to locals, its body runs inline (its flops join the
        launch's static cost) and its value lands in a local, which this
        returns."""
        if helper.name in self.src.compiling:
            raise _Unsupported(f"recursive helper {helper.name!r}")
        site = f"{self._site}{self._sites}"
        self._sites += 1
        self.src.compiling.add(helper.name)
        try:
            body, value, cost = self._straight_body(
                helper, codes, [self._lane(arg) for arg in args], site + "_")
        finally:
            self.src.compiling.discard(helper.name)
        self.inline_cost += cost
        self._pre += [*body, f"{site} = {value}"]
        return site

    def _lane(self, expr: ast.Expression) -> bool:
        """Whether ``expr``'s value, as emitted on locals, is proved an
        ndarray with one entry per lane: a width-1 value computed
        elementwise from at least one such value (the ``indexof`` column,
        a gather, a local in ``lanes``), or a truth value the generated
        source broadcasts.  A helper call's value is not proved: where no
        lane returns, the general path yields the interpreter's 0-d zero."""
        if not _width1(expr):
            return False
        if isinstance(expr, ast.Identifier):
            return expr.name in self.lanes
        if isinstance(expr, (ast.IndexExpr, ast.Conditional)):
            return True
        if isinstance(expr, ast.MemberExpr):
            return self._index_axis(expr) is not None
        if isinstance(expr, ast.UnaryOp):
            return expr.op == "!" or self._lane(expr.operand)
        if isinstance(expr, ast.BinaryOp):
            return expr.op in ("&&", "||") or (
                _scalar_pair(expr.left, expr.right)
                and (self._lane(expr.left) or self._lane(expr.right)))
        if isinstance(expr, ast.CallExpr):
            return expr.callee in _UFUNC_BUILTINS \
                and all(_width1(arg) for arg in expr.args) \
                and any(self._lane(arg) for arg in expr.args)
        if isinstance(expr, ast.ConstructorExpr):
            return expr.target_type.kind is ScalarKind.BOOL \
                or self._lane(expr.args[0])
        return False

    def _gather(self, expr: ast.IndexExpr, defined: Set[str]):
        index_exprs: List[ast.Expression] = []
        node: ast.Expression = expr
        while isinstance(node, ast.IndexExpr):
            index_exprs.append(node.index)
            node = node.base
        index_exprs.reverse()
        if not isinstance(node, ast.Identifier) or node.name in defined:
            # Indexing anything but a gather-array parameter is a runtime
            # error in the interpreter; leave those kernels to it.
            raise _Unsupported("index of a non-gather value")
        if self.slice_mode:
            served = self._slice_gather(node.name, index_exprs, defined)
            if served is not None:
                return served
        indices = [self.expr(index, defined) for index in index_exprs]
        # Line-read candidates: a[idx.y][k] or b[k][idx.x], with exactly
        # one index a whole indexof column in its own position.
        line = {("y", None): "y", (None, "x"): "x"}.get(
            tuple(self._index_axis(index) for index in index_exprs))
        codes = "".join(f"{code}, " for code, _ in indices)
        self._effects = True
        self.fetch_sites += 1
        return (f"_gather(ctx, g_{node.name}, ({codes}), {line!r})",
                sum(cost for _, cost in indices))

    def _slice_gather(self, name: str, index_exprs: List[ast.Expression],
                      defined: Set[str]):
        if len(index_exprs) != 2:
            return None
        row_aff = self._extract_affine(index_exprs[0], defined)
        col_aff = self._extract_affine(index_exprs[1], defined)
        if row_aff is None or col_aff is None:
            return None
        if row_aff.axis != "y" or col_aff.axis != "x":
            return None
        for aff in (row_aff, col_aff):
            if aff.offset < 0 and aff.lo != 0.0:
                return None
            if aff.offset > 0 and aff.hi is None:
                return None
            if aff.lo is not None and aff.lo != 0.0:
                return None
        # Keep the static flop cost identical to the generic path, which
        # compiles (and charges) the index expressions.  The cost-only
        # compile must not register runtime reads, or the slice-served
        # index locals would never become dead.
        saved = self._reads, self._pre, self._effects
        self._reads = self._pre = None
        try:
            cost = sum(self.expr(index, defined)[1] for index in index_exprs)
        finally:
            self._reads, self._pre, self._effects = saved
        self.slice_plans.append(_SlicePlan(name, row_aff.offset, col_aff.offset,
                                           row_aff.hi, col_aff.hi))
        # The window depends on the array's pad, known once every plan
        # is: ``_SLICE_VIEW`` marks it until then.  The prologue counts
        # a fetch per lane for every evaluation of the view, and checks
        # that the array is float32.
        return f"<view {len(self.slice_plans) - 1}>.reshape(-1)", cost


_SLICE_VIEW = re.compile(r"<view (\d+)>")


def _assigned_target(node: ast.Node) -> Optional[str]:
    """The local an assignment writes (a member store writes its base)."""
    if not isinstance(node, ast.Assignment):
        return None
    target = node.target
    if isinstance(target, ast.MemberExpr):
        target = target.base
    return target.name if isinstance(target, ast.Identifier) else None


def _fixed_locals(kernel: ast.FunctionDef) -> Dict[str, ast.DeclStatement]:
    """Float locals declared once, never assigned (member stores
    included) and named unlike every parameter, by name."""
    decls: Dict[str, Optional[ast.DeclStatement]] = {}
    assigned = {param.name for param in kernel.params}
    pending: List[ast.Node] = [kernel.body]
    while pending:      # an explicit stack: ``walk()`` nests generators
        node = pending.pop()
        if isinstance(node, ast.DeclStatement):
            decls[node.name] = None if node.name in decls else node
        elif isinstance(node, ast.Assignment):
            assigned.add(_assigned_target(node))
        pending.extend(node.children())
    return {name: decl for name, decl in decls.items()
            if decl is not None and name not in assigned
            and decl.decl_type.kind is ScalarKind.FLOAT}


def _fuse_stencil_runs(stmts: List[tuple], ref) -> List[str]:
    """The lines of ``stmts``, with each run of >= 2 consecutive
    same-accumulator stencil statements replaced by one fused step.

    The interpreter evaluates the run as the left-associated chain
    ``((acc + w1*g1) + w2*g2) + ...`` over (n,) arrays; the fused step
    keeps the same operand order and op sequence over the 2-d padded
    slices and flattens once at the end.  Elementwise IEEE ops commute
    with reshape, so the result is bit-identical while skipping one
    strided-view copy per gather.  The accumulator, the weights and the
    slices are all float32, so the accumulation after the first term is
    an in-place ``+=``.  ``ref`` gives the source of a local.
    """
    out: List[str] = []
    run: List[tuple] = []

    def flush():
        if len(run) < 2:
            out.extend(line for stmt in run for line in stmt[0])
        else:
            acc = ref(run[0][4][0])
            out.append(f"_s = {acc}")
            for position, stmt in enumerate(run):
                _, weight, gather_left, plan = stmt[4]
                view = f"<view {plan}>"
                term = view if weight is None else \
                    f"{view} * {weight}" if gather_left else f"{weight} * {view}"
                out.append(
                    f"_s += {term}" if position else
                    f"_s = (_s if _s.ndim == 0 else _s.reshape(rows, cols)) "
                    f"+ {term}")
            out.append(f"{acc} = _s.reshape(-1)")
        run.clear()

    for stmt in stmts:
        stencil = stmt[4]
        if stencil is None or (run and stencil[0] != run[0][4][0]):
            flush()
        if stencil is None:
            out.extend(stmt[0])
        else:
            run.append(stmt)
    flush()
    return out


def _sweep_dead_decls(stmts: List[tuple]) -> List[bool]:
    """Which statements to keep: pure declarations nothing later reads
    before overwriting it are dropped, iteratively.

    ``stmts`` holds ``(lines, declared name, reads, removable, stencil,
    overwritten names)`` per statement.  The flop cost of a dropped
    declaration is still charged (the interpreter would have computed
    it); only the runtime work goes.
    """
    keep = [True] * len(stmts)
    changed = True
    while changed:
        changed = False
        live: Set[str] = set()     # read by kept statements after this one
        for index in range(len(stmts) - 1, -1, -1):
            _, name, reads, removable, _, kills = stmts[index]
            if keep[index] and removable and name not in live:
                keep[index], changed = False, True
            if keep[index]:
                live = (live - kills) | reads
    return keep


# --------------------------------------------------------------------------- #
# Program
# --------------------------------------------------------------------------- #
@lru_cache(maxsize=256)
def _code(source: str, name: str):
    """The code object of a generated text, compiled once per process: a
    fresh runtime or service compiling the same source (a cold start, a
    cleared compile cache) rebuilds the same text, and ``compile()`` is
    most of a program's build time."""
    return compile(source, f"<brookvec {name}>", "exec")


class VectorizedKernelProgram:
    """A brookvec-approved kernel compiled to a whole-array program.

    Immutable after construction and free of per-launch state, so one
    program is shared by every launch of its kernel (the compiler caches
    it on the :class:`~repro.core.compiler.CompiledKernel`) and by every
    worker thread.

    ``run`` mirrors :meth:`KernelEvaluator.run` - same argument
    validation, same error messages, bit-identical outputs and
    statistics - and returns ``(outputs, stats)``.
    """

    def __init__(self, kernel: ast.FunctionDef, source: str, consts: list,
                 flops_per_element: int, uses_slices: bool):
        self.kernel = kernel
        #: Static per-element flop cost of the top-level straight-line
        #: statements (the planner prices the vector path with this).
        self.flops_per_element = flops_per_element
        self.uses_slices = uses_slices
        self._source = source
        namespace: Dict[str, object] = {}
        exec(_code(source, kernel.name), globals(), namespace)
        self._launch = namespace["_program"](consts)

    @property
    def source(self) -> str:
        """The generated NumPy source this program runs (read-only)."""
        return self._source

    def run(
        self,
        element_count: int,
        stream_inputs: Optional[Dict[str, np.ndarray]] = None,
        scalar_args: Optional[Dict[str, float]] = None,
        gathers: Optional[Dict[str, GatherSource]] = None,
        index: Optional[np.ndarray] = None,
        layout: Optional[Tuple[int, int]] = None,
        reduce_inputs: Optional[Dict[str, np.ndarray]] = None,
    ) -> Tuple[Dict[str, np.ndarray], KernelExecutionStats]:
        """Execute the vector program over ``element_count`` threads.

        ``reduce_inputs`` holds the initial accumulator of every
        ``reduce`` parameter; a float32 copy is bound and returned with
        the ``out`` streams (reduction kernels only).
        """
        return self._launch(int(element_count), stream_inputs or {},
                            scalar_args or {}, gathers or {},
                            reduce_inputs or {}, index, layout)


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #
#: The argument table and the interpreter's word for each parameter kind.
_PARAM_TABLES = {ParamKind.STREAM: ("S", "input stream"),
                 ParamKind.ITERATOR: ("S", "input stream"),
                 ParamKind.SCALAR: ("A", "scalar argument"),
                 ParamKind.GATHER: ("G", "gather array"),
                 ParamKind.REDUCE: ("R", "reduce accumulator")}


def _missing(kernel_name: str, wanted: tuple, S, A, G, R) -> None:
    """Raise the interpreter's error for the first parameter, in parameter
    order, whose argument is missing; ``wanted`` holds ``(table, what,
    name)`` per bound parameter.  Returns if none is missing."""
    tables = {"S": S, "A": A, "G": G, "R": R}
    for table, what, name in wanted:
        if name not in tables[table]:
            raise KernelLaunchError(
                f"missing {what} {name!r} for kernel {kernel_name!r}") from None


def _binding(kernel: ast.FunctionDef, src: _Source
             ) -> Tuple[List[str], List[str]]:
    """The launch prologue binding every parameter once and the output
    epilogue.  A missing argument surfaces as the table's ``KeyError``,
    which one handler turns into the interpreter's error."""
    lines, wanted, zeros, streams, outs = [], [], [], [], []
    for param in kernel.params:
        name, target = param.name, "v_" + param.name
        if param.kind is ParamKind.OUT_STREAM:
            width = param.type.width
            shape = "n" if width == 1 else f"(n, {width})"
            zeros.append(f"{target} = np.zeros({shape}, dtype=np.float32)")
            outs.append(name)
            continue
        table, what = _PARAM_TABLES[param.kind]
        wanted.append((table, what, name))
        if param.kind is ParamKind.GATHER:
            lines.append(f"g_{name} = G[{name!r}]")
            continue
        dtype = _dtype_code(param.type) if param.kind is ParamKind.SCALAR \
            else "np.float32"
        if param.kind is ParamKind.REDUCE:
            lines.append(f"{target} = np.array(R[{name!r}], "
                         f"dtype={dtype}, copy=True)")
            outs.append(name)
            continue
        lines.append(f"{target} = np.asarray({table}[{name!r}], "
                     f"dtype={dtype})")
        if table == "S":
            streams.append(target)
    if wanted:
        lines = ["try:", *_indented(lines, "    "),
                 "except KeyError:",
                 f"    _missing({src.const(kernel.name)}, "
                 f"{src.const(tuple(wanted))}, S, A, G, R)",
                 "    raise"]
    lines += zeros
    if streams:
        lines.append(f"stats.stream_reads = {len(streams)} * n")
    lines.append(f"inputs = ({''.join(s + ', ' for s in streams)})")
    outputs = ", ".join(f"{name!r}: _owned(v_{name}, inputs)"
                        for name in outs)
    return lines, [f"stats.stream_writes = {len(outs)} * n",
                   f"return {{{outputs}}}, stats"]


def _slice_prologue(plans: List[_SlicePlan], uses: Counter
                    ) -> Tuple[List[str], List[str], Dict[str, int], int]:
    """The per-launch check of the slice plans (layout matches every
    float32 array's shape, every upper clamp is ``extent - 1``), which
    sets ``ok``; the lines that open the ``if ok:`` branch, binding the
    padded ``p_<name>``; the pad of each array; and the fetches per lane.
    The body evaluates plan ``i``'s view ``uses[i]`` times (a compound
    store evaluates its value twice), each a fetch per lane, so the
    fetches are counted here."""
    pads: Dict[str, int] = {}
    for plan in plans:
        pads[plan.name] = max(pads.get(plan.name, 0), abs(plan.dy),
                              abs(plan.dx))
    checks = []
    for name in pads:
        checks += [f"d_{name} is not None", f"d_{name}.ndim == 2",
                   f"d_{name}.shape == (rows, cols)",
                   f"d_{name}.dtype == np.float32"]
    bounds = {(hi, extent) for plan in plans
              for hi, extent in ((plan.row_hi, "rows"), (plan.col_hi, "cols"))
              if hi is not None}
    checks += [f"_at_edge({hi}, {extent})" for hi, extent in sorted(bounds)]
    check = ["ok = layout is not None and index is None",
             "if ok:",
             "    rows, cols = layout",
             "    ok = rows * cols == n and rows <= _MAX_EXACT_EXTENT "
             "and cols <= _MAX_EXACT_EXTENT",
             "if ok:",
             "    try:",
             *(f"        d_{name} = g_{name}.dense()" for name in pads),
             "        ok = " + " and ".join(checks),
             "    except Exception:",
             "        ok = False"]
    opening = []
    fetches = 0
    for name, pad in pads.items():
        padded = f"_edge_pad(d_{name}, {pad})" if pad else f"d_{name}"
        count = sum(uses[i] for i, plan in enumerate(plans)
                    if plan.name == name)
        fetches += count
        opening += [f"p_{name} = {padded}",
                    f"g_{name}.add_fetches({count} * n)"]
    return check, opening, pads, fetches


def _counting_fetches(lines: List[str]) -> List[str]:
    """``lines`` with ``stats.gather_fetches`` set to the fetches the
    gather sources count while they run."""
    return ["fetched = _fetch_total(G)", *lines,
            "stats.gather_fetches = _fetch_total(G) - fetched"]


def _common_tail(first: List[str], second: List[str]) -> int:
    """The number of trailing statements ``first`` and ``second`` share,
    leaving each at least one of its own."""
    count = 0
    while count < min(len(first), len(second)) - 1 \
            and first[-1 - count] == second[-1 - count]:
        count += 1
    return count


def _out_lanes(kernel: ast.FunctionDef) -> Set[str]:
    """The width-1 ``out`` streams: bound to one zero per lane."""
    return {param.name for param in kernel.params
            if param.kind is ParamKind.OUT_STREAM and param.type.width == 1}


def _straight_launch(src: _Source, kernel: ast.FunctionDef,
                     fixed: Dict[str, ast.DeclStatement],
                     defined: Set[str]) -> Tuple[List[str], int, bool]:
    """The body of a straight-line launch, its static flops per lane
    (inlined helpers excluded) and whether it takes the slice plan.

    With slice plans the launch is ``if ok:`` slice body / ``else:``
    per-lane body, then the statements both end with, emitted once.
    The slice branch counts its fetches statically when every gather
    there is slice-served; otherwise the fetch counters are read around
    the per-lane reads.
    """
    lanes = _out_lanes(kernel)
    fast = _Gen(src, kernel, fixed, slice_mode=True, lanes=lanes)
    body, flops = fast.fast_body(kernel.body, set(defined))
    plans = fast.slice_plans
    if not plans:
        body = [f"stats.flops += {flops + fast.inline_cost} * n", *body]
        return (_counting_fetches(body) if fast.fetch_sites else body), \
            flops, False
    plain_gen = _Gen(src, kernel, fixed, lanes=lanes)
    plain = plain_gen.fast_body(kernel.body, set(defined))[0]
    uses = Counter(int(view) for line in body
                   for view in _SLICE_VIEW.findall(line))
    check, opening, pads, fetches = _slice_prologue(plans, uses)
    views = [f"p_{plan.name}[{pads[plan.name] + plan.dy}:"
             f"{pads[plan.name] + plan.dy} + rows, "
             f"{pads[plan.name] + plan.dx}:"
             f"{pads[plan.name] + plan.dx} + cols]" for plan in plans]
    body = [_SLICE_VIEW.sub(lambda m: views[int(m.group(1))], line)
            for line in body]
    shared = _common_tail(body, plain)
    tail = body[len(body) - shared:]
    sliced = [*opening, f"stats.flops += {flops + fast.inline_cost} * n",
              *body[:len(body) - shared]]
    per_lane = [f"stats.flops += {flops + plain_gen.inline_cost} * n",
                *plain[:len(plain) - shared]]
    static = not fast.fetch_sites
    if static:
        # Only the per-lane branch fetches through the sources.
        sliced.insert(0, f"stats.gather_fetches = {fetches} * n")
        per_lane = _counting_fetches(per_lane)
    body = [*check, "if ok:", *_indented(sliced, "    "),
            "else:", *_indented(per_lane, "    "), *tail]
    return (body if static else _counting_fetches(body)), flops, True


def _compile_program(kernel: ast.FunctionDef,
                     helpers: Dict[str, ast.FunctionDef]
                     ) -> VectorizedKernelProgram:
    defined = {param.name for param in kernel.params
               if param.kind is not ParamKind.GATHER}
    fixed = _fixed_locals(kernel)
    src = _Source(kernel.name, helpers)
    binding, epilogue = _binding(kernel, src)
    if is_straight_line(kernel.body):
        body, flops, uses_slices = _straight_launch(src, kernel, fixed,
                                                    defined)
    else:
        body, flops = _Gen(src, kernel, fixed,
                           lanes=_out_lanes(kernel)).function_body(
            kernel.body, set(defined), "None", False)
        uses_slices = False
        if any(param.kind is ParamKind.GATHER for param in kernel.params):
            body = _counting_fetches(body)
    # Like the interpreter, an empty launch runs no statement.
    launch = ["def launch(n, S, A, G, R, index, layout):",
              "    stats = KernelExecutionStats(elements=n)",
              "    ctx = _VCtx(n, stats, index, layout)",
              *_indented(binding, "    "),
              "    with np.errstate(all='ignore'):",
              "        if n:",
              *_indented(body, "            "),
              *_indented(epilogue, "    ")]
    source = src.text(launch)
    return VectorizedKernelProgram(kernel, source, src.consts, flops,
                                   uses_slices)


def build_vector_path(
    kernel: ast.FunctionDef,
    helpers: Optional[Dict[str, ast.FunctionDef]] = None,
    spec: Optional[dict] = None,
    ranges: Optional[ProgramRanges] = None,
    report: Optional[VectorizationReport] = None,
) -> Tuple[Optional[VectorizedKernelProgram], VectorizationReport]:
    """Compile ``kernel``'s vector path, gated by its brookvec verdict.

    Returns ``(program, report)``.  The pair is always consistent: a
    BV-300/BV-301 report comes with a runnable program, and a kernel the
    analysis approves but this backend cannot compile has its report
    downgraded to BV-302 naming the construct, so diagnostics never
    promise a path that will not actually run.
    """
    helpers = dict(helpers or {})
    if report is None:
        report = analyze_kernel_vectorization(kernel, helpers, spec=spec,
                                              ranges=ranges)
    if not report.vectorizable:
        return None, report
    try:
        program = _compile_program(kernel, helpers)
    except _Unsupported as exc:
        return None, replace(
            report, verdict=VERDICT_FALLBACK,
            reason=f"construct unsupported by the vector backend: {exc}")
    return program, report
