"""Vectorized SIMT-style evaluator for Brook kernels.

Every element of the launch domain is a logical thread.  The evaluator
executes the kernel body once, statement by statement, with each value
held as a NumPy array carrying one entry per thread; divergent control
flow (``if``, data-dependent loop exits, ``break``/``continue``/
``return``) is handled with per-thread activity masks, the same way a
real GPU handles warp divergence.

The evaluator is backend-agnostic: the backend decides what the stream
inputs contain (raw host data for the CPU backend, values that went
through the RGBA8 texture round-trip for the OpenGL ES 2 backend) and
how gather arrays are fetched (see :mod:`repro.core.exec.gather`).

Besides producing the outputs, the evaluator counts the work it performs
(floating-point operations, gather fetches, SIMT loop steps).  These
counts feed the analytic performance model and are cross-checked against
the closed-form workload models of the benchmark applications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ...errors import KernelLaunchError, RuntimeBrookError
from .. import ast_nodes as ast
from ..builtins import lookup_builtin
from ..types import ParamKind, ScalarKind, numpy_dtype, swizzle_indices
from .gather import GatherSource

__all__ = [
    "KernelExecutionStats",
    "KernelEvaluator",
    "align_pair",
    "as_bool_array",
    "where_select",
    "materialize",
    "apply_builtin",
    "construct_vector",
    "divide",
    "fmod",
    "gather",
    "layout_positions",
    "modulo",
    "no_return",
    "return_zeros",
    "stored",
    "stored_member",
    "swizzle",
]


@dataclass
class KernelExecutionStats:
    """Work counters accumulated while executing one kernel launch."""

    elements: int = 0
    flops: int = 0
    gather_fetches: int = 0
    stream_reads: int = 0
    stream_writes: int = 0
    simt_loop_steps: int = 0
    divergent_branches: int = 0

    def merge(self, other: "KernelExecutionStats") -> None:
        self.elements += other.elements
        self.flops += other.flops
        self.gather_fetches += other.gather_fetches
        self.stream_reads += other.stream_reads
        self.stream_writes += other.stream_writes
        self.simt_loop_steps += other.simt_loop_steps
        self.divergent_branches += other.divergent_branches


class _LoopRecord:
    """Break/continue bookkeeping for the innermost loop."""

    def __init__(self, size: int):
        self.broke = np.zeros(size, dtype=bool)
        self.continued = np.zeros(size, dtype=bool)


class _Frame:
    """One function invocation (the kernel itself or an inlined helper)."""

    def __init__(self, size: int):
        self.env: Dict[str, np.ndarray] = {}
        self.returned = np.zeros(size, dtype=bool)
        self.return_value: Optional[np.ndarray] = None
        self.loops: List[_LoopRecord] = []


def layout_positions(rows: int, cols: int) -> np.ndarray:
    """(x, y) position of every element of a row-major 2-D layout.

    Returns an ``(rows * cols, 2)`` float32 array; ``x`` is the column
    (fastest axis), matching the convention of ``indexof``.
    """
    ys, xs = np.mgrid[0:rows, 0:cols]
    return np.stack([xs.reshape(-1), ys.reshape(-1)], axis=1).astype(np.float32)


def _is_int_dtype(array: np.ndarray) -> bool:
    # ``dtype.kind`` is the cheap form of ``np.issubdtype(.., np.integer)``.
    return np.asarray(array).dtype.kind in "iu"


def _merge_masked(old: np.ndarray, new: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Select ``new`` where ``mask`` is set, ``old`` elsewhere (mask is 1-D)."""
    old_arr = np.asarray(old)
    new_arr = np.asarray(new)
    if old_arr.ndim == 2 or new_arr.ndim == 2:
        width = max(old_arr.shape[-1] if old_arr.ndim == 2 else 1,
                    new_arr.shape[-1] if new_arr.ndim == 2 else 1)
        if old_arr.ndim == 1:
            old_arr = old_arr[:, None] if old_arr.shape[0] == mask.shape[0] \
                else np.broadcast_to(old_arr, (mask.shape[0], width))
        if new_arr.ndim == 1 and new_arr.shape[:1] == mask.shape:
            new_arr = new_arr[:, None]
        return np.where(mask[:, None], new_arr, old_arr)
    return np.where(mask, new_arr, old_arr)


def materialize(value, size: int) -> np.ndarray:
    """Expand a uniform value to one entry per thread (``size`` threads)."""
    array = np.asarray(value)
    if array.ndim == 0:
        return np.broadcast_to(array, (size,)).copy()
    if array.ndim == 1 and array.shape[0] != size and array.shape[0] in (2, 3, 4):
        return np.broadcast_to(array, (size, array.shape[0])).copy()
    return array


def as_bool_array(value, size: int) -> np.ndarray:
    """Per-thread truth value of ``value`` (vectors are all-components-true)."""
    array = np.asarray(value)
    if array.dtype == bool:
        result = array
    else:
        result = array != 0
    if result.ndim == 0:
        result = np.broadcast_to(result, (size,))
    if result.ndim == 2:
        result = result.all(axis=1)
    return result


def align_pair(left: np.ndarray, right: np.ndarray):
    """Broadcast a scalar/per-thread pair against a vector operand."""
    left = np.asarray(left)
    right = np.asarray(right)
    if left.ndim == 2 and right.ndim == 1 and right.shape[0] == left.shape[0]:
        right = right[:, None]
    elif right.ndim == 2 and left.ndim == 1 and left.shape[0] == right.shape[0]:
        left = left[:, None]
    return left, right


def where_select(cond: np.ndarray, then, other):
    """Elementwise select with the evaluator's vector broadcasting rules."""
    then_arr, other_arr = align_pair(np.asarray(then), np.asarray(other))
    if then_arr.ndim == 2 or other_arr.ndim == 2:
        cond = cond[:, None] if cond.ndim == 1 else cond
    return np.where(cond, then_arr, other_arr)


#: Builtins that are one NumPy function of their float32 argument.
UNARY_BUILTINS = {
    "sqrt": np.sqrt, "exp": np.exp, "exp2": np.exp2, "log": np.log,
    "log2": np.log2, "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "asin": np.arcsin, "acos": np.arccos, "atan": np.arctan,
    "floor": np.floor, "ceil": np.ceil, "round": np.round, "abs": np.abs,
}


def apply_builtin(name: str, args: List, size: int):
    """Apply a Brook builtin to evaluated arguments.

    Shared by the tree-walking interpreter and the vector program so
    both produce bit-identical results for every builtin.  The semantic
    analyzer converted every argument of a math builtin to ``float``.
    """
    arrays = [np.asarray(arg) for arg in args]
    if name in ("min",):
        return np.minimum(*align_pair(arrays[0], arrays[1]))
    if name in ("max",):
        return np.maximum(*align_pair(arrays[0], arrays[1]))
    if name == "clamp":
        low, _ = align_pair(arrays[1], arrays[0])
        high, _ = align_pair(arrays[2], arrays[0])
        return np.minimum(np.maximum(arrays[0], low), high)
    if name in ("lerp", "mix"):
        a, b = align_pair(arrays[0], arrays[1])
        t, _ = align_pair(arrays[2], a)
        return a + t * (b - a)
    if name == "mad":
        a, b = align_pair(arrays[0], arrays[1])
        c, _ = align_pair(arrays[2], a)
        return a * b + c
    if name == "saturate":
        return np.clip(arrays[0], 0.0, 1.0)
    if name == "step":
        edge, x = align_pair(arrays[0], arrays[1])
        return (x >= edge).astype(np.float32)
    if name == "smoothstep":
        edge0, edge1 = align_pair(arrays[0], arrays[1])
        x, _ = align_pair(arrays[2], edge0)
        t = np.clip((x - edge0) / np.where(edge1 == edge0, 1.0, edge1 - edge0),
                    0.0, 1.0)
        return t * t * (3.0 - 2.0 * t)
    if name == "dot":
        a, b = align_pair(arrays[0], arrays[1])
        return np.sum(a * b, axis=-1)
    if name == "length":
        return np.sqrt(np.sum(arrays[0] * arrays[0], axis=-1))
    if name == "distance":
        a, b = align_pair(arrays[0], arrays[1])
        diff = a - b
        return np.sqrt(np.sum(diff * diff, axis=-1))
    if name == "normalize":
        norm = np.sqrt(np.sum(arrays[0] * arrays[0], axis=-1, keepdims=True))
        return arrays[0] / np.where(norm == 0, 1.0, norm)
    if name == "cross":
        return np.cross(arrays[0], arrays[1])
    if name == "frac":
        return arrays[0] - np.floor(arrays[0])
    if name == "rsqrt":
        return 1.0 / np.sqrt(arrays[0])
    if name == "sign":
        return np.sign(arrays[0])
    if name == "atan2":
        return np.arctan2(*align_pair(arrays[0], arrays[1]))
    if name == "pow":
        return np.power(*align_pair(arrays[0], arrays[1]))
    if name == "fmod":
        return fmod(*align_pair(arrays[0], arrays[1]))
    if name in ("any", "all"):
        reducer = np.any if name == "any" else np.all
        return reducer(as_bool_array(arrays[0], size), axis=-1)
    if name in UNARY_BUILTINS:
        return UNARY_BUILTINS[name](arrays[0])
    raise RuntimeBrookError(f"builtin {name!r} has no evaluator implementation")


def stored(value, old, mask: Optional[np.ndarray], size: int) -> np.ndarray:
    """What a local holding ``old`` (``None``: not yet stored) holds after
    ``= value`` on the lanes of ``mask`` (``None``: every lane).  The
    semantic analyzer converted ``value`` to the local's type, so both
    have its dtype."""
    if old is None:
        return materialize(value, size)
    value = np.asarray(value)
    if mask is None:
        # Full-mask merge elision: np.where(all-true, new, old) is ``new``.
        if value.shape == (size,) and np.shape(old) in ((), (size,)):
            return value
        mask = np.ones(size, dtype=bool)
    return _merge_masked(materialize(old, size), materialize(value, size),
                         mask)


#: Below this quotient magnitude a float32 remainder is exact in float64.
_EXACT_QUOTIENT = float(1 << 24)


def fmod(left, right):
    """Brook's ``fmod`` and float ``%``: C ``fmod``, bitwise as ``np.fmod``.

    For float32 operands the remainder is computed in float64 as
    ``x - trunc(x / y) * y`` with the sign of ``x``.  That is exact for
    finite ``x``, nonzero finite ``y`` and ``|trunc(x / y)| < 2**24``:
    the float64 quotient cannot round across an integer, the product
    fits in 48 bits and the remainder is a float32.  Other lanes (zero
    or infinite divisor, NaN or infinite dividend, larger quotients)
    take ``np.fmod``, which runs glibc's bit loop and is several times
    slower; so does every other dtype mix, on the operands as given, so
    NumPy's promotion is unchanged.
    """
    x = np.asarray(left)
    y = np.asarray(right)
    if x.dtype != np.float32 or y.dtype != np.float32 \
            or (x.ndim == 0 and y.ndim == 0):
        return np.fmod(left, right)
    wide_x = x.astype(np.float64)
    wide_y = y.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = np.trunc(wide_x / wide_y)
        remainder = wide_x - quotient * wide_y
        exact = (np.abs(quotient) < _EXACT_QUOTIENT) & np.isfinite(remainder)
    result = np.copysign(remainder, wide_x).astype(np.float32)
    if not exact.all():
        inexact = ~exact
        x, y = np.broadcast_arrays(x, y)
        result[inexact] = np.fmod(x[inexact], y[inexact])
    return result


def divide(left, right):
    """``left / right`` of aligned operands: ints divide like C, truncating
    toward zero (0 by 0)."""
    if _is_int_dtype(left) and _is_int_dtype(right):
        divisor = np.where(right == 0, 1, right)
        quotient = (left - np.fmod(left, divisor)) // divisor
        return np.where(right != 0, quotient, 0)
    return left / np.asarray(right, dtype=np.float32)


def modulo(left, right):
    """``left % right`` of aligned operands: C's remainder, with the sign
    of ``left`` (ints give 0 by 0)."""
    if _is_int_dtype(left) and _is_int_dtype(right):
        divisor = np.where(right == 0, 1, right)
        return np.where(right != 0, np.fmod(left, divisor), 0)
    return fmod(left, right)


def swizzle(base, indices: Sequence[int], member: str, size: int):
    """``base.member`` over ``size`` threads (``indices`` of ``member``)."""
    base = np.asarray(base)
    if base.ndim == 0:
        raise RuntimeBrookError(f"cannot swizzle scalar value with .{member}")
    if base.ndim == 1 and base.shape[0] in (2, 3, 4) and base.shape[0] != size:
        # A uniform vector (shape (width,)).
        selected = base[list(indices)]
        return selected[0] if len(indices) == 1 else selected
    if base.ndim == 1:
        raise RuntimeBrookError(
            f"cannot swizzle scalar per-thread value with .{member}")
    if len(indices) == 1:
        return base[:, indices[0]]
    return base[:, list(indices)]


def construct_vector(width: int, size: int, args: Sequence,
                     dtype: str) -> np.ndarray:
    """A vector constructor such as ``float2(a, b)`` or ``int2(v)``: one
    column of ``dtype`` per component, converted as C converts (toward
    zero to ``int32``, against zero to ``bool``)."""
    columns: List[np.ndarray] = []
    for arg in args:
        arg = np.asarray(arg)
        if arg.ndim == 2:
            columns.extend(arg[:, component]
                           for component in range(arg.shape[1]))
        else:
            columns.append(arg)
    if len(columns) == 1:
        columns = columns * width
    return np.stack([np.broadcast_to(_column(c, dtype), (size,))
                     for c in columns], axis=1)


def _column(value: np.ndarray, dtype: str) -> np.ndarray:
    """One constructor component as ``dtype``."""
    if dtype == "bool":
        return value != 0
    if dtype == "int32" and value.dtype.kind == "f":
        value = np.trunc(value)
    return np.asarray(value, dtype=dtype)


def stored_member(value, old, name: str, indices: Sequence[int],
                  member: str, mask: np.ndarray, size: int) -> np.ndarray:
    """What vector ``name``, holding ``old`` (``None``: undeclared), holds
    after ``.member = value`` on the lanes of ``mask``."""
    if old is None:
        raise RuntimeBrookError(f"assignment to undeclared vector {name!r}")
    old = materialize(old, size)
    if old.ndim != 2:
        raise RuntimeBrookError(
            f"cannot assign component .{member} of non-vector {name!r}")
    new = old.copy()
    value_arr = materialize(value, size)
    for position, component in enumerate(indices):
        component_value = value_arr[:, position] if value_arr.ndim == 2 \
            else value_arr
        new[:, component] = np.where(mask, component_value, old[:, component])
    return new


def gather(source: GatherSource, indices: Sequence, size: int) -> np.ndarray:
    """Fetch a gather's evaluated ``indices``: ``a[i]`` reads row 0 at
    column ``i`` (or the (x, y) of a vector index), ``a[r][c]`` row
    ``r``, column ``c``."""
    if len(indices) == 1:
        index_value = np.asarray(indices[0])
        if index_value.ndim == 2 and index_value.shape[1] >= 2:
            cols = index_value[:, 0]
            rows = index_value[:, 1]
        else:
            cols = index_value
            rows = np.zeros_like(np.asarray(cols, dtype=np.float32))
    else:
        rows = np.asarray(indices[0])
        cols = np.asarray(indices[1])
    rows = np.broadcast_to(np.asarray(rows, dtype=np.float32), (size,))
    cols = np.broadcast_to(np.asarray(cols, dtype=np.float32), (size,))
    return source.fetch(rows, cols)


def no_return(function: ast.FunctionDef):
    """What a call of ``function`` returns when no lane reached a
    ``return``: zero of its return type (a void call's value is unused)."""
    if function.return_type.is_void:
        return np.float32(0.0)
    return np.dtype(numpy_dtype(function.return_type)).type(0)


def return_zeros(value, size: int) -> np.ndarray:
    """The zeros a function's first ``return`` merges into (``value``
    has the declared return type, so its dtype)."""
    shape = (size,) if np.ndim(value) <= 1 else (size, np.shape(value)[-1])
    return np.zeros(shape, dtype=np.result_type(value))


class KernelEvaluator:
    """Executes one Brook kernel over a launch domain."""

    def __init__(
        self,
        kernel: ast.FunctionDef,
        helpers: Optional[Dict[str, ast.FunctionDef]] = None,
        max_simt_steps: int = 1_000_000,
    ):
        """
        Args:
            kernel: Kernel definition, analysed
                (:func:`repro.core.semantic.analyze`): its implicit
                conversions give every value the dtype its type declares.
            helpers: Non-kernel helper functions callable from the kernel,
                keyed by name.
            max_simt_steps: Safety bound on loop iterations executed by the
                evaluator; guards the simulation against unbounded loops
                (which Brook Auto rejects statically anyway).
        """
        self.kernel = kernel
        self.helpers = dict(helpers or {})
        self.max_simt_steps = max_simt_steps
        self.stats = KernelExecutionStats()
        self._size = 0
        self._index: Optional[np.ndarray] = None
        self._gathers: Dict[str, GatherSource] = {}

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(
        self,
        element_count: int,
        stream_inputs: Optional[Dict[str, np.ndarray]] = None,
        scalar_args: Optional[Dict[str, float]] = None,
        gathers: Optional[Dict[str, GatherSource]] = None,
        index: Optional[np.ndarray] = None,
        reduce_inputs: Optional[Dict[str, np.ndarray]] = None,
    ) -> Dict[str, np.ndarray]:
        """Execute the kernel over ``element_count`` threads.

        Args:
            element_count: Number of output elements (threads).
            stream_inputs: Per-thread values of every positional input
                stream parameter, each of shape ``(element_count,)`` or
                ``(element_count, width)``.
            scalar_args: Values of the scalar (uniform) parameters.
            gathers: :class:`GatherSource` per gather-array parameter.
            index: Optional ``(element_count, 2)`` array with the (x, y)
                position of every thread, used by ``indexof``.
            reduce_inputs: Initial accumulator values for ``reduce``
                parameters (reduction kernels only).

        Returns:
            Mapping from output parameter name (``out`` and ``reduce``)
            to the computed per-thread values.
        """
        stream_inputs = dict(stream_inputs or {})
        scalar_args = dict(scalar_args or {})
        reduce_inputs = dict(reduce_inputs or {})
        self._gathers = dict(gathers or {})
        self._size = int(element_count)
        self.stats = KernelExecutionStats(elements=self._size)
        if index is None:
            linear = np.arange(self._size, dtype=np.float32)
            index = np.stack([linear, np.zeros_like(linear)], axis=1)
        self._index = np.asarray(index, dtype=np.float32)

        frame = _Frame(self._size)
        outputs: Dict[str, np.ndarray] = {}
        for param in self.kernel.params:
            if param.kind in (ParamKind.STREAM, ParamKind.ITERATOR):
                if param.name not in stream_inputs:
                    raise KernelLaunchError(
                        f"missing input stream {param.name!r} for kernel "
                        f"{self.kernel.name!r}"
                    )
                value = np.asarray(stream_inputs[param.name], dtype=np.float32)
                frame.env[param.name] = value
                self.stats.stream_reads += self._size
            elif param.kind is ParamKind.SCALAR:
                if param.name not in scalar_args:
                    raise KernelLaunchError(
                        f"missing scalar argument {param.name!r} for kernel "
                        f"{self.kernel.name!r}"
                    )
                frame.env[param.name] = np.asarray(
                    scalar_args[param.name], dtype=numpy_dtype(param.type))
            elif param.kind is ParamKind.GATHER:
                if param.name not in self._gathers:
                    raise KernelLaunchError(
                        f"missing gather array {param.name!r} for kernel "
                        f"{self.kernel.name!r}"
                    )
            elif param.kind is ParamKind.OUT_STREAM:
                width = param.type.width
                shape = (self._size,) if width == 1 else (self._size, width)
                frame.env[param.name] = np.zeros(shape, dtype=np.float32)
            elif param.kind is ParamKind.REDUCE:
                if param.name not in reduce_inputs:
                    raise KernelLaunchError(
                        f"missing reduce accumulator {param.name!r} for kernel "
                        f"{self.kernel.name!r}"
                    )
                frame.env[param.name] = np.array(
                    reduce_inputs[param.name], dtype=np.float32, copy=True
                )

        mask = np.ones(self._size, dtype=bool)
        with np.errstate(all="ignore"):
            self._exec_statement(self.kernel.body, mask, frame)

        for param in self.kernel.params:
            if param.kind in (ParamKind.OUT_STREAM, ParamKind.REDUCE):
                outputs[param.name] = frame.env[param.name]
                self.stats.stream_writes += self._size
        return outputs

    # ------------------------------------------------------------------ #
    # Statements
    # ------------------------------------------------------------------ #
    def _exec_statement(self, stmt: ast.Statement, mask: np.ndarray,
                        frame: _Frame) -> np.ndarray:
        """Execute one statement; return the fall-through mask."""
        if not mask.any():
            return mask
        if isinstance(stmt, ast.Block):
            current = mask
            for child in stmt.statements:
                current = self._exec_statement(child, current, frame)
                if not current.any():
                    break
            return current
        if isinstance(stmt, ast.DeclStatement):
            if stmt.init is not None:
                value = self._eval(stmt.init, mask, frame)
            else:
                width = stmt.decl_type.width
                shape = (self._size,) if width == 1 else (self._size, width)
                value = np.zeros(shape, dtype=numpy_dtype(stmt.decl_type))
            frame.env[stmt.name] = np.asarray(value)
            return mask
        if isinstance(stmt, ast.ExprStatement):
            self._eval(stmt.expr, mask, frame)
            return mask
        if isinstance(stmt, ast.IfStatement):
            return self._exec_if(stmt, mask, frame)
        if isinstance(stmt, ast.ForStatement):
            return self._exec_for(stmt, mask, frame)
        if isinstance(stmt, ast.WhileStatement):
            return self._exec_while(stmt, mask, frame)
        if isinstance(stmt, ast.DoWhileStatement):
            return self._exec_do_while(stmt, mask, frame)
        if isinstance(stmt, ast.ReturnStatement):
            if stmt.value is not None:
                value = self._eval(stmt.value, mask, frame)
                if frame.return_value is None:
                    frame.return_value = return_zeros(value, self._size)
                frame.return_value = _merge_masked(frame.return_value, value, mask)
            frame.returned = frame.returned | mask
            return np.zeros_like(mask)
        if isinstance(stmt, ast.BreakStatement):
            if not frame.loops:
                raise RuntimeBrookError("break outside of a loop")
            frame.loops[-1].broke |= mask
            return np.zeros_like(mask)
        if isinstance(stmt, ast.ContinueStatement):
            if not frame.loops:
                raise RuntimeBrookError("continue outside of a loop")
            frame.loops[-1].continued |= mask
            return np.zeros_like(mask)
        if isinstance(stmt, ast.GotoStatement):
            raise RuntimeBrookError("goto cannot be executed by any Brook backend")
        raise RuntimeBrookError(f"cannot execute statement {type(stmt).__name__}")

    def _exec_if(self, stmt: ast.IfStatement, mask: np.ndarray,
                 frame: _Frame) -> np.ndarray:
        cond = as_bool_array(self._eval(stmt.cond, mask, frame), self._size)
        then_mask = mask & cond
        else_mask = mask & ~cond
        if then_mask.any() and else_mask.any():
            self.stats.divergent_branches += 1
        after_then = then_mask
        if then_mask.any():
            after_then = self._exec_statement(stmt.then_branch, then_mask, frame)
        after_else = else_mask
        if stmt.else_branch is not None and else_mask.any():
            after_else = self._exec_statement(stmt.else_branch, else_mask, frame)
        return after_then | after_else

    def _run_loop(self, mask: np.ndarray, frame: _Frame, cond_expr,
                  body: ast.Statement, update_expr, check_before: bool) -> np.ndarray:
        record = _LoopRecord(self._size)
        frame.loops.append(record)
        entered = mask.copy()
        iter_mask = mask.copy()
        steps = 0
        try:
            while True:
                # A ``do`` loop tests its condition once per step, at the
                # bottom, as C does.
                if check_before and cond_expr is not None:
                    cond = as_bool_array(self._eval(cond_expr, iter_mask, frame), self._size)
                    iter_mask = iter_mask & cond
                if not iter_mask.any():
                    break
                steps += 1
                self.stats.simt_loop_steps += 1
                if steps > self.max_simt_steps:
                    raise RuntimeBrookError(
                        f"kernel {self.kernel.name!r} exceeded {self.max_simt_steps} "
                        "loop steps; the loop is unbounded or the bound is too large "
                        "for simulation"
                    )
                record.continued[:] = False
                fall = self._exec_statement(body, iter_mask, frame)
                alive = fall | (record.continued & iter_mask)
                alive = alive & ~record.broke & ~frame.returned
                if update_expr is not None and alive.any():
                    self._eval(update_expr, alive, frame)
                iter_mask = alive
                if not check_before and cond_expr is not None:
                    cond = as_bool_array(self._eval(cond_expr, iter_mask, frame), self._size)
                    iter_mask = iter_mask & cond
        finally:
            frame.loops.pop()
        return entered & ~frame.returned

    def _exec_for(self, stmt: ast.ForStatement, mask: np.ndarray,
                  frame: _Frame) -> np.ndarray:
        if stmt.init is not None:
            self._exec_statement(stmt.init, mask, frame)
        return self._run_loop(mask, frame, stmt.cond, stmt.body, stmt.update, True)

    def _exec_while(self, stmt: ast.WhileStatement, mask: np.ndarray,
                    frame: _Frame) -> np.ndarray:
        return self._run_loop(mask, frame, stmt.cond, stmt.body, None, True)

    def _exec_do_while(self, stmt: ast.DoWhileStatement, mask: np.ndarray,
                       frame: _Frame) -> np.ndarray:
        return self._run_loop(mask, frame, stmt.cond, stmt.body, None, False)

    # ------------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------------ #
    def _eval(self, expr: ast.Expression, mask: np.ndarray, frame: _Frame):
        if isinstance(expr, ast.NumberLiteral):
            if expr.is_float:
                return np.float32(expr.value)
            return np.int32(int(expr.value))
        if isinstance(expr, ast.BoolLiteral):
            return np.bool_(expr.value)
        if isinstance(expr, ast.Identifier):
            if expr.name in frame.env:
                return frame.env[expr.name]
            raise RuntimeBrookError(f"undefined name {expr.name!r} during execution")
        if isinstance(expr, ast.UnaryOp):
            return self._eval_unary(expr, mask, frame)
        if isinstance(expr, ast.BinaryOp):
            return self._eval_binary(expr, mask, frame)
        if isinstance(expr, ast.Assignment):
            return self._eval_assignment(expr, mask, frame)
        if isinstance(expr, ast.Conditional):
            cond = as_bool_array(self._eval(expr.cond, mask, frame), self._size)
            then = self._eval(expr.then, mask, frame)
            other = self._eval(expr.otherwise, mask, frame)
            self._count_flops(mask, 1)
            return where_select(cond, then, other)
        if isinstance(expr, ast.CallExpr):
            return self._eval_call(expr, mask, frame)
        if isinstance(expr, ast.ConstructorExpr):
            return self._eval_ctor(expr, mask, frame)
        if isinstance(expr, ast.IndexExpr):
            return self._eval_gather(expr, mask, frame)
        if isinstance(expr, ast.MemberExpr):
            return swizzle(self._eval(expr.base, mask, frame),
                           swizzle_indices(expr.member), expr.member,
                           self._size)
        if isinstance(expr, ast.IndexOfExpr):
            return self._index
        raise RuntimeBrookError(f"cannot evaluate expression {type(expr).__name__}")

    # -- operators ------------------------------------------------------- #
    def _eval_unary(self, expr: ast.UnaryOp, mask: np.ndarray, frame: _Frame):
        value = self._eval(expr.operand, mask, frame)
        self._count_flops(mask, 1)
        if expr.op == "-":
            return -np.asarray(value)
        if expr.op == "!":
            return ~as_bool_array(value, self._size)
        if expr.op == "~":
            return ~np.asarray(value, dtype=np.int32)
        if expr.op in ("*", "&"):
            raise RuntimeBrookError(
                "pointer operators cannot be executed; Brook Auto rejects them "
                "statically (rule BA-001)"
            )
        raise RuntimeBrookError(f"unknown unary operator {expr.op!r}")

    def _eval_binary(self, expr: ast.BinaryOp, mask: np.ndarray, frame: _Frame):
        left = np.asarray(self._eval(expr.left, mask, frame))
        right = np.asarray(self._eval(expr.right, mask, frame))
        left, right = align_pair(left, right)
        op = expr.op
        self._count_flops(mask, 1)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return divide(left, right)
        if op == "%":
            return modulo(left, right)
        if op == "<":
            return left < right
        if op == ">":
            return left > right
        if op == "<=":
            return left <= right
        if op == ">=":
            return left >= right
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "&&":
            return as_bool_array(left, self._size) & as_bool_array(right, self._size)
        if op == "||":
            return as_bool_array(left, self._size) | as_bool_array(right, self._size)
        raise RuntimeBrookError(f"unknown binary operator {op!r}")

    def _eval_assignment(self, expr: ast.Assignment, mask: np.ndarray, frame: _Frame):
        value = self._eval(expr.value, mask, frame)
        if expr.op != "=":
            binop = ast.BinaryOp(
                location=expr.location, op=expr.op[:-1], left=expr.target,
                right=expr.value,
            )
            value = self._eval_binary(binop, mask, frame)
        self._store(expr.target, value, mask, frame)
        return value

    def _store(self, target: ast.Expression, value, mask: np.ndarray,
               frame: _Frame) -> None:
        env = frame.env
        if isinstance(target, ast.Identifier):
            env[target.name] = stored(value, env.get(target.name), mask,
                                      self._size)
            return
        if isinstance(target, ast.MemberExpr) and isinstance(target.base, ast.Identifier):
            name = target.base.name
            env[name] = stored_member(value, env.get(name), name,
                                      swizzle_indices(target.member),
                                      target.member, mask, self._size)
            return
        raise RuntimeBrookError(
            "assignment target must be a variable or a component of a vector "
            "variable (scatter writes are not part of Brook Auto)"
        )

    # -- calls ------------------------------------------------------------ #
    def _eval_call(self, expr: ast.CallExpr, mask: np.ndarray, frame: _Frame):
        args = [self._eval(arg, mask, frame) for arg in expr.args]
        builtin = lookup_builtin(expr.callee)
        if builtin is not None:
            self._count_flops(mask, builtin.flop_cost)
            return apply_builtin(expr.callee, args, self._size)
        helper = self.helpers.get(expr.callee)
        if helper is None:
            raise RuntimeBrookError(f"call to unknown function {expr.callee!r}")
        return self._call_helper(helper, args, mask)

    def _call_helper(self, helper: ast.FunctionDef, args: Sequence, mask: np.ndarray):
        frame = _Frame(self._size)
        for param, value in zip(helper.params, args):
            frame.env[param.name] = materialize(value, self._size).copy()
        with np.errstate(all="ignore"):
            self._exec_statement(helper.body, mask.copy(), frame)
        if frame.return_value is None:
            return no_return(helper)
        return frame.return_value

    def _apply_builtin(self, name: str, args: List):
        return apply_builtin(name, args, self._size)

    def _eval_ctor(self, expr: ast.ConstructorExpr, mask: np.ndarray,
                          frame: _Frame):
        args = [np.asarray(self._eval(arg, mask, frame)) for arg in expr.args]
        target = expr.target_type
        if target.width > 1:
            return construct_vector(target.width, self._size, args,
                                    numpy_dtype(target))
        if target.kind is ScalarKind.BOOL:
            return as_bool_array(args[0], self._size)
        if target.kind is ScalarKind.INT:
            return np.asarray(np.trunc(args[0]), dtype=np.int32)
        return np.asarray(args[0], dtype=np.float32)

    def _eval_gather(self, expr: ast.IndexExpr, mask: np.ndarray, frame: _Frame):
        indices: List[ast.Expression] = []
        node: ast.Expression = expr
        while isinstance(node, ast.IndexExpr):
            indices.append(node.index)
            node = node.base
        indices.reverse()
        if not isinstance(node, ast.Identifier) or node.name not in self._gathers:
            raise RuntimeBrookError(
                "only gather-array parameters can be indexed during execution"
            )
        source = self._gathers[node.name]
        before = source.fetch_count
        values = gather(source, [self._eval(index, mask, frame)
                                 for index in indices[:2]], self._size)
        self.stats.gather_fetches += source.fetch_count - before
        return values

    def _count_flops(self, mask: np.ndarray, cost: int) -> None:
        self.stats.flops += cost * int(mask.sum())
