"""Interval (value-range) analysis over kernel ASTs.

Abstract interpretation of the Brook Auto kernel subset over an interval
domain.  Every scalar expression is mapped to a conservative
:class:`Interval` ``[lo, hi]`` whose endpoints are numeric constants
(possibly infinite) *plus* optional symbolic bounds: an upper atom
``(name, offset, strict)`` asserts ``value <= name + offset`` (``<`` when
strict) where ``name`` is a *range symbol* — a gather-stream extent, a
launch-domain extent or a scalar parameter declared in a
:data:`range spec <RangeSpec>`.  Symbolic atoms are what let the analysis
prove facts such as ``clamp(i + 1, 0, height - 1) <= height - 1`` without
knowing ``height`` numerically, mirroring the ``ClampGuard`` idiom the
sharding classifier (:mod:`repro.core.analysis.sharding`) recognises.

Range symbols are assumed to denote **positive integers** (stream extents
and count-like parameters) unless a ``params`` entry declares a different
numeric range.

The analysis is seeded from:

* the launch-domain shape (``indexof`` components),
* declared scalar/stream parameter ranges (the ``params`` spec),
* loop induction variables (step direction plus the deduced trip count),
* branch-condition refinement (``if (i < n)`` narrows ``i`` in the then
  branch and widens it in the else branch).

Loops are handled with a widening strategy: variables updated by a
constant non-negative (non-positive) step keep their entry lower (upper)
bound and gain ``entry + trips * step`` on the other side when the trip
count is deducible; every other mutated variable is widened to the full
range in the unstable direction.  This is sound for the masked
interpreter, which never executes a loop body beyond the deduced trip
count.

Outputs:

* per-gather-site index intervals with an in-bounds verdict
  (``proved`` / ``oob`` / ``unknown``) — consumed by the linter,
* per-division-site divisor intervals — consumed by the linter,
* one :class:`~repro.core.analysis.loop_bounds.LoopBound` per loop, a
  trip count or the reason there is none (:meth:`_RangeWalker._bound_for`)
  — the only loop-bound deduction: the certification checker (rule
  BA-005), the compiler driver, brookvec and the WCET analysis all read
  it, through :class:`ProgramRanges` once per function and compile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ...errors import RangeSpecError
from .. import ast_nodes as ast
from .loop_bounds import (LoopBound, LoopBoundAnalysis, _has_loops,
                          _is_var, _literal, _loop_variable, _offset,
                          _var_name)

__all__ = [
    "Interval",
    "SymBound",
    "GatherSite",
    "DivisionSite",
    "KernelRangeAnalysis",
    "analyze_kernel_ranges",
    "ProgramRanges",
    "parse_bound_spec",
    "check_range_specs",
]

_INF = math.inf


# --------------------------------------------------------------------------- #
# Symbolic bound atoms
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SymBound:
    """``value <= name + offset`` (upper) or ``value >= name + offset``.

    ``strict`` turns the comparison into ``<`` / ``>``.  ``name`` is a
    range symbol assumed to denote an integer.
    """

    name: str
    offset: float = 0.0
    strict: bool = False

    def shifted(self, delta: float, strict: bool = False) -> "SymBound":
        return SymBound(self.name, self.offset + delta, self.strict or strict)


def _prune_hi(atoms) -> frozenset:
    """Keep the strongest upper atom per symbol (smallest offset wins)."""
    best: Dict[str, SymBound] = {}
    for atom in atoms:
        cur = best.get(atom.name)
        if cur is None or (atom.offset, not atom.strict) < (cur.offset, not cur.strict):
            best[atom.name] = atom
    return frozenset(list(best.values())[:4])


def _prune_lo(atoms) -> frozenset:
    """Keep the strongest lower atom per symbol (largest offset wins)."""
    best: Dict[str, SymBound] = {}
    for atom in atoms:
        cur = best.get(atom.name)
        if cur is None or (atom.offset, atom.strict) > (cur.offset, cur.strict):
            best[atom.name] = atom
    return frozenset(list(best.values())[:4])


# --------------------------------------------------------------------------- #
# The interval domain
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Interval:
    """A conservative value range with optional symbolic endpoints."""

    lo: float = -_INF
    hi: float = _INF
    lo_strict: bool = False
    hi_strict: bool = False
    lo_syms: frozenset = frozenset()
    hi_syms: frozenset = frozenset()
    #: True when every value the expression can take is an integer.
    integral: bool = False

    # -- constructors ---------------------------------------------------- #
    @staticmethod
    def top() -> "Interval":
        return Interval()

    @staticmethod
    def const(value: float, integral: bool = False) -> "Interval":
        value = float(value)
        return Interval(value, value,
                        integral=integral or float(value).is_integer())

    @staticmethod
    def range(lo: float, hi: float, integral: bool = False) -> "Interval":
        return Interval(float(lo), float(hi), integral=integral)

    # -- predicates ------------------------------------------------------ #
    @property
    def is_point(self) -> bool:
        return self.lo == self.hi and math.isfinite(self.lo)

    def numeric_lo(self, ctx: "RangeContext") -> float:
        """Best numeric lower bound, folding symbolic atoms through ctx."""
        lo = self.lo
        for atom in self.lo_syms:
            sym_lo, _ = ctx.sym_range(atom.name)
            lo = max(lo, sym_lo + atom.offset)
        return lo

    def numeric_hi(self, ctx: "RangeContext") -> float:
        """Best numeric upper bound, folding symbolic atoms through ctx."""
        hi = self.hi
        for atom in self.hi_syms:
            _, sym_hi = ctx.sym_range(atom.name)
            hi = min(hi, sym_hi + atom.offset)
        return hi

    def contains_zero(self) -> bool:
        lo_below = self.lo < 0 or (self.lo == 0 and not self.lo_strict)
        hi_above = self.hi > 0 or (self.hi == 0 and not self.hi_strict)
        return lo_below and hi_above

    # -- arithmetic ------------------------------------------------------ #
    def neg(self) -> "Interval":
        return Interval(-self.hi, -self.lo, self.hi_strict, self.lo_strict,
                        integral=self.integral)

    def add(self, other: "Interval") -> "Interval":
        lo = _sat_add(self.lo, other.lo)
        hi = _sat_add(self.hi, other.hi)
        hi_syms = set()
        if math.isfinite(other.hi):
            hi_syms.update(a.shifted(other.hi, other.hi_strict)
                           for a in self.hi_syms)
        if math.isfinite(self.hi):
            hi_syms.update(a.shifted(self.hi, self.hi_strict)
                           for a in other.hi_syms)
        lo_syms = set()
        if math.isfinite(other.lo):
            lo_syms.update(a.shifted(other.lo, other.lo_strict)
                           for a in self.lo_syms)
        if math.isfinite(self.lo):
            lo_syms.update(a.shifted(self.lo, self.lo_strict)
                           for a in other.lo_syms)
        return Interval(lo, hi,
                        self.lo_strict or other.lo_strict,
                        self.hi_strict or other.hi_strict,
                        _prune_lo(lo_syms), _prune_hi(hi_syms),
                        self.integral and other.integral)

    def sub(self, other: "Interval") -> "Interval":
        return self.add(other.neg())

    def mul(self, other: "Interval") -> "Interval":
        corners = [_sat_mul(a, b)
                   for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        return Interval(min(corners), max(corners),
                        integral=self.integral and other.integral)

    def div(self, other: "Interval") -> "Interval":
        if other.is_point and other.lo != 0:
            c = other.lo
            lo, hi = self.lo / c, self.hi / c
            if c < 0:
                lo, hi = hi, lo
            return Interval(lo, hi,
                            self.hi_strict if c < 0 else self.lo_strict,
                            self.lo_strict if c < 0 else self.hi_strict)
        if other.lo > 0 or other.hi < 0:
            corners = []
            for a in (self.lo, self.hi):
                for b in (other.lo, other.hi):
                    if b == 0:
                        continue
                    corners.append(_sat_mul(a, 1.0 / b) if math.isfinite(b)
                                   else (0.0 if math.isfinite(a) else a / b))
            if corners:
                return Interval(min(corners), max(corners))
        return Interval.top()

    # -- lattice ops ----------------------------------------------------- #
    def join(self, other: "Interval", ctx: "RangeContext") -> "Interval":
        """Least upper bound (control-flow merge)."""
        lo, lo_strict = _weaker_lo(self, other)
        hi, hi_strict = _weaker_hi(self, other)
        return Interval(lo, hi, lo_strict, hi_strict,
                        _join_lo_syms(self, other, ctx),
                        _join_hi_syms(self, other, ctx),
                        self.integral and other.integral)

    def meet(self, other: "Interval") -> "Interval":
        """Greatest lower bound (branch refinement intersection)."""
        lo, lo_strict = max((self.lo, self.lo_strict),
                            (other.lo, other.lo_strict))
        hi = min(self.hi, other.hi)
        hi_strict = (self.hi_strict if self.hi <= other.hi else False) or \
                    (other.hi_strict if other.hi <= self.hi else False)
        return Interval(lo, hi, lo_strict, hi_strict,
                        _prune_lo(self.lo_syms | other.lo_syms),
                        _prune_hi(self.hi_syms | other.hi_syms),
                        self.integral or other.integral)

    def min_with(self, other: "Interval", ctx: "RangeContext") -> "Interval":
        """Transfer function of ``min(self, other)``."""
        hi, hi_strict = min((self.hi, self.hi_strict),
                            (other.hi, other.hi_strict))
        lo, lo_strict = _weaker_lo(self, other)
        return Interval(lo, hi, lo_strict, hi_strict,
                        _join_lo_syms(self, other, ctx),
                        _prune_hi(self.hi_syms | other.hi_syms),
                        self.integral and other.integral)

    def max_with(self, other: "Interval", ctx: "RangeContext") -> "Interval":
        """Transfer function of ``max(self, other)``."""
        lo, lo_strict = max((self.lo, self.lo_strict),
                            (other.lo, other.lo_strict))
        hi, hi_strict = _weaker_hi(self, other)
        return Interval(lo, hi, lo_strict, hi_strict,
                        _prune_lo(self.lo_syms | other.lo_syms),
                        _join_hi_syms(self, other, ctx),
                        self.integral and other.integral)

    def floor(self) -> "Interval":
        lo = math.floor(self.lo) if math.isfinite(self.lo) else self.lo
        if math.isfinite(self.hi):
            hi = self.hi - 1 if self.hi_strict and float(self.hi).is_integer() \
                else math.floor(self.hi)
        else:
            hi = self.hi
        hi_syms = set()
        for atom in self.hi_syms:
            # Range symbols are integers, so floor(x) <= name + floor(off)
            # (one less when the bound was strict at an integral offset).
            off = atom.offset - 1 if atom.strict and float(atom.offset).is_integer() \
                else math.floor(atom.offset)
            hi_syms.add(SymBound(atom.name, off, False))
        lo_syms = {SymBound(a.name, math.floor(a.offset), False)
                   for a in self.lo_syms}
        return Interval(lo, hi, False, False,
                        _prune_lo(lo_syms), _prune_hi(hi_syms), True)

    def ceil(self) -> "Interval":
        lo = math.ceil(self.lo) if math.isfinite(self.lo) else self.lo
        hi = math.ceil(self.hi) if math.isfinite(self.hi) else self.hi
        hi_syms = {SymBound(a.name, math.ceil(a.offset), False)
                   for a in self.hi_syms}
        return Interval(lo, hi, False, False,
                        frozenset(), _prune_hi(hi_syms), True)


def _sat_add(a: float, b: float) -> float:
    """Saturating addition: opposing infinities collapse conservatively."""
    if math.isinf(a):
        return a
    if math.isinf(b):
        return b
    total = a + b
    if math.isinf(total):  # float overflow saturates to the infinity rail
        return total
    return total


def _sat_mul(a: float, b: float) -> float:
    if (a == 0 and math.isinf(b)) or (b == 0 and math.isinf(a)):
        return 0.0
    return a * b


def _weaker_lo(a: Interval, b: Interval) -> Tuple[float, bool]:
    return min((a.lo, a.lo_strict), (b.lo, b.lo_strict),
               key=lambda p: (p[0], p[1]))


def _weaker_hi(a: Interval, b: Interval) -> Tuple[float, bool]:
    return max((a.hi, a.hi_strict), (b.hi, b.hi_strict),
               key=lambda p: (p[0], not p[1]))


def _join_hi_syms(a: Interval, b: Interval, ctx: "RangeContext") -> frozenset:
    """Upper atoms valid for both sides of a join / the result of max().

    An atom present on both sides survives with the weaker offset.  An
    atom ``value <= n + o`` present on one side only survives when the
    other side's numeric upper bound fits under the symbol's declared
    minimum: ``other.hi <= sym_lo(n) + o'`` for ``o' = max(o, other.hi -
    sym_lo(n))`` — the rule that keeps ``max(i - 1, 0) <= width - 1``
    provable.
    """
    result = set()
    for this, that in ((a, b), (b, a)):
        for atom in this.hi_syms:
            partner = next((x for x in that.hi_syms if x.name == atom.name),
                           None)
            if partner is not None:
                if (partner.offset, not partner.strict) >= (atom.offset,
                                                            not atom.strict):
                    continue  # the partner pass adds the weaker one
                result.add(SymBound(atom.name,
                                    max(atom.offset, partner.offset),
                                    atom.strict and partner.strict))
            elif math.isfinite(that.hi):
                sym_lo, _ = ctx.sym_range(atom.name)
                if math.isfinite(sym_lo):
                    offset = max(atom.offset, that.hi - sym_lo)
                    result.add(SymBound(atom.name, offset,
                                        atom.strict and that.hi_strict))
    return _prune_hi(result)


def _join_lo_syms(a: Interval, b: Interval, ctx: "RangeContext") -> frozenset:
    """Lower atoms valid for both sides of a join / the result of min()."""
    result = set()
    for this, that in ((a, b), (b, a)):
        for atom in this.lo_syms:
            partner = next((x for x in that.lo_syms if x.name == atom.name),
                           None)
            if partner is not None:
                result.add(SymBound(atom.name,
                                    min(atom.offset, partner.offset),
                                    atom.strict and partner.strict))
            elif math.isfinite(that.lo):
                _, sym_hi = ctx.sym_range(atom.name)
                if math.isfinite(sym_hi):
                    offset = min(atom.offset, that.lo - sym_hi)
                    result.add(SymBound(atom.name, offset, False))
    return _prune_lo(result)


# --------------------------------------------------------------------------- #
# Range specs
# --------------------------------------------------------------------------- #
BoundSpec = Union[int, float, str]


def parse_bound_spec(spec: BoundSpec) -> Tuple[Optional[str], float]:
    """Parse a bound spec into ``(symbol_or_None, numeric_offset)``.

    Accepts a number, a symbol name (``"width"``) or a symbol with an
    integer offset (``"n - 1"``, ``"k+2"``).
    """
    if isinstance(spec, (int, float)):
        return None, float(spec)
    text = str(spec).strip()
    for sep in ("-", "+"):
        head, _, tail = text.partition(sep)
        if tail and head.strip().replace("_", "a").isidentifier():
            try:
                delta = float(tail.strip())
            except ValueError:
                continue
            return head.strip(), -delta if sep == "-" else delta
    if text.replace("_", "a").isidentifier():
        return text, 0.0
    raise ValueError(f"unparseable range-spec bound {spec!r}")


def check_range_specs(specs: Dict[str, dict]) -> None:
    """Reject a malformed range spec before any analysis reads it.

    Raises:
        RangeSpecError: naming the kernel, the key and the value of the
            first entry that is not a spec the analysis can read.
    """
    for kernel, spec in specs.items():
        for key, value in (spec or {}).items():
            try:
                if key == "params":
                    for lo, hi in value.values():
                        parse_bound_spec(lo)
                        parse_bound_spec(hi)
                elif key == "gathers":
                    for extents in value.values():
                        _extent_specs(extents)
                elif key == "domain" and value:
                    _extent_specs(value)
                elif key != "domain":
                    raise ValueError("unknown key")
            except (TypeError, ValueError, AttributeError) as exc:
                raise RangeSpecError(
                    f"range spec of kernel {kernel!r}: {key!r} entry "
                    f"{value!r} is malformed ({exc})") from None


def _extent_specs(extents) -> Tuple[BoundSpec, ...]:
    """The one or two extents of a domain or gather entry, parsed."""
    dims = tuple(extents) if isinstance(extents, (tuple, list)) \
        else (extents,)
    if len(dims) not in (1, 2):
        raise ValueError(f"{len(dims)} extents")
    for dim in dims:
        parse_bound_spec(dim)
    return dims


class RangeContext:
    """Numeric ranges of the symbols a kernel's range spec declares."""

    def __init__(self, spec: Optional[dict] = None):
        self.spec = dict(spec or {})
        self._ranges: Dict[str, Tuple[float, float]] = {}
        for name, bounds in (self.spec.get("params") or {}).items():
            lo, hi = bounds
            lo_sym, lo_off = parse_bound_spec(lo)
            hi_sym, hi_off = parse_bound_spec(hi)
            self._ranges[name] = (lo_off if lo_sym is None else -_INF,
                                  hi_off if hi_sym is None else _INF)

    def sym_range(self, name: str) -> Tuple[float, float]:
        """Numeric range of a symbol; extents default to [1, inf)."""
        return self._ranges.get(name, (1.0, _INF))

    def param_interval(self, name: str) -> Optional[Interval]:
        """Declared interval of a parameter (or symbol-valued stream)."""
        bounds = (self.spec.get("params") or {}).get(name)
        if bounds is None:
            return None
        lo_spec, hi_spec = bounds
        lo_sym, lo_off = parse_bound_spec(lo_spec)
        hi_sym, hi_off = parse_bound_spec(hi_spec)
        lo_syms = set() if lo_sym is None else {SymBound(lo_sym, lo_off)}
        hi_syms = set() if hi_sym is None else {SymBound(hi_sym, hi_off)}
        lo = lo_off if lo_sym is None else self.sym_range(lo_sym)[0] + lo_off
        hi = hi_off if hi_sym is None else self.sym_range(hi_sym)[1] + hi_off
        # The parameter *is* the symbol of its own name: tie them together
        # so comparisons against the parameter transfer its atoms.
        lo_syms.add(SymBound(name, 0.0))
        hi_syms.add(SymBound(name, 0.0))
        return Interval(lo, hi, False, False,
                        frozenset(lo_syms), frozenset(hi_syms))

    def domain_index(self) -> "VecValue":
        """Interval of ``indexof`` components from the ``domain`` spec."""
        domain = self.spec.get("domain")
        if not domain:
            half = Interval(0.0, _INF, integral=True)
            return VecValue({"x": half, "y": half})
        dims = _extent_specs(domain)
        if len(dims) == 1:
            return VecValue({"x": self._extent_index(dims[0]),
                             "y": Interval.const(0.0, integral=True)})
        rows, cols = dims[0], dims[1]
        return VecValue({"x": self._extent_index(cols),
                         "y": self._extent_index(rows)})

    def _extent_index(self, extent: BoundSpec) -> Interval:
        sym, off = parse_bound_spec(extent)
        if sym is None:
            return Interval(0.0, off - 1, integral=True)
        _, hi = self.sym_range(sym)
        return Interval(0.0, hi + off - 1, False, False,
                        frozenset(), frozenset({SymBound(sym, off - 1)}),
                        True)

    def gather_extents(self, name: str) -> Optional[Tuple[BoundSpec, BoundSpec]]:
        """(rows, cols) extent specs of a gather parameter, or None."""
        entry = (self.spec.get("gathers") or {}).get(name)
        if entry is None:
            return None
        dims = _extent_specs(entry)
        if len(dims) == 1:
            return (1, dims[0])
        return (dims[0], dims[1])


# --------------------------------------------------------------------------- #
# Abstract values
# --------------------------------------------------------------------------- #
class VecValue:
    """A small vector of per-component intervals (``float2``...)."""

    __slots__ = ("comps",)

    def __init__(self, comps: Dict[str, Interval]):
        self.comps = dict(comps)

    def comp(self, name: str) -> Interval:
        return self.comps.get(name, Interval.top())


class GatherRef:
    """Marker for an identifier naming a gather-stream parameter."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


Value = Union[Interval, VecValue, GatherRef]


# --------------------------------------------------------------------------- #
# Analysis results
# --------------------------------------------------------------------------- #
@dataclass
class GatherSite:
    """One gather access with the deduced index intervals."""

    param: str
    rows: Interval
    cols: Interval
    location: Optional[object]
    #: "proved" (in-bounds), "oob" (definitely out of bounds) or "unknown".
    verdict: str = "unknown"
    detail: str = ""


@dataclass
class DivisionSite:
    """One ``/`` or ``%`` with the deduced divisor interval."""

    op: str
    divisor: Interval
    location: Optional[object]


@dataclass
class KernelRangeAnalysis:
    """Everything the range analysis deduced about one kernel."""

    kernel_name: str
    gather_sites: List[GatherSite] = field(default_factory=list)
    division_sites: List[DivisionSite] = field(default_factory=list)
    #: One :class:`LoopBound` per loop, in source order.
    loop_bounds: Optional[LoopBoundAnalysis] = None
    #: Final variable environment (exposed for tests).
    env: Dict[str, Value] = field(default_factory=dict)

    @property
    def gathers_proved(self) -> int:
        return sum(1 for s in self.gather_sites if s.verdict == "proved")


# --------------------------------------------------------------------------- #
# In-bounds checking
# --------------------------------------------------------------------------- #
def _axis_in_bounds(index: Interval, extent: BoundSpec,
                    ctx: RangeContext) -> str:
    """Verdict for one gather axis.

    The execution engines ``floor()`` the index before the bounds check,
    so the access is in-bounds iff ``index >= 0`` and ``index < extent``.
    """
    sym, off = parse_bound_spec(extent)
    lo = index.numeric_lo(ctx)
    hi = index.numeric_hi(ctx)

    # Definite out-of-bounds: the whole interval below zero / above extent.
    if hi < 0:
        return "oob"
    if sym is None and lo >= off:
        return "oob"
    if sym is not None:
        for atom in index.lo_syms:
            if atom.name == sym and atom.offset >= off:
                return "oob"

    lo_ok = lo >= 0
    if sym is None:
        hi_ok = hi < off or (hi == off and index.hi_strict)
    else:
        hi_ok = False
        for atom in index.hi_syms:
            if atom.name == sym:
                limit = atom.offset - off
                if limit < 0 or (limit == 0 and atom.strict):
                    hi_ok = True
        sym_lo, _ = ctx.sym_range(sym)
        if math.isfinite(sym_lo) and (hi < sym_lo + off):
            hi_ok = True
    return "proved" if (lo_ok and hi_ok) else "unknown"


def check_gather_site(site: GatherSite, ctx: RangeContext) -> None:
    """Fill in ``site.verdict`` against the spec's declared extents."""
    extents = ctx.gather_extents(site.param)
    if extents is None:
        site.verdict = "unknown"
        site.detail = (f"no declared extents for gather {site.param!r}; "
                       "add a 'gathers' entry to the kernel's range spec")
        return
    rows_v = _axis_in_bounds(site.rows, extents[0], ctx)
    cols_v = _axis_in_bounds(site.cols, extents[1], ctx)
    if "oob" in (rows_v, cols_v):
        site.verdict = "oob"
        axis = "row" if rows_v == "oob" else "column"
        site.detail = f"{axis} index is provably outside the declared extent"
    elif rows_v == cols_v == "proved":
        site.verdict = "proved"
        site.detail = "both index axes proved within the declared extents"
    else:
        axis = "row" if rows_v != "proved" else "column"
        site.verdict = "unknown"
        site.detail = f"cannot prove the {axis} index within the declared extent"


# --------------------------------------------------------------------------- #
# The abstract interpreter
# --------------------------------------------------------------------------- #
_COMPONENTS = "xyzw"
#: A counted loop's comparison, and its mirror image (``LIMIT op i``).
_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "!=": "!="}
#: Loops whose values stay within this magnitude count exactly in
#: float32 (and never overflow int32).
_EXACT = 2.0 ** 24
_GEOMETRIC_CAP = 64


def _written(body: ast.Statement) -> set:
    """Variables ``body`` declares or assigns (the base of a member or
    element store)."""
    names = set()
    for node in body.walk():
        if isinstance(node, ast.DeclStatement):
            names.add(node.name)
        elif isinstance(node, ast.Assignment):
            target = node.target
            while isinstance(target, (ast.MemberExpr, ast.IndexExpr)):
                target = target.base
            if isinstance(target, ast.Identifier):
                names.add(target.name)
    return names


def _update_form(update: Optional[ast.Expression], var: str
                 ) -> Optional[Tuple[str, ast.Expression, int]]:
    """``("+", STEP, sign)`` for ``i += STEP``, ``i -= STEP`` (sign -1),
    ``i = i +- STEP`` or ``i = STEP + i``; ``("*", F, 1)`` for
    ``i *= F``, ``i = i * F`` or ``i = F * i``."""
    if not isinstance(update, ast.Assignment) or \
            not _is_var(update.target, var):
        return None
    if update.op in ("+=", "-=", "*="):
        return ("*" if update.op == "*=" else "+", update.value,
                -1 if update.op == "-=" else 1)
    value = ast.unconverted(update.value)
    if update.op != "=" or not isinstance(value, ast.BinaryOp):
        return None
    kind = "*" if value.op == "*" else "+"
    if value.op in ("+", "-", "*") and _is_var(value.left, var):
        return kind, value.right, -1 if value.op == "-" else 1
    if value.op in ("+", "*") and _is_var(value.right, var):
        return kind, value.left, 1
    return None


def _is_integer_var(stmt: ast.ForStatement) -> bool:
    """Whether a counted loop's index is an ``int``."""
    init = stmt.init
    if isinstance(init, ast.DeclStatement):
        return bool(getattr(init.decl_type, "is_integer", False))
    index_type = getattr(stmt.update.target, "type", None)
    return bool(getattr(index_type, "is_integer", False))


class _RangeWalker:
    """Abstract interpreter producing a :class:`KernelRangeAnalysis`."""

    def __init__(self, kernel: ast.FunctionDef, ctx: RangeContext,
                 helpers: Optional[Dict[str, ast.FunctionDef]] = None):
        self.kernel = kernel
        self.ctx = ctx
        self.helpers = dict(helpers or {})
        self.result = KernelRangeAnalysis(
            kernel_name=kernel.name,
            loop_bounds=LoopBoundAnalysis(kernel_name=kernel.name))
        self._gather_params = {p.name for p in kernel.gather_params}
        self._sites: Dict[int, GatherSite] = {}
        self._divisions: Dict[int, DivisionSite] = {}
        self._recording = True
        self._helper_returns: Dict[str, Interval] = {}
        self._inlining: List[str] = []

    # -- entry point ------------------------------------------------------ #
    def run(self) -> KernelRangeAnalysis:
        env = self._seed_env()
        self.exec_stmt(self.kernel.body, env)
        self.result.env = env
        self.result.gather_sites = list(self._sites.values())
        self.result.division_sites = list(self._divisions.values())
        for site in self.result.gather_sites:
            check_gather_site(site, self.ctx)
        return self.result

    def _seed_env(self) -> Dict[str, Value]:
        env: Dict[str, Value] = {}
        for param in self.kernel.params:
            if param.name in self._gather_params:
                env[param.name] = GatherRef(param.name)
            elif param.kind == ast.ParamKind.OUT_STREAM:
                env[param.name] = Interval.top()
            else:
                declared = self.ctx.param_interval(param.name)
                env[param.name] = declared if declared is not None \
                    else Interval.top()
        return env

    # -- statements -------------------------------------------------------- #
    def exec_stmt(self, stmt: ast.Statement, env: Dict[str, Value]) -> None:
        if isinstance(stmt, ast.Block):
            for child in stmt.statements:
                self.exec_stmt(child, env)
        elif isinstance(stmt, ast.DeclStatement):
            if stmt.init is not None:
                value = self.eval_expr(stmt.init, env)
            else:
                value = Interval.top()
            if isinstance(value, Interval) and \
                    getattr(stmt.decl_type, "is_integer", False):
                value = Interval(value.lo, value.hi, value.lo_strict,
                                 value.hi_strict, value.lo_syms,
                                 value.hi_syms, True)
            env[stmt.name] = value
        elif isinstance(stmt, ast.ExprStatement):
            self.eval_expr(stmt.expr, env)
        elif isinstance(stmt, ast.IfStatement):
            self.eval_expr(stmt.cond, env)
            env_then = dict(env)
            self.refine(env_then, stmt.cond, True)
            self.exec_stmt(stmt.then_branch, env_then)
            env_else = dict(env)
            self.refine(env_else, stmt.cond, False)
            if stmt.else_branch is not None:
                self.exec_stmt(stmt.else_branch, env_else)
            for name in list(env):
                if name in env_then and name in env_else:
                    env[name] = self._join_values(env_then[name],
                                                  env_else[name])
        elif isinstance(stmt, ast.ForStatement):
            self._exec_for(stmt, env)
        elif isinstance(stmt, (ast.WhileStatement, ast.DoWhileStatement)):
            kind = "while" if isinstance(stmt, ast.WhileStatement) \
                else "do-while"
            self.result.loop_bounds.loops.append(LoopBound(
                stmt, kind, None, f"{kind.replace('-', '/')} loops have no "
                "statically deducible trip count"))
            self._widen_assigned((stmt.body,), env, None)
            body_env = dict(env)
            self.refine(body_env, stmt.cond, True)
            self.eval_expr(stmt.cond, env)
            self.exec_stmt(stmt.body, body_env)
            for name in list(env):
                if name in body_env:
                    env[name] = self._join_values(env[name], body_env[name])
        elif isinstance(stmt, ast.ReturnStatement):
            if stmt.value is not None:
                self.eval_expr(stmt.value, env)
        # Break / Continue / Goto: no range effect beyond the widening
        # already applied to the enclosing loop.

    def _exec_for(self, stmt: ast.ForStatement, env: Dict[str, Value]) -> None:
        if stmt.init is not None:
            self.exec_stmt(stmt.init, env)
        bound = self._bound_for(stmt, env)
        self.result.loop_bounds.loops.append(bound)
        self._widen_assigned((stmt.body, stmt.update), env,
                             bound.max_trip_count)
        if stmt.cond is not None:
            self.eval_expr(stmt.cond, env)
        body_env = dict(env)
        if stmt.cond is not None:
            self.refine(body_env, stmt.cond, True)
        self.exec_stmt(stmt.body, body_env)
        if stmt.update is not None:
            self.eval_expr(stmt.update, body_env)
        for name in list(env):
            if name in body_env:
                env[name] = self._join_values(env[name], body_env[name])

    def _bound_for(self, stmt: ast.ForStatement,
                   env: Dict[str, Value]) -> LoopBound:
        """The trip bound of a counted ``for`` loop, or why it has none.

        ``env`` is the loop-entry environment.  START, LIMIT and STEP
        are intervals there; the bound is the trip count of the slowest
        run (lowest start, smallest step, highest limit), which float32
        rounding never makes slower while every value stays within
        2**24.  It holds only if the body writes neither the index nor
        anything the condition or update reads (MISRA C:2012 Rule 14.2).
        """
        def unbounded(reason: str) -> LoopBound:
            return LoopBound(stmt, "for", None, reason)

        var = _loop_variable(stmt)
        if var is None:
            return unbounded("loop variable could not be identified")
        cond = stmt.cond
        if not isinstance(cond, ast.BinaryOp) or cond.op not in _MIRRORED:
            return unbounded("loop condition is not a simple comparison")
        if _is_var(cond.left, var):
            limit_expr, op = cond.right, cond.op
        elif _is_var(cond.right, var):
            limit_expr, op = cond.left, _MIRRORED[cond.op]
        else:
            return unbounded("loop condition does not test the loop variable")
        read = {node.name for part in (cond, stmt.update) if part is not None
                for node in part.walk() if isinstance(node, ast.Identifier)}
        for name in sorted(_written(stmt.body) & read):
            what = "its index" if name == var else "the variable"
            return unbounded(f"loop body writes {what} {name!r}, which "
                             "its condition or update reads (MISRA C:2012 "
                             "Rule 14.2)")
        form = _update_form(stmt.update, var)
        if form is None:
            return unbounded("loop update is not a constant step")
        kind, step_expr, sign = form
        if any(_is_var(node, var) or isinstance(node, ast.Assignment)
               for part in (limit_expr, step_expr) for node in part.walk()):
            return unbounded("loop limit or step reads the loop index")
        start = env.get(var)
        if not isinstance(start, Interval):
            return unbounded(f"start of {var!r} is not a number")
        ctx = self.ctx
        limit, step = self._peek(limit_expr, env), self._peek(step_expr, env)
        s_lo, s_hi = start.numeric_lo(ctx), start.numeric_hi(ctx)
        l_lo, l_hi = limit.numeric_lo(ctx), limit.numeric_hi(ctx)
        d_lo, d_hi = step.numeric_lo(ctx), step.numeric_hi(ctx)
        if sign < 0:
            d_lo, d_hi = -d_hi, -d_lo
        integer = _is_integer_var(stmt)
        if op == "!=":
            exact = s_lo == s_hi and l_lo == l_hi and d_lo == d_hi \
                and kind == "+" and d_lo != 0 \
                and max(abs(s_lo), abs(l_lo)) + abs(d_lo) <= _EXACT \
                and all(float(v).is_integer() for v in (s_lo, l_lo, d_lo))
            trips = (l_lo - s_lo) / d_lo if exact else -1.0
            if not (trips >= 0 and trips.is_integer()):
                return unbounded("loop tests != but its step does not "
                                 "divide the distance exactly")
            return LoopBound(stmt, "for", int(trips), "canonical counted loop")
        if op in (">", ">="):
            if kind == "*":
                return unbounded("geometric loop does not count up")
            # Mirror a descending loop into an ascending one.
            s_lo, l_hi, d_lo, d_hi = -s_hi, -l_lo, -d_hi, -d_lo
            op = "<" if op == ">" else "<="
        if not math.isfinite(s_lo):
            return unbounded(f"start of {var!r} is not bounded")
        if not math.isfinite(l_hi):
            return unbounded(
                "loop limit is not bounded (declare the range of its "
                'parameters in range_specs[kernel]["params"] to make this '
                "loop certifiable)")
        if integer:
            s_lo = math.ceil(s_lo)
        if kind == "*":
            return self._geometric_bound(stmt, unbounded, s_lo, l_hi, op,
                                         d_lo, d_hi, integer)
        if d_hi <= 0:
            return unbounded("loop steps away from its limit")
        if max(abs(s_lo), abs(l_hi) + d_hi) > _EXACT:
            return unbounded("loop counts past 2**24, where float32 steps "
                             "are inexact")
        exact = integer or all(float(v).is_integer()
                               for v in (s_lo, l_hi, d_lo))
        if integer:  # an int index adds at least floor(step)
            progress = math.floor(d_lo)
        elif exact:
            progress = d_lo
        else:  # each float32 add may round down by half an ulp
            progress = d_lo * (1 - 2 ** -24) \
                - max(abs(s_lo), abs(l_hi) + d_hi) * 2 ** -24
        if not progress > 0:
            return unbounded(
                "loop step is not bounded away from zero (declare its "
                'lower bound in range_specs[kernel]["params"])')
        quotient = (l_hi - s_lo) / progress
        trips = math.ceil(quotient) if exact and op == "<" \
            else math.floor(quotient) + 1
        return LoopBound(stmt, "for", max(0, trips), "canonical counted loop")

    @staticmethod
    def _geometric_bound(stmt, unbounded, start: float, limit: float,
                         op: str, f_lo: float, f_hi: float,
                         integer: bool) -> LoopBound:
        """Trip bound of ``i = i * F`` counting up from ``start``."""
        if start <= 0:
            return unbounded("geometric loop does not start above zero")
        if limit * f_hi > _EXACT:
            return unbounded("loop counts past 2**24, where float32 steps "
                             "are inexact")
        if integer:  # an int index grows at least by floor(F)
            factor = math.floor(f_lo)
        elif float(start).is_integer() and float(f_lo).is_integer():
            factor = f_lo
        else:  # each float32 product may round down
            factor = f_lo * (1 - 2 ** -23)
        if not factor > 1:
            return unbounded("geometric loop factor is not above 1")
        trips, value = 0, start
        while value < limit or (op == "<=" and value == limit):
            if trips == _GEOMETRIC_CAP:
                return unbounded("geometric loop needs more than "
                                 f"{_GEOMETRIC_CAP} steps")
            value *= factor
            trips += 1
        return LoopBound(stmt, "for", trips, "geometric loop")

    def _widen_assigned(self, parts: Tuple[Optional[ast.Node], ...],
                        env: Dict[str, Value],
                        trips: Optional[int]) -> None:
        """Widen every variable a loop's body or update can mutate.

        Variables updated only by constant same-sign steps keep their
        entry bound on the stable side and gain ``entry + trips * step``
        on the moving side (full widening when the trip count is
        unknown); everything else is widened to TOP.
        """
        deltas = self._assignment_deltas(parts)
        for name, delta in deltas.items():
            entry = env.get(name)
            if not isinstance(entry, Interval):
                if name in env:
                    env[name] = Interval.top()
                continue
            if delta is None:
                env[name] = Interval.top()
            elif delta >= 0:
                hi = _sat_add(entry.hi, trips * delta) if trips is not None \
                    else _INF
                env[name] = Interval(entry.lo, hi, entry.lo_strict, False,
                                     entry.lo_syms, frozenset(),
                                     entry.integral and
                                     float(delta).is_integer())
            else:
                lo = _sat_add(entry.lo, trips * delta) if trips is not None \
                    else -_INF
                env[name] = Interval(lo, entry.hi, False, entry.hi_strict,
                                     frozenset(), entry.hi_syms,
                                     entry.integral and
                                     float(delta).is_integer())

    def _assignment_deltas(self, parts: Tuple[Optional[ast.Node], ...]
                           ) -> Dict[str, Optional[float]]:
        """Per-variable summed constant step, None when non-affine."""
        deltas: Dict[str, Optional[float]] = {}
        for node in (node for part in parts if part is not None
                     for node in part.walk()):
            if isinstance(node, ast.DeclStatement):
                deltas[node.name] = None
            if not isinstance(node, ast.Assignment):
                continue
            target = node.target
            if isinstance(target, ast.MemberExpr) and \
                    isinstance(target.base, ast.Identifier):
                deltas[target.base.name] = None
                continue
            if not isinstance(target, ast.Identifier):
                continue
            name = target.name
            delta = self._affine_delta(name, node)
            if name in deltas and deltas[name] is None:
                continue
            if delta is None:
                deltas[name] = None
            else:
                deltas[name] = (deltas.get(name) or 0.0) + delta \
                    if (deltas.get(name) or 0.0) * delta >= 0 else None
        return deltas

    @staticmethod
    def _affine_delta(name: str, node: ast.Assignment) -> Optional[float]:
        """Constant c when the assignment is ``name = name + c`` etc."""
        if node.op in ("+=", "-="):
            c = _literal(node.value)
            if c is None:
                return None
            return c if node.op == "+=" else -c
        if node.op != "=":
            return None
        offset = _offset(node.value)
        if offset is None or offset[0] != name:
            return None
        return offset[1]

    def _join_values(self, a: Value, b: Value) -> Value:
        if isinstance(a, Interval) and isinstance(b, Interval):
            return a.join(b, self.ctx)
        if isinstance(a, VecValue) and isinstance(b, VecValue):
            comps = {}
            for key in set(a.comps) | set(b.comps):
                comps[key] = a.comp(key).join(b.comp(key), self.ctx)
            return VecValue(comps)
        if isinstance(a, GatherRef) and isinstance(b, GatherRef):
            return a
        return Interval.top()

    # -- expressions ------------------------------------------------------- #
    def eval_expr(self, expr: ast.Expression, env: Dict[str, Value]) -> Value:
        value = self._eval(expr, env)
        return value

    def _scalar(self, expr: ast.Expression, env: Dict[str, Value]) -> Interval:
        value = self._eval(expr, env)
        return value if isinstance(value, Interval) else Interval.top()

    def _peek(self, expr: ast.Expression, env: Dict[str, Value]) -> Interval:
        """``expr``'s interval, recording none of its gather or division
        sites."""
        recording = self._recording
        self._recording = False
        try:
            return self._scalar(expr, env)
        finally:
            self._recording = recording

    def _eval(self, expr: ast.Expression, env: Dict[str, Value]) -> Value:
        expr = ast.unconverted(expr)
        if isinstance(expr, ast.NumberLiteral):
            return Interval.const(float(expr.value),
                                  integral=not expr.is_float)
        if isinstance(expr, ast.BoolLiteral):
            return Interval.const(1.0 if expr.value else 0.0, integral=True)
        if isinstance(expr, ast.Identifier):
            return env.get(expr.name, Interval.top())
        if isinstance(expr, ast.IndexOfExpr):
            return self.ctx.domain_index()
        if isinstance(expr, ast.MemberExpr):
            base = self._eval(expr.base, env)
            member = expr.member
            if isinstance(base, VecValue):
                if len(member) == 1:
                    return base.comp(member)
                return VecValue({c: base.comp(m)
                                 for c, m in zip(_COMPONENTS, member)})
            if isinstance(base, Interval) and len(member) == 1:
                return base
            return Interval.top()
        if isinstance(expr, ast.ConstructorExpr):
            args = [self._eval(arg, env) for arg in expr.args]
            scalars: List[Interval] = []
            for arg in args:
                if isinstance(arg, VecValue):
                    scalars.extend(arg.comps.values())
                elif isinstance(arg, Interval):
                    scalars.append(arg)
                else:
                    scalars.append(Interval.top())
            if len(scalars) == 1:
                scalars = scalars * 4
            return VecValue(dict(zip(_COMPONENTS, scalars)))
        if isinstance(expr, ast.UnaryOp):
            operand = self._scalar(expr.operand, env)
            if expr.op == "-":
                return operand.neg()
            if expr.op == "!":
                return Interval(0.0, 1.0, integral=True)
            return operand
        if isinstance(expr, ast.BinaryOp):
            return self._eval_binary(expr, env)
        if isinstance(expr, ast.Conditional):
            self._eval(expr.cond, env)
            env_then = dict(env)
            self.refine(env_then, expr.cond, True)
            env_else = dict(env)
            self.refine(env_else, expr.cond, False)
            then_v = self._eval(expr.then, env_then)
            else_v = self._eval(expr.otherwise, env_else)
            return self._join_values(then_v, else_v)
        if isinstance(expr, ast.Assignment):
            return self._eval_assignment(expr, env)
        if isinstance(expr, ast.CallExpr):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.IndexExpr):
            return self._eval_gather(expr, env)
        return Interval.top()

    def _eval_binary(self, expr: ast.BinaryOp, env: Dict[str, Value]) -> Value:
        left_v = self._eval(expr.left, env)
        right_v = self._eval(expr.right, env)
        if isinstance(left_v, VecValue) or isinstance(right_v, VecValue):
            # Componentwise vector arithmetic.
            comps = {}
            keys = left_v.comps.keys() if isinstance(left_v, VecValue) \
                else right_v.comps.keys()
            for key in keys:
                lc = left_v.comp(key) if isinstance(left_v, VecValue) \
                    else (left_v if isinstance(left_v, Interval)
                          else Interval.top())
                rc = right_v.comp(key) if isinstance(right_v, VecValue) \
                    else (right_v if isinstance(right_v, Interval)
                          else Interval.top())
                comps[key] = self._binary_scalar(expr, lc, rc)
            return VecValue(comps)
        left = left_v if isinstance(left_v, Interval) else Interval.top()
        right = right_v if isinstance(right_v, Interval) else Interval.top()
        return self._binary_scalar(expr, left, right)

    def _binary_scalar(self, expr: ast.BinaryOp, left: Interval,
                       right: Interval) -> Interval:
        op = expr.op
        if op == "+":
            return left.add(right)
        if op == "-":
            return left.sub(right)
        if op == "*":
            return left.mul(right)
        if op in ("/", "%"):
            self._record_division(expr, right)
            if op == "/":
                return left.div(right)
            if right.is_point and right.lo > 0:
                if left.lo >= 0:
                    return Interval(0.0, right.lo, False, True)
                return Interval(-right.lo, right.lo, True, True)
            return Interval.top()
        if op in ("<", "<=", ">", ">=", "==", "!=", "&&", "||"):
            return Interval(0.0, 1.0, integral=True)
        return Interval.top()

    def _record_division(self, expr: ast.BinaryOp, divisor: Interval) -> None:
        if not self._recording:
            return
        key = id(expr)
        prior = self._divisions.get(key)
        if prior is not None:
            divisor = prior.divisor.join(divisor, self.ctx)
        self._divisions[key] = DivisionSite(expr.op, divisor, expr.location)

    def _eval_assignment(self, expr: ast.Assignment,
                         env: Dict[str, Value]) -> Value:
        value = self._eval(expr.value, env)
        target = expr.target
        if expr.op != "=":
            current = self._eval(target, env)
            cur = current if isinstance(current, Interval) else Interval.top()
            val = value if isinstance(value, Interval) else Interval.top()
            if expr.op == "+=":
                value = cur.add(val)
            elif expr.op == "-=":
                value = cur.sub(val)
            elif expr.op == "*=":
                value = cur.mul(val)
            elif expr.op == "/=":
                self._record_division(expr, val)
                value = cur.div(val)
            else:
                value = Interval.top()
        if isinstance(target, ast.Identifier):
            env[target.name] = value
        elif isinstance(target, ast.MemberExpr) and \
                isinstance(target.base, ast.Identifier):
            base = env.get(target.base.name)
            if isinstance(base, VecValue) and len(target.member) == 1:
                comps = dict(base.comps)
                comps[target.member] = value if isinstance(value, Interval) \
                    else Interval.top()
                env[target.base.name] = VecValue(comps)
            else:
                env[target.base.name] = Interval.top()
        return value

    def _eval_gather(self, expr: ast.IndexExpr,
                     env: Dict[str, Value]) -> Value:
        # Unwrap a chained a[y][x] into base identifier + index list.
        indices: List[ast.Expression] = []
        base: ast.Expression = expr
        while isinstance(base, ast.IndexExpr):
            indices.insert(0, base.index)
            base = base.base
        index_values = [self._eval(ix, env) for ix in indices]
        if not (isinstance(base, ast.Identifier) and
                base.name in self._gather_params):
            return Interval.top()
        if len(indices) == 1:
            value = index_values[0]
            if isinstance(value, VecValue):
                rows, cols = value.comp("y"), value.comp("x")
            else:
                rows = Interval.const(0.0, integral=True)
                cols = value if isinstance(value, Interval) \
                    else Interval.top()
        else:
            rows = index_values[0] if isinstance(index_values[0], Interval) \
                else Interval.top()
            cols = index_values[1] if isinstance(index_values[1], Interval) \
                else Interval.top()
        if self._recording:
            key = id(expr)
            prior = self._sites.get(key)
            if prior is not None:
                rows = prior.rows.join(rows, self.ctx)
                cols = prior.cols.join(cols, self.ctx)
            self._sites[key] = GatherSite(base.name, rows, cols,
                                          expr.location)
        declared = self.ctx.param_interval(base.name)
        return declared if declared is not None else Interval.top()

    def _eval_call(self, expr: ast.CallExpr, env: Dict[str, Value]) -> Value:
        args = [self._eval(arg, env) for arg in expr.args]
        scalars = [a if isinstance(a, Interval) else Interval.top()
                   for a in args]
        name = expr.callee
        if name in ("min", "max") and len(scalars) >= 2:
            result = scalars[0]
            for other in scalars[1:]:
                result = result.min_with(other, self.ctx) if name == "min" \
                    else result.max_with(other, self.ctx)
            return result
        if name == "clamp" and len(scalars) == 3:
            return scalars[0].max_with(scalars[1], self.ctx) \
                             .min_with(scalars[2], self.ctx)
        if name == "saturate" and len(scalars) == 1:
            return scalars[0].max_with(Interval.const(0.0), self.ctx) \
                             .min_with(Interval.const(1.0), self.ctx)
        if name == "floor" and len(scalars) == 1:
            return scalars[0].floor()
        if name in ("ceil", "round") and len(scalars) == 1:
            return scalars[0].ceil() if name == "ceil" else Interval(
                math.floor(scalars[0].lo) if math.isfinite(scalars[0].lo)
                else scalars[0].lo,
                math.ceil(scalars[0].hi) if math.isfinite(scalars[0].hi)
                else scalars[0].hi, integral=True)
        if name == "abs" and len(scalars) == 1:
            x = scalars[0]
            if x.lo >= 0:
                return x
            if x.hi <= 0:
                return x.neg()
            return Interval(0.0, max(-x.lo, x.hi), integral=x.integral)
        if name == "sqrt" and len(scalars) == 1:
            x = scalars[0]
            lo = math.sqrt(max(x.lo, 0.0)) if math.isfinite(x.lo) else 0.0
            hi = math.sqrt(x.hi) if (math.isfinite(x.hi) and x.hi >= 0) \
                else (_INF if x.hi > 0 else 0.0)
            return Interval(max(lo, 0.0), hi, x.lo_strict and x.lo >= 0,
                            x.hi_strict)
        if name == "rsqrt" and len(scalars) == 1:
            x = scalars[0]
            if x.lo > 0:
                hi = 1.0 / math.sqrt(x.lo)
                lo = 1.0 / math.sqrt(x.hi) if math.isfinite(x.hi) else 0.0
                return Interval(lo, hi)
            return Interval.top()
        if name in ("exp", "exp2") and len(scalars) == 1:
            base = math.e if name == "exp" else 2.0
            x = scalars[0]
            return Interval(_safe_pow(base, x.lo), _safe_pow(base, x.hi),
                            x.lo_strict, x.hi_strict)
        if name in ("log", "log2") and len(scalars) == 1:
            x = scalars[0]
            fn = math.log if name == "log" else math.log2
            if x.hi <= 0:
                return Interval.top()
            lo = fn(x.lo) if (math.isfinite(x.lo) and x.lo > 0) else -_INF
            hi = fn(x.hi) if math.isfinite(x.hi) else _INF
            return Interval(lo, hi)
        if name == "pow" and len(scalars) == 2:
            base, expo = scalars
            if base.lo > 0 and math.isfinite(base.lo):
                corners = [_safe_pow(b, e)
                           for b in (base.lo, base.hi)
                           for e in (expo.lo, expo.hi)]
                finite = [c for c in corners if not math.isnan(c)]
                if finite:
                    return Interval(min(finite), max(finite))
            return Interval.top()
        if name == "fmod" and len(scalars) == 2:
            x, m = scalars
            if m.is_point and m.lo > 0:
                if x.lo >= 0:
                    return Interval(0.0, m.lo, False, True)
                return Interval(-m.lo, m.lo, True, True)
            return Interval.top()
        if name in ("sin", "cos") and len(scalars) == 1:
            return Interval(-1.0, 1.0)
        if name == "sign" and len(scalars) == 1:
            return Interval(-1.0, 1.0, integral=True)
        if name == "frac" and len(scalars) == 1:
            return Interval(0.0, 1.0, False, True)
        if name in self.helpers:
            return self._helper_return(name)
        return Interval.top()

    def _helper_return(self, name: str) -> Interval:
        """Result interval of a helper call.

        Helper bodies are analysed standalone (with unconstrained
        parameters) by the lint engine for their own division and gather
        sites; at the call site the result is conservatively TOP.
        """
        return Interval.top()

    # -- branch refinement ------------------------------------------------- #
    def refine(self, env: Dict[str, Value], cond: ast.Expression,
               truth: bool) -> None:
        if isinstance(cond, ast.UnaryOp) and cond.op == "!":
            self.refine(env, cond.operand, not truth)
            return
        if isinstance(cond, ast.BinaryOp) and cond.op == "&&" and truth:
            self.refine(env, cond.left, True)
            self.refine(env, cond.right, True)
            return
        if isinstance(cond, ast.BinaryOp) and cond.op == "||" and not truth:
            self.refine(env, cond.left, False)
            self.refine(env, cond.right, False)
            return
        if not isinstance(cond, ast.BinaryOp) or \
                cond.op not in ("<", "<=", ">", ">=", "=="):
            return
        op = cond.op
        if not truth:
            op = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": None}[op]
            if op is None:
                return
        self._refine_operand(env, cond.left, op, cond.right)
        mirrored = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}[op]
        self._refine_operand(env, cond.right, mirrored, cond.left)

    def _refine_operand(self, env: Dict[str, Value], target: ast.Expression,
                        op: str, other: ast.Expression) -> None:
        constraint = self._constraint(op, self._peek(other, env))
        name = _var_name(target)
        if name is not None:
            current = env.get(name)
            if isinstance(current, Interval):
                env[name] = current.meet(constraint)
        elif isinstance(target, ast.MemberExpr) and \
                isinstance(target.base, ast.Identifier) and \
                len(target.member) == 1:
            base = env.get(target.base.name)
            if isinstance(base, VecValue):
                comps = dict(base.comps)
                comps[target.member] = base.comp(target.member) \
                                           .meet(constraint)
                env[target.base.name] = VecValue(comps)

    @staticmethod
    def _constraint(op: str, bound: Interval) -> Interval:
        if op == "==":
            return bound
        if op in ("<", "<="):
            strict = op == "<"
            return Interval(-_INF, bound.hi, False,
                            strict or bound.hi_strict, frozenset(),
                            frozenset(a.shifted(0.0, strict)
                                      for a in bound.hi_syms))
        strict = op == ">"
        return Interval(bound.lo, _INF, strict or bound.lo_strict, False,
                        frozenset(a.shifted(0.0, strict)
                                  for a in bound.lo_syms), frozenset())


def _safe_pow(base: float, exponent: float) -> float:
    if math.isinf(exponent):
        if exponent > 0:
            return _INF if base > 1 else (0.0 if base < 1 else 1.0)
        return 0.0 if base > 1 else (_INF if 0 < base < 1 else 1.0)
    try:
        return base ** exponent
    except OverflowError:
        return _INF


# --------------------------------------------------------------------------- #
# Public entry points
# --------------------------------------------------------------------------- #
def analyze_kernel_ranges(
    kernel: ast.FunctionDef,
    spec: Optional[dict] = None,
    helpers: Optional[Dict[str, ast.FunctionDef]] = None,
) -> KernelRangeAnalysis:
    """Run the interval analysis over one kernel definition.

    Args:
        kernel: The kernel (or helper) definition to analyse.
        spec: The kernel's range spec: ``{"domain": (rows, cols),
            "gathers": {name: (rows, cols)}, "params": {name: (lo, hi)}}``
            where each bound is a number, a symbol name or
            ``"symbol±int"``.
        helpers: Helper functions callable from the kernel; their bodies
            are analysed standalone (parameters unconstrained) for their
            own division/gather sites.
    """
    walker = _RangeWalker(kernel, RangeContext(spec), helpers)
    return walker.run()


class ProgramRanges:
    """The range analysis of each function of one program, walked once.

    A kernel is analysed under its range spec, a helper standalone, each
    on first use.  :meth:`loop_bounds` of a function without loops needs
    no walk.
    """

    def __init__(self, functions: Dict[str, ast.FunctionDef],
                 specs: Optional[Dict[str, dict]] = None):
        self.functions = functions
        self.specs = specs or {}
        self._analyses: Dict[str, KernelRangeAnalysis] = {}

    def analysis(self, name: str) -> KernelRangeAnalysis:
        """The range analysis of function ``name``."""
        analysis = self._analyses.get(name)
        if analysis is None:
            analysis = analyze_kernel_ranges(self.functions[name],
                                             self.specs.get(name))
            self._analyses[name] = analysis
        return analysis

    def loop_bounds(self, name: str) -> LoopBoundAnalysis:
        """The bound of every loop of function ``name``."""
        if name in self._analyses or _has_loops(self.functions[name]):
            return self.analysis(name).loop_bounds
        return LoopBoundAnalysis(kernel_name=name)
