"""Built-in function catalogue of the Brook kernel language.

Brook kernels use the Cg/GLSL intrinsic set for arithmetic.  The same
catalogue serves three purposes:

* the semantic analyzer uses it to type-check calls,
* the code generators map each entry to its GLSL ES 1.0 / C spelling,
* the execution engine maps each entry to a NumPy implementation, and
* the performance model charges each entry a floating-point operation
  cost (used to estimate kernel arithmetic intensity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..errors import BrookTypeError
from .types import FLOAT, BrookType, ScalarKind, common_type

__all__ = ["BuiltinFunction", "BUILTINS", "lookup_builtin"]


@dataclass(frozen=True)
class BuiltinFunction:
    """Description of one intrinsic function.

    Attributes:
        name: Brook-side spelling.
        arity: Number of arguments (fixed).
        kind: ``"componentwise"``, ``"reduction"`` (vector -> scalar) or
            ``"special"`` (custom result typing handled in ``result_type``).
        glsl_name: Spelling in GLSL ES 1.0 (``None`` when identical).
        c_name: Spelling in C99 ``math.h`` terms (``None`` when identical).
        flop_cost: Estimated floating point operations charged per call by
            the performance model (transcendental functions cost more than
            an add/mul on both the in-order ARM core and the VideoCore IV
            shader ALUs).
    """

    name: str
    arity: int
    kind: str = "componentwise"
    glsl_name: Optional[str] = None
    c_name: Optional[str] = None
    flop_cost: int = 1

    def result_type(self, arg_types: List[BrookType]) -> BrookType:
        """Compute the call's result type or raise :class:`BrookTypeError`."""
        if len(arg_types) != self.arity:
            raise BrookTypeError(
                f"{self.name}() expects {self.arity} argument(s), got {len(arg_types)}"
            )
        if self.kind == "componentwise":
            result = arg_types[0]
            for other in arg_types[1:]:
                merged = common_type(result, other)
                if merged is None:
                    raise BrookTypeError(
                        f"incompatible argument types for {self.name}(): "
                        f"{result} and {other}"
                    )
                result = merged
            # Math intrinsics always work in floating point.
            if result.kind is not ScalarKind.FLOAT:
                result = BrookType(ScalarKind.FLOAT, result.width)
            return result
        if self.kind == "reduction":
            return FLOAT
        if self.kind == "special":
            return self._special_result(arg_types)
        raise AssertionError(f"unknown builtin kind {self.kind}")

    def _special_result(self, arg_types: List[BrookType]) -> BrookType:
        if self.name == "cross":
            return BrookType(ScalarKind.FLOAT, 3)
        if self.name == "normalize":
            return BrookType(ScalarKind.FLOAT, arg_types[0].width)
        if self.name in ("any", "all"):
            return BrookType(ScalarKind.BOOL, 1)
        raise AssertionError(f"no special typing rule for {self.name}")


def _componentwise(name: str, arity: int, flop_cost: int = 1, glsl: str = None,
                   c_name: str = None) -> BuiltinFunction:
    return BuiltinFunction(
        name=name, arity=arity, kind="componentwise", flop_cost=flop_cost,
        glsl_name=glsl, c_name=c_name,
    )


#: The intrinsic catalogue.  Costs approximate the relative latency of the
#: operation on a scalar in-order FPU; they only need to be *relatively*
#: consistent because the performance model calibrates absolute throughput
#: separately per platform.
BUILTINS: Dict[str, BuiltinFunction] = {
    builtin.name: builtin
    for builtin in [
        # One-argument componentwise math.
        _componentwise("sqrt", 1, flop_cost=4),
        _componentwise("rsqrt", 1, flop_cost=4, glsl="inversesqrt"),
        _componentwise("exp", 1, flop_cost=8),
        _componentwise("exp2", 1, flop_cost=6),
        _componentwise("log", 1, flop_cost=8),
        _componentwise("log2", 1, flop_cost=6),
        _componentwise("sin", 1, flop_cost=8),
        _componentwise("cos", 1, flop_cost=8),
        _componentwise("tan", 1, flop_cost=10),
        _componentwise("asin", 1, flop_cost=10),
        _componentwise("acos", 1, flop_cost=10),
        _componentwise("atan", 1, flop_cost=10),
        _componentwise("floor", 1, flop_cost=1),
        _componentwise("ceil", 1, flop_cost=1),
        _componentwise("round", 1, flop_cost=1),
        _componentwise("frac", 1, flop_cost=1, glsl="fract", c_name="brook_frac"),
        _componentwise("abs", 1, flop_cost=1, c_name="fabsf"),
        _componentwise("sign", 1, flop_cost=1),
        _componentwise("saturate", 1, flop_cost=1, glsl="brook_saturate"),
        # Two-argument componentwise math.
        _componentwise("pow", 2, flop_cost=10, c_name="powf"),
        _componentwise("fmod", 2, flop_cost=4, glsl="brook_fmod", c_name="fmodf"),
        _componentwise("min", 2, flop_cost=1, c_name="fminf"),
        _componentwise("max", 2, flop_cost=1, c_name="fmaxf"),
        _componentwise("atan2", 2, flop_cost=12, glsl="atan", c_name="atan2f"),
        _componentwise("step", 2, flop_cost=1),
        # Three-argument componentwise math.
        _componentwise("clamp", 3, flop_cost=2),
        _componentwise("lerp", 3, flop_cost=3, glsl="mix"),
        _componentwise("mix", 3, flop_cost=3),
        _componentwise("smoothstep", 3, flop_cost=6),
        _componentwise("mad", 3, flop_cost=1),
        # Vector reductions and geometry.
        BuiltinFunction("dot", 2, kind="reduction", flop_cost=7),
        BuiltinFunction("length", 1, kind="reduction", flop_cost=8),
        BuiltinFunction("distance", 2, kind="reduction", flop_cost=10),
        BuiltinFunction("cross", 2, kind="special", flop_cost=9),
        BuiltinFunction("normalize", 1, kind="special", flop_cost=10),
        BuiltinFunction("any", 1, kind="special", flop_cost=1),
        BuiltinFunction("all", 1, kind="special", flop_cost=1),
    ]
}


def lookup_builtin(name: str) -> Optional[BuiltinFunction]:
    """Return the builtin description for ``name`` or ``None``."""
    return BUILTINS.get(name)
