"""Abstract syntax tree for the Brook kernel language.

The AST is deliberately simple and close to the surface syntax: the
certification checker reasons about source-level constructs (loops,
calls, array indexing, output parameters), and the code generators emit
GLSL/C text from the same nodes.  Every node records its source location
so rule violations and type errors can point at the offending construct.

Nodes provide:

* ``children()`` - generic traversal used by analyses and the checker.
* ``to_source()`` - a pretty-printer that regenerates compilable Brook
  source (used for round-trip tests and for the compliance report, which
  quotes the offending code).

:func:`clone` makes the structural copy every transform pass rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import SourceLocation
from .types import BrookType, ParamKind

__all__ = [
    "Node",
    "Expression",
    "Statement",
    "NumberLiteral",
    "BoolLiteral",
    "Identifier",
    "UnaryOp",
    "BinaryOp",
    "Assignment",
    "Conditional",
    "CallExpr",
    "ConstructorExpr",
    "IndexExpr",
    "MemberExpr",
    "IndexOfExpr",
    "ExprStatement",
    "DeclStatement",
    "Block",
    "IfStatement",
    "ForStatement",
    "WhileStatement",
    "DoWhileStatement",
    "ReturnStatement",
    "BreakStatement",
    "ContinueStatement",
    "GotoStatement",
    "KernelParam",
    "FunctionDef",
    "TranslationUnit",
    "clone",
    "unconverted",
]


_LOC = SourceLocation()


@dataclass
class Node:
    """Base class of every AST node."""

    location: SourceLocation = field(default=_LOC, compare=False)

    def children(self) -> Iterable["Node"]:
        """Yield direct child nodes (default: none)."""
        return ()

    def walk(self) -> Iterable["Node"]:
        """Yield this node and every descendant, pre-order.

        A node's ``children()`` are read when the walk resumes after
        yielding it, so a caller may rewrite the node it was handed.
        """
        stack: List[Node] = [self]
        while stack:
            node = stack.pop()
            yield node
            children = list(node.children())
            if children:
                children.reverse()
                stack.extend(children)

    def to_source(self, indent: int = 0) -> str:
        raise NotImplementedError


class Expression(Node):
    """Base class for expressions.

    The semantic analyzer stores the resolved :class:`BrookType` in the
    ``type`` attribute; it is ``None`` before analysis.
    """

    type: Optional[BrookType] = None


class Statement(Node):
    """Base class for statements."""


# --------------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------------- #
@dataclass
class NumberLiteral(Expression):
    value: float = 0.0
    is_float: bool = True

    def to_source(self, indent: int = 0) -> str:
        if self.is_float:
            text = repr(float(self.value))
            return text
        return str(int(self.value))


@dataclass
class BoolLiteral(Expression):
    value: bool = False

    def to_source(self, indent: int = 0) -> str:
        return "true" if self.value else "false"


@dataclass
class Identifier(Expression):
    name: str = ""

    def to_source(self, indent: int = 0) -> str:
        return self.name


@dataclass
class UnaryOp(Expression):
    op: str = "-"
    operand: Expression = None

    def children(self) -> Iterable[Node]:
        yield self.operand

    def to_source(self, indent: int = 0) -> str:
        return f"{self.op}({self.operand.to_source()})"


@dataclass
class BinaryOp(Expression):
    op: str = "+"
    left: Expression = None
    right: Expression = None

    def children(self) -> Iterable[Node]:
        yield self.left
        yield self.right

    def to_source(self, indent: int = 0) -> str:
        return f"({self.left.to_source()} {self.op} {self.right.to_source()})"


@dataclass
class Assignment(Expression):
    """Assignment expression: ``target op value`` where op is ``=``/``+=``/..."""

    op: str = "="
    target: Expression = None
    value: Expression = None

    def children(self) -> Iterable[Node]:
        yield self.target
        yield self.value

    def to_source(self, indent: int = 0) -> str:
        return f"{self.target.to_source()} {self.op} {self.value.to_source()}"


@dataclass
class Conditional(Expression):
    """Ternary conditional ``cond ? then : otherwise``."""

    cond: Expression = None
    then: Expression = None
    otherwise: Expression = None

    def children(self) -> Iterable[Node]:
        yield self.cond
        yield self.then
        yield self.otherwise

    def to_source(self, indent: int = 0) -> str:
        return (
            f"({self.cond.to_source()} ? {self.then.to_source()}"
            f" : {self.otherwise.to_source()})"
        )


@dataclass
class CallExpr(Expression):
    """Call to a built-in (``sqrt``, ``dot``, ...) or user helper function."""

    callee: str = ""
    args: List[Expression] = field(default_factory=list)

    def children(self) -> Iterable[Node]:
        return iter(self.args)

    def to_source(self, indent: int = 0) -> str:
        args = ", ".join(arg.to_source() for arg in self.args)
        return f"{self.callee}({args})"


@dataclass
class ConstructorExpr(Expression):
    """Vector constructor such as ``float2(a, b)`` or ``float4(v, 1.0)``,
    or a scalar conversion ``int(x)``.

    ``implicit`` marks a conversion the semantic analyzer inserted where
    the source mixes ``int``, ``float`` or ``bool`` operands; it prints
    as its operand in Brook source and costs nothing in the cost models.
    """

    target_type: BrookType = None
    args: List[Expression] = field(default_factory=list)
    implicit: bool = False

    def children(self) -> Iterable[Node]:
        return iter(self.args)

    def to_source(self, indent: int = 0) -> str:
        if self.implicit:
            return self.args[0].to_source()
        args = ", ".join(arg.to_source() for arg in self.args)
        return f"{self.target_type.name}({args})"


def unconverted(expr: Expression) -> Expression:
    """``expr`` without the implicit conversions wrapped around it, nor
    the explicit ``float(...)`` widenings of a scalar ``int``."""
    while isinstance(expr, ConstructorExpr) and (expr.implicit
                                                 or _widens(expr)):
        expr = expr.args[0]
    return expr


def _widens(expr: ConstructorExpr) -> bool:
    """Whether ``expr`` is ``float(k)`` of a scalar ``int`` ``k``."""
    arg_type = getattr(expr.args[0], "type", None) if expr.args else None
    return (len(expr.args) == 1 and expr.target_type is not None
            and expr.target_type.is_float and not expr.target_type.is_vector
            and arg_type is not None and arg_type.is_integer
            and not arg_type.is_vector)


@dataclass
class IndexExpr(Expression):
    """Gather-array access ``a[i]`` (possibly chained for 2-D arrays)."""

    base: Expression = None
    index: Expression = None

    def children(self) -> Iterable[Node]:
        yield self.base
        yield self.index

    def to_source(self, indent: int = 0) -> str:
        return f"{self.base.to_source()}[{self.index.to_source()}]"


@dataclass
class MemberExpr(Expression):
    """Swizzle / component access ``v.x``, ``v.xy``."""

    base: Expression = None
    member: str = "x"

    def children(self) -> Iterable[Node]:
        yield self.base

    def to_source(self, indent: int = 0) -> str:
        return f"{self.base.to_source()}.{self.member}"


@dataclass
class IndexOfExpr(Expression):
    """``indexof(stream)`` - the position of the current element.

    Equivalent to CUDA's ``threadIdx``/``blockIdx`` composition; on the
    OpenGL ES 2 backend it is lowered to the implicit (normalized)
    texture coordinate scaled back to element units.
    """

    stream: str = ""

    def to_source(self, indent: int = 0) -> str:
        return f"indexof({self.stream})"


# --------------------------------------------------------------------------- #
# Statements
# --------------------------------------------------------------------------- #
def _ind(indent: int) -> str:
    return "    " * indent


@dataclass
class ExprStatement(Statement):
    expr: Expression = None

    def children(self) -> Iterable[Node]:
        yield self.expr

    def to_source(self, indent: int = 0) -> str:
        return f"{_ind(indent)}{self.expr.to_source()};"


@dataclass
class DeclStatement(Statement):
    """Local variable declaration ``float x = expr;``."""

    decl_type: BrookType = None
    name: str = ""
    init: Optional[Expression] = None

    def children(self) -> Iterable[Node]:
        if self.init is not None:
            yield self.init

    def to_source(self, indent: int = 0) -> str:
        text = f"{_ind(indent)}{self.decl_type.name} {self.name}"
        if self.init is not None:
            text += f" = {self.init.to_source()}"
        return text + ";"


@dataclass
class Block(Statement):
    statements: List[Statement] = field(default_factory=list)

    def children(self) -> Iterable[Node]:
        return iter(self.statements)

    def to_source(self, indent: int = 0) -> str:
        inner = "\n".join(stmt.to_source(indent + 1) for stmt in self.statements)
        return f"{_ind(indent)}{{\n{inner}\n{_ind(indent)}}}"


@dataclass
class IfStatement(Statement):
    cond: Expression = None
    then_branch: Statement = None
    else_branch: Optional[Statement] = None

    def children(self) -> Iterable[Node]:
        yield self.cond
        yield self.then_branch
        if self.else_branch is not None:
            yield self.else_branch

    def to_source(self, indent: int = 0) -> str:
        text = f"{_ind(indent)}if ({self.cond.to_source()})\n"
        text += self.then_branch.to_source(indent + (0 if isinstance(self.then_branch, Block) else 1))
        if self.else_branch is not None:
            text += f"\n{_ind(indent)}else\n"
            text += self.else_branch.to_source(indent + (0 if isinstance(self.else_branch, Block) else 1))
        return text


@dataclass
class ForStatement(Statement):
    init: Optional[Statement] = None
    cond: Optional[Expression] = None
    update: Optional[Expression] = None
    body: Statement = None

    def children(self) -> Iterable[Node]:
        if self.init is not None:
            yield self.init
        if self.cond is not None:
            yield self.cond
        if self.update is not None:
            yield self.update
        yield self.body

    def to_source(self, indent: int = 0) -> str:
        init = self.init.to_source(0).strip().rstrip(";") if self.init else ""
        cond = self.cond.to_source() if self.cond else ""
        update = self.update.to_source() if self.update else ""
        text = f"{_ind(indent)}for ({init}; {cond}; {update})\n"
        return text + self.body.to_source(indent + (0 if isinstance(self.body, Block) else 1))


@dataclass
class WhileStatement(Statement):
    cond: Expression = None
    body: Statement = None

    def children(self) -> Iterable[Node]:
        yield self.cond
        yield self.body

    def to_source(self, indent: int = 0) -> str:
        text = f"{_ind(indent)}while ({self.cond.to_source()})\n"
        return text + self.body.to_source(indent + (0 if isinstance(self.body, Block) else 1))


@dataclass
class DoWhileStatement(Statement):
    body: Statement = None
    cond: Expression = None

    def children(self) -> Iterable[Node]:
        yield self.body
        yield self.cond

    def to_source(self, indent: int = 0) -> str:
        body = self.body.to_source(indent + (0 if isinstance(self.body, Block) else 1))
        return f"{_ind(indent)}do\n{body}\n{_ind(indent)}while ({self.cond.to_source()});"


@dataclass
class ReturnStatement(Statement):
    value: Optional[Expression] = None

    def children(self) -> Iterable[Node]:
        if self.value is not None:
            yield self.value

    def to_source(self, indent: int = 0) -> str:
        if self.value is None:
            return f"{_ind(indent)}return;"
        return f"{_ind(indent)}return {self.value.to_source()};"


@dataclass
class BreakStatement(Statement):
    def to_source(self, indent: int = 0) -> str:
        return f"{_ind(indent)}break;"


@dataclass
class ContinueStatement(Statement):
    def to_source(self, indent: int = 0) -> str:
        return f"{_ind(indent)}continue;"


@dataclass
class GotoStatement(Statement):
    """``goto`` is parsed (so it can be reported) but always rejected."""

    label: str = ""

    def to_source(self, indent: int = 0) -> str:
        return f"{_ind(indent)}goto {self.label};"


# --------------------------------------------------------------------------- #
# Declarations
# --------------------------------------------------------------------------- #
@dataclass
class KernelParam(Node):
    """A kernel/function parameter as written in the source."""

    name: str = ""
    type: BrookType = None
    kind: ParamKind = ParamKind.SCALAR
    #: Number of ``[]`` gather dimensions for GATHER parameters.
    gather_rank: int = 0
    #: True when the declarator used the pointer syntax (``float *p``);
    #: kept so the certification checker can flag rule BA-001.
    is_pointer: bool = False

    def to_source(self, indent: int = 0) -> str:
        prefix = ""
        if self.kind is ParamKind.OUT_STREAM:
            prefix = "out "
        elif self.kind is ParamKind.REDUCE:
            prefix = "reduce "
        elif self.kind is ParamKind.ITERATOR:
            prefix = "iter "
        suffix = ""
        if self.kind in (ParamKind.STREAM, ParamKind.OUT_STREAM, ParamKind.ITERATOR):
            suffix = "<>"
        elif self.kind is ParamKind.REDUCE and self.gather_rank == 0:
            suffix = ""
        elif self.kind is ParamKind.GATHER:
            suffix = "[]" * max(1, self.gather_rank)
        pointer = "*" if self.is_pointer else ""
        return f"{prefix}{self.type.name} {pointer}{self.name}{suffix}"


@dataclass
class FunctionDef(Node):
    """A kernel, reduction kernel or plain helper function definition."""

    name: str = ""
    return_type: BrookType = None
    params: List[KernelParam] = field(default_factory=list)
    body: Block = None
    is_kernel: bool = False
    is_reduction: bool = False

    def children(self) -> Iterable[Node]:
        yield from self.params
        yield self.body

    # Convenience accessors used throughout the compiler -----------------
    @property
    def stream_params(self) -> List[KernelParam]:
        return [p for p in self.params if p.kind in (ParamKind.STREAM, ParamKind.ITERATOR)]

    @property
    def output_params(self) -> List[KernelParam]:
        return [p for p in self.params if p.kind is ParamKind.OUT_STREAM]

    @property
    def gather_params(self) -> List[KernelParam]:
        return [p for p in self.params if p.kind is ParamKind.GATHER]

    @property
    def scalar_params(self) -> List[KernelParam]:
        return [p for p in self.params if p.kind is ParamKind.SCALAR]

    @property
    def reduce_params(self) -> List[KernelParam]:
        return [p for p in self.params if p.kind is ParamKind.REDUCE]

    def param(self, name: str) -> Optional[KernelParam]:
        for candidate in self.params:
            if candidate.name == name:
                return candidate
        return None

    def to_source(self, indent: int = 0) -> str:
        qualifier = ""
        if self.is_reduction:
            qualifier = "reduce "
        elif self.is_kernel:
            qualifier = "kernel "
        params = ", ".join(p.to_source() for p in self.params)
        header = f"{_ind(indent)}{qualifier}{self.return_type.name} {self.name}({params})"
        return header + "\n" + self.body.to_source(indent)


@dataclass
class TranslationUnit(Node):
    """A parsed ``.br`` source buffer: kernels plus helper functions."""

    functions: List[FunctionDef] = field(default_factory=list)
    filename: str = "<string>"

    def children(self) -> Iterable[Node]:
        return iter(self.functions)

    @property
    def kernels(self) -> List[FunctionDef]:
        return [f for f in self.functions if f.is_kernel or f.is_reduction]

    @property
    def helpers(self) -> List[FunctionDef]:
        return [f for f in self.functions if not (f.is_kernel or f.is_reduction)]

    def kernel(self, name: str) -> FunctionDef:
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError(name)

    def to_source(self, indent: int = 0) -> str:
        return "\n\n".join(f.to_source(indent) for f in self.functions) + "\n"


# --------------------------------------------------------------------------- #
# Structural copy
# --------------------------------------------------------------------------- #
#: The attribute holding the symbol name that :func:`clone` renames.
_SYMBOL_ATTRIBUTE = {
    Identifier: "name",
    DeclStatement: "name",
    KernelParam: "name",
    # indexof() lowers to the implicit element position on every code
    # generator, so retargeting its operand is purely cosmetic.
    IndexOfExpr: "stream",
}


def clone(node: Node, renames: Optional[Dict[str, str]] = None) -> Node:
    """A structural copy of ``node`` with ``renames`` applied.

    Every node and every list of nodes is new, so the copy can be
    rewritten without touching the original; the immutable leaves
    (source locations, types, strings, numbers, enums) are shared.
    Instance attributes set after parsing, such as the semantic
    analyzer's ``type``, are copied too.  ``renames`` maps old
    to new symbol names of parameters, locals, references and
    ``indexof`` operands.
    """
    renames = renames or {}

    def copy_value(value):
        if isinstance(value, Node):
            return copy_node(value)
        if type(value) is list:
            return [copy_value(item) for item in value]
        return value

    def copy_node(original: Node) -> Node:
        cls = type(original)
        attributes = {key: copy_value(value)
                      for key, value in original.__dict__.items()}
        symbol = _SYMBOL_ATTRIBUTE.get(cls)
        if symbol is not None and attributes[symbol] in renames:
            attributes[symbol] = renames[attributes[symbol]]
        copy = cls.__new__(cls)
        copy.__dict__.update(attributes)
        return copy

    return copy_node(node)
