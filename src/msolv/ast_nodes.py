"""Surface syntax tree for MicroSol.

Node classes mirror the grammar productions one-to-one; anything the parser
builds is one of these. Positions are carried for diagnostics but excluded
from equality so that round-tripping through the pretty printer compares
clean.
"""

from __future__ import annotations

from typing import Union

from .record import Record


class Pos(Record):
    line: int
    col: int


_NOPOS = Pos(0, 0)


class Node(Record, keyword=True):
    pos: Pos = _NOPOS


# ---------------------------------------------------------------- types

class TypeName(Node):
    """One of: uint, bool, address, mapping(address => uint), or a contract name."""

    kind: str  # "uint" | "bool" | "address" | "mapping" | "contract"
    contract: str = ""


# ---------------------------------------------------------------- expressions

class IntLit(Node):
    value: int


class BoolLit(Node):
    value: bool


class AddressLit(Node):
    """``address(K)`` with an integer literal K."""

    value: int


class Name(Node):
    ident: str


class This(Node):
    pass


class MsgSender(Node):
    pass


class Binary(Node):
    op: str  # == != < > + - * / && ||
    left: Expr
    right: Expr


class Not(Node):
    operand: Expr


class AddressCast(Node):
    """``address(v)`` over a name (grammar form); integer payloads lex to AddressLit."""

    operand: Expr


class Index(Node):
    base: Expr
    key: Expr


class Call(Node):
    """``f(args)`` same-contract call."""

    func: str
    callargs: tuple[Expr, ...]


class MemberCall(Node):
    """``expr.f(args)`` call on a contract reference."""

    target: Expr
    func: str
    callargs: tuple[Expr, ...]


EXPR_NODE_TYPES = (
    IntLit, BoolLit, AddressLit, Name, This, MsgSender,
    Binary, Not, AddressCast, Index, Call, MemberCall,
)
Expr = Union[EXPR_NODE_TYPES]


# ---------------------------------------------------------------- statements

class VarDecl(Node):
    typ: TypeName
    name: str


class Assign(Node):
    target: Expr  # Name or Index
    value: Expr


class NewAssign(Node):
    target: Expr  # Name of a contract-reference variable
    contract: str
    callargs: tuple[Expr, ...]


class Require(Node):
    cond: Expr


class Assert(Node):
    cond: Expr


class Return(Node):
    pass


class If(Node):
    cond: Expr
    body: tuple[Stmt, ...]


class While(Node):
    cond: Expr
    body: tuple[Stmt, ...]


class ExprStmt(Node):
    """A bare call used for its effect (cross-contract or internal call)."""

    expr: Expr


STMT_NODE_TYPES = (VarDecl, Assign, NewAssign, Require, Assert, Return, If, While, ExprStmt)
Stmt = Union[STMT_NODE_TYPES]


# ---------------------------------------------------------------- declarations

class Param(Node):
    typ: TypeName
    name: str


class FunctionDecl(Node):
    name: str  # "constructor" for the constructor
    params: tuple[Param, ...]
    body: tuple[Stmt, ...]
    is_constructor: bool = False


class ContractDecl(Node):
    name: str
    state_vars: tuple[VarDecl, ...]
    constructor: FunctionDecl
    functions: tuple[FunctionDecl, ...]


class SourceUnit(Node):
    contracts: tuple[ContractDecl, ...]


ALL_NODE_TYPES = EXPR_NODE_TYPES + STMT_NODE_TYPES + (
    TypeName, Param, FunctionDecl, ContractDecl, SourceUnit,
)


def walk(node: Node):
    """Yield ``node`` and every descendant node, pre-order."""
    yield node
    for name in node._fields:
        v = getattr(node, name)
        if isinstance(v, Node):
            yield from walk(v)
        elif isinstance(v, tuple):
            for item in v:
                if isinstance(item, Node):
                    yield from walk(item)


# ---------------------------------------------------------------- pretty printer

_PREC = {"||": 1, "&&": 2, "==": 3, "!=": 3, "<": 3, ">": 3, "+": 4, "-": 4, "*": 5, "/": 5}


def _pp_type(t: TypeName) -> str:
    if t.kind == "mapping":
        return "mapping(address => uint)"
    if t.kind == "contract":
        return t.contract
    return t.kind


def _pp_expr(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, AddressLit):
        return f"address({e.value})"
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, This):
        return "this"
    if isinstance(e, MsgSender):
        return "msg.sender"
    if isinstance(e, Not):
        return "!" + _pp_expr(e.operand, 6)
    if isinstance(e, AddressCast):
        return f"address({_pp_expr(e.operand)})"
    if isinstance(e, Index):
        return f"{_pp_expr(e.base, 6)}[{_pp_expr(e.key)}]"
    if isinstance(e, Call):
        return f"{e.func}({', '.join(_pp_expr(a) for a in e.callargs)})"
    if isinstance(e, MemberCall):
        args = ", ".join(_pp_expr(a) for a in e.callargs)
        return f"{_pp_expr(e.target, 6)}.{e.func}({args})"
    if isinstance(e, Binary):
        prec = _PREC[e.op]
        s = f"{_pp_expr(e.left, prec)} {e.op} {_pp_expr(e.right, prec + 1)}"
        return f"({s})" if prec < parent_prec else s
    raise TypeError(f"unknown expression node {e!r}")


def _pp_stmt(s: Stmt, indent: str) -> list[str]:
    if isinstance(s, VarDecl):
        return [f"{indent}{_pp_type(s.typ)} {s.name};"]
    if isinstance(s, Assign):
        return [f"{indent}{_pp_expr(s.target)} = {_pp_expr(s.value)};"]
    if isinstance(s, NewAssign):
        args = ", ".join(_pp_expr(a) for a in s.callargs)
        return [f"{indent}{_pp_expr(s.target)} = new {s.contract}({args});"]
    if isinstance(s, Require):
        return [f"{indent}require({_pp_expr(s.cond)});"]
    if isinstance(s, Assert):
        return [f"{indent}assert({_pp_expr(s.cond)});"]
    if isinstance(s, Return):
        return [f"{indent}return;"]
    if isinstance(s, ExprStmt):
        return [f"{indent}{_pp_expr(s.expr)};"]
    if isinstance(s, (If, While)):
        head = "if" if isinstance(s, If) else "while"
        out = [f"{indent}{head} ({_pp_expr(s.cond)}) {{"]
        for inner in s.body:
            out.extend(_pp_stmt(inner, indent + "    "))
        out.append(f"{indent}}}")
        return out
    raise TypeError(f"unknown statement node {s!r}")


def _pp_function(fn: FunctionDecl, indent: str) -> list[str]:
    params = ", ".join(f"{_pp_type(p.typ)} {p.name}" for p in fn.params)
    head = "constructor" if fn.is_constructor else f"function {fn.name}"
    out = [f"{indent}{head}({params}) public {{"]
    for s in fn.body:
        out.extend(_pp_stmt(s, indent + "    "))
    out.append(f"{indent}}}")
    return out


def pretty_print(unit: SourceUnit) -> str:
    """Render an AST back to canonical MicroSol source."""
    out: list[str] = []
    for c in unit.contracts:
        out.append(f"contract {c.name} {{")
        for v in c.state_vars:
            out.append(f"    {_pp_type(v.typ)} {v.name};")
        out.extend(_pp_function(c.constructor, "    "))
        for fn in c.functions:
            out.extend(_pp_function(fn, "    "))
        out.append("}")
        out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------- JSON dump

def to_json(node: Node):
    """Canonical JSON form of an AST: dicts with ``kind`` first, stable order."""
    if isinstance(node, tuple):
        return [to_json(n) for n in node]
    d: dict = {"kind": type(node).__name__}
    for name in node._fields:
        v = getattr(node, name)
        if isinstance(v, Node):
            d[name] = to_json(v)
        elif isinstance(v, tuple):
            d[name] = [to_json(x) if isinstance(x, Node) else x for x in v]
        else:
            d[name] = v
    return d
