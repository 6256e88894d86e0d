"""Recursive descent parser for the MicroSol grammar."""

from __future__ import annotations

from . import ast_nodes as A
from .errors import MicroSolSyntaxError
from .lexer import Token, tokenize


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0

    # -- token plumbing ------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def at(self, *kinds: str) -> bool:
        return self.peek().kind in kinds

    def advance(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, *kinds: str) -> Token:
        t = self.peek()
        if t.kind in kinds:
            return self.advance()
        shown = t.text if t.kind != "eof" else "end of input"
        raise MicroSolSyntaxError(
            f"expected {' or '.join(sorted(kinds))}, found {shown!r}", t.line, t.col)

    def pos(self) -> A.Pos:
        t = self.peek()
        return A.Pos(t.line, t.col)

    # -- top level -----------------------------------------------------

    def parse_unit(self) -> A.SourceUnit:
        pos = self.pos()
        contracts = [self.parse_contract()]
        while self.at("contract"):
            contracts.append(self.parse_contract())
        self.expect("eof")
        return A.SourceUnit(tuple(contracts), pos=pos)

    def parse_contract(self) -> A.ContractDecl:
        pos = self.pos()
        self.expect("contract")
        name = self.expect("ident").text
        self.expect("{")
        state_vars: list[A.VarDecl] = []
        while not self.at("constructor"):
            state_vars.append(self.parse_decl())
            self.expect(";")
        ctor = self.parse_function(constructor=True)
        functions: list[A.FunctionDecl] = []
        while self.at("function"):
            functions.append(self.parse_function(constructor=False))
        self.expect("}")
        return A.ContractDecl(name, tuple(state_vars), ctor, tuple(functions), pos=pos)

    def parse_decl(self) -> A.VarDecl:
        pos = self.pos()
        typ = self.parse_type()
        name = self.expect("ident").text
        return A.VarDecl(typ, name, pos=pos)

    def parse_type(self) -> A.TypeName:
        pos = self.pos()
        t = self.expect("uint", "bool", "address", "mapping", "ident")
        if t.kind == "mapping":
            self.expect("(")
            self.expect("address")
            self.expect("=>")
            self.expect("uint")
            self.expect(")")
            return A.TypeName("mapping", pos=pos)
        if t.kind == "ident":
            return A.TypeName("contract", contract=t.text, pos=pos)
        return A.TypeName(t.kind, pos=pos)

    def parse_function(self, constructor: bool) -> A.FunctionDecl:
        pos = self.pos()
        if constructor:
            self.expect("constructor")
            name = "constructor"
        else:
            self.expect("function")
            name = self.expect("ident").text
        params = self.parse_list(self.parse_param)
        self.expect("public")
        body = self.parse_block()
        return A.FunctionDecl(name, params, body, is_constructor=constructor, pos=pos)

    def parse_param(self) -> A.Param:
        pos = self.pos()
        typ = self.parse_type()
        return A.Param(typ, self.expect("ident").text, pos=pos)

    # -- statements ----------------------------------------------------

    def parse_block(self) -> tuple[A.Stmt, ...]:
        self.expect("{")
        stmts: list[A.Stmt] = []
        while not self.at("}"):
            stmts.append(self.parse_stmt())
        self.expect("}")
        return tuple(stmts)

    def parse_stmt(self) -> A.Stmt:
        pos = self.pos()
        k = self.peek().kind
        if (k in ("uint", "bool", "mapping")
                or (k in ("address", "ident") and self.peek(1).kind == "ident")):
            d = self.parse_decl()
            self.expect(";")
            return d
        if k == "require" or k == "assert":
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return A.Require(cond, pos=pos) if k == "require" else A.Assert(cond, pos=pos)
        if k == "return":
            self.advance()
            self.expect(";")
            return A.Return(pos=pos)
        if k == "if" or k == "while":
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            body = self.parse_block()
            return A.If(cond, body, pos=pos) if k == "if" else A.While(cond, body, pos=pos)
        # Assignment or a call used as a statement.
        expr = self.parse_expr()
        if self.at("="):
            self.advance()
            if self.at("new"):
                self.advance()
                cname = self.expect("ident").text
                args = self.parse_list(self.parse_expr)
                self.expect(";")
                return A.NewAssign(expr, cname, args, pos=pos)
            value = self.parse_expr()
            self.expect(";")
            return A.Assign(expr, value, pos=pos)
        if isinstance(expr, (A.Call, A.MemberCall)):
            self.expect(";")
            return A.ExprStmt(expr, pos=pos)
        t = self.peek()
        raise MicroSolSyntaxError(
            "expected '=' or a call statement", t.line, t.col)

    def parse_list(self, item) -> tuple:
        """``( item, ... )``, possibly empty."""
        self.expect("(")
        items = [] if self.at(")") else [item()]
        while self.at(","):
            self.advance()
            items.append(item())
        self.expect(")")
        return tuple(items)

    # -- expressions (precedence climbing) ------------------------------

    _LEVELS = (("||",), ("&&",), ("==", "!=", "<", ">"), ("+", "-"), ("*", "/"))

    def parse_expr(self, level: int = 0) -> A.Expr:
        if level == len(self._LEVELS):
            return self.parse_unary()
        left = self.parse_expr(level + 1)
        while self.peek().kind in self._LEVELS[level]:
            op = self.advance()
            right = self.parse_expr(level + 1)
            left = A.Binary(op.kind, left, right, pos=A.Pos(op.line, op.col))
        return left

    def parse_unary(self) -> A.Expr:
        if self.at("!"):
            t = self.advance()
            return A.Not(self.parse_unary(), pos=A.Pos(t.line, t.col))
        return self.parse_postfix()

    def parse_postfix(self) -> A.Expr:
        e = self.parse_primary()
        while True:
            if self.at("["):
                t = self.advance()
                key = self.parse_expr()
                self.expect("]")
                e = A.Index(e, key, pos=A.Pos(t.line, t.col))
            elif self.at(".") and self.peek(1).kind == "ident" and self.peek(2).kind == "(":
                self.advance()
                fname = self.expect("ident")
                args = self.parse_list(self.parse_expr)
                e = A.MemberCall(e, fname.text, args, pos=A.Pos(fname.line, fname.col))
            else:
                return e

    def parse_primary(self) -> A.Expr:
        t = self.peek()
        pos = A.Pos(t.line, t.col)
        if t.kind == "int":
            self.advance()
            return A.IntLit(t.value, pos=pos)
        if t.kind in ("true", "false"):
            self.advance()
            return A.BoolLit(t.kind == "true", pos=pos)
        if t.kind == "this":
            self.advance()
            return A.This(pos=pos)
        if t.kind == "msg":
            self.advance()
            self.expect(".")
            sender = self.expect("ident")
            if sender.text != "sender":
                raise MicroSolSyntaxError(
                    "only msg.sender is available", sender.line, sender.col)
            return A.MsgSender(pos=pos)
        if t.kind == "address":
            self.advance()
            self.expect("(")
            inner = self.parse_expr()
            self.expect(")")
            if isinstance(inner, A.IntLit):
                return A.AddressLit(inner.value, pos=pos)
            return A.AddressCast(inner, pos=pos)
        if t.kind == "ident":
            self.advance()
            if self.at("("):
                args = self.parse_list(self.parse_expr)
                return A.Call(t.text, args, pos=pos)
            return A.Name(t.text, pos=pos)
        if t.kind == "(":
            self.advance()
            e = self.parse_expr()
            self.expect(")")
            return e
        raise MicroSolSyntaxError(
            f"expected an expression, found {t.text or 'end of input'!r}", t.line, t.col)


def parse(source: str) -> A.SourceUnit:
    """Parse MicroSol source text into a SourceUnit AST."""
    return _Parser(tokenize(source)).parse_unit()
