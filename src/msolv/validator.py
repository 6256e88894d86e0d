"""Semantic validation and lowering of parsed MicroSol bundles.

Produces a :class:`ContractBundle`: the surface AST plus a deterministic
:class:`VariableLayout` and the lowered per-function IR. Rules are rejected
with stable identifiers so tests and users can match on them.
"""

from __future__ import annotations

from . import ast_nodes as A
from . import ir
from .errors import UnknownFunction, ValidationError
from .record import Record

ZERO_ACCOUNT = 0
ROOT_ACCOUNT = 1


class VariableLayout(Record):
    """Stable storage indices: declaration order, contracts in bundle order.

    Names are qualified ``Contract.var`` when the bundle has several
    contracts, bare otherwise.
    """

    roles: tuple[str, ...]
    data: tuple[str, ...]
    maps: tuple[str, ...]


class ContractBundle(Record):
    """A validated bundle: AST, layout, lowered functions, account map."""

    unit: A.SourceUnit
    layout: VariableLayout
    all_functions: dict[tuple[int, str], ir.IRFunction]
    contract_accounts: tuple[int, ...]                 # per contract index
    tx_order: tuple[str, ...] = ()

    def signature(self, function: str) -> ir.IRFunction:
        fn = self.all_functions.get((0, function))  # the root's external surface
        if fn is None:
            raise UnknownFunction(function)
        return fn

    @property
    def n_roles(self) -> int:
        return len(self.layout.roles)

    @property
    def n_data(self) -> int:
        return len(self.layout.data)

    @property
    def n_maps(self) -> int:
        return len(self.layout.maps)


_NUMERIC = "num"
_ADDRESS = "addr"
_MAPPING = "map"


def _err(rule: str, msg: str, node) -> ValidationError:
    pos = getattr(node, "pos", A.Pos(0, 0))
    return ValidationError(rule, msg, pos.line, pos.col)


def _bound(ref: A.Name, account: ir.RAddrLit | None) -> ir.RAddrLit:
    """The account a contract reference's `new` binds."""
    if account is None:
        raise _err("unbound-contract-ref", f"{ref.ident} is never bound by `new`", ref)
    return account


class _ContractInfo:
    def __init__(self, index: int, decl: A.ContractDecl):
        self.index = index
        self.decl = decl
        # State variable -> (kind, what a use lowers to): RRole, RData, a map index,
        # or for kind "ref:<Contract>" the RAddrLit its `new` binds (None until then).
        self.scope: dict[str, tuple[str, object]] = {}
        self.functions: dict[str, A.FunctionDecl] = {}


class _Validator:
    def __init__(self, unit: A.SourceUnit):
        self.unit = unit
        self.contracts: list[_ContractInfo] = []
        self.by_name: dict[str, _ContractInfo] = {}
        self.roles: list[str] = []
        self.data: list[str] = []
        self.maps: list[str] = []

    def run(self) -> ContractBundle:
        self._collect()
        self._bind_instances()
        all_functions: dict[tuple[int, str], ir.IRFunction] = {}
        for info in self.contracts:
            fns = [info.decl.constructor, *info.decl.functions]
            for fn in fns:
                lowered = _FunctionLowering(self, info, fn).run()
                all_functions[(info.index, lowered.name)] = lowered
        root = self.contracts[0]
        tx_order = ("constructor", *(f.name for f in root.decl.functions))
        return ContractBundle(
            unit=self.unit,
            layout=VariableLayout(tuple(self.roles), tuple(self.data), tuple(self.maps)),
            all_functions=all_functions,
            contract_accounts=tuple(ROOT_ACCOUNT + i for i in range(len(self.contracts))),
            tx_order=tx_order,
        )

    def _collect(self) -> None:
        qualify = len(self.unit.contracts) > 1
        for idx, decl in enumerate(self.unit.contracts):
            if decl.name in self.by_name:
                raise _err("duplicate-contract", f"contract {decl.name} declared twice", decl)
            info = _ContractInfo(idx, decl)
            self.contracts.append(info)
            self.by_name[decl.name] = info
        names = {c.name for c in self.unit.contracts}
        for info in self.contracts:
            for var in info.decl.state_vars:
                if var.name in info.scope:
                    raise _err("duplicate-variable", f"state variable {var.name} redeclared", var)
                label = f"{info.decl.name}.{var.name}" if qualify else var.name
                kind = var.typ.kind
                if kind == "address":
                    info.scope[var.name] = _ADDRESS, ir.RRole(len(self.roles))
                    self.roles.append(label)
                elif kind in ("uint", "bool"):
                    info.scope[var.name] = _NUMERIC, ir.RData(len(self.data))
                    self.data.append(label)
                elif kind == "mapping":
                    info.scope[var.name] = _MAPPING, len(self.maps)
                    self.maps.append(label)
                else:  # contract reference
                    if var.typ.contract not in names:
                        raise _err("unknown-contract",
                                   f"unknown contract type {var.typ.contract}", var)
                    info.scope[var.name] = f"ref:{var.typ.contract}", None
            for fn in info.decl.functions:
                if fn.name in info.functions or fn.name == "constructor":
                    raise _err("duplicate-function", f"function {fn.name} redeclared", fn)
                info.functions[fn.name] = fn
            info.functions["constructor"] = info.decl.constructor

    def _bind_instances(self) -> None:
        """Resolve `new` sites: each non-root contract instantiated exactly once."""
        instantiated: set[str] = set()
        for info in self.contracts:
            for fn in [info.decl.constructor, *info.decl.functions]:
                for node in A.walk(fn):
                    if not isinstance(node, A.NewAssign):
                        continue
                    if not fn.is_constructor:
                        raise _err("new-in-constructor-only",
                                   "`new` must only appear in constructors", node)
                    if node.contract not in self.by_name:
                        raise _err("unknown-contract",
                                   f"unknown contract {node.contract}", node)
                    if self.by_name[node.contract].index == 0:
                        raise _err("no-new-root",
                                   "the root contract cannot be instantiated", node)
                    if not isinstance(node.target, A.Name):
                        raise _err("new-target-variable",
                                   "`new` must assign to a contract-reference variable", node)
                    tgt = node.target.ident
                    kind, _ = info.scope.get(tgt, ("", None))
                    if not kind.startswith("ref:"):
                        raise _err("new-target-variable",
                                   f"{tgt} is not a contract-reference state variable", node)
                    if kind != f"ref:{node.contract}":
                        raise _err("type-mismatch", f"{tgt} holds {kind[4:]}, not {node.contract}",
                                   node)
                    if node.contract in instantiated:
                        raise _err("new-exactly-once",
                                   f"{node.contract} instantiated more than once", node)
                    instantiated.add(node.contract)
                    account = ROOT_ACCOUNT + self.by_name[node.contract].index
                    info.scope[tgt] = kind, ir.RAddrLit(account)
        for info in self.contracts[1:]:
            if info.decl.name not in instantiated:
                raise _err("new-exactly-once",
                           f"contract {info.decl.name} is never instantiated", info.decl)


class _FunctionLowering:
    """Type checks a single function body and lowers it to IR."""

    def __init__(self, v: _Validator, info: _ContractInfo, fn: A.FunctionDecl):
        self.v = v
        self.info = info
        self.fn = fn
        self.this = ir.RAddrLit(ROOT_ACCOUNT + info.index)
        # The contract's scope with parameters (RClient, RArg) and locals
        # (RLocal) laid over it; `own` holds the names the function declares.
        self.scope = dict(info.scope)
        self.own: set[str] = set()
        self.n_locals = 0

    def _claim(self, decl: A.Param | A.VarDecl, what: str = "") -> None:
        if decl.name in self.own:
            raise _err("duplicate-variable", f"{what}{decl.name} redeclared", decl)
        self.own.add(decl.name)

    def run(self) -> ir.IRFunction:
        n_clients, n_args = 1, 0  # slot 0 is msg.sender
        for p in self.fn.params:
            self._claim(p, "parameter ")
            if p.typ.kind == "address":
                self.scope[p.name] = _ADDRESS, ir.RClient(n_clients)
                n_clients += 1
            elif p.typ.kind in ("uint", "bool"):
                self.scope[p.name] = _NUMERIC, ir.RArg(n_args)
                n_args += 1
            else:
                raise _err("bad-param-type",
                           "parameters must be address or numeric", p)
        body = self._stmts(self.fn.body)
        return ir.IRFunction(
            name=self.fn.name,
            n_clients=n_clients,
            n_args=n_args,
            n_locals=self.n_locals,
            body=body,
        )

    # -- expression lowering; returns (kind, ir_expr) -------------------

    def _expr(self, e: A.Expr) -> tuple[str, object]:
        if isinstance(e, A.IntLit):
            return _NUMERIC, ir.RNum(e.value)
        if isinstance(e, A.BoolLit):
            return _NUMERIC, ir.RNum(1 if e.value else 0)
        if isinstance(e, A.AddressLit):
            return _ADDRESS, ir.RAddrLit(e.value)
        if isinstance(e, A.This):
            return _ADDRESS, self.this
        if isinstance(e, A.MsgSender):
            return _ADDRESS, ir.RClient(0)
        if isinstance(e, A.Name):
            return self._name(e)
        if isinstance(e, A.Not):
            kind, op = self._expr(e.operand)
            if kind != _NUMERIC:
                raise _err("type-mismatch", "'!' needs a numeric operand", e)
            return _NUMERIC, ir.RNot(op)
        if isinstance(e, A.AddressCast):
            return self._cast(e)
        if isinstance(e, A.Index):
            return _NUMERIC, ir.RMapRead(*self._cell(e))
        if isinstance(e, A.Binary):
            return self._binary(e)
        if isinstance(e, (A.Call, A.MemberCall)):
            raise _err("void-in-expression", "calls return nothing and cannot be used as values", e)
        raise _err("internal", f"unhandled expression {type(e).__name__}", e)

    def _name(self, e: A.Name) -> tuple[str, object]:
        entry = self.scope.get(e.ident)
        if entry is None:
            raise _err("unknown-variable", f"unknown variable {e.ident}", e)
        return entry

    def _cast(self, e: A.AddressCast) -> tuple[str, object]:
        kind, inner = self._expr(e.operand)
        if kind == _ADDRESS:
            return _ADDRESS, inner
        if kind.startswith("ref:"):
            return _ADDRESS, _bound(e.operand, inner)
        raise _err("no-numeric-cast", "numeric values cannot be cast to address", e)

    def _cell(self, e: A.Index) -> tuple[int, object]:
        """The map index and the lowered key of a mapping cell."""
        if not isinstance(e.base, A.Name):
            raise _err("map-single-dim", "only one-dimensional mappings exist", e)
        kind, base = self._expr(e.base)
        if kind != _MAPPING:
            raise _err("not-a-mapping", f"{e.base.ident} is not a mapping", e)
        kkind, key = self._expr(e.key)
        if kkind != _ADDRESS:
            raise _err("map-key-address", "mapping keys must be addresses", e)
        return base, key

    def _binary(self, e: A.Binary) -> tuple[str, object]:
        lk, left = self._expr(e.left)
        rk, right = self._expr(e.right)
        if e.op in ("+", "-", "*", "/"):
            if lk == _ADDRESS or rk == _ADDRESS:
                raise _err("no-address-arith", "addresses do not support arithmetic", e)
            if lk != _NUMERIC or rk != _NUMERIC:
                raise _err("type-mismatch", f"'{e.op}' needs numeric operands", e)
            return _NUMERIC, ir.RBin(e.op, left, right)
        if e.op in ("<", ">"):
            if lk == _ADDRESS or rk == _ADDRESS:
                raise _err("no-address-order", "addresses only compare with == and !=", e)
            if lk != _NUMERIC or rk != _NUMERIC:
                raise _err("type-mismatch", f"'{e.op}' needs numeric operands", e)
            return _NUMERIC, ir.RBin(e.op, left, right)
        if e.op in ("==", "!="):
            if lk == _ADDRESS and rk == _ADDRESS:
                return _NUMERIC, ir.RBin(e.op, left, right, address_compare=True)
            if lk == _NUMERIC and rk == _NUMERIC:
                return _NUMERIC, ir.RBin(e.op, left, right)
            raise _err("type-mismatch", "cannot compare address with numeric", e)
        if e.op in ("&&", "||"):
            if lk != _NUMERIC or rk != _NUMERIC:
                raise _err("type-mismatch", f"'{e.op}' needs boolean operands", e)
            return _NUMERIC, ir.RBin(e.op, left, right)
        raise _err("internal", f"unhandled operator {e.op}", e)

    # -- statements ------------------------------------------------------

    def _stmts(self, stmts: tuple[A.Stmt, ...]) -> tuple:
        return tuple(self._stmt(s) for s in stmts)

    def _stmt(self, s: A.Stmt):
        if isinstance(s, A.VarDecl):
            self._claim(s)
            k = s.typ.kind
            if k == "mapping":
                raise _err("no-local-mapping", "mappings must be state variables", s)
            if k == "contract" or k not in ("uint", "bool", "address"):
                raise _err("no-local-contract-ref",
                           "contract references must be state variables", s)
            kind = _ADDRESS if k == "address" else _NUMERIC
            slot, self.n_locals = self.n_locals, self.n_locals + 1
            self.scope[s.name] = kind, ir.RLocal(slot, kind == _ADDRESS)
            return ir.SLocal(slot, ir.RNum(0))  # zero-initialized
        if isinstance(s, A.Require):
            return ir.SRequire(self._cond(s, "require"))
        if isinstance(s, A.Assert):
            return ir.SAssert(self._cond(s, "assert"))
        if isinstance(s, A.Return):
            return ir.SReturn()
        if isinstance(s, A.If):
            return ir.SIf(self._cond(s, "if"), self._stmts(s.body))
        if isinstance(s, A.While):
            return ir.SWhile(self._cond(s, "while"), self._stmts(s.body))
        if isinstance(s, A.Assign):
            return self._assign(s)
        if isinstance(s, A.NewAssign):
            return self._new(s)
        if isinstance(s, A.ExprStmt):
            return self._call_stmt(s)
        raise _err("internal", f"unhandled statement {type(s).__name__}", s)

    def _cond(self, s, what: str):
        kind, c = self._expr(s.cond)
        if kind != _NUMERIC:
            raise _err("type-mismatch", f"{what} needs a boolean condition", s)
        return c

    def _assign(self, s: A.Assign):
        if isinstance(s.target, A.Index):
            cell = self._cell(s.target)
            vk, value = self._expr(s.value)
            if vk != _NUMERIC:
                raise _err("type-mismatch", "mapping cells hold numeric values", s)
            return ir.SMapWrite(*cell, value)
        if not isinstance(s.target, A.Name):
            raise _err("bad-assign-target", "cannot assign to this expression", s)
        name = s.target.ident
        vk, value = self._expr(s.value)
        kind, place = self.scope.get(name, (None, None))
        if isinstance(place, ir.RLocal):
            if kind != vk:
                rule = "no-numeric-cast" if kind == _ADDRESS and vk == _NUMERIC else "type-mismatch"
                raise _err(rule, f"cannot assign {vk} to {kind} variable {name}", s)
            return ir.SLocal(place.slot, value)
        if isinstance(place, (ir.RClient, ir.RArg)):
            raise _err("assign-to-param", f"parameter {name} is read-only", s)
        if kind is None:
            raise _err("unknown-variable", f"unknown variable {name}", s)
        if isinstance(place, ir.RRole):
            if vk != _ADDRESS:
                raise _err("no-numeric-cast", f"cannot store numeric into address {name}", s)
            return ir.SRole(place.index, value)
        if isinstance(place, ir.RData):
            if vk != _NUMERIC:
                raise _err("type-mismatch", f"cannot store address into numeric {name}", s)
            return ir.SData(place.index, value)
        if kind == _MAPPING:
            raise _err("no-map-assign", "mappings are written per key", s)
        raise _err("type-mismatch", "contract references are bound with `new`", s)

    def _lower_call(self, callee_info: _ContractInfo, fname: str,
                    args: tuple[A.Expr, ...], node, sender):
        fn = callee_info.functions.get(fname)
        if fn is None or (fn.is_constructor and fname != "constructor"):
            raise _err("unknown-function",
                       f"{callee_info.decl.name} has no function {fname}", node)
        if len(args) != len(fn.params):
            raise _err("arity-mismatch",
                       f"{fname} takes {len(fn.params)} arguments, got {len(args)}", node)
        client_exprs, arg_exprs = [sender], []
        for p, a in zip(fn.params, args):
            kind, lowered = self._expr(a)
            if p.typ.kind == "address":
                if kind != _ADDRESS:
                    raise _err("type-mismatch", f"argument {p.name} must be an address", node)
                client_exprs.append(lowered)
            else:
                if kind != _NUMERIC:
                    raise _err("type-mismatch", f"argument {p.name} must be numeric", node)
                arg_exprs.append(lowered)
        return ir.SCall((callee_info.index, fname), tuple(client_exprs), tuple(arg_exprs))

    def _new(self, s: A.NewAssign):
        # Binding was resolved in _bind_instances; runtime effect is the
        # callee constructor body with the creator's account as sender.
        target = self.v.by_name[s.contract]
        return self._lower_call(target, "constructor", s.callargs, s, self.this)

    def _call_stmt(self, s: A.ExprStmt):
        e = s.expr
        if isinstance(e, A.Call):
            # Internal call on the same contract: msg.sender is unchanged.
            return self._lower_call(self.info, e.func, e.callargs, s, ir.RClient(0))
        if isinstance(e, A.MemberCall):
            kind, account = self._expr(e.target)
            if not kind.startswith("ref:"):
                raise _err("type-mismatch", "only contract references can be called", s)
            callee = self.v.contracts[_bound(e.target, account).value - ROOT_ACCOUNT]
            return self._lower_call(callee, e.func, e.callargs, s, self.this)
        raise _err("bad-statement", "only calls may be used as statements", s)


def validate(unit: A.SourceUnit) -> ContractBundle:
    """Validate an AST and lower it; raises ValidationError with a rule id."""
    return _Validator(unit).run()
