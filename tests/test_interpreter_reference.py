"""The generated interpreter against the tree-walking reference in
``reference_interpreter.py``: random IR bodies, and sources nested deeper
than CPython compiles in one function."""

import itertools
import json
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msolv
from msolv import cli, ir
from msolv.semantics import (Action, BundleState, ControlState, DataDomain, UserRecord,
                             explore, step)
from msolv.validator import ContractBundle, VariableLayout

import reference_interpreter as ref
from conftest import DATA

# ---------------------------------------------------------------- random IR

N_ROLES, N_DATA, N_MAPS = 2, 2, 2
NUM_LOCALS, ADDR_LOCAL = (0, 1), 2  # the loop counters take the slots after these
# Literals, roles and clients: 7 is never a user, 2 and 5 only sometimes.
ADDRESSES = (0, 1, 2, 3, 4, 5, 7)
MAX_EXPR, MAX_BLOCK = 3, 2


class _Body:
    """One random function body: typed expressions over every IR kind, calls
    only to later functions, and each ``while`` bounded by its own counter."""

    def __init__(self, rng: random.Random, n_clients: int, n_args: int, callees: list):
        self.rng, self.n_clients, self.n_args, self.callees = rng, n_clients, n_args, callees
        self.n_locals = ADDR_LOCAL + 1

    def address(self):
        kind = self.rng.choice(["client", "role", "literal", "local"])
        if kind == "client":
            return ir.RClient(self.rng.randrange(self.n_clients))
        if kind == "role":
            return ir.RRole(self.rng.randrange(N_ROLES))
        if kind == "literal":
            return ir.RAddrLit(self.rng.choice(ADDRESSES))
        return ir.RLocal(ADDR_LOCAL, True)

    def number(self, depth: int):
        kinds = ["num", "data", "local"] + ["arg"] * (self.n_args > 0)
        if depth < MAX_EXPR:
            kinds += ["map", "map", "not", "bin", "bin", "addr_cmp", "addr_cmp"]
        kind = self.rng.choice(kinds)
        if kind == "num":
            return ir.RNum(self.rng.randrange(6))
        if kind == "data":
            return ir.RData(self.rng.randrange(N_DATA))
        if kind == "local":
            return ir.RLocal(self.rng.choice(NUM_LOCALS), False)
        if kind == "arg":
            return ir.RArg(self.rng.randrange(self.n_args))
        if kind == "map":
            return ir.RMapRead(self.rng.randrange(N_MAPS), self.address())
        if kind == "not":
            return ir.RNot(self.number(depth + 1))
        if kind == "addr_cmp":
            return ir.RBin(self.rng.choice(["==", "!="]), self.address(), self.address(), True)
        op = self.rng.choice(["+", "-", "*", "/", "==", "!=", "<", ">", "&&", "||"])
        return ir.RBin(op, self.number(depth + 1), self.number(depth + 1))

    def block(self, depth: int) -> tuple:
        out = []
        for _ in range(self.rng.randint(0 if depth else 1, 4)):
            out += self.statement(depth)
        return tuple(out)

    def statement(self, depth: int) -> list:
        kinds = ["role", "data", "local", "addr_local", "map", "map", "require", "assert",
                 "return"]
        if depth < MAX_BLOCK:
            kinds += ["if", "while"]
        if self.callees:
            kinds.append("call")
        kind = self.rng.choice(kinds)
        if kind == "role":
            return [ir.SRole(self.rng.randrange(N_ROLES), self.address())]
        if kind == "data":
            return [ir.SData(self.rng.randrange(N_DATA), self.number(0))]
        if kind == "local":
            return [ir.SLocal(self.rng.choice(NUM_LOCALS), self.number(0))]
        if kind == "addr_local":
            return [ir.SLocal(ADDR_LOCAL, self.address())]
        if kind == "map":
            return [ir.SMapWrite(self.rng.randrange(N_MAPS), self.address(), self.number(0))]
        if kind in ("require", "assert"):
            return [(ir.SRequire if kind == "require" else ir.SAssert)(self.number(0))]
        if kind == "return":
            return [ir.SReturn()]
        if kind == "if":
            return [ir.SIf(self.number(0), self.block(depth + 1))]
        if kind == "while":
            counter = ir.RLocal(self.n_locals, False)
            self.n_locals += 1
            cond = ir.RBin("<", counter, ir.RNum(self.rng.randrange(4)))
            if self.rng.random() < 0.5:
                cond = ir.RBin("&&", cond, self.number(1))
            step_up = ir.SLocal(counter.slot, ir.RBin("+", counter, ir.RNum(1)))
            return [ir.SLocal(counter.slot, ir.RNum(0)),
                    ir.SWhile(cond, (step_up, *self.block(depth + 1)))]
        callee, (n_clients, n_args) = self.rng.choice(self.callees)
        return [ir.SCall(callee, tuple(self.address() for _ in range(n_clients)),
                         tuple(self.number(1) for _ in range(n_args)))]


def _random_bundle(rng: random.Random) -> ContractBundle:
    n_contracts = rng.randint(1, 2)
    n_functions = rng.randint(1, 3)
    keys = [(0, "f0")] + [(rng.randrange(n_contracts), f"f{i}") for i in range(1, n_functions)]
    sigs = [(rng.randint(1, 2), rng.randint(0, 2)) for _ in keys]
    functions = {}
    for i in reversed(range(n_functions)):
        body = _Body(rng, *sigs[i], [(keys[j], sigs[j]) for j in range(i + 1, n_functions)])
        code = body.block(0)
        functions[keys[i]] = ir.IRFunction(keys[i][1], *sigs[i], body.n_locals, code)
    unit = types.SimpleNamespace(contracts=[types.SimpleNamespace(name=f"C{i}")
                                            for i in range(n_contracts)])
    layout = VariableLayout(("r0", "r1"), ("d0", "d1"), ("m0", "m1"))
    return ContractBundle(unit=unit, layout=layout,
                          all_functions={k: functions[k] for k in keys},
                          contract_accounts=tuple(range(1, n_contracts + 1)),
                          tx_order=("f0",))


def _outcome(run):
    try:
        return run()
    except Exception as e:  # both sides must raise the same kind of error
        return type(e)


def _agree(bundle, control, ids, vectors, domains, action, domain):
    state = BundleState(control, tuple(UserRecord(a, v) for a, v in zip(ids, vectors)))
    post = _outcome(lambda: step(bundle, state, action, domain))
    expected = _outcome(lambda: ref.step(bundle, state, action, domain.limit))
    assert post == expected
    assert (post is state) == (expected is state)
    for log_uses in (False, True):
        leaves = _outcome(lambda: explore(bundle, control, ids, domains, action, domain,
                                          log_uses=log_uses))
        expected = _outcome(lambda: ref.explore(bundle, control, ids, domains, action,
                                                domain.limit, log_uses))
        assert leaves == expected
        if isinstance(leaves, list):  # each assignment lists its slots in the order they forked
            assert [list(leaf.assignment) for leaf in leaves] == [
                list(leaf.assignment) for leaf in expected]


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_generated_interpreter_matches_reference(seed):
    """``step`` and ``explore``, with and without the use log, against the
    reference on random bodies: same leaves in the same order, with the same
    assignments, outcomes, controls, writes and uses."""
    rng = random.Random(seed)
    bundle = _random_bundle(rng)
    domain = DataDomain(rng.randint(1, 2))
    values = domain.values()
    vectors = list(itertools.product(values, repeat=N_MAPS))
    # The guards are tested on their own, so the body nearly always runs:
    # users 3 and 4 are present, and the sender is usually one of them.
    ids = [0, *bundle.contract_accounts, 3, 4] + [a for a in (2, 5) if rng.random() < 0.5]
    rng.shuffle(ids)
    ids = tuple(dict.fromkeys(ids))
    control = ControlState(tuple(rng.choice(ADDRESSES) for _ in range(N_ROLES)),
                           tuple(rng.choice(values) for _ in range(N_DATA)), 1)
    f0 = bundle.all_functions[0, "f0"]
    sender = rng.choice([3, 4, 3, 4, 3, 4, 5, 1])
    action = Action("f0", (sender, *(rng.choice(ADDRESSES) for _ in range(f0.n_clients - 1))),
                    tuple(rng.choice(values) for _ in range(f0.n_args)))
    _agree(bundle, control, ids, [rng.choice(vectors) for _ in ids],
           [tuple(sorted(rng.sample(vectors, rng.randint(2, 3)))) for _ in ids],
           action, domain)


# ---------------------------------------------------------------- deep nesting

_HEAD = "contract C { uint x; mapping(address => uint) m; constructor() public {} "
DEEP_SOURCES = {
    # 25 nested loops; the innermost returns from inside all of them
    "while-25": _HEAD + "function f(uint a) public { uint i; " + "while (i < a) { " * 25
    + "i = i + 1; m[msg.sender] = m[msg.sender] + 1; if (i == 3) { return; } "
    + "} " * 25 + "x = i; } }",
    # 120 nested ifs; the innermost writes a local and a map cell, may return
    # or revert, and calls g, whose own deep return must not end f
    "if-120": _HEAD + "function f(uint a) public { uint i; " + "if (a > 0) { if (a != 7) { " * 60
    + "i = a; m[msg.sender] = i; if (a == 5) { return; } require(a != 6); g(a); "
    + "} } " * 60 + "x = x + i; } function g(uint a) public { " + "if (a > 0) { " * 20
    + "if (a == 2) { return; } " + "} " * 20 + "x = x + 1; } }",
    # a 120-term && chain, then a 60-deep right-nested || chain
    "and-120": _HEAD + "function f(uint a) public { require("
    + " && ".join(["a < 7", "m[msg.sender] < 6", "x != 4"] * 40) + "); if ("
    + "a == 1 || (" * 59 + "a == 6" + ")" * 59 + ") { m[msg.sender] = m[msg.sender] + 1; } "
    "x = x + a; } }",
}
DEEP_TRACE = [{"tx": "constructor", "clients": [2], "args": []}] + [
    {"tx": "f", "clients": [sender], "args": [a]}
    for sender, a in ((3, 1), (3, 5), (4, 6), (4, 7), (3, 3), (4, 2), (3, 4), (4, 1), (3, 2))]


@pytest.mark.parametrize("name", sorted(DEEP_SOURCES))
def test_deep_nesting_simulates_as_before(name, tmp_path, capsys):
    """Bodies nested deeper than CPython compiles in one function run, and
    ``simulate`` prints the output in ``tests/data/deep_nesting.json``,
    recorded before the interpreter generated code."""
    src, trace = tmp_path / "deep.msol", tmp_path / "trace.json"
    src.write_text(DEEP_SOURCES[name])
    trace.write_text(json.dumps(DEEP_TRACE))
    assert cli.main(["simulate", str(src), "--trace", str(trace), "--users", "5",
                     "--width", "3"]) == 0
    recorded = json.loads((DATA / "deep_nesting.json").read_text())
    assert json.loads(capsys.readouterr().out) == recorded[name]


@pytest.mark.parametrize("name", sorted(DEEP_SOURCES))
def test_deep_nesting_matches_reference(name):
    """``explore``, whose forks start inside the generated helpers, and
    ``step`` against the reference on the deep sources."""
    bundle = msolv.load(DEEP_SOURCES[name])
    domain = DataDomain(3)
    ids = (0, 1, 2, 3, 4)
    domains = [tuple((v,) for v in domain.values())] * len(ids)
    for x in (0, 3, 4):
        control = ControlState((), (x,), 1)
        for sender in (3, 4):
            for a in domain.values():
                _agree(bundle, control, ids, [(a,)] * len(ids), domains,
                       Action("f", (sender,), (a,)), domain)
