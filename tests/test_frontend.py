import json

import pytest

import msolv
from msolv import ast_nodes as A
from msolv import ir
from msolv.errors import MicroSolSyntaxError, UnknownFunction, ValidationError
from msolv.parser import parse
from msolv.validator import validate

from conftest import read

MINIMAL = "contract C { constructor() public {} }"


def test_auction_ast_shape():
    unit = parse(read("auction.msol"))
    assert len(unit.contracts) == 1
    c = unit.contracts[0]
    assert c.name == "Auction"
    assert [f.name for f in c.functions] == ["bid", "withdraw", "stop"]
    assert c.constructor.is_constructor
    kinds = [v.typ.kind for v in c.state_vars]
    assert kinds == ["address", "uint", "bool", "mapping", "uint"]


def test_minimal_contract():
    unit = parse(MINIMAL)
    c = unit.contracts[0]
    assert c.state_vars == () and c.functions == ()
    bundle = validate(unit)
    assert bundle.layout.roles == () and bundle.layout.data == () and bundle.layout.maps == ()


def test_extended_dialect_rejected():
    # The fund example leans on payable/transfer/msg.value/block.timestamp,
    # which the core grammar does not have.
    with pytest.raises(MicroSolSyntaxError):
        parse(read("fund_extended.msol"))


def test_auction_layout(auction, auction_plain):
    assert auction.layout.roles == ("manager",)
    assert auction.layout.data == ("leadingBid", "stopped", "_sum")
    assert auction.layout.maps == ("bids",)
    # Without the sum instrumentation the data segment shrinks accordingly.
    assert auction_plain.layout.data == ("leadingBid", "stopped")


def test_multi_dimensional_mapping_rejected():
    src = ("contract C { mapping(address => uint) m; constructor() public {} "
           "function f(address a, address b) public { m[a][b] = 1; } }")
    with pytest.raises(ValidationError) as exc:
        msolv.load(src)
    assert exc.value.rule == "map-single-dim"
    assert str(exc.value) == "1:112: [map-single-dim] only one-dimensional mappings exist"


def test_layout_counts(auction):
    def counts(name):
        sig = auction.signature(name)
        return sig.clients, sig.args

    assert counts("bid") == (1, 1)
    assert counts("stop") == (1, 0)
    assert counts("withdraw") == (1, 0)
    assert counts("constructor") == (2, 0)
    with pytest.raises(UnknownFunction):
        counts("nope")


D = "contract D { constructor() public {} function g() public {} }"
E = "contract E { constructor() public {} }"
MAP = "mapping(address => uint) m;"


def _contract(decls="", ctor="", functions=""):
    return f"contract C {{ {decls} constructor() public {{ {ctor} }} {functions} }}"


def _function(decls, body, params="", extra=""):
    return _contract(decls, "", f"function f({params}) public {{ {body} }} {extra}")


def _holding_d(decls, body):
    """C binds its `D d` in the constructor; f runs ``body``."""
    return _contract(f"D d; {decls}", "d = new D();", f"function f() public {{ {body} }}") + " " + D


# One input per reachable rule and message of the validator.
@pytest.mark.parametrize("src,rule,pos,message", [
    ("contract C { uint y; address x; constructor() public {} "
     "function f() public { x = address(y+1); } }",
     "no-numeric-cast", "1:83", "numeric values cannot be cast to address"),
    ("contract D { constructor() public {} } "
     "contract C { D d; constructor() public {} "
     "function f() public { d = new D(); } }",
     "new-in-constructor-only", "1:104", "`new` must only appear in constructors"),
    ("contract C { address a; address b; constructor() public {} "
     "function f() public { require(a < b); } }",
     "no-address-order", "1:92", "addresses only compare with == and !="),
    ("contract C { address a; uint y; constructor() public {} "
     "function f() public { y = a + 1; } }",
     "no-address-arith", "1:85", "addresses do not support arithmetic"),
    ("contract C { mapping(address => uint) m; uint y; constructor() public {} "
     "function f() public { require(m[y] > 0); } }",
     "map-key-address", "1:105", "mapping keys must be addresses"),
    ("contract C { address x; constructor() public {} "
     "function f() public { x = 3; } }",
     "no-numeric-cast", "1:71", "cannot store numeric into address x"),
    ("contract C { constructor() public {} "
     "function f() public { y = 1; } }",
     "unknown-variable", "1:60", "unknown variable y"),
    ("contract C { uint y; uint y; constructor() public {} }",
     "duplicate-variable", "1:22", "state variable y redeclared"),
    ("contract C { constructor() public {} "
     "function f(uint a) public { a = 2; } }",
     "assign-to-param", "1:66", "parameter a is read-only"),
    ("contract C { uint y; constructor() public {} "
     "function f() public { require(y == msg.sender); } }",
     "type-mismatch", "1:78", "cannot compare address with numeric"),
    # state variables, contracts and functions
    ("contract C { constructor() public {} } contract C { constructor() public {} }",
     "duplicate-contract", "1:40", "contract C declared twice"),
    (_contract("D d;"),
     "unknown-contract", "1:14", "unknown contract type D"),
    (_contract("", "", "function f() public {} function f() public {}"),
     "duplicate-function", "1:64", "function f redeclared"),
    # `new` and contract references
    (_contract("D d;", "d = new E();") + " " + D,
     "unknown-contract", "1:42", "unknown contract E"),
    (_contract("C c;", "c = new C();"),
     "no-new-root", "1:42", "the root contract cannot be instantiated"),
    (_contract(MAP, "m[msg.sender] = new D();") + " " + D,
     "new-target-variable", "1:65", "`new` must assign to a contract-reference variable"),
    (_contract("uint x;", "x = new D();") + " " + D,
     "new-target-variable", "1:45", "x is not a contract-reference state variable"),
    (_contract("D d;", "d = new E();") + " " + D + " " + E,
     "type-mismatch", "1:42", "d holds D, not E"),
    (_contract("D a; D b;", "a = new D(); b = new D();") + " " + D,
     "new-exactly-once", "1:60", "D instantiated more than once"),
    (_holding_d("D e;", "require(address(e) == msg.sender);"),
     "unbound-contract-ref", "1:100", "e is never bound by `new`"),
    (_holding_d("D e;", "e.g();"),
     "unbound-contract-ref", "1:84", "e is never bound by `new`"),
    (_holding_d("", "uint l; l = d;"),
     "type-mismatch", "1:88", "cannot assign ref:D to num variable l"),
    (_holding_d("", "d = msg.sender;"),
     "type-mismatch", "1:80", "contract references are bound with `new`"),
    (_holding_d("", "d.h();"),
     "unknown-function", "1:80", "D has no function h"),
    (_contract("D d;", "d = new D(1);") + " " + D,
     "arity-mismatch", "1:42", "constructor takes 0 arguments, got 1"),
    # parameters and locals
    (_function("", "", "uint a, address a"),
     "duplicate-variable", "1:60", "parameter a redeclared"),
    (_function("", "", "mapping(address => uint) m"),
     "bad-param-type", "1:52", "parameters must be address or numeric"),
    (_function("", "", "D d"),
     "bad-param-type", "1:52", "parameters must be address or numeric"),
    (_function("", "uint a; uint a;"),
     "duplicate-variable", "1:71", "a redeclared"),
    (_function("", "uint a;", "uint a"),
     "duplicate-variable", "1:69", "a redeclared"),
    (_function("", "mapping(address => uint) l;"),
     "no-local-mapping", "1:63", "mappings must be state variables"),
    (_function("", "D l;"),
     "no-local-contract-ref", "1:63", "contract references must be state variables"),
    # expressions
    (_function("uint x;", "x = g();", extra="function g() public {}"),
     "void-in-expression", "1:74", "calls return nothing and cannot be used as values"),
    (_holding_d("uint x;", "x = d.g();"),  # the member name's position
     "void-in-expression", "1:93", "calls return nothing and cannot be used as values"),
    (_function("", "require(z == 1);"),
     "unknown-variable", "1:71", "unknown variable z"),
    (_function("", "require(!msg.sender);"),
     "type-mismatch", "1:71", "'!' needs a numeric operand"),
    (_function(MAP + " address a;", "a = address(m);"),
     "no-numeric-cast", "1:105", "numeric values cannot be cast to address"),
    (_function("uint x;", "require(x[msg.sender] == 1);"),
     "not-a-mapping", "1:79", "x is not a mapping"),
    (_function(MAP + " uint y;", "y = m + 1;"),
     "type-mismatch", "1:104", "'+' needs numeric operands"),
    (_function(MAP, "require(m < 1);"),
     "type-mismatch", "1:100", "'<' needs numeric operands"),
    (_function(MAP, "require(m && true);"),
     "type-mismatch", "1:100", "'&&' needs boolean operands"),
    # conditions
    (_function("", "require(msg.sender);"),
     "type-mismatch", "1:63", "require needs a boolean condition"),
    (_function("", "assert(msg.sender);"),
     "type-mismatch", "1:63", "assert needs a boolean condition"),
    (_function("", "if (msg.sender) { }"),
     "type-mismatch", "1:63", "if needs a boolean condition"),
    (_function("", "while (msg.sender) { }"),
     "type-mismatch", "1:63", "while needs a boolean condition"),
    # assignments; with the first ten inputs, every branch of _assign
    (_function(MAP, "m[1] = 2;"),
     "map-key-address", "1:91", "mapping keys must be addresses"),
    (_function("uint x;", "x[msg.sender] = 1;"),
     "not-a-mapping", "1:71", "x is not a mapping"),
    (_function(MAP, "m[msg.sender] = msg.sender;"),
     "type-mismatch", "1:90", "mapping cells hold numeric values"),
    (_function("", "msg.sender = msg.sender;"),
     "bad-assign-target", "1:63", "cannot assign to this expression"),
    (_function("", "address l; l = 1;"),
     "no-numeric-cast", "1:74", "cannot assign num to addr variable l"),
    (_function("", "uint l; l = msg.sender;"),
     "type-mismatch", "1:71", "cannot assign addr to num variable l"),
    (_function(MAP, "uint l; l = m;"),
     "type-mismatch", "1:98", "cannot assign map to num variable l"),
    (_function("", "a = msg.sender;", "address a"),
     "assign-to-param", "1:72", "parameter a is read-only"),
    (_function("uint y;", "y = msg.sender;"),
     "type-mismatch", "1:70", "cannot store address into numeric y"),
    (_function(MAP, "m = 1;"),
     "no-map-assign", "1:90", "mappings are written per key"),
    # calls
    (_function("", "g();"),
     "unknown-function", "1:63", "C has no function g"),
    (_function("", "g(1);", extra="function g() public {}"),
     "arity-mismatch", "1:63", "g takes 0 arguments, got 1"),
    (_function("", "g(1);", extra="function g(address a) public {}"),
     "type-mismatch", "1:63", "argument a must be an address"),
    (_function("", "g(msg.sender);", extra="function g(uint v) public {}"),
     "type-mismatch", "1:63", "argument v must be numeric"),
    (_function("uint x;", "x.g();"),
     "type-mismatch", "1:70", "only contract references can be called"),
])
def test_validation_rules(src, rule, pos, message):
    with pytest.raises(ValidationError) as exc:
        msolv.load(src)
    assert exc.value.rule == rule
    assert str(exc.value) == f"{pos}: [{rule}] {message}"


def test_syntax_error_carries_position():
    with pytest.raises(MicroSolSyntaxError) as exc:
        parse("contract C {\n  constructor() public { require(x <= 2); }\n}")
    assert exc.value.line == 2
    assert exc.value.expected  # expected token set is populated


def test_line_comments_allowed():
    src = "// header\ncontract C { // inline\n constructor() public {} }"
    assert parse(src).contracts[0].name == "C"


@pytest.mark.parametrize("name", ["auction.msol", "auction_plain.msol"])
def test_pretty_print_round_trip(name):
    unit = parse(read(name))
    printed = A.pretty_print(unit)
    assert parse(printed) == unit  # positions are excluded from equality


def test_validate_deterministic():
    b1 = msolv.load(read("auction.msol"))
    b2 = msolv.load(read("auction.msol"))
    assert b1.layout == b2.layout
    assert b1.tx_order == b2.tx_order


def test_ast_json_stable():
    unit = parse(read("auction.msol"))
    j1 = json.dumps(A.to_json(unit))
    j2 = json.dumps(A.to_json(parse(read("auction.msol"))))
    assert j1 == j2
    assert json.loads(j1)["kind"] == "SourceUnit"


def test_all_nodes_from_grammar(auction):
    for node in A.walk(auction.unit):
        assert isinstance(node, A.ALL_NODE_TYPES), type(node)


def test_multi_contract_bundle():
    src = read_multi()
    b = msolv.load(src)
    assert b.contract_accounts == (1, 2)
    assert b.layout.data == ("Main.total", "Sub.count")
    # Functions of the root contract form the transaction surface.
    assert b.tx_order == ("constructor", "poke")


def read_multi() -> str:
    return """
contract Main {
    Sub s;
    uint total;
    constructor() public { s = new Sub(5); }
    function poke(uint v) public { total = total + v; s.bump(v); }
}
contract Sub {
    uint count;
    constructor(uint seed) public { count = seed; }
    function bump(uint v) public { count = count + v; }
}
"""


def test_uninstantiated_contract_rejected():
    src = "contract A { constructor() public {} } contract B { constructor() public {} }"
    with pytest.raises(ValidationError) as exc:
        msolv.load(src)
    assert exc.value.rule == "new-exactly-once"
    assert str(exc.value) == "1:40: [new-exactly-once] contract B is never instantiated"


def test_address_casts_lower_to_the_address():
    # address(msg.sender) is the sender itself; address(d) is the account
    # of the contract instance d's `new` binds.
    bundle = msolv.load(_contract("D d; address a;", "d = new D(); a = address(msg.sender);",
                                  "function f() public { a = address(d); }") + " " + D)
    assert bundle.all_functions[(0, "constructor")].body == (
        ir.SCall((1, "constructor"), (ir.RAddrLit(1),), ()),
        ir.SRole(0, ir.RClient(0)),
    )
    assert bundle.all_functions[(0, "f")].body == (ir.SRole(0, ir.RAddrLit(2)),)


def test_records_compare_by_class_and_fields():
    located = A.Binary("+", A.IntLit(1, pos=A.Pos(1, 5)), A.Name("x"), pos=A.Pos(1, 7))
    plain = A.Binary("+", A.IntLit(1), A.Name("x"))
    assert located == plain and hash(located) == hash(plain)
    assert ir.RRole(0) != ir.RData(0)
    with pytest.raises(AttributeError):
        plain.op = "-"
    with pytest.raises(TypeError):
        ir.RBin("+", ir.RNum(1))
    with pytest.raises(TypeError):
        ir.RNum(1, width=8)
    bundle = validate(parse(MINIMAL))
    bundle._compiled_cache = "compiled"
    assert bundle._compiled_cache == "compiled"
    with pytest.raises(TypeError):
        hash(bundle)
