import json

import pytest

import msolv
from msolv import ast_nodes as A
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


@pytest.mark.parametrize("src,rule", [
    ("contract C { uint y; address x; constructor() public {} "
     "function f() public { x = address(y+1); } }", "no-numeric-cast"),
    ("contract D { constructor() public {} } "
     "contract C { D d; constructor() public {} "
     "function f() public { d = new D(); } }", "new-in-constructor-only"),
    ("contract C { address a; address b; constructor() public {} "
     "function f() public { require(a < b); } }", "no-address-order"),
    ("contract C { address a; uint y; constructor() public {} "
     "function f() public { y = a + 1; } }", "no-address-arith"),
    ("contract C { mapping(address => uint) m; uint y; constructor() public {} "
     "function f() public { require(m[y] > 0); } }", "map-key-address"),
    ("contract C { address x; constructor() public {} "
     "function f() public { x = 3; } }", "no-numeric-cast"),
    ("contract C { constructor() public {} "
     "function f() public { y = 1; } }", "unknown-variable"),
    ("contract C { uint y; uint y; constructor() public {} }", "duplicate-variable"),
    ("contract C { constructor() public {} "
     "function f(uint a) public { a = 2; } }", "assign-to-param"),
    ("contract C { uint y; constructor() public {} "
     "function f() public { require(y == msg.sender); } }", "type-mismatch"),
])
def test_validation_rules(src, rule):
    with pytest.raises(ValidationError) as exc:
        msolv.load(src)
    assert exc.value.rule == rule


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
