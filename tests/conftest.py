from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

import msolv
from msolv.properties import parse_spec
from msolv.ptg import build_ptg, taint_summary
from msolv.semantics import DataDomain

DATA = Path(__file__).parent / "data"

# The same examples on every run, and no example database in the checkout.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def read(name: str) -> str:
    return (DATA / name).read_text()


@pytest.fixture(scope="session")
def auction():
    return msolv.load(read("auction.msol"))


@pytest.fixture(scope="session")
def auction_plain():
    return msolv.load(read("auction_plain.msol"))


@pytest.fixture(scope="session")
def relay():
    return msolv.load(read("relay.msol"))


@pytest.fixture(scope="session")
def auction_ptg(auction):
    return build_ptg(taint_summary(auction))


@pytest.fixture(scope="session")
def auction_spec(auction):
    return parse_spec(read("auction.spec"), auction.layout)


@pytest.fixture(scope="session")
def p2_spec(auction):
    return parse_spec(read("p2.spec"), auction.layout)


@pytest.fixture(scope="session")
def p2_weak_spec(auction):
    return parse_spec(read("p2_weak.spec"), auction.layout)


@pytest.fixture(scope="session")
def bad_spec(auction):
    return parse_spec(read("bad.spec"), auction.layout)


@pytest.fixture
def w2():
    return DataDomain(2)


@pytest.fixture
def w3():
    return DataDomain(3)


@pytest.fixture
def w8():
    return DataDomain(8)
