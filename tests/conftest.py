from __future__ import annotations

import random

import pytest

from guttstar.liealg import abelian, filiform4, heisenberg, sl2
from guttstar.sym import Seminorm


@pytest.fixture(scope="session")
def heis():
    return heisenberg()


@pytest.fixture(scope="session")
def ab3():
    return abelian(3)


@pytest.fixture(scope="session")
def sl2_algebra():
    return sl2()


@pytest.fixture(scope="session")
def fil4():
    return filiform4()


@pytest.fixture(scope="session")
def all_algebras(heis, ab3, sl2_algebra, fil4):
    return [heis, ab3, sl2_algebra, fil4]


@pytest.fixture
def rng():
    return random.Random(0)


@pytest.fixture(scope="session")
def unit_norm(heis):
    return Seminorm.ell1(heis)
