"""Tests for the secondary BDD operations in repro.bdd.ops."""

import pytest

from repro.bdd import BDD
from repro.bdd.ops import (
    count_nodes,
    cube_minus,
    cube_union_vars,
    disjoint,
    implies,
    minterm,
)


@pytest.fixture
def bdd():
    manager = BDD()
    for name in ("a", "b", "c"):
        manager.add_var(name)
    return manager


class TestCubeHelpers:
    def test_cube_union_vars(self, bdd):
        c1 = bdd.cube(["a"])
        c2 = bdd.cube(["b", "c"])
        union = cube_union_vars(bdd, [c1, c2])
        assert set(bdd.cube_vars(union)) == {0, 1, 2}

    def test_cube_minus(self, bdd):
        cube = bdd.cube(["a", "b", "c"])
        reduced = cube_minus(bdd, cube, [bdd.var_index("b")])
        assert set(bdd.cube_vars(reduced)) == {0, 2}

    def test_minterm_positive_and_negative(self, bdd):
        f = minterm(bdd, {"a": True, "b": False})
        assert bdd.eval(f, {"a": 1, "b": 0, "c": 0}) is True
        assert bdd.eval(f, {"a": 1, "b": 1, "c": 0}) is False

    def test_minterm_accepts_indices(self, bdd):
        f = minterm(bdd, {0: True})
        assert f == bdd.var("a")


class TestPredicates:
    def test_disjoint(self, bdd):
        assert disjoint(bdd, bdd.var("a"), bdd.nvar("a"))
        assert not disjoint(bdd, bdd.var("a"), bdd.var("b"))

    def test_implies(self, bdd):
        f = bdd.and_(bdd.var("a"), bdd.var("b"))
        assert implies(bdd, f, bdd.var("a"))
        assert not implies(bdd, bdd.var("a"), f)

    def test_count_nodes(self, bdd):
        f = bdd.and_(bdd.var("a"), bdd.var("b"))
        g = bdd.or_(bdd.var("a"), bdd.var("b"))
        shared = count_nodes(bdd, [f, g])
        assert shared <= bdd.size(f) + bdd.size(g)
