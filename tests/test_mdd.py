"""Unit tests for the multi-valued (MDD) layer."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDD, BddError, MddManager
from repro.bdd.mdd import bits_for


class TestBitsFor:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (3, 2), (4, 2),
                                            (5, 3), (8, 3), (9, 4)])
    def test_bits_for(self, n, expected):
        assert bits_for(n) == expected

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            bits_for(0)


class TestMvVar:
    def test_literal_single(self):
        m = MddManager()
        v = m.declare("color", ["red", "green", "blue"])
        lit = v.literal("green")
        assert m.bdd.sat_count(lit, v.bits) == 1

    def test_literal_set(self):
        m = MddManager()
        v = m.declare("color", ["red", "green", "blue"])
        lit = v.literal(["red", "blue"])
        assert m.bdd.sat_count(lit, v.bits) == 2

    def test_literal_unknown_value(self):
        m = MddManager()
        v = m.declare("color", ["red", "green"])
        with pytest.raises(BddError):
            v.literal("mauve")

    def test_domain_constraint_excludes_unused_codes(self):
        m = MddManager()
        v = m.declare("x", ["a", "b", "c"])  # 2 bits, one unused code
        assert m.bdd.sat_count(v.domain_constraint, v.bits) == 3

    def test_power_of_two_domain_unconstrained(self):
        m = MddManager()
        v = m.declare("x", ["a", "b", "c", "d"])
        assert v.domain_constraint == m.bdd.true

    def test_code_value_roundtrip(self):
        m = MddManager()
        v = m.declare("x", ["p", "q", "r"])
        for i, value in enumerate(["p", "q", "r"]):
            assert v.code_of(value) == i
            assert v.value_of(i) == value
        with pytest.raises(BddError):
            v.value_of(3)

    def test_duplicate_values_rejected(self):
        m = MddManager()
        with pytest.raises(BddError):
            m.declare("x", ["a", "a"])

    def test_eq_var(self):
        m = MddManager()
        a = m.declare("a", ["x", "y", "z"])
        b = m.declare("b", ["x", "y", "z"])
        eq = a.eq_var(b)
        count = m.bdd.sat_count(eq, list(a.bits) + list(b.bits))
        assert count == 3  # diagonal only (invalid codes excluded)

    def test_eq_var_domain_mismatch(self):
        m = MddManager()
        a = m.declare("a", ["x", "y"])
        b = m.declare("b", ["x", "y", "z"])
        with pytest.raises(BddError):
            a.eq_var(b)

    def test_decode(self):
        m = MddManager()
        v = m.declare("x", ["a", "b", "c"])
        assignment = m.bdd.pick_cube(v.literal("c"), v.bits)
        assert v.decode(assignment) == "c"


class TestMddManager:
    def test_declare_pair_interleaves_bits(self):
        m = MddManager()
        x, y = m.declare_pair("s", "s_next", ["a", "b", "c", "d"])
        levels_x = [m.bdd.level(b) for b in x.bits]
        levels_y = [m.bdd.level(b) for b in y.bits]
        # x bit i directly above y bit i
        for lx, ly in zip(levels_x, levels_y):
            assert ly == lx + 1

    def test_duplicate_name_rejected(self):
        m = MddManager()
        m.declare("x", ["a", "b"])
        with pytest.raises(BddError):
            m.declare("x", ["a", "b"])
        with pytest.raises(BddError):
            m.declare_pair("x", "y", ["a", "b"])

    def test_getitem_and_contains(self):
        m = MddManager()
        m.declare("x", ["a", "b"])
        assert "x" in m
        assert m["x"].name == "x"
        assert m.get("zz") is None
        with pytest.raises(BddError):
            m["zz"]

    def test_cube_covers_all_bits(self):
        m = MddManager()
        a = m.declare("a", ["p", "q", "r"])
        b = m.declare("b", ["p", "q"])
        cube = m.cube([a, b])
        assert len(m.bdd.cube_vars(cube)) == len(a.bits) + len(b.bits)

    def test_rename_map(self):
        m = MddManager()
        x, y = m.declare_pair("s", "t", ["a", "b"])
        mapping = m.rename_map([(x, y)])
        assert mapping == {x.bits[0]: y.bits[0]}

    def test_assignment_cube(self):
        m = MddManager()
        m.declare("a", ["p", "q", "r"])
        m.declare("b", ["u", "v"])
        cube = m.assignment_cube({"a": "q", "b": "v"})
        bits = list(m["a"].bits) + list(m["b"].bits)
        assert m.bdd.sat_count(cube, bits) == 1

    def test_decode_many(self):
        m = MddManager()
        m.declare("a", ["p", "q", "r"])
        m.declare("b", ["u", "v"])
        cube = m.assignment_cube({"a": "r", "b": "u"})
        assignment = m.bdd.pick_cube(cube, list(m["a"].bits) + list(m["b"].bits))
        assert m.decode(assignment, ["a", "b"]) == {"a": "r", "b": "u"}

    def test_domain_constraint_conjunction(self):
        m = MddManager()
        a = m.declare("a", ["p", "q", "r"])
        b = m.declare("b", ["u", "v", "w"])
        constraint = m.domain_constraint([a, b])
        bits = list(a.bits) + list(b.bits)
        assert m.bdd.sat_count(constraint, bits) == 9


def _or_of_cubes(var, codes):
    """The value-set literal as one ``or_`` per code cube."""
    bdd = var.bdd
    return bdd.disj(
        bdd.literal_cube((bit, (code >> i) & 1) for i, bit in enumerate(var.bits))
        for code in sorted(codes)
    )


class TestRelation:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 11), st.data())
    def test_value_sets_and_domain_match_or_of_cubes(self, n, data):
        m = MddManager()
        m.declare("pad", ["a", "b", "c"])
        v = m.declare("x", [f"v{i}" for i in range(n)])
        chosen = data.draw(st.sets(st.sampled_from(v.values), min_size=1))
        codes = [v.code_of(value) for value in chosen]
        assert v.domain_constraint == _or_of_cubes(v, range(n))
        assert v.literal(chosen) == _or_of_cubes(v, codes)
        m.bdd.reorder_now()
        assert v.domain_constraint == _or_of_cubes(v, range(n))
        assert v.literal(chosen) == _or_of_cubes(v, codes)

    def test_rows_are_a_union_of_boxes(self):
        m = MddManager()
        a = m.declare("a", ["p", "q", "r"])
        b = m.declare("b", ["u", "v", "w", "x", "y"])
        rows = [(a.mask(["p"]), b.all_codes), (a.mask(["q", "r"]), b.mask(["w"]))]
        f = m.relation([a, b], rows)
        bdd = m.bdd
        for x, y in itertools.product(a.values, b.values):
            point = bdd.and_(a.literal(x), b.literal(y))
            expected = x == "p" or (x in "qr" and y == "w")
            assert (bdd.and_(f, point) != bdd.false) == expected
        assert bdd.sat_count(f, list(a.bits) + list(b.bits)) == 5 + 2

    def test_repeated_column_intersects(self):
        m = MddManager()
        a = m.declare("a", ["p", "q", "r"])
        f = m.relation([a, a], [(a.mask(["p", "q"]), a.mask(["q", "r"]))])
        assert f == a.literal("q")
        assert m.relation([a, a], [(a.mask(["p"]), a.mask(["r"]))]) == m.bdd.false

    def test_no_rows_and_no_columns(self):
        m = MddManager()
        a = m.declare("a", ["p", "q", "r"])
        assert m.relation([a], []) == m.bdd.false
        assert m.relation([], [()]) == m.bdd.true
        assert m.relation([a], [(a.all_codes,)]) == a.domain_constraint
