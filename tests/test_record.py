from fractions import Fraction

import pytest

from braidsigma.characters import Character, delta_value
from braidsigma.chargraph import build_kchi
from braidsigma.circles import CircleId
from braidsigma.classify import DisjointTriple, ZeroSum, classify
from braidsigma.record import Record


class Point(Record):
    _fields = ("x", "y")

    def __init__(self, x, y):
        d = self.__dict__
        d["x"] = x
        d["y"] = y


class Marked(Point):
    pass


class TestRecord:
    def test_fields_cannot_be_assigned_or_deleted(self):
        cid = CircleId("P3", (1, 2, 3))
        with pytest.raises(AttributeError):
            cid.kind = "P4"
        with pytest.raises(AttributeError):
            cid.other = 1
        with pytest.raises(AttributeError):
            del cid.support
        assert cid == CircleId("P3", (1, 2, 3))

    def test_equal_records_compare_and_hash_equal(self):
        a, b = CircleId("P4", (1, 2, 3, 5)), CircleId("P4", (1, 2, 3, 5))
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a != CircleId("P4", (1, 2, 3, 6))
        assert ZeroSum(Fraction(1, 2)) == ZeroSum(Fraction(2, 4))
        assert hash(ZeroSum(Fraction(1, 2))) == hash(ZeroSum(Fraction(2, 4)))

    def test_records_of_different_classes_are_unequal(self):
        assert Point(1, 2) == Point(1, 2)
        assert Point(1, 2) != Marked(1, 2)
        assert Marked(1, 2) != Point(1, 2)
        assert ZeroSum(Fraction(3)) != DisjointTriple(Fraction(3))
        assert Point(1, 2) != (1, 2)

    def test_cached_values_take_no_part_in_equality(self):
        weights = {(1, 2): Fraction(1), (1, 3): Fraction(2), (2, 3): Fraction(-2)}
        cached, plain = Character(3, weights), Character(3, dict(weights))
        delta_value(cached)
        build_kchi(cached)
        assert "_delta" in cached.__dict__ and "_kchi" in cached.__dict__
        assert cached == plain
        cls = classify(cached)
        assert cls.perm == (1, 2, 3) and "_perm" in cls.__dict__
        assert cls == cls._replace()
        assert repr(cls) == repr(cls._replace())

    def test_repr_names_the_fields(self):
        assert repr(CircleId("P3", (1, 2, 3))) == "CircleId(kind='P3', support=(1, 2, 3))"
        assert repr(ZeroSum(Fraction(1))) == "ZeroSum(delta=Fraction(1, 1))"

    def test_replace_builds_a_new_record(self):
        cid = CircleId("P3", (1, 2, 3))
        moved = cid._replace(support=(2, 3, 4))
        assert moved == CircleId("P3", (2, 3, 4))
        assert cid == CircleId("P3", (1, 2, 3))
        with pytest.raises(TypeError):
            cid._replace(size=3)

    @pytest.mark.parametrize(
        "changes",
        [{"support": (1, 1, 2)}, {"support": (True, 2, 3)}, {"kind": "P4"}],
    )
    def test_replace_checks_again(self, changes):
        with pytest.raises(ValueError):
            CircleId("P3", (1, 2, 3))._replace(**changes)
