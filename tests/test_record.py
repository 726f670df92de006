from fractions import Fraction

import pytest

from braidsigma.characters import Character, delta_value
from braidsigma.chargraph import build_kchi
from braidsigma.circles import CircleId
from braidsigma.classify import DisjointTriple, ZeroSum, classify
from braidsigma.record import Record
from conftest import replaced


class Point(Record):
    def __init__(self, x, y):
        d = self.__dict__
        d["x"] = x
        d["y"] = y


class Marked(Point):
    pass


class Box(Record):
    def __init__(self, width, height, depth):
        d = self.__dict__
        d["width"] = width
        d["height"] = height
        d["depth"] = depth
        d["volume"] = width * height * depth  # derived, not a field


class TestRecord:
    def test_fields_are_the_constructor_parameters(self):
        assert Box._fields == ("width", "height", "depth")
        box = Box(1, 2, 3)
        assert box == Box(1, 2, 3) and hash(box) == hash(Box(1, 2, 3))
        for other in (Box(9, 2, 3), Box(1, 9, 3), Box(1, 2, 9)):
            assert box != other
        assert repr(box) == "Box(width=1, height=2, depth=3)"
        moved = replaced(box, depth=4)
        assert moved == Box(1, 2, 4) and moved.volume == 8
        assert box == Box(1, 2, 3)

    def test_a_subclass_without_a_constructor_keeps_its_parents_fields(self):
        assert Point._fields == Marked._fields == ("x", "y")
        assert Marked(1, 2) != Marked(1, 3)
        assert repr(Marked(1, 2)) == "Marked(x=1, y=2)"

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
        assert cls == replaced(cls)
        assert repr(cls) == repr(replaced(cls))

    def test_repr_names_the_fields(self):
        assert repr(CircleId("P3", (1, 2, 3))) == "CircleId(kind='P3', support=(1, 2, 3))"
        assert repr(ZeroSum(Fraction(1))) == "ZeroSum(delta=Fraction(1, 1))"

    def test_replace_builds_a_new_record(self):
        cid = CircleId("P3", (1, 2, 3))
        moved = replaced(cid, support=(2, 3, 4))
        assert moved == CircleId("P3", (2, 3, 4))
        assert cid == CircleId("P3", (1, 2, 3))
        with pytest.raises(TypeError):
            replaced(cid, size=3)

    @pytest.mark.parametrize(
        "changes",
        [{"support": (1, 1, 2)}, {"support": (True, 2, 3)}, {"kind": "P4"}],
    )
    def test_replace_checks_again(self, changes):
        with pytest.raises(ValueError):
            replaced(CircleId("P3", (1, 2, 3)), **changes)
