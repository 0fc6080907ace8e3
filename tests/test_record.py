"""Frozen value records: construction, equality, hashing and replace."""

from __future__ import annotations

from fractions import Fraction

import pytest

from quotientcoh import (
    ExactMatrix, ExtScalar, Subspace, TorusSpec, transverse_frame)
from quotientcoh.config import JobConfig, OutputConfig
from quotientcoh.record import FrozenRecordError, fields, record, replace


@record
class Point:
    x: int
    y: int = 0


@record
class OtherPoint:
    x: int
    y: int = 0


def test_fields_defaults_and_keywords():
    assert fields(Point) == ("x", "y") == fields(Point(1))
    assert Point(1) == Point(1, 0) == Point(x=1) == Point(y=0, x=1)
    assert repr(Point(1, 2)) == "Point(x=1, y=2)"
    assert JobConfig("lie", None).output == OutputConfig()


@pytest.mark.parametrize("args, kwargs", [
    ((), {}), ((1, 2, 3), {}), ((1,), {"x": 1}), ((1,), {"z": 2}),
])
def test_bad_arguments_raise(args, kwargs):
    with pytest.raises(TypeError):
        Point(*args, **kwargs)


def test_field_without_default_may_not_follow_one():
    with pytest.raises(TypeError, match="'y' without a default"):
        @record
        class Bad:
            x: int = 0
            y: int


def test_assigning_or_deleting_a_field_raises():
    p = Point(1, 2)
    with pytest.raises(FrozenRecordError):
        p.x = 3
    with pytest.raises(FrozenRecordError):
        del p.y
    with pytest.raises(AttributeError):
        p.z = 3
    assert p == Point(1, 2)


def test_equal_fields_give_equal_records_and_hashes():
    a = ExactMatrix.from_rows([[1, Fraction(1, 2)], [0, 3]])
    b = ExactMatrix.from_sparse(2, [{0: 1, 1: Fraction(1, 2)}, {1: 3}])
    assert a is not b and a == b and hash(a) == hash(b)
    assert ExtScalar(1, 2) == ExtScalar(Fraction(1), Fraction(2))
    assert hash(ExtScalar(1, 2)) == hash(ExtScalar(Fraction(1), 2))
    assert ExtScalar(1, 2) != ExtScalar(2, 1)
    assert len({Point(1), Point(1, 0), Point(2)}) == 2


def test_records_of_different_classes_never_compare_equal():
    class SubPoint(Point):
        pass

    assert Point(1, 2) != OtherPoint(1, 2)
    assert OtherPoint(1, 2) != Point(1, 2)
    assert Point(1, 2) != SubPoint(1, 2)
    assert Point(1, 2) != (1, 2)


def test_subspace_span_is_canonical():
    one = Subspace.span(3, [[1, 1, 0], [0, 1, 1]])
    other = Subspace.span(3, [[2, 3, 1], [1, 0, -1], [3, 3, 0]])
    assert one == other and hash(one) == hash(other)
    assert one != Subspace.span(3, [[1, 0, 0], [0, 1, 0]])


def test_post_init_normalises_and_cached_property_caches():
    s = ExtScalar(1, 2)
    # int, Fraction or pair inputs all become (numerator, denominator) pairs
    assert (Fraction(*s.rat), Fraction(*s.irr)) == (1, 2)
    assert ExtScalar(Fraction(2, 4), (6, -3)) == ExtScalar((1, 2), -2)
    assert ExtScalar(Fraction(2, 4), (6, -3)).irr == (-2, 1)
    m = ExactMatrix.from_rows([[Fraction(1, 2), 1]])
    assert (m.den, m.int_rows) == (2, (((0, 1), (1, 2)),))
    frame = transverse_frame(TorusSpec(3, ((ExtScalar(1), ExtScalar(2),
                                            ExtScalar(0)),)))
    assert frame.skeleton.complement == (1, 2)
    assert frame.skeleton.complement is frame.skeleton.complement


def test_replace_rebuilds_through_init():
    spec = TorusSpec(2, ((ExtScalar(1), ExtScalar(0)),), {1}, 2)
    moved = replace(spec, truncation=4)
    assert moved.truncation == 4 and spec.truncation == 2
    assert replace(moved, truncation=2) == spec
    assert replace(spec, invariance_coords=[1]).invariance_coords \
        == frozenset({1})
    with pytest.raises(ValueError, match="truncation must be nonnegative"):
        replace(spec, truncation=-1)
    with pytest.raises(TypeError):
        replace(spec, depth=1)
