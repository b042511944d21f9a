"""The value classes are immutable records built on `core._Record`.

Each is built by keyword or by position, compares and hashes by its field
tuple within its own class only, prints as `Name(field=value, ...)`, and
refuses to have a field assigned or deleted.
"""

from fractions import Fraction

import pytest

from latticework.blym import DiamondProfile
from latticework.colouring import EdgeColouredGraph, LayerPairGraph
from latticework.constructions import CertificationReport, CheckResult, Diamond
from latticework.core import ComparabilityGraph, DomainError, SetFamily
from latticework.lubell import MeetProfile
from latticework.normalize import SkipReport, StepRecord
from latticework.search import SearchResult
from latticework.shadow import CascadeRep
from latticework.verify import Reproduction

FAMILY = SetFamily(2, (1, 3))

# every record class -> one valid set of its fields, in parameter order
FIELDS = {
    SetFamily: {"n": 2, "members": (1, 3)},
    ComparabilityGraph: {"family": FAMILY, "component_members": ((1, 3),)},
    MeetProfile: {"n": 2, "counts": (1, 1, 0, 0)},
    Diamond: {"bottom": 1, "top": 3},
    CheckResult: {"name": "size", "expected": 2, "actual": 2, "passed": True},
    CertificationReport: {"family_size": 2, "checks": (CheckResult("size", 2, 2, True),)},
    EdgeColouredGraph: {"n_vertices": 3, "edges": ((0, 1, 1), (1, 2, 2))},
    LayerPairGraph: {"a": SetFamily(2, (1,)), "b": SetFamily(2, (3,))},
    SkipReport: {"skip": 1, "witness_below": 0, "witness_above": 3},
    StepRecord: {"added": 1, "removed": 2},
    CascadeRep: {"k": 2, "terms": ((4, 2), (1, 1))},
    SearchResult: {"value": Fraction(4, 3), "witness": FAMILY, "nodes_explored": 7,
                   "proven_optimal": True},
    Reproduction: {"name": "r", "summary": "s", "expected": 1, "op": "la_exact", "args": (2, 1)},
    DiamondProfile: {"n": 2, "counts": ((0, 1, 1),)},
}
RECORDS = pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)


def test_every_record_class_is_listed():
    from latticework import core

    subclasses = {cls.__name__ for cls in core._Record.__subclasses__()}
    assert subclasses == {cls.__name__ for cls in FIELDS}
    assert len(FIELDS) == 14


@RECORDS
def test_keyword_and_positional_construction_agree(cls):
    fields = FIELDS[cls]
    by_keyword, by_position = cls(**fields), cls(*fields.values())
    assert cls._fields == tuple(fields)
    for name, value in fields.items():
        assert getattr(by_keyword, name) is value
        assert getattr(by_position, name) is value
    assert by_keyword == by_position
    assert not by_keyword != by_position
    assert hash(by_keyword) == hash(by_position) == hash(tuple(fields.values()))


def test_defaults():
    assert CertificationReport(2).checks == ()
    assert CertificationReport(family_size=2) == CertificationReport(2, ())


def test_a_differing_field_makes_records_unequal():
    assert SetFamily(2, (1, 3)) != SetFamily(2, (1, 2))
    assert SetFamily(2, (1, 3)) != SetFamily(3, (1, 3))
    assert StepRecord(1, 2) != StepRecord(2, 1)
    assert len({StepRecord(1, 2), StepRecord(1, 2), StepRecord(2, 1)}) == 2


def test_records_of_different_classes_are_unequal():
    assert SetFamily(2, (1, 3)) != MeetProfile(2, (1, 3))
    assert Diamond(1, 3) != StepRecord(1, 3)
    assert StepRecord(1, 3) != Diamond(1, 3)
    assert SetFamily(2, (1, 3)) != (2, (1, 3))
    assert Diamond(1, 3).__eq__(StepRecord(1, 3)) is NotImplemented


def test_repr():
    assert repr(SetFamily(n=2, members=(1, 3))) == "SetFamily(n=2, members=(1, 3))"
    assert repr(StepRecord(added=1, removed=2)) == "StepRecord(added=1, removed=2)"
    result = SearchResult(Fraction(4, 3), FAMILY, 7, True)
    assert repr(result) == (
        "SearchResult(value=Fraction(4, 3), witness=SetFamily(n=2, members=(1, 3)),"
        " nodes_explored=7, proven_optimal=True)"
    )


@RECORDS
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = cls(**FIELDS[cls])
    for name in (*FIELDS[cls], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert all(getattr(record, name) is value for name, value in FIELDS[cls].items())


def test_cached_properties_still_fill_in():
    family = SetFamily(2, (1, 3))
    assert 3 in family and family.member_set == {1, 3}
    graph = ComparabilityGraph(family, ((1, 3),))
    assert graph.component_orders == (2,) and graph.component_sizes == (1,)
    # the cached values do not take part in equality
    assert family == SetFamily(2, (1, 3)) and graph == ComparabilityGraph(family, ((1, 3),))


@pytest.mark.parametrize("build", [
    lambda: SetFamily(2, (3, 1)),
    lambda: SetFamily(2, (1, 1)),
    lambda: SetFamily(2, (4,)),
    lambda: SetFamily(0, ()),
    lambda: SetFamily(n=64, members=()),
    lambda: Diamond(1, 2),
    lambda: Diamond(bottom=3, top=1),
])
def test_invalid_fields_raise_domain_error(build):
    with pytest.raises(DomainError):
        build()


def test_a_new_record_takes_its_fields_from_its_init():
    import gc

    from latticework.core import _Record

    class Point(_Record):
        def __init__(self, x: int, y: int, label: str = "p"):
            local = (x, y)  # a local variable is not a field
            object.__setattr__(self, "x", local[0])
            object.__setattr__(self, "y", y)
            object.__setattr__(self, "label", label)

    code = Point.__init__.__code__
    assert Point._fields == ("x", "y", "label") == code.co_varnames[1:code.co_argcount]
    assert repr(Point(1, 2)) == f"{Point.__qualname__}(x=1, y=2, label='p')"
    assert Point(1, 2) == Point(x=1, y=2, label="p")
    assert Point(1, 2) != Point(1, 2, "q") and Point(1, 2) != Point(2, 1)
    assert hash(Point(1, 2)) == hash((1, 2, "p"))
    assert len({Point(1, 2), Point(1, 2), Point(1, 2, "q")}) == 2
    # leave `_Record.__subclasses__()` as the FIELDS table lists it
    del Point
    gc.collect()
    assert {cls.__name__ for cls in _Record.__subclasses__()} == {cls.__name__ for cls in FIELDS}
