"""Record, the base of growthlab's immutable value types: every record
class constructs, compares, hashes, refuses mutation and prints as a
frozen dataclass did."""
from __future__ import annotations

from fractions import Fraction

import pytest

from growthlab import (
    BoundReport,
    ClassSpec,
    CodingWitness,
    DirectProduct,
    FinPermGroup,
    FinRelation,
    Finite,
    FlipSpec,
    Graph,
    IntSeq,
    OrbitCount,
    OrderWitness,
    SearchResult,
    WreathSomega,
)
from growthlab.cli import _Arg, _Leaf
from growthlab.record import Record
from growthlab.seq_core import KIND_BELL_LOWER, KIND_FACTORIAL_UPPER

#: one valid instance of each record class, built afresh on each call
MAKERS = {
    "_Arg": lambda: _Arg("--max-n", "max_n", int, default=8),
    "_Leaf": lambda: _Leaf("help text", _Arg("--budget-nodes", "budget_nodes"), flags=(_Arg("--k", "k"),)),
    "Graph": lambda: Graph(3, (0b010, 0b101, 0b010), (0, 1, 2)),
    "FlipSpec": lambda: FlipSpec(2, (0b10, 0b11)),
    "ClassSpec": lambda: ClassSpec("forbidden", (Graph(2, (0b10, 0b01)),)),
    "Finite": lambda: Finite(FinPermGroup(2, ((1, 0),))),
    "DirectProduct": lambda: DirectProduct((Finite(FinPermGroup(1)), Finite(FinPermGroup(2, ((1, 0),))))),
    "WreathSomega": lambda: WreathSomega(Finite(FinPermGroup(1))),
    "FinPermGroup": lambda: FinPermGroup(3, ((1, 2, 0),)),
    "OrbitCount": lambda: OrbitCount(2, (1, 1, 1), 2, 3),
    "IntSeq": lambda: IntSeq((1, 1, 2, 5)),
    "BoundReport": lambda: BoundReport(KIND_FACTORIAL_UPPER, True, (0, 10), c=Fraction(3, 5), n0=4),
    "FinRelation": lambda: FinRelation(3, 2, frozenset({(0, 1), (1, 2)})),
    "OrderWitness": lambda: OrderWitness((0, 1), (2, 3)),
    "CodingWitness": lambda: CodingWitness(((0,), (1,)), ((2,), (3,)), (4, 5, 6, 7), ((4, 5), (6, 7))),
    "SearchResult": lambda: SearchResult("found", OrderWitness((0,), (1,)), 5),
}


def fields(record) -> dict:
    """The record's field values by name, in declaration order."""
    return {name: getattr(record, name) for name in vars(type(record))["__annotations__"]}


def test_every_record_class_is_covered():
    assert {type(make()).__name__ for make in MAKERS.values()} == set(MAKERS)
    growthlab_records = {cls.__name__ for cls in Record.__subclasses__() if cls.__module__.startswith("growthlab.")}
    assert growthlab_records == set(MAKERS)


@pytest.mark.parametrize("name", MAKERS)
def test_equal_values_compare_equal_and_hash_alike(name):
    a, b = MAKERS[name](), MAKERS[name]()
    assert a is not b
    assert a == b
    assert not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", MAKERS)
def test_another_class_with_the_same_fields_is_not_equal(name):
    record = MAKERS[name]()
    values = fields(record)
    twin_class = type(name, (Record,), {"__annotations__": dict.fromkeys(values, "object")})
    twin = twin_class(**values)
    assert fields(twin) == values
    assert record != twin
    assert twin != record
    assert not record == twin


@pytest.mark.parametrize("name", MAKERS)
def test_assignment_and_deletion_raise(name):
    record = MAKERS[name]()
    first = next(iter(fields(record)))
    with pytest.raises(AttributeError):
        setattr(record, first, None)
    with pytest.raises(AttributeError):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert record == MAKERS[name]()


@pytest.mark.parametrize("name", MAKERS)
def test_keyword_construction_gives_the_same_record(name):
    record = MAKERS[name]()
    values = fields(record)
    assert type(record)(**values) == record
    assert type(record)(*values.values()) == record


@pytest.mark.parametrize("name", MAKERS)
def test_missing_or_unknown_arguments_raise_type_error(name):
    record = MAKERS[name]()
    cls = type(record)
    values = fields(record)
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(**values, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*values.values(), None)
    first = next(iter(values))
    with pytest.raises(TypeError):
        cls(*values.values(), **{first: values[first]})


def test_class_level_defaults():
    arg = _Arg("--x", "x")
    assert (arg.kind, arg.choices, arg.default, arg.required) == (str, None, None, False)
    report = BoundReport(KIND_BELL_LOWER, True, (1, 10))
    assert (report.c, report.d, report.n0, report.first_fail) == (None, None, None, None)
    assert FinPermGroup(4).generators == ()


def test_post_init_still_validates_and_normalises():
    with pytest.raises(ValueError):
        FinPermGroup(3, ((0, 0, 1),))
    with pytest.raises(ValueError):
        BoundReport(KIND_BELL_LOWER, False, (1, 10))
    # __post_init__ stores its normalised fields with object.__setattr__
    group = FinPermGroup(2, [[1, 0]])
    assert group.generators == ((1, 0),)
    assert group == FinPermGroup(2, ((1, 0),))


def test_repr_is_the_dataclass_repr():
    assert repr(MAKERS["Finite"]()) == "Finite(group=FinPermGroup(degree=2, generators=((1, 0),)))"
    assert repr(_Arg("--x", "x")) == "_Arg(spelling='--x', dest='x', kind=<class 'str'>, choices=None, default=None, required=False, help=None)"
