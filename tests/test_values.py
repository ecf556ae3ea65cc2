"""Value semantics of the public record types, of ``IntegerMatrix`` and of
``FiberEnumeration`` (a reference in conftest on the same base class).

Each is a tuple subtype of the fields it names in ``_fields``: immutable,
compared and hashed by every field, equal and ordered only against its
own class, printed as ``Name(field=value, ...)`` (``IntegerMatrix`` keeps
its own form) and round-tripped by pickle and copy.
"""

import copy
import importlib
import pickle
import pkgutil

import pytest

import galerobust
from galerobust import (
    Binomial,
    Bouquet,
    Cone2D,
    GaleConfiguration,
    HilbertBasisSet,
    IntegerMatrix,
    ReducedGaleConfiguration,
    gale_transform,
    is_strongly_robust,
)
from galerobust._value import _Value
from galerobust.planar import convex_hull

from conftest import (
    EXAMPLE_A,
    EXAMPLE_GALE_ROWS,
    TWISTED_CUBIC,
    FiberEnumeration,
    binomial_from_gale,
    binomial_from_vector,
    enumerate_fiber,
)

# name -> (build, build with at least one field changed); each call
# builds a new object.
CASES = {
    "GaleConfiguration": (
        lambda: gale_transform(IntegerMatrix(EXAMPLE_A)),
        lambda: gale_transform(IntegerMatrix(TWISTED_CUBIC)),
    ),
    "ReducedGaleConfiguration": (
        lambda: ReducedGaleConfiguration(((0, 1), (-1, 0), (1, -1))),
        lambda: ReducedGaleConfiguration(((0, 1), (1, -1), (-1, 0))),
    ),
    "Bouquet": (
        lambda: Bouquet(frozenset({0, 2}), (1, 0), True),
        lambda: Bouquet(frozenset({0, 2}), (1, 0), False),
    ),
    "IntegerMatrix": (
        lambda: IntegerMatrix([[1, 2], [3, 4]]),
        lambda: IntegerMatrix([[1, 2], [3, 5]]),
    ),
    "Cone2D": (
        lambda: Cone2D((1, 0), (1, 2)),
        lambda: Cone2D((1, 0), (0, 1)),
    ),
    "HilbertBasisSet": (
        lambda: HilbertBasisSet(
            ((1, 0), (1, 1), (1, 2)),
            (((1, 0), (0,)), ((1, 1), (0,)), ((1, 2), (0,))),
            (Cone2D((1, 0), (1, 2)),),
        ),
        lambda: HilbertBasisSet(
            ((1, 0), (1, 2)),
            (((1, 0), (0,)), ((1, 1), (0,)), ((1, 2), (0,))),
            (Cone2D((1, 0), (1, 2)),),
        ),
    ),
    "Binomial": (
        lambda: Binomial((1, 0, 2), (0, 3, 0)),
        lambda: Binomial((1, 0, 1), (0, 3, 0)),
    ),
    "FiberEnumeration": (
        lambda: FiberEnumeration((1, 1, 0), frozenset({(1, 1, 0), (0, 0, 1)})),
        lambda: FiberEnumeration((1, 1, 0), frozenset({(1, 1, 0)})),
    ),
    "RobustnessReport": (
        lambda: is_strongly_robust(IntegerMatrix(EXAMPLE_A)),
        lambda: is_strongly_robust(IntegerMatrix(TWISTED_CUBIC)),
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_equal_fields_give_equal_objects(case):
    build, build_other = case
    a, b = build(), build()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != build_other()
    assert a != tuple(getattr(a, name) for name in a._fields)


def test_every_stored_field_is_compared(case):
    build, build_other = case
    obj, other = build(), build_other()
    fields = [getattr(obj, name) for name in obj._fields]
    swapped = []
    for k, name in enumerate(obj._fields):
        if getattr(other, name) != fields[k]:
            # Only field k differs from obj.
            moved = type(obj)._trusted(*fields[:k], getattr(other, name), *fields[k + 1:])
            assert moved != obj, name
            swapped.append(name)
    assert swapped


def test_fields_are_read_only(case):
    obj = case[0]()
    for name in obj._fields:
        value = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is value
    with pytest.raises(AttributeError):
        obj.extra = 1


def _value_classes():
    """Every subclass of ``_Value``, recursively, once every module is loaded
    (but ``__main__``, which would run the command line)."""
    for module in pkgutil.iter_modules(galerobust.__path__):
        if module.name != "__main__":
            importlib.import_module(f"galerobust.{module.name}")
    found, todo = [], [_Value]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.append(sub)
            todo.append(sub)
    return found


def test_every_value_class_keeps_the_one_base_contract():
    classes = _value_classes()
    assert {cls.__qualname__ for cls in classes} >= set(CASES)
    for cls in classes:
        assert cls.__dict__["__slots__"] == (), cls
        assert cls._fields, cls
        if len(cls._fields) >= 2:
            # In C: a Python-level __hash__ costs a frame per set insert.
            assert cls.__hash__ is tuple.__hash__, cls


def test_a_value_is_not_the_tuple_of_its_fields(case):
    obj = case[0]()
    t = tuple(obj)
    assert len(t) == len(obj._fields)
    assert (obj == t) is False and (t == obj) is False
    for compare in (lambda: obj < t, lambda: t < obj):
        with pytest.raises(TypeError):
            compare()


def test_repr():
    assert repr(Binomial((1, 0, 2), (0, 3, 0))) == "Binomial(plus=(1, 0, 2), minus=(0, 3, 0))"
    assert repr(Cone2D((1, 0), (1, 2))) == "Cone2D(a=(1, 0), b=(1, 2))"
    assert repr(IntegerMatrix([[1, 2], [3, 4]])) == "IntegerMatrix([1 2; 3 4])"


def test_integer_matrix_hashes_as_its_rows():
    # So sets and dicts of matrices keep the order they had before.
    assert hash(IntegerMatrix([[1, 2], [3, 4]])) == hash(((1, 2), (3, 4)))


def test_fields_by_position_or_name():
    members, direction = frozenset({0, 2}), (1, 0)
    q = Bouquet(members, direction, True)
    assert (q.members, q.direction, q.mixed) == (members, direction, True)
    assert q == Bouquet(members, direction=direction, mixed=True)
    assert q == Bouquet(mixed=True, direction=direction, members=members)
    for build in (
        lambda: Bouquet(members, direction),
        lambda: Bouquet(members=members, mixed=True),
        lambda: Bouquet(members, direction, True, 0),
        lambda: Bouquet(members, direction, colour=True),
        lambda: Bouquet(members, direction, True, members=members),
    ):
        with pytest.raises(TypeError):
            build()


def test_binomials_sort_by_plus_then_minus():
    b1 = Binomial((1, 0, 0), (0, 0, 2))
    b2 = Binomial((1, 0, 0), (0, 1, 0))
    b3 = Binomial((2, 0, 0), (0, 0, 1))
    assert sorted([b3, b1, b2]) == [b1, b2, b3]
    assert b1 < b2 and b1 <= b2 and b2 <= b2 and b3 > b2 and b3 >= b2 and b2 >= b2
    assert not b2 < b1 and not b2 > b2
    with pytest.raises(TypeError):
        b1 < (b1.plus, b1.minus)


def test_binomial_is_a_tuple_only_to_another_binomial():
    # Hashing stays in C: a Python-level __hash__ would cost one frame per
    # set insert in is_strongly_robust.
    assert Binomial.__hash__ is tuple.__hash__
    b = Binomial((1, 0, 2), (0, 3, 0))
    t = (b.plus, b.minus)
    assert tuple(b) == t and len(b) == 2
    assert not b == t and not t == b
    assert b != t and t != b
    for compare in (lambda: b < t, lambda: t < b, lambda: b <= t, lambda: t >= b):
        with pytest.raises(TypeError):
            compare()
    assert t not in {b} and b not in {t}


def test_binomial_constructor_stores_int_tuples():
    from_lists = Binomial([1, 0], [0, 1])
    from_tuples = Binomial((1, 0), (0, 1))
    assert type(from_lists.plus) is tuple and type(from_lists.minus) is tuple
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
    assert len({from_lists, from_tuples}) == 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: Binomial([1.5, 0], [0, 1]),
        lambda: binomial_from_vector([1.5, -1]),
        lambda: binomial_from_gale(GaleConfiguration(EXAMPLE_GALE_ROWS), (1.5, 0)),
        lambda: Cone2D((1.5, 0), (0, 1)),
        lambda: GaleConfiguration(((2.5, 1), (-1, 1), (-1, -2))),
        lambda: enumerate_fiber(GaleConfiguration(EXAMPLE_GALE_ROWS), [1.5, 0, 0, 0, 0, 0]),
        lambda: convex_hull(((1.5, 0), (0, 1), (-1, 0), (0, -1))),
    ],
    ids=["Binomial", "from_vector", "binomial_from_gale", "Cone2D", "GaleConfiguration",
         "enumerate_fiber", "convex_hull"],
)
def test_constructors_refuse_non_integers(build):
    # int() would truncate 1.5 to 1 and build a different value.
    with pytest.raises(TypeError):
        build()


def test_pickle_and_copy_round_trips(case):
    obj = case[0]()
    for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(twin) is type(obj)
        assert twin == obj and hash(twin) == hash(obj)
        for name in obj._fields:
            assert getattr(twin, name) == getattr(obj, name)
