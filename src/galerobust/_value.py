"""Base classes of the package's immutable value types.

Every value names its fields, in order, in ``_fields``, and compares,
prints and pickles by them.  There are two bases:

- ``_Value``, for the slotted values: a subclass lists its fields in
  ``__slots__``, which also gives ``_fields``.  Assignment raises, so this
  module alone writes fields, through each slot descriptor's ``__set__``
  (``_setters``, in slot order).  Equality and hashing go by every field;
  a single field hashes as itself.
- ``_TupleValue``, for a value built and hashed by the thousands per call
  (``Binomial``): a ``tuple`` subtype holding its fields in order.  A
  subclass lists them in ``_fields`` and keeps ``__slots__ = ()``; each
  field is a read-only ``property(itemgetter(i))``.  It hashes with
  ``tuple.__hash__``, in C, and so as the plain tuple of its fields.  It
  unpacks and has a length, but it equals and orders only another value
  of its own class: ``==`` against anything else is False, and an order
  comparison raises TypeError with the value on either side.

Values of both bases are built three ways:

- The constructor takes the fields by position or by name, and raises
  TypeError on a wrong count or an unknown name.  A subclass with
  invariants checks them in its own ``__init__`` (``__new__`` for a
  ``_TupleValue``) and ends in one call of the base's.
- ``_trusted(*fields)`` builds one value the package has already
  validated, without the subclass's checks.
- ``_trusted_all(*columns)`` builds many such values, column by column:
  ``columns[k]`` is a sequence holding field k of every value.  In the
  hot loops it costs less per value than ``_trusted``.

The bases supply immutability, equality, hashing, ``repr`` and pickling
with nothing to import but ``itertools`` and ``operator``, so loading the
value types costs no ``inspect`` at start-up.
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter, itemgetter


def _by_position_or_name(cls, fields: tuple, named: dict) -> tuple:
    """``fields`` completed from ``named`` in ``cls._fields`` order; TypeError
    unless each field is given exactly once."""
    names = cls._fields
    if named:
        fields += tuple(named.pop(f) for f in names[len(fields):] if f in named)
    if named or len(fields) != len(names):
        raise TypeError(
            f"{cls.__qualname__}() takes the fields "
            f"({', '.join(names)}), each once, by position or by name"
        )
    return fields


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{self.__class__.__qualname__}({fields})"


def _reduce(self):
    return self.__class__, tuple(getattr(self, name) for name in self._fields)


class _Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__slots__
        cls._key = attrgetter(*cls._fields)
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls._fields)

    def __init__(self, *fields, **named):
        fields = _by_position_or_name(self.__class__, fields, named)
        for set_field, value in zip(self._setters, fields):
            set_field(self, value)

    @classmethod
    def _trusted(cls, *fields):
        value = object.__new__(cls)
        for set_field, field in zip(cls._setters, fields):
            set_field(value, field)
        return value

    @classmethod
    def _trusted_all(cls, *columns) -> list:
        values = list(map(object.__new__, [cls] * len(columns[0])))
        for set_field, column in zip(cls._setters, columns):
            list(map(set_field, values, column))
        return values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    __repr__ = _repr
    __reduce__ = _reduce


def _order(compare):
    """``compare`` on two values of one class, TypeError against anything else.

    Returning NotImplemented would not do: a plain tuple on the other
    side would then be ordered by tuple's own comparison.
    """

    def method(self, other):
        if other.__class__ is self.__class__:
            return compare(self, other)
        raise TypeError(
            f"{self.__class__.__qualname__} is ordered only against "
            f"another {self.__class__.__qualname__}, not {other.__class__.__qualname__}"
        )

    return method


class _TupleValue(tuple):
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __new__(cls, *fields, **named):
        return tuple.__new__(cls, _by_position_or_name(cls, fields, named))

    @classmethod
    def _trusted(cls, *fields):
        return tuple.__new__(cls, fields)

    @classmethod
    def _trusted_all(cls, *columns) -> list:
        return list(map(tuple.__new__, repeat(cls), zip(*columns)))

    # False, not NotImplemented, against another class: tuple's own __eq__
    # would then answer a plain tuple by its items.
    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)

    # Set here, as defining __eq__ would otherwise clear it; being tuple's
    # own slot, the hash runs in C with no Python frame.
    __hash__ = tuple.__hash__
    __lt__ = _order(tuple.__lt__)
    __le__ = _order(tuple.__le__)
    __gt__ = _order(tuple.__gt__)
    __ge__ = _order(tuple.__ge__)
    __repr__ = _repr
    __reduce__ = _reduce
