"""Base class of the package's immutable value types.

Every value is a ``tuple`` subtype of its fields: a subclass of ``_Value``
names them, in order, in ``_fields`` and keeps ``__slots__ = ()``, so it
has no ``__dict__``.  Each field is a read-only ``property(itemgetter(i))``.
A value prints, pickles and copies by its fields, and it unpacks and has
a length, as a tuple does.  But it equals and orders only another value
of its own class: ``==`` against anything else, a plain tuple included,
is False, and an order comparison raises TypeError with the value on
either side.  Two values of one class order by their fields.

Hashing is ``tuple.__hash__``, in C, so sets of thousands of values cost
no Python frame per insert.  A one-field value hashes as its field
instead, so ``hash(IntegerMatrix(rows)) == hash(rows)``.

Values are built three ways:

- The constructor takes the fields by position or by name, and raises
  TypeError on a wrong count or an unknown name.  A subclass with
  invariants checks them in its own ``__new__``, which ends in
  ``super().__new__(cls, ...)``; pickle and copy go through it too.
- ``_trusted(*fields)`` builds one value the package has already
  validated, without the subclass's checks.
- ``_trusted_all(*columns)`` builds many such values, column by column:
  ``columns[k]`` is a sequence holding field k of every value.  In the
  hot loops it costs less per value than ``_trusted``.

The base needs nothing but ``itertools`` and ``operator``, so loading the
value types costs no ``inspect`` at start-up.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter


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


def _hash_field(self):
    return hash(self[0])


class _Value(tuple):
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))
        if len(cls._fields) == 1:
            cls.__hash__ = _hash_field

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

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(self)
