"""Base class of the package's immutable value types.

A subclass lists its fields in ``__slots__``.  Assignment raises, so
this module alone writes fields, through each slot descriptor's
``__set__`` (``_setters``, in slot order).  Values are built three ways:

- ``__init__(*fields, **named)`` stores the fields in slot order, by
  position or by name, and raises TypeError on a wrong count or an
  unknown name.  A subclass with invariants checks them in its own
  ``__init__`` and ends in one ``super().__init__(...)``.
- ``_trusted(*fields)`` builds one value the package has already
  validated, without the subclass ``__init__``.
- ``_trusted_all(*columns)`` builds many such values, column by column:
  ``columns[k]`` is a sequence holding field k of every value.  In the
  hot loops it costs less per value than ``_trusted``.

Every field takes part in equality and hashing; a single field hashes
as itself.  The base supplies immutability, equality, hashing, ``repr``
and pickling with nothing to import but ``operator``, so loading the
value types costs no ``inspect`` at start-up.
"""

from __future__ import annotations

from operator import attrgetter


class _Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls.__slots__)
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls.__slots__)

    def __init__(self, *fields, **named):
        slots = self.__slots__
        if named:
            fields += tuple(named.pop(f) for f in slots[len(fields):] if f in named)
        if named or len(fields) != len(slots):
            raise TypeError(
                f"{self.__class__.__qualname__}() takes the fields "
                f"({', '.join(slots)}), each once, by position or by name"
            )
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

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)
