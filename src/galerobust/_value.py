"""Base class of the package's immutable value types.

A subclass lists its fields in ``__slots__`` and sets them in its own
``__init__`` through ``object.__setattr__``.  Every field takes part in
equality and hashing except those named by the class keyword
``uncompared``.  The base supplies immutability, equality, hashing,
``repr`` and pickling with nothing to import but ``operator``, so
loading the value types costs no ``inspect`` at start-up.
"""

from __future__ import annotations

from operator import attrgetter


class _Value:
    __slots__ = ()

    def __init_subclass__(cls, uncompared: tuple[str, ...] = (), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*(f for f in cls.__slots__ if f not in uncompared))

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
