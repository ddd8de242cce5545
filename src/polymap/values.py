"""Immutable value objects, written out instead of generated.

:class:`Value` gives a small class what a frozen dataclass would, without
importing ``dataclasses`` (and ``inspect`` behind it) and without the
methods that it compiles for each class at import time, a cost that every
``python -m polymap`` process would pay.  A subclass names its fields in
``_fields``, usually its ``__slots__`` as well, and sets them in its
``__init__`` through ``object.__setattr__``.

Two values are equal when they are one object, or of one class with equal
fields; a value hashes by its class and fields and prints as
``Name(field=value)``.  The class takes part in both, so values of two
classes stay apart even when their fields agree, as ``LEX`` and ``GRLEX``
(which have no fields) would not as named tuples.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # The class and the fields, read in one C call: orders key every
        # basis cache and contexts are compared on every division.
        cls._key = staticmethod(attrgetter("__class__", *cls._fields))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")
