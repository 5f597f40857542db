"""Leaf definitions: the package's exception types, and ``_Record``, the base of its values.

A value class lists its fields in ``__slots__``, and ``_Record`` gives it its methods
without generating code at import. Every record is frozen, and its fields ``_fields``
(its ``__slots__``) are exactly the constructor's arguments, which the repr, pickling
and copies read; ``_compared`` (by default ``_fields``) are what equality, within one
class only, and the hash read. A class with an unhashable field sets ``__hash__ = None``.
"""

from operator import attrgetter


class VisipolyError(Exception):
    """Base class for errors raised by this package."""


class ParameterError(VisipolyError, ValueError):
    """An argument lies outside the domain an operation supports."""


class FormatError(VisipolyError, ValueError):
    """Malformed textual input: graph6 records, edge lists, class specs."""

    def __init__(self, message, line=None, offset=None):
        detail = message
        if offset is not None:
            detail = f"{detail} (byte offset {offset})"
        if line is not None:
            detail = f"line {line}: {detail}"
        super().__init__(detail)
        self.message = message
        self.line = line
        self.offset = offset

    def at_line(self, line) -> "FormatError":
        """This error on input line ``line``, with the same message and byte offset."""
        return FormatError(self.message, line=line, offset=self.offset)


class GuardrailError(VisipolyError):
    """An input exceeds the size guardrail of an exponential-time routine."""


class _Record:
    __slots__ = ()

    def __init_subclass__(cls):
        if "__slots__" in vars(cls):  # a subclass that adds no fields keeps its parent's
            cls._fields = cls.__match_args__ = cls.__slots__
            # The class leads the key, so that a record without fields has one too.
            cls._key = attrgetter("__class__", *vars(cls).get("_compared", cls._fields))

    def _set(self, *values):
        """Store ``values`` in ``__slots__`` order, past the refusing ``__setattr__``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])
