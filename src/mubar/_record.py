"""Plain record classes: fields in __slots__, value equality, a readable repr.

A record's fields are its __slots__, in order, and its __init__ takes
them in that order.  Records compare equal when they are of the same
class and their fields are equal, and print as Name(field=value, ...),
leaving out the fields named in _hidden.  A FrozenRecord refuses
assignment (AttributeError) and hashes by its fields, so __init__ sets
them through _init.  A plain Record is mutable and unhashable.
"""

from __future__ import annotations

from typing import Tuple


class Record:
    __slots__ = ()
    _hidden: Tuple[str, ...] = ()

    def _init(self, *values) -> None:
        """Set the fields, in __slots__ order."""
        for f, v in zip(self.__slots__, values):
            object.__setattr__(self, f, v)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join(
                "%s=%r" % (f, getattr(self, f))
                for f in self.__slots__
                if f not in self._hidden
            ),
        )

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which a frozen record
        # needs, since it refuses the setattr they would use otherwise
        return type(self), self._values()


class FrozenRecord(Record):
    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name: str) -> None:
        raise AttributeError("cannot delete field %r" % name)

    def __hash__(self) -> int:
        return hash(self._values())
