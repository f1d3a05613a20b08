"""Frozen records: the one way knotrho declares an immutable value type.

A record class lists its fields in `_fields` and stores them in its own
__init__, after any validation, through the instance __dict__.  The base
reads those fields, in order, for the methods of a frozen value type:

- repr is ClassName(field=value, ...);
- two records are equal iff they are of the same class and their field
  tuples are equal, and the hash is that of the field tuple;
- __match_args__ is the field tuple;
- assigning or deleting any attribute raises AttributeError.

Any other attribute a class stores (a cached hash, a derived value) takes
no part in repr, equality or hashing.  Instances keep a __dict__ and no
__slots__, so they pickle, copy and take weak references as plain objects
do.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    _fields: tuple[str, ...]  # set by each subclass

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields
        cls.__match_args__ = fields
        get = attrgetter(*fields)
        # attrgetter of one name returns the bare value, not a 1-tuple.
        cls._values = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __repr__(self) -> str:
        pairs = zip(self._fields, self._values(self))
        inner = ", ".join(f"{name}={value!r}" for name, value in pairs)
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
