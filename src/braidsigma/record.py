"""Immutable value records, the base of the package's value classes.

A subclass names its fields in ``_fields`` and writes its own
``__init__``, which stores each field through ``self.__dict__`` and then
checks the values.  From ``_fields`` alone the base gives equality (same
class, equal fields), hashing, a dataclass-style repr and ``_replace``,
and it refuses to assign or delete attributes.  Entries of ``__dict__``
that are not fields (values a class derives or caches) take no part in
equality, hashing or repr.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[f] for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        d = self.__dict__
        args = ", ".join(f"{f}={d[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes: object) -> Record:
        """A copy with the named fields changed, built and so checked
        again by the class's own ``__init__``."""
        d = self.__dict__
        return type(self)(**{**{f: d[f] for f in self._fields}, **changes})
