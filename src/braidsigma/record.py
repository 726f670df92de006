"""Immutable value records, the base of the package's value classes.

A subclass writes its own ``__init__``, which stores each field through
``self.__dict__`` and then checks the values.  The fields are that
constructor's parameters after ``self``, in order; the base reads them
into ``_fields`` once, when the class is made, and a subclass without its
own ``__init__`` keeps its parent's.  From ``_fields`` alone the base
gives equality (same class, equal fields), hashing and a dataclass-style
repr, and it refuses to assign or delete attributes.
Entries of ``__dict__`` that are not fields (values a class derives or
caches) take no part in equality, hashing or repr.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        init = cls.__dict__.get("__init__")
        if init is not None:
            code = init.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount]

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
