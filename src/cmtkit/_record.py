"""Base classes for cmtkit's small value types, in place of dataclasses:
importing ``dataclasses`` loads ``inspect`` and its chain (``ast``, ``dis``,
``tokenize``), which every CLI command would pay for at start-up.

A subclass lists its fields, in constructor order, in ``_fields``, keeps
them in ``__slots__`` and sets them in its own ``__init__``.  ``Record``
gives value equality within one class and the repr ``Name(field=value,
...)``, and no hash.  ``FrozenRecord`` hashes the fields and refuses
assignment; its ``__init__`` sets the fields through ``_assign``.  A frozen
record that holds a dict or a list sets ``__hash__ = None``.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        inside = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inside})"

    # copy and pickle rebuild through the constructor, since a frozen
    # record's __setattr__ refuses the default restore of slot state
    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    __slots__ = ()

    def _assign(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
