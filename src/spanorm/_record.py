"""Bases of the slotted record classes.

A record lists its fields first in ``__slots__``, in constructor order, and
returns their values from ``_key()``; private cache slots may follow, and
take no part in ``repr``, ``==``, ``hash`` or pickling.  Imports nothing.
"""

__all__ = ["Frozen", "Record"]

_set = object.__setattr__


class Record:
    """``repr``, ``==`` (same class only) and pickling, which calls the
    constructor on ``_key()``; no hash, so a plain record is unhashable."""

    __slots__ = ()

    def __reduce__(self):
        return self.__class__, self._key()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return (f"{self.__class__.__name__}("
                + ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._key()))
                + ")")


class Frozen(Record):
    """An immutable record: only ``_fill`` writes a slot (``__init__`` all of
    them, a cache slot later), assignment or deletion raises
    ``AttributeError``, and equal records hash alike (by ``_key()``)."""

    __slots__ = ()

    def _fill(self, **fields) -> None:
        for name, value in fields.items():
            _set(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._key())
