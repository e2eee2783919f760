"""Immutable records that check their fields on every construction path.

A record is a typing.NamedTuple of its fields, subclassed with
CheckedRecord first, which runs the subclass's _check on each new value.
"""

from __future__ import annotations

__all__ = ["CheckedRecord"]


class CheckedRecord:
    """Mixin that runs self._check(), which raises ValueError, on each new record.

    Use as class Name(CheckedRecord, _NameFields) with __slots__ = (), where
    _NameFields is the NamedTuple of the fields.  The constructor and _make,
    through which _replace builds, call __new__, as copy and pickle do, so no
    record exists whose fields were not checked.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
