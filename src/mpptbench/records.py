"""Immutable records that check their fields on every construction path.

A record is a typing.NamedTuple decorated with checked, which runs the
record's _check on each new value.
"""

from __future__ import annotations

import functools

__all__ = ["checked"]


def checked(cls):
    """Make the NamedTuple cls run self._check(), which raises ValueError, on each new record.

    The constructor, _make (so _replace), copy and pickle all call __new__,
    so no record exists whose fields were not checked.  typing.NamedTuple
    rejects __new__ and _make in a class body, so they are set here.
    """
    new = cls.__new__

    @functools.wraps(new)  # the signature still lists the fields and their defaults
    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        return self

    cls.__new__ = __new__
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls
