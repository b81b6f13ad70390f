"""Record classes that cost nothing to define.

A `dataclasses` class generates its `__init__`, `__eq__` and `__repr__`
as source text and runs `exec` on it when the class is created, about
1 ms a class on a 2-vCPU host; for the program's 48 records, with the
`dataclasses` module itself, that was over half of `import mtsc.cli`.
A record here is a plain slotted class instead: it names its fields in
`_fields`, usually also its `__slots__`, and writes its own `__init__`,
which for the records built on every call is as fast as a generated one.
`Record` adds equality between instances of one class and a
dataclass-style repr, both from `_fields`; a field whose name starts
with an underscore is compared but not shown. A Record is mutable, so it
does not hash, as a dataclass with `eq` that is not frozen.

`FrozenRecord` refuses assignment once built, hashes its fields, has a
named tuple's `_replace`, and pickles and copies as a call of its class
with its fields in order, so its `__init__` must take them positionally
and by name. Frozen records that check nothing are `typing.NamedTuple`
classes instead.

This module lives in `minisol` because every package may import from
there; it imports nothing from the program.
"""

from __future__ import annotations


def field_repr(record, names) -> str:
    """`Name(a=1, b='x')` of the fields `names` of `record`."""
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in names)
    return f"{type(record).__qualname__}({shown})"


class Record:
    __slots__ = ()
    _fields: tuple = ()  # compared and shown, in order

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # mutable

    def __repr__(self):
        return field_repr(self, [name for name in self._fields if name[0] != "_"])


class FrozenRecord(Record):
    __slots__ = ()

    def _set(self, values):
        """Set every field from `values`, a mapping that holds each by
        name: the `locals()` of an `__init__` whose parameters are the
        fields."""
        for name in self._fields:
            object.__setattr__(self, name, values[name])

    def _replace(self, **changes):
        """A new record with `changes` to some fields, checked as any new
        one is; a named tuple's `_replace`."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, _value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
