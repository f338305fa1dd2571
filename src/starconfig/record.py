"""Immutable value records: the package's value types, built without importing anything.

A record class lists its fields as class annotations, in order, and is
built from exactly those fields, positionally.

    class StarConfig(Record):
        s: int
        c: int
"""

_set = object.__setattr__


class Record:
    """An immutable value, compared, hashed and printed by its fields.

    Instances equal only instances of the same class with equal fields, hash
    as the tuple of their fields, refuse attribute assignment and deletion,
    and repr as ``Name(field=value, ...)``.  A wrong number of fields (or a
    keyword) raises TypeError.  A subclass that checks its fields overrides
    ``_validate``, which runs once they are set.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)  # not __dict__: 3.14 builds it only when read

    def __init__(self, *args):
        if len(args) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} fields, got {len(args)}")
        for name, value in zip(self._fields, args):
            _set(self, name, value)
        self._validate()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _validate(self) -> None:
        """Check the fields; raise on a bad value."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
