"""Immutable value records: the package's value types, built without importing anything.

A record class lists its fields as class annotations, in order; a class
attribute of the same name is that field's default.

    class StarConfig(Record):
        s: int
        c: int
"""

_set = object.__setattr__


class Record:
    """An immutable value, compared, hashed and printed by its fields.

    Instances equal only instances of the same class with equal fields, hash
    as the tuple of their fields, refuse attribute assignment and deletion,
    and repr as ``Name(field=value, ...)``.  A subclass that checks its
    fields overrides ``_validate``, which runs once they are set.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for name, value in zip(self._fields, args):
            _set(self, name, value)
        self._validate()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values in order, from positional and keyword arguments and defaults."""
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, got {len(args)}")
        values = list(args)
        for name in cls._fields[len(args) :]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls.__dict__:
                values.append(cls.__dict__[name])
            else:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} got unexpected or repeated fields {sorted(kwargs)}")
        return values

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
