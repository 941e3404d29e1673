"""Immutable records: the base of the package's value classes.

A subclass lists its fields as class annotations, in order, optionally with
class-level defaults. `Record.__init_subclass__` reads them from the class's
own annotations and gives the class each of these it does not define itself:

- `__init__`: fields by position or keyword, defaults for the missing ones,
  then the class's `__post_init__`, if it has one;
- `__eq__`: equal fields, on an instance of exactly the same class;
- `__hash__`: the hash of the tuple of the compared fields;
- `__repr__`: `Name(field=value, ...)`, every field in order.

Fields named in the class keyword `uncompared` take no part in equality or
hashing. Assigning or deleting an attribute raises `FrozenRecordError`.
Hashes and reprs are those of `@dataclass(frozen=True)`, so sets and dicts
of records iterate in the same order; creating the class costs a small
fraction of a dataclass's and imports neither `dataclasses` nor `inspect`.
There is no metaclass: `isinstance` against a class whose metaclass is not
exactly `type` takes CPython's slow path, and formulas are dispatched on
with `isinstance` throughout.
"""

from __future__ import annotations

from operator import attrgetter

# Filling the instance dict directly would make CPython materialize it, and
# every later attribute read slower.
_set = object.__setattr__


class FrozenRecordError(AttributeError):
    """Assignment to or deletion of an attribute of a record."""


class Record:
    def __init_subclass__(cls, uncompared: tuple[str, ...] = (), **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", ()))
        compared = [name for name in names if name not in uncompared]
        key = attrgetter(*compared)
        if len(compared) > 1:
            def __eq__(self: Record, other: object) -> bool:
                if other.__class__ is self.__class__:
                    return key(self) == key(other)
                return NotImplemented

            def __hash__(self: Record) -> int:
                return hash(key(self))
        else:  # attrgetter of one name returns the value, not a 1-tuple
            def __eq__(self: Record, other: object) -> bool:
                if other.__class__ is self.__class__:
                    return (key(self),) == (key(other),)
                return NotImplemented

            def __hash__(self: Record) -> int:
                return hash((key(self),))

        def __repr__(self: Record) -> str:
            fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
            return f"{self.__class__.__qualname__}({fields})"

        derived = {"__init__": _init(cls, names), "__eq__": __eq__,
                   "__hash__": __hash__, "__repr__": __repr__}
        for attr, method in derived.items():
            if attr not in cls.__dict__:
                setattr(cls, attr, method)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenRecordError(f"cannot delete field {name!r}")


def _init(cls: type, names: tuple[str, ...]):
    """The `__init__` of a record class with fields `names`. A call with one
    positional argument per field, the usual case, skips the binding, and a
    call that leaves only defaulted fields out, the next most usual, skips
    the keywords."""
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = cls.__dict__.get("__post_init__")
    n = len(names)
    places = tuple(enumerate(names))  # indexing args costs less than zip
    # for k positional arguments, the defaults of the fields after them
    tails = {k: tuple(defaults[name] for name in names[k:]) for k in range(n)
             if defaults.keys() >= set(names[k:])}

    def __init__(self: Record, *args: object, **kwargs: object) -> None:
        if kwargs or len(args) != n:
            tail = None if kwargs else tails.get(len(args))
            args = args + tail if tail is not None else _bind(cls, names, defaults, args, kwargs)
        for i, name in places:
            _set(self, name, args[i])
        if post_init is not None:
            post_init(self)

    return __init__


def _bind(cls: type, names: tuple[str, ...], defaults: dict[str, object],
          args: tuple[object, ...], kwargs: dict[str, object]) -> list[object]:
    """The field values of a call, in field order, as Python binds them."""
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} positional arguments "
                        f"but {len(args)} were given")
    values = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        if name in values:
            raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
        values[name] = value
    try:
        return [values[name] if name in values else defaults[name] for name in names]
    except KeyError as err:
        raise TypeError(f"{cls.__name__}() missing required argument {err}") from None
