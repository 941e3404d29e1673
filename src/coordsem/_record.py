"""Immutable records: the base of the package's value classes.

A subclass lists its fields as class annotations, in order, optionally with
class-level defaults. `Record.__init_subclass__` reads them from the class's
own annotations and gives the class each of these it does not define itself:

- `__init__`: a `def` with one parameter per field, compiled with the class,
  that sets the fields, then calls the class's `__post_init__`, if any;
- `__eq__`: equal fields, on an instance of exactly the same class;
- `__hash__`: the hash of the tuple of the compared fields;
- `__repr__`: `Name(field=value, ...)`, every field in order.

Fields named in the class keyword `uncompared` take no part in equality or
hashing. Assigning or deleting an attribute raises `FrozenRecordError`.
Hashes and reprs are those of `@dataclass(frozen=True)`, so sets and dicts
of records iterate in the same order, and a bad call raises the same
`TypeError`. Creating the package's 20 classes takes about 2.5 ms, most of
it compiling their `__init__`s, against about 12 ms as dataclasses, and
imports neither `dataclasses` nor `inspect`. There is no metaclass:
`isinstance` against a class whose metaclass is not exactly `type` takes
CPython's slow path, and formulas are dispatched on with `isinstance`
throughout.
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
    """A `def __init__` with one parameter per field, defaulting to the field's
    class-level default, so that Python binds each call as for a dataclass."""
    own = cls.__dict__
    params = ", ".join(f"{name}=_own[{name!r}]" if name in own else name for name in names)
    body = "".join(f"\n    _set(self, {name!r}, {name})" for name in names)
    if "__post_init__" in own:
        body += "\n    _post_init(self)"
    scope = {"__name__": cls.__module__, "_set": _set, "_own": own,
             "_post_init": own.get("__post_init__")}
    exec(f"def __init__(self, {params}):{body}", scope)
    scope["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    return scope["__init__"]
