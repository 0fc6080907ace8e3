"""Frozen value records: the package's immutable data classes.

    @record
    class Frame:
        pivot_cols: tuple[int, ...]
        free_cols: tuple[int, ...] = ()

The fields of a record are the annotated names of its own class body,
in order; a field whose name is also assigned in the body takes that
value as its default.  The decorator adds

- ``__init__``, taking the fields positionally or by name and then
  calling ``__post_init__`` when the class defines one;
- ``__eq__``, true for two instances of the same class with equal
  fields (instances of different classes never compare equal);
- ``__hash__``, the hash of the tuple of field values;
- ``__repr__``, ``Name(field=value, ...)``;
- ``__setattr__`` and ``__delattr__``, which raise `FrozenRecordError`.

``replace(obj, **changes)`` builds a copy with some fields changed, and
``fields(obj)`` lists the field names of a record or record class.

Every method is a closure over the field names, built once per class;
no source text is generated or compiled.  That is the difference from
``dataclasses``: a frozen dataclass compiles six generated methods per
class, and the module imports inspect, ast, dis and tokenize, which
together were about a third of the package's import time.

Instances keep a ``__dict__``, so ``__post_init__`` may normalise a
field with ``object.__setattr__`` and ``functools.cached_property``
may cache on an instance.  ``replace`` rebuilds through ``__init__``,
so a record's validation runs on the copy too.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenRecordError(AttributeError):
    """An attempt to assign or delete an attribute of a record."""


def record(cls):
    """Turn cls into a frozen value record (see the module docstring)."""
    if any(hasattr(base, "_record_fields") for base in cls.__mro__[1:]):
        raise TypeError("a record cannot extend another record")
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    for before, after in zip(names, names[1:]):
        if before in defaults and after not in defaults:
            raise TypeError("field %r without a default follows a field "
                            "with one" % after)
    count = len(names)
    post_init = getattr(cls, "__post_init__", None)
    if count > 1:
        values = attrgetter(*names)
    else:
        def values(self):
            return tuple(getattr(self, n) for n in names)

    def bind(args, kwargs):
        if len(args) > count:
            raise TypeError("%s takes %d arguments but %d were given"
                            % (cls.__name__, count, len(args)))
        bound = dict(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                bound[name] = kwargs.pop(name)
            elif name in defaults:
                bound[name] = defaults[name]
            else:
                raise TypeError("%s missing argument %r"
                                % (cls.__name__, name))
        if kwargs:
            raise TypeError("%s got unexpected or repeated arguments %s"
                            % (cls.__name__, ", ".join(map(repr, kwargs))))
        return bound

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            self.__dict__.update(bind(args, kwargs))
        else:
            self.__dict__.update(zip(names, args))
        if post_init is not None:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (n, getattr(self, n)) for n in names))

    def __setattr__(self, name, value):
        raise FrozenRecordError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise FrozenRecordError("cannot delete field %r" % name)

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__,
                   __delattr__):
        method.__qualname__ = "%s.%s" % (cls.__qualname__, method.__name__)
        setattr(cls, method.__name__, method)
    cls._record_fields = names
    return cls


def fields(obj) -> tuple[str, ...]:
    """The field names of a record or record class, in order."""
    return obj._record_fields


def replace(obj, **changes):
    """A copy of the record obj with the given fields changed.

    The copy is built by the class's ``__init__``, so ``__post_init__``
    validates and normalises it as it would a new record.
    """
    values = {n: getattr(obj, n) for n in obj._record_fields}
    values.update(changes)
    return obj.__class__(**values)
