"""``record``: frozen value classes without ``dataclasses``.

A record's fields are the class's own annotations, in order; a field's
default is the class attribute of the same name.  The methods are shared
by every record and read the field names from ``cls._fields``, so a class
definition compiles no code.  Instances compare and hash by their field
tuple, print as ``Name(field=value, ...)`` and refuse assignment with
``FrozenInstanceError``; ``__post_init__``, when the class has one, runs
after the fields are set.
"""

from operator import attrgetter

_set = object.__setattr__


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


def _bind(self, args, kwargs):
    """The field values of a call that is not one positional argument per field."""
    cls = type(self)
    fields, defaults = cls._fields, cls._defaults
    values = list(args)
    for name in fields[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in defaults:
            values.append(defaults[name])
        else:
            raise TypeError(f"{cls.__qualname__}() missing required argument {name!r}")
    if len(values) > len(fields):
        raise TypeError(f"{cls.__qualname__}() takes {len(fields)} positional arguments "
                        f"but {len(args)} were given")
    for name in kwargs:
        if name in fields:
            raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
        raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {name!r}")
    return values


def __init__(self, *args, **kwargs):
    fields = self._fields
    if kwargs or len(args) != len(fields):
        args = _bind(self, args, kwargs)
    for name, value in zip(fields, args):
        _set(self, name, value)
    if self._post_init:
        self.__post_init__()


def __repr__(self):
    return (f"{type(self).__qualname__}("
            f"{', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})")


def __eq__(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self._values(self) == self._values(other)


def __hash__(self):
    return hash(self._values(self))


def __setattr__(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def __delattr__(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls):
    """Make cls a frozen record class (see the module docstring)."""
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    cls._fields = fields
    cls._defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
    cls._post_init = hasattr(cls, "__post_init__")
    cls._values = staticmethod(attrgetter(*fields) if len(fields) > 1
                               else lambda obj, name=fields[0]: (getattr(obj, name),))
    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls
