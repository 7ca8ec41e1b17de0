"""Frozen record classes, built without ``dataclasses``.

``record`` turns a class whose own annotations list its fields, in order,
into an immutable value type that behaves like a frozen dataclass:

* ``__init__`` takes the fields positionally or by keyword (a class
  attribute gives a field's default), stores them and then calls the
  class's ``__post_init__``, which may normalise a field with
  ``object.__setattr__``;
* ``==`` and ``hash`` compare the fields not named in ``uncompared``, and
  only between instances of the same class;
* ``repr`` reads ``Name(field=value, ...)``, an int field or an int in a
  tuple field named through ``errors.shown`` (so one too wide to print is
  named by its bit length);
* assignment and deletion raise ``FrozenInstanceError``, an
  ``AttributeError``.

Importing ``dataclasses`` loads ``inspect``, ``ast``, ``dis`` and
``tokenize``, and each decorated class compiles six methods; together that
was about a third of the start-up of every ``swstem`` call.  Here each class
compiles one method, ``__init__``, from the source a dataclass generates, so
construction runs as fast; every record shares one ``__eq__`` and one
``__hash__``, which read the tuple of the compared fields off ``_record_key``.
"""

from operator import attrgetter

from .errors import shown


class FrozenInstanceError(AttributeError):
    """Raised on assignment to, or deletion of, a record's attribute."""


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _shown(value) -> str:
    """``repr(value)``, with every int in it, at any depth of tuples, ``shown``."""
    if type(value) is not tuple:
        return shown(value)
    items = ", ".join(map(_shown, value))
    return f"({items},)" if len(value) == 1 else f"({items})"


def _repr(self) -> str:
    fields = ", ".join(f"{name}={_shown(getattr(self, name))}" for name in self._record_fields)
    return f"{type(self).__qualname__}({fields})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        key = self._record_key
        return key(self) == key(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(self._record_key(self))


def _key(names: tuple[str, ...]):
    """The fields' values as a tuple, which ``attrgetter`` gives for two or more."""
    if len(names) == 1:
        get = attrgetter(*names)
        return staticmethod(lambda obj: (get(obj),))
    return attrgetter(*names) if names else staticmethod(lambda obj: ())


def record(cls=None, *, uncompared: tuple[str, ...] = ()):
    """Class decorator: ``@record`` or ``@record(uncompared=(...))``."""
    if cls is None:
        return lambda cls: record(cls, uncompared=uncompared)
    own = cls.__dict__
    names = tuple(own.get("__annotations__", ()))
    namespace = {"_set": object.__setattr__}
    params = []
    for name in names:
        if name in own:
            namespace[f"_default_{name}"] = own[name]
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
    body = "".join(f"    _set(self, {name!r}, {name})\n" for name in names)
    if hasattr(cls, "__post_init__"):
        body += "    self.__post_init__()\n"
    exec(f"def __init__(self, {', '.join(params)}):\n{body or '    pass'}\n", namespace)
    init = cls.__init__ = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls._record_fields = names
    cls._record_key = _key(tuple(name for name in names if name not in uncompared))
    cls.__eq__ = _eq
    cls.__hash__ = _hash
    cls.__repr__ = _repr
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    return cls
