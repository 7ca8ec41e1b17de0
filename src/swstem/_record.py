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
was about a third of the start-up of every ``swstem`` call.  Here one small
source per class is compiled once, for ``__init__``, ``__eq__`` and
``__hash__``: the same code a dataclass generates, so they run as fast.
"""

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

    def key(obj: str) -> str:
        return "(" + "".join(f"{obj}.{n}, " for n in names if n not in uncompared) + ")"

    exec(
        f"def __init__(self, {', '.join(params)}):\n{body or '    pass'}\n"
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return {key('self')} == {key('other')}\n"
        "    return NotImplemented\n"
        f"def __hash__(self):\n    return hash({key('self')})\n",
        namespace,
    )
    for method in ("__init__", "__eq__", "__hash__"):
        function = namespace[method]
        function.__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, function)
    cls._record_fields = names
    cls.__repr__ = _repr
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    return cls
