"""Frozen records: `@dataclass(frozen=True)` without compiling six methods
per class at import.

`record` registers a class's fields with the stdlib (`dataclass(init=False,
repr=False, eq=False)` generates no code), so `dataclasses.fields`,
`replace`, `asdict` and `is_dataclass` work on it as on any dataclass.  The
one method made per class is `__init__`, compiled from the fields so that
keyword calls, defaults, `TypeError` messages and `inspect.signature` stay
the stdlib's.  `__repr__`, `__eq__`, `__hash__`, `__setattr__` and
`__delattr__` are written once below and read the class's field names.
"""

import _thread
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields


def record(cls):
    """Make cls a frozen record, as `@dataclass(frozen=True)` would.

    repr, == and hash read the fields whose `field(repr=, compare=, hash=)`
    flags the stdlib would take, in field order, and give its strings, its
    tuple hash and its FrozenInstanceError on every set and delete.  Field
    flags `default_factory`, `init=False` and `kw_only` are not supported.
    A record needs a docstring, since the stdlib would fill a missing one
    with its signature.  Records are leaf classes: an undecorated subclass
    inherits a wholly frozen instance.  `__dataclass_params__` reads
    init=False, repr=False, eq=False, frozen=False; nothing reads it.
    """
    if not cls.__doc__:
        raise TypeError(f"record {cls.__qualname__} needs a docstring")
    cls = dataclass(init=False, repr=False, eq=False)(cls)
    flds = fields(cls)
    for f in flds:
        if f.default_factory is not MISSING or not f.init or f.kw_only:
            raise TypeError(f"record field {cls.__qualname__}.{f.name}: "
                            "no default_factory, init=False or kw_only")
    cls._record_repr = tuple(f.name for f in flds if f.repr)
    cls._record_compare = tuple(f.name for f in flds if f.compare)
    cls._record_hash = tuple(f.name for f in flds if (f.compare if f.hash is None else f.hash))
    cls.__init__ = _init(cls, flds)
    cls.__repr__ = _repr
    cls.__eq__ = _eq
    cls.__hash__ = _hash
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    return cls


def _init(cls, flds):
    # The fields are real parameters, stored into __dict__ in field order.
    # No field declared in a class body can be named __d (it would be
    # mangled), so the local cannot shadow one.
    params = ", ".join(f.name if f.default is MISSING else f"{f.name}=_dflt_{f.name}" for f in flds)
    body = "".join(f"\n    __d[{f.name!r}] = {f.name}" for f in flds)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    ns = {f"_dflt_{f.name}": f.default for f in flds}
    exec(f"def __init__(self, {params}):\n    __d = self.__dict__{body}", ns)
    init = ns["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    init.__annotations__ = {**{f.name: f.type for f in flds}, "return": None}
    return init


def _values(obj, names):
    return tuple([getattr(obj, n) for n in names])


_repr_running = set()


def _repr(self):
    # "..." for a record met again inside its own repr, as the stdlib does
    key = id(self), _thread.get_ident()
    if key in _repr_running:
        return "..."
    _repr_running.add(key)
    try:
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._record_repr)
        return f"{self.__class__.__qualname__}({args})"
    finally:
        _repr_running.discard(key)


def _eq(self, other):
    if other.__class__ is self.__class__:
        names = self._record_compare
        return _values(self, names) == _values(other, names)
    return NotImplemented


def _hash(self):
    return hash(_values(self, self._record_hash))


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")
