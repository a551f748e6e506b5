"""The base of the package's frozen value records.

A record's fields are the parameters of its `__init__`, in order.  Each
`__init__` checks its arguments and stores them with `setfield`; after
that no attribute can be assigned or deleted.  The records are written
out by hand because the standard library's class generator, with the
`inspect` import it brings, costs several milliseconds of start-up in every
`mnw` process, more than some commands spend computing.
"""

setfield = object.__setattr__


class Record:
    """Frozen, with value equality and hash within one class."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: "
                             f"{type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: "
                             f"{type(self).__name__} is frozen")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with `changes`, built and checked again by `__init__`."""
        fields = {name: getattr(self, name) for name in self._fields}
        fields.update(changes)
        return type(self)(**fields)
