"""Base of the result records that are not tuples.

Most records are ``typing.NamedTuple``s.  The few that must not iterate as
a tuple (``NodalSet``'s length is its number of zeros), carry private
fields or compare on part of their fields derive from ``Record`` instead.
Its fields, named in ``_fields``, are set once by position or keyword and
read back by ``_asdict()`` as a NamedTuple's are; records of one type
compare, hash and show by value.  Assigning to a field raises
AttributeError, as on a tuple.  Neither form generates and compiles
methods when its class is defined, so importing the package stays cheap.
"""


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._fields, args), **kwargs)
        if len(args) + len(kwargs) != len(self._fields) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        for name in self._fields:
            object.__setattr__(self, name, values[name])

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __reduce__(self):  # copy and pickle by the fields, not by setattr
        return type(self), tuple(self._asdict().values())

    def _key(self) -> tuple:
        """What equality and the hash see: every field."""
        return tuple(self._asdict().values())

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self._asdict().items())
        return f"{type(self).__name__}({fields})"


class NodalSet(Record):
    """Sorted real zeros with transversality annotations, here so that a shot loads no pencil."""

    __slots__ = _fields = ("zeros", "derivative_magnitudes", "transversal", "tol")

    def __len__(self) -> int:
        return len(self.zeros)

    @property
    def all_transversal(self) -> bool:
        return all(self.transversal)
