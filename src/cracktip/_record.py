"""Base of the result records that are not tuples.

Most records are ``typing.NamedTuple``s.  The few that must not iterate as
a tuple (``NodalSet``'s length is its number of zeros), carry private
fields or keep output formed on first read derive from ``Record`` instead.
Its fields, named in ``_fields``, are set once by position or keyword,
checked by ``_check`` and read back by ``_asdict()``; records of one type
compare, hash and show by their fields.  Assigning to a field raises
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
        self._check()

    def _check(self):
        """Raise ValueError for field values the record does not take."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __reduce__(self):  # copy and pickle by the fields, not by setattr
        return type(self), tuple(self._asdict().values())

    def __eq__(self, other):
        return self._asdict() == other._asdict() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(self._asdict().values()))

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
