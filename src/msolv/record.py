"""Value records: one shared ``__init__``, ``==``, ``hash`` and ``repr``.

A subclass names its fields as annotations, after its bases' fields; a class
attribute gives a default. Records are read-only and equal only to records of
their own class with equal compared fields. A ``_``-named field is neither
compared nor shown; fields of a ``keyword=True`` class are keyword-only and
not compared; a ``mutable=True`` class is assignable and unhashable. Unlike
``@dataclass``, nothing is generated and compiled per class at import.
"""


class Record:
    _names: tuple[str, ...] = ()     # every field, in declaration order
    _fields: tuple[str, ...] = ()    # positional fields
    _compared: tuple[str, ...] = ()  # fields that == and hash read
    _defaults: dict = {}

    def __init_subclass__(cls, keyword=False, mutable=False, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._names += own
        if not keyword:
            cls._fields += own
            cls._compared += tuple(n for n in own if n[0] != "_")
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        if mutable:
            cls.__setattr__, cls.__delattr__, cls.__hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} positional fields, got {len(args)}")
        values = dict(cls._defaults)
        values.update(zip(cls._fields, args))
        for name in kwargs:
            if name not in cls._names or name in cls._fields[:len(args)]:
                raise TypeError(f"{cls.__name__} got an unknown or repeated field {name!r}")
        values.update(kwargs)
        if len(values) < len(cls._names):
            raise TypeError(f"{cls.__name__} is missing {[n for n in cls._names if n not in values]}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        """Check the fields once they are set; subclasses override."""

    def _key(self) -> tuple:
        return tuple([getattr(self, n) for n in self._compared])

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._names if n[0] != "_")
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete {name!r} of a {type(self).__name__}")

    __delattr__ = __setattr__
