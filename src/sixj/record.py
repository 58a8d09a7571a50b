"""Frozen slotted records without importing ``dataclasses``."""


class Record:
    """``@dataclass(frozen=True, slots=True)`` by hand, for a subclass that lists
    its fields once, in ``__slots__``; importing ``dataclasses`` (with
    ``inspect``, ``ast`` and ``dis``) cost more than the rest of the package.
    ``==`` and ``hash`` read the slots; ``repr``, copy and pickle read the
    fields ``__match_args__`` names: the slots, unless a class names views."""

    __slots__ = ()

    def __init_subclass__(cls):
        if "__match_args__" not in cls.__dict__:
            cls.__match_args__ = cls.__slots__

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):  # bind the arguments as a dataclass would
            values = {**dict(zip(names, args)), **kwargs}
            if len(values) != len(args) + len(kwargs) or values.keys() != {*names}:
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Validate or normalise the fields, setting them with object.__setattr__."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")
