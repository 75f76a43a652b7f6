"""Immutable value classes, built without code generation.

A `Frozen` subclass names the fields that equality, hashing and the repr
read in `_fields`.  Its own `__init__` stores the fields in the instance
dict, `vars(self)`, and then runs its `__post_init__` check, if it has one;
after that, assignment and deletion raise.  Two instances are equal when they are of the same
class and their field tuples are equal, and an instance hashes as its field
tuple, as a frozen dataclass does.  Pickle and `copy` restore the instance
dict, and `functools.cached_property` writes into it.
"""

from operator import attrgetter


class Frozen:
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" in vars(cls):
            get = attrgetter(*cls._fields)
            # attrgetter of one name gives the value itself, not a 1-tuple
            cls._astuple = get if len(cls._fields) > 1 else lambda self: (get(self),)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        cls = self.__class__
        if other.__class__ is not cls:
            return NotImplemented
        return cls._astuple(self) == cls._astuple(other)

    def __hash__(self):
        return hash(self.__class__._astuple(self))

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({shown})"
