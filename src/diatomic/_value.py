"""The one idiom for small exact values: a class names its fields once,
``__slots__ = _fields = (...)``, and its ``__init__`` stores them with
``_set`` after its checks.  Values are immutable, equal and hashable by
class and fields, printed in the dataclass style, and copied or pickled
field by field.  Where the library wraps fields it has just made and can
prove valid, it builds the value with a ``trusted`` maker instead, which
skips the checks: every public constructor still runs all of them.
"""

from operator import attrgetter

_set = object.__setattr__


class Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._values = attrgetter(*cls._fields)  # a tuple: every class has two or more

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):  # rebuilt without __init__: the fields were checked once
        return object.__new__, (type(self),), self._values(self)

    def __setstate__(self, values: tuple) -> None:
        for name, value in zip(self._fields, values):
            _set(self, name, value)


def trusted(cls):
    """A maker that builds a two- or four-field cls from its fields, in
    order, without running cls.__init__: no check and no normalisation.

    Use it only on fields proved valid for cls, and state the proof in one
    line at the call site.  The object comes from object.__new__ and each
    field goes through its slot's own setter, one store per line: a loop
    over the setters costs as much as the checks it skips.
    """
    new = object.__new__
    setters = [getattr(cls, name).__set__ for name in cls._fields]
    if len(setters) == 2:
        s0, s1 = setters

        def make(f0, f1):
            v = new(cls)
            s0(v, f0)
            s1(v, f1)
            return v
    else:
        s0, s1, s2, s3 = setters

        def make(f0, f1, f2, f3):
            v = new(cls)
            s0(v, f0)
            s1(v, f1)
            s2(v, f2)
            s3(v, f3)
            return v
    return make
