"""The base class of the package's records: solver settings and reports,
probe results, partitions, CLI config keys and oracle results."""
from __future__ import annotations

import inspect


class _Record:
    """Base of the package's records.  A record's fields are its annotations,
    in order, each with its class attribute as default when it has one; from
    them the class gets ``__signature__`` and a constructor that takes each
    field by position or keyword.  ``repr`` and ``==`` read the fields without
    a leading underscore.  ``class R(_Record, frozen=True)`` makes R immutable
    and hashable by those fields; a mutable record is unhashable.  Nothing is
    generated from source."""

    def __init_subclass__(cls, frozen: bool = False):
        params = [inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD, annotation=note,
                                    default=cls.__dict__.get(name, inspect.Parameter.empty))
                  for name, note in cls.__dict__.get("__annotations__", {}).items()]
        cls.__signature__ = inspect.Signature(params, return_annotation=None)
        # Every field, in order, with its default or ``empty``; a call fills it in.
        cls._template = {p.name: p.default for p in params}
        cls._required = frozenset(p.name for p in params if p.default is p.empty)
        cls._shown = tuple(p.name for p in params if not p.name.startswith("_"))
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _Record._immutable
            cls.__hash__ = _Record._hash

    def __init__(self, /, *args, **kwargs):
        template = self._template
        given = dict(zip(template, args), **kwargs) if args else kwargs
        values = template | given
        # Too many positional arguments or one given twice, an unknown keyword, a missing field.
        if (len(given) < len(args) + len(kwargs) or len(values) > len(template)
                or not given.keys() >= self._required):
            try:
                self.__signature__.bind(*args, **kwargs)
            except TypeError as err:
                raise TypeError(f"{type(self).__qualname__}() {err}") from None
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._shown)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def _hash(self) -> int:
        return hash(self._values())

    def _immutable(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")
