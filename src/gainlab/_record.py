"""Immutable value records: the one base class of the package's result types.

A subclass lists its fields as annotations, in order, with any default as a
class attribute.  ``Record`` reads them once, when the subclass is made, and
generates no code.  A record takes its fields positionally or by keyword and
keeps them in ``vars(record)`` in field order, whatever the order of the
keywords; it then runs the class's ``__post_init__``, if any, which may
normalize a field with ``object.__setattr__``.  Records refuse assignment and
deletion, and compare and hash by type and fields.  A changed copy is
``type(r)(**{**vars(r), name: value})``.
"""

_MISSING = object()


class Record:
    _fields: tuple = ()
    _template: dict = {}  # every field, in order: its default, or _MISSING
    _required = 0  # the fields up to the last without a default
    _post_init = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._template = {name: vars(cls).get(name, _MISSING) for name in cls._fields}
        cls._required = max((i for i, v in enumerate(cls._template.values(), 1) if v is _MISSING), default=0)
        cls._post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs) -> None:
        fields, values = self._fields, self.__dict__
        values.update(self._template)
        values.update(zip(fields, args))
        if kwargs:
            if not kwargs.keys().isdisjoint(fields[: len(args)]):
                raise TypeError(f"{type(self).__name__} got a field twice")
            values.update(kwargs)
        if len(args) > len(fields) or len(values) > len(fields):
            raise TypeError(f"{type(self).__name__} has only the fields {', '.join(fields)}")
        if len(args) < self._required:
            missing = [name for name, value in values.items() if value is _MISSING]
            if missing:
                raise TypeError(f"{type(self).__name__} is missing {', '.join(missing)}")
        if self._post_init:
            self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash((type(self), *vars(self).values()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"
