"""Exception types shared across the package."""


class QdpbError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(QdpbError, ValueError):
    """An argument, seed, or configuration value violates a documented requirement."""


class ValidationError(QdpbError, ValueError):
    """A constructed object or parsed file fails its structural invariants."""


class StateError(QdpbError, RuntimeError):
    """An operation was called on an object in a state that cannot support it."""


def require_ints(obj, names, optional=()) -> None:
    """Raise ParameterError unless each named attribute of ``obj`` is an int.

    ``bool`` is refused although it subclasses ``int``; attributes named in
    ``optional`` may also be None.
    """
    _require(obj, names, optional, int, "an integer")


def require_numbers(obj, names, optional=()) -> None:
    """Like ``require_ints``, but a float is accepted too."""
    _require(obj, names, optional, (int, float), "a number")


def require_strs(obj, names, optional=()) -> None:
    """Like ``require_ints``, but for strings."""
    _require(obj, names, optional, str, "a string")


def require_bools(obj, names) -> None:
    """Raise ParameterError unless each named attribute of ``obj`` is a bool."""
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, bool):
            raise ParameterError(f"{name} must be true or false, got {value!r}")


def _require(obj, names, optional, types, what: str) -> None:
    for name in (*names, *optional):
        value = getattr(obj, name)
        if value is None and name in optional:
            continue
        if not isinstance(value, types) or isinstance(value, bool):
            raise ParameterError(f"{name} must be {what}, got {value!r}")
