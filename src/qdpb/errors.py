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
    for name in (*names, *optional):
        value = getattr(obj, name)
        if value is None and name in optional:
            continue
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParameterError(f"{name} must be an integer, got {value!r}")
