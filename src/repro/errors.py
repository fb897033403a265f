"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish configuration problems from runtime simulation problems.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
from collections.abc import Mapping


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An invalid PCIe, device, or benchmark configuration was supplied."""


class ValidationError(ConfigurationError):
    """A parameter value is out of range or inconsistent with other values."""


class UsageError(ConfigurationError):
    """A command-line invocation is inconsistent (bad flag combinations).

    Raised by the CLI layer for mistakes best explained in terms of the
    flags the user typed (e.g. ``--weights 8:1`` with three ``--device``
    entries), before they can surface as a confusing library-level error.
    """


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class BenchmarkError(ReproError):
    """A micro-benchmark could not be executed with the given parameters."""


class AnalysisError(ReproError):
    """Post-processing of benchmark results failed."""


class UnknownProfileError(ValidationError):
    """A system profile name was requested that is not in the registry."""

    def __init__(self, name: str, known: list[str] | None = None) -> None:
        self.name = name
        self.known = list(known or [])
        msg = f"unknown system profile {name!r}"
        if self.known:
            msg += f" (known profiles: {', '.join(sorted(self.known))})"
        super().__init__(msg)


def record_reader(from_dict):
    """Report a malformed record passed to a ``from_dict`` classmethod.

    A missing key, a mistyped value or a value the rebuilt object's own
    validation rejects all raise :class:`ValidationError` naming the
    record type, so callers reading result files from disk catch one
    library error instead of whatever the first bad field happens to
    trip; so does anything but a mapping in the record's place.  Apply
    it beneath ``@classmethod``.
    """

    @functools.wraps(from_dict)
    def read(cls, data):
        if not isinstance(data, Mapping):
            raise ValidationError(
                f"malformed {cls.__name__} record: expected a mapping, "
                f"got {data!r}"
            )
        try:
            return from_dict(cls, data)
        except (KeyError, TypeError, ValueError, ValidationError) as exc:
            detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ValidationError(
                f"malformed {cls.__name__} record: {detail}"
            ) from exc

    return read


#: The types a scalar field annotation admits.  ``float`` admits any real
#: number and ``int`` any integer; neither admits ``bool``.
_SCALAR_TYPES = {
    "int": numbers.Integral,
    "float": numbers.Real,
    "bool": bool,
    "str": str,
    "None": type(None),
}


def check_field_types(record) -> None:
    """Raise :class:`ValidationError` unless each scalar field has its type.

    Reads the dataclass annotations of ``record`` (written as strings by
    ``from __future__ import annotations``): a field annotated with
    ``int``, ``float``, ``bool`` or ``str``, optionally ``| None``, must
    hold a value of that type.  Other fields (tuples, nested records) are
    left to the record's own checks.  Python counts ``True`` as an
    integer; a record does not, so ``packets=True`` is rejected.
    """
    for field in dataclasses.fields(record):
        names = [name.strip() for name in str(field.type).split("|")]
        if not all(name in _SCALAR_TYPES for name in names):
            continue
        value = getattr(record, field.name)
        if (isinstance(value, bool) and "bool" not in names) or not isinstance(
            value, tuple(_SCALAR_TYPES[name] for name in names)
        ):
            raise ValidationError(
                f"{field.name} must be {' or '.join(names)}, got {value!r}"
            )
