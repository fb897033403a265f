"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish configuration problems from runtime simulation problems.
"""

from __future__ import annotations

import functools


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


class UnknownProfileError(ConfigurationError):
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
    trip.  Apply it beneath ``@classmethod``.
    """

    @functools.wraps(from_dict)
    def read(cls, data):
        try:
            return from_dict(cls, data)
        except (KeyError, TypeError, ValueError, ValidationError) as exc:
            detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ValidationError(
                f"malformed {cls.__name__} record: {detail}"
            ) from exc

    return read
