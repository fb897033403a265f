"""Shared infrastructure for the per-figure/per-table experiment drivers.

Every experiment driver produces an :class:`ExperimentResult`: the data
series that regenerate the paper's figure (or the rows of its table), plus a
list of :class:`Check` records that compare the measured *shape* against the
claims the paper makes about that figure.  Checks compare qualitative
behaviour (who wins, where cliffs fall, rough factors), never absolute
numbers, because the substrate here is a simulator rather than the authors'
testbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.table import format_series_table, format_table
from ..errors import AnalysisError, ValidationError


@dataclass(frozen=True)
class Check:
    """One qualitative expectation derived from the paper.

    ``passed`` is stored as a Python ``bool``: a check comparing numpy
    scalars hands in a ``numpy.bool_``, which is converted; any other
    type is refused, so every check serialises as JSON.
    """

    description: str
    passed: bool
    detail: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.passed, (bool, np.bool_)):
            raise ValidationError(
                f"check {self.description!r} needs a bool verdict, got "
                f"{type(self.passed).__name__}"
            )
        object.__setattr__(self, "passed", bool(self.passed))

    def status(self) -> str:
        """``PASS`` or ``FAIL`` marker used in reports."""
        return "PASS" if self.passed else "FAIL"


@dataclass
class ExperimentResult:
    """Everything an experiment produced.

    Attributes:
        experiment_id: identifier such as ``"figure-4"`` or ``"table-1"``.
        title: human-readable title matching the paper's caption.
        series: named ``(x, y)`` curves (empty for table-style experiments).
        x_label / y_label: axis labels for the series.
        table_headers / table_rows: tabular output (empty for figure-style
            experiments that only have curves).
        checks: shape checks against the paper's claims.
        notes: free-form remarks (calibration caveats, known deviations).
    """

    experiment_id: str
    title: str
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    x_label: str = "x"
    y_label: str = "y"
    table_headers: list[str] = field(default_factory=list)
    table_rows: list[list[object]] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether every shape check passed."""
        return all(check.passed for check in self.checks)

    @property
    def passed_checks(self) -> int:
        """Number of passing checks."""
        return sum(1 for check in self.checks if check.passed)

    def check_summary(self) -> str:
        """One-line summary such as ``"5/5 checks passed"``."""
        return f"{self.passed_checks}/{len(self.checks)} checks passed"

    def to_text(self) -> str:
        """Render the experiment result for terminal output."""
        sections = [f"{self.experiment_id}: {self.title}"]
        if self.series:
            sections.append(
                format_series_table(
                    self.series, x_label=self.x_label, title=f"[{self.y_label}]"
                )
            )
        if self.table_rows:
            if not self.table_headers:
                raise AnalysisError("table rows provided without headers")
            sections.append(format_table(self.table_headers, self.table_rows))
        if self.checks:
            check_rows = [
                [check.status(), check.description, check.detail]
                for check in self.checks
            ]
            sections.append(
                format_table(["status", "paper claim", "measured"], check_rows)
            )
        if self.notes:
            sections.append("\n".join(f"note: {note}" for note in self.notes))
        return "\n\n".join(sections)


def monotonic_increasing(points: list[tuple[float, float]], *, tolerance: float = 0.0) -> bool:
    """Whether a series never decreases by more than ``tolerance``."""
    values = [y for _, y in points]
    return all(b >= a - tolerance for a, b in zip(values, values[1:]))


def crossover_x(
    series_a: list[tuple[float, float]],
    series_b: list[tuple[float, float]],
) -> float | None:
    """Smallest x at which series A reaches or exceeds series B.

    Both series must be sampled at the same x values.  Returns ``None`` when
    A never catches B.
    """
    lookup_b = dict(series_b)
    for x, y in sorted(series_a):
        if x in lookup_b and y >= lookup_b[x]:
            return x
    return None


def value_at(points: list[tuple[float, float]], x: float) -> float:
    """The y value at a given x (exact match required)."""
    for px, py in points:
        if px == x:
            return py
    raise AnalysisError(f"no point at x={x}")
