"""Analysis helpers: text tables, ASCII plots and report generation."""

from .ascii_plot import ascii_plot
from .attribution import (
    attribute_spans,
    format_attribution_summary,
)
from .contention import (
    device_slowdowns,
    format_contention_summary,
    jain_fairness_index,
)
from .control import format_control_summary
from .fleet import (
    default_slo_thresholds,
    fleet_slo_fractions,
    format_fleet_summary,
)
from .report import experiments_markdown, summary_line, write_experiments_markdown
from .table import format_nicsim_summary, format_series_table, format_table

__all__ = [
    "ascii_plot",
    "attribute_spans",
    "format_attribution_summary",
    "device_slowdowns",
    "format_contention_summary",
    "format_control_summary",
    "jain_fairness_index",
    "default_slo_thresholds",
    "fleet_slo_fractions",
    "format_fleet_summary",
    "experiments_markdown",
    "summary_line",
    "write_experiments_markdown",
    "format_nicsim_summary",
    "format_series_table",
    "format_table",
]
