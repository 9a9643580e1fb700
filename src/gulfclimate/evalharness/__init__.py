"""Regression benchmark: gold-trace step scoring, e2e scoring, error taxonomy.

perfbench imports the names below through this package root; they go when it
imports them from their own modules."""

from .model import check_against_registry, load_instances
from .reporting import (
    render_report,
    write_instance_rows_csv,
    write_report_csv,
    write_step_rows_csv,
)
from .runner import run_e2e_mode, run_step_mode

__all__ = [
    "check_against_registry",
    "load_instances",
    "render_report",
    "run_e2e_mode",
    "run_step_mode",
    "write_instance_rows_csv",
    "write_report_csv",
    "write_step_rows_csv",
]
