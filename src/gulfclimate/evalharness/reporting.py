"""Deterministic report rendering: fixed-column text and versioned CSV."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from ..agent.serialization import write_text_escaped
from ..core.csvio import SinkFailure, format_row
from .runner import MetricReport

REPORT_CSV_VERSION = 1

_METRIC_ORDER = (
    ("InstAcc", "inst_acc"),
    ("ToolAcc", "tool_acc"),
    ("ArgAcc", "arg_acc"),
    ("SummAcc", "summ_acc"),
    ("AnsAcc", "ans_acc"),
    ("AnsAcc+I", "ans_acc_i"),
    ("Format Err. (%)", "format_err_pct"),
    ("Arg. Err. (%)", "arg_err_pct"),
    ("N/A (%)", "na_pct"),
)


def render_report(report: MetricReport) -> str:
    """Fixed-width table of the populated headline metrics."""
    lines = [f"mode: {report.mode}", ""]
    lines.append(f"{'metric':<18}{'value':>8}")
    lines.append("-" * 26)
    for label, key in _METRIC_ORDER:
        if key in report.metrics:
            lines.append(f"{label:<18}{report.metrics[key]:>8.1f}")
    lines.append("")
    lines.append(f"steps scored: {len(report.step_rows)}")
    lines.append(f"instances: {len(report.instance_rows)}")
    return "\n".join(lines) + "\n"


def _write_csv(path: str | Path, rows: Iterable[list]) -> None:
    """Write ``rows`` as UTF-8, a lone surrogate of an instance id or a fact
    label as its six-character escape (``\\ud83d``); unlike in JSON, such a
    field does not read back to the original string."""
    try:
        write_text_escaped(path, "".join(map(format_row, rows)))
    except OSError as exc:
        raise SinkFailure(str(exc)) from exc


def write_report_csv(report: MetricReport, path: str | Path) -> None:
    """Headline metrics as a two-column CSV with a version row."""
    rows = [["schema_version", REPORT_CSV_VERSION], ["mode", report.mode]]
    for label, key in _METRIC_ORDER:
        if key in report.metrics:
            rows.append([label, repr(round(report.metrics[key], 10))])
    _write_csv(path, rows)


def write_step_rows_csv(report: MetricReport, path: str | Path) -> None:
    _write_csv(path, [
        ["instance_id", "step_index", "inst", "tool", "arg", "summ", "error_class"],
        *([row.instance_id, row.step_index, row.inst, row.tool, row.arg, row.summ,
           row.error_class] for row in report.step_rows),
    ])


def write_instance_rows_csv(report: MetricReport, path: str | Path) -> None:
    _write_csv(path, [
        ["instance_id", "answered", "answered_with_images", "chart_ok", "missed_facts",
         "failure"],
        *([row.instance_id,
           "" if row.answered is None else row.answered,
           "" if row.answered_with_images is None else row.answered_with_images,
           "" if row.chart_ok is None else int(row.chart_ok),
           "|".join(row.missed_facts),
           row.failure or ""] for row in report.instance_rows),
    ])
