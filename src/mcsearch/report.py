"""Deterministic report rendering: aligned text table, CSV, and JSON lines.

Every format opens with the effective configuration and closes with the
summary, numbers are written with 12 significant digits (not shortest
round-trip), and row order is canonical, so identical inputs produce
byte-identical output.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class Report:
    kind: str
    config: dict[str, Any]
    columns: tuple[str, ...]
    rows: list[dict[str, Any]] = field(default_factory=list)
    summary: dict[str, Any] = field(default_factory=dict)


def fmt_value(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _round12(v: Any) -> Any:
    """Coerce floats to their 12-significant-digit value for JSON output."""
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, float):
        return float(f"{v:.12g}")
    return str(v)


def _comments(values: dict[str, Any]) -> list[str]:
    """The ``# key = value`` lines of a report's configuration or summary."""
    return [f"# {key} = {fmt_value(val)}" for key, val in values.items()]


def render_table(report: Report) -> str:
    lines = [f"# {report.kind}", *_comments(report.config)]
    if report.columns:
        cells = [
            [fmt_value(row.get(col)) for col in report.columns] for row in report.rows
        ]
        widths = [
            max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
            for i, col in enumerate(report.columns)
        ]
        lines.append("  ".join(col.ljust(w) for col, w in zip(report.columns, widths)).rstrip())
        lines.append("  ".join("-" * w for w in widths))
        for r in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    lines += _comments(report.summary)
    return "\n".join(lines) + "\n"


def render_csv(report: Report) -> str:
    """Comment lines carry the configuration and summary; the data block is
    plain CSV with one documented column set per report kind."""
    buf = io.StringIO()
    buf.writelines(f"{line}\n" for line in [f"# {report.kind}", *_comments(report.config)])
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.columns)
    for row in report.rows:
        writer.writerow([fmt_value(row.get(col)) for col in report.columns])
    buf.writelines(f"{line}\n" for line in _comments(report.summary))
    return buf.getvalue()


def render_json_lines(report: Report) -> str:
    def dumps(obj: dict) -> str:
        return json.dumps(obj, separators=(",", ":"), ensure_ascii=True)

    lines = [
        dumps(
            {"record": "config", "kind": report.kind}
            | {k: _round12(v) for k, v in report.config.items()}
        )
    ]
    for row in report.rows:
        lines.append(
            dumps({"record": "row"} | {col: _round12(row.get(col)) for col in report.columns})
        )
    lines.append(dumps({"record": "summary"} | {k: _round12(v) for k, v in report.summary.items()}))
    return "\n".join(lines) + "\n"


#: Report format name -> renderer.
FORMATS: dict[str, Callable[[Report], str]] = {
    "table": render_table,
    "csv": render_csv,
    "json-lines": render_json_lines,
}


def emit_report(report: Report, fmt: str) -> bytes:
    if fmt not in FORMATS:
        raise ValueError(f"unknown report format {fmt!r}; choose one of {', '.join(FORMATS)}")
    return FORMATS[fmt](report).encode()
