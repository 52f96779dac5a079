"""Result tables with reproducibility metadata.

A ResultTable is the one output shape every subcommand emits: named columns,
rows of plain values, and an ordered metadata block that echoes the full
effective configuration (so a run can be reproduced from its own output).
Rendering is deterministic: numbers are fixed at 12 significant digits and
no timestamps or environment state are recorded.
"""

from __future__ import annotations

import enum
import math
import sys

__all__ = ["ResultTable", "format_value"]


def format_value(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, enum.Enum):
        return str(value.value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.12g}"
    return str(value)


def _json_value(value):
    """format_value's text, typed; JSON has no NaN or infinity, so those are null."""
    if value is None or isinstance(value, (bool, int)):
        return value
    if isinstance(value, float):
        return float(format_value(value)) if math.isfinite(value) else None
    return format_value(value)


class ResultTable:
    def __init__(self, columns: list[str]):
        self.columns = columns
        self.rows: list[list] = []
        self.metadata: list[tuple[str, object]] = []

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError("row width does not match the column count")
        self.rows.append(list(values))

    def add_metadata(self, key: str, value) -> None:
        self.metadata.append((key, value))

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            lines = [f"# {key} = {format_value(value)}" for key, value in self.metadata]
            lines.append(",".join(self.columns))
            for row in self.rows:
                lines.append(",".join(format_value(v) for v in row))
            return "\n".join(lines) + "\n"
        if fmt == "json":
            import json  # only JSON output needs it

            doc = {"metadata": {key: _json_value(value) for key, value in self.metadata},
                   "columns": list(self.columns),
                   "rows": [[_json_value(v) for v in row] for row in self.rows]}
            return json.dumps(doc, indent=2, allow_nan=False) + "\n"
        raise ValueError(f"unknown output format {fmt!r}")

    def write(self, fmt: str, out_path=None) -> None:
        text = self.render(fmt)
        if out_path is None:
            sys.stdout.write(text)
        else:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
