"""Plain-text reporting helpers for benchmark/example output.

The harness prints the same rows/series the paper's tables and figures
show; these helpers keep that formatting in one place.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Fixed-width ASCII table."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i])
                         for i, cell in enumerate(cells))
    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


def format_series(series: Sequence[tuple[int, float]], *,
                  value_fmt: str = "{:.3f}", max_rows: int = 20) -> str:
    """Down-sampled (time in ns, value) listing for figure-style series,
    times printed in microseconds."""
    if not series:
        return "(empty series)"
    step = max(1, len(series) // max_rows)
    sampled = list(series[::step])
    if sampled[-1] != series[-1]:
        sampled.append(series[-1])
    lines = [f"{t / 1000:>12.1f} us  "
             + value_fmt.format(v) for t, v in sampled]
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Unicode mini-chart, handy for eyeballing rate sawtooths."""
    if not values:
        return ""
    blocks = "▁▂▃▄▅▆▇█"
    step = max(1, len(values) // width)
    sampled = list(values[::step])
    low, high = min(sampled), max(sampled)
    span = (high - low) or 1.0
    return "".join(blocks[int((v - low) / span * (len(blocks) - 1))]
                   for v in sampled)


def percent(value: float) -> str:
    return f"{value * 100:.1f}%"


def write_json(path: str | Path, payload: dict) -> Path:
    """Persist a result payload next to the benchmarks."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, default=str))
    return path


#: A ``types`` entry for any finite JSON number, and for one or null.
NUMBER = (int, float)
NUMBER_OR_NULL = (int, float, type(None))
_TYPE_NAMES = {dict: "an object", list: "a list", bool: "a bool",
               int: "an int", str: "a string", NUMBER: "a number",
               NUMBER_OR_NULL: "a number or null"}


def field_problems(obj: dict, required: Sequence[str] = (), *,
                   label: str = "",
                   types: Optional[Mapping[str, type]] = None) -> list[str]:
    """The "missing fields / wrong type" check of every document validator.

    A labelled object (a cell, a ranking row) names all its absent fields
    in one problem; an unlabelled one (a whole document, a job result)
    reports one problem per key.  ``types`` constrains keys that are
    present; a bool satisfies only ``bool``, never ``int`` or
    :data:`NUMBER`, and a NaN or infinity no type (``json`` reads them,
    but they are not JSON and sqlite stores a NaN as NULL).  Anything but
    an object is itself the one problem.
    """
    if not isinstance(obj, dict):
        return [f"{label or 'document'} is not an object"]
    missing = [key for key in required if key not in obj]
    if label:
        problems = [f"{label} missing fields: {missing}"] if missing else []
    else:
        problems = [f"missing key {key!r}" for key in missing]
    where = f"{label}." if label else ""
    for key, expected in (types or {}).items():
        if key not in obj:
            continue
        value = obj[key]
        if not isinstance(value, expected) or (
                isinstance(value, bool) and expected is not bool):
            problems.append(f"{where}{key} is not {_TYPE_NAMES[expected]}")
        elif isinstance(value, float) and not math.isfinite(value):
            problems.append(f"{where}{key} is not finite ({value})")
    return problems
