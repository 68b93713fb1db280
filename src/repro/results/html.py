"""Zero-dependency HTML rendering for the dashboard.

Server-rendered pages: tables, stat tiles, and inline-SVG line charts.
Colors follow a validated palette (categorical slots assigned in fixed
order, light and dark steps selected per surface, text always in ink
tokens rather than series colors); every chart ships a legend for >= 2
series, direct end-labels, and native ``<title>`` tooltips on markers.
"""

from __future__ import annotations

import re
from html import escape as esc  # noqa: F401 - re-exported for callers
from typing import Optional, Sequence

#: Finds a character :func:`html.escape` would replace.
_ESCAPABLE = re.compile("[&<>\"']").search

#: Categorical series slots (light, dark) in fixed assignment order —
#: a series keeps its slot even when others are filtered out.
SERIES_LIGHT = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100",
                "#e87ba4", "#008300", "#4a3aa7", "#e34948")
SERIES_DARK = ("#3987e5", "#d95926", "#199e70", "#c98500",
               "#d55181", "#008300", "#9085e9", "#e66767")

_SERIES_VARS_LIGHT = "\n".join(
    f"  --series-{i + 1}: {hex};" for i, hex in enumerate(SERIES_LIGHT))
_SERIES_VARS_DARK = "\n".join(
    f"    --series-{i + 1}: {hex};" for i, hex in enumerate(SERIES_DARK))

_STYLE = f"""
:root {{
  color-scheme: light;
  --page: #f9f9f7;
  --surface-1: #fcfcfb;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --good: #006300;
{_SERIES_VARS_LIGHT}
}}
@media (prefers-color-scheme: dark) {{
  :root {{
    color-scheme: dark;
    --page: #0d0d0d;
    --surface-1: #1a1a19;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --muted: #898781;
    --grid: #2c2c2a;
    --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --good: #0ca30c;
{_SERIES_VARS_DARK}
  }}
}}
* {{ box-sizing: border-box; }}
body {{
  margin: 0; padding: 24px;
  background: var(--page); color: var(--text-primary);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}}
main {{ max-width: 1080px; margin: 0 auto; }}
a {{ color: var(--series-1); text-decoration: none; }}
a:hover {{ text-decoration: underline; }}
h1 {{ font-size: 20px; margin: 0 0 4px; }}
h2 {{ font-size: 16px; margin: 28px 0 8px; }}
.subtitle {{ color: var(--text-secondary); margin: 0 0 20px; }}
nav {{ margin: 0 0 20px; color: var(--muted); }}
nav a {{ margin-right: 14px; }}
.card {{
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px; margin: 0 0 16px;
  overflow-x: auto;
}}
.tiles {{ display: flex; flex-wrap: wrap; gap: 12px; margin: 0 0 16px; }}
.tile {{
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 128px;
}}
.tile .v {{ font-size: 22px; font-weight: 600; }}
.tile .l {{ color: var(--text-secondary); font-size: 12px; }}
table {{ border-collapse: collapse; width: 100%; }}
th, td {{
  text-align: left; padding: 5px 10px;
  border-bottom: 1px solid var(--grid);
}}
th {{ color: var(--text-secondary); font-weight: 600; }}
td.num, th.num {{ text-align: right;
                  font-variant-numeric: tabular-nums; }}
tr:last-child td {{ border-bottom: none; }}
.swatch {{
  display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 6px; vertical-align: baseline;
}}
.legend {{ margin: 6px 0 0; color: var(--text-secondary);
           font-size: 12px; }}
.legend span {{ margin-right: 14px; white-space: nowrap; }}
.note {{ color: var(--muted); font-size: 12px; margin: 6px 0 0; }}
code {{ background: var(--grid); border-radius: 4px;
        padding: 1px 5px; font-size: 12px; }}
"""


def page(title: str, body: str, *, subtitle: str = "",
         active: str = "") -> str:
    """Full HTML document with the shared chrome and nav."""
    links = [("/", "overview"), ("/arena", "arena"),
             ("/faults", "faults"), ("/bench", "bench")]
    bold = ' style="font-weight:600"'
    nav = "".join(
        f'<a href="{href}"{bold if href == active else ""}>'
        f"{label}</a>" for href, label in links)
    sub = f'<p class="subtitle">{esc(subtitle)}</p>' if subtitle else ""
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head>"
        "<meta charset=\"utf-8\">"
        "<meta name=\"viewport\" content=\"width=device-width, "
        "initial-scale=1\">"
        f"<title>{esc(title)} · repro results</title>"
        f"<style>{_STYLE}</style></head><body><main>"
        f"<nav>{nav}</nav><h1>{esc(title)}</h1>{sub}{body}"
        "</main></body></html>")


def tiles(items: Sequence[tuple[str, object]]) -> str:
    cells = "".join(
        f'<div class="tile"><div class="v">{esc(str(value))}</div>'
        f'<div class="l">{esc(label)}</div></div>'
        for label, value in items)
    return f'<div class="tiles">{cells}</div>'


def table(headers: Sequence[str], rows: Sequence[Sequence[object]], *,
          numeric: Sequence[int] = (), raw: Sequence[int] = ()) -> str:
    """HTML table; ``numeric`` columns right-align with tabular figures,
    ``raw`` columns are trusted pre-built HTML (links, swatches)."""
    num = ' class="num"'
    head = "".join(
        f'<th{num if i in numeric else ""}>{esc(h)}</th>'
        for i, h in enumerate(headers))
    # One template per table, one search per row: a row is escaped cell
    # by cell only when some text cell of it holds a character to escape.
    row_html = "<tr>" + "".join(
        f'<td{num if i in numeric else ""}>%s</td>'
        for i in range(len(headers))) + "</tr>"
    text = [i for i in range(len(headers)) if i not in raw]
    body = []
    for row in rows:
        if _ESCAPABLE("".join([str(row[i]) for i in text])):
            row = [cell if i in raw else esc(str(cell))
                   for i, cell in enumerate(row)]
        body.append(row_html % tuple(row))
    return (f'<table><thead><tr>{head}</tr></thead>'
            f'<tbody>{"".join(body)}</tbody></table>')


def card(inner: str) -> str:
    return f'<div class="card">{inner}</div>'


def swatch(slot: int) -> str:
    return (f'<span class="swatch" '
            f'style="background:var(--series-{slot})"></span>')


def line_chart(labels: Sequence[str],
               series: Sequence[tuple[str, Sequence[Optional[float]]]],
               *, y_fmt: str = "{:,.0f}") -> str:
    """Multi-series SVG line chart, 640 x 200 user units.

    ``labels`` name the x positions (one per point); each series is
    ``(name, values)`` with ``None`` for gaps.  At most 8 series (the
    categorical palette's fixed slots); callers cap before this.
    """
    series = list(series)[:8]
    values = [v for _, vs in series for v in vs if v is not None]
    if not values or not labels:
        return '<p class="note">no data yet</p>'
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 1, hi + 1
    pad = 0.08 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    width, height = 640, 200
    ml, mr, mt, mb = 56, 16, 10, 24
    iw, ih = width - ml - mr, height - mt - mb
    n = len(labels)

    def x(i: int) -> float:
        return ml + (iw * i / max(1, n - 1) if n > 1 else iw / 2)

    def y(v: float) -> float:
        return mt + ih * (1.0 - (v - lo) / (hi - lo))

    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'style="width:100%;max-width:{width}px;height:auto">']
    # Recessive grid: 3 horizontal hairlines + y tick labels in muted ink.
    for frac in (0.0, 0.5, 1.0):
        v = lo + frac * (hi - lo)
        gy = y(v)
        parts.append(f'<line x1="{ml}" y1="{gy:.1f}" x2="{width - mr}" '
                     f'y2="{gy:.1f}" stroke="var(--grid)" '
                     'stroke-width="1"/>')
        parts.append(f'<text x="{ml - 8}" y="{gy + 4:.1f}" '
                     'text-anchor="end" font-size="11" '
                     'fill="var(--muted)" style="font-variant-numeric:'
                     f'tabular-nums">{esc(y_fmt.format(v))}</text>')
    # X labels: first / middle / last to avoid collisions.
    shown = {0, n - 1, (n - 1) // 2} if n > 1 else {0}
    for i in shown:
        parts.append(f'<text x="{x(i):.1f}" y="{height - 6}" '
                     'text-anchor="middle" font-size="11" '
                     f'fill="var(--muted)">{esc(labels[i])}</text>')
    for si, (name, vals) in enumerate(series):
        color = f"var(--series-{si + 1})"
        # Split into segments at None gaps.
        segment: list[tuple[float, float]] = []
        segments = []
        for i, v in enumerate(vals[:n]):
            if v is None:
                if segment:
                    segments.append(segment)
                segment = []
            else:
                segment.append((x(i), y(v)))
        if segment:
            segments.append(segment)
        for seg in segments:
            if len(seg) > 1:
                points = " ".join(f"{px:.1f},{py:.1f}"
                                  for px, py in seg)
                parts.append(f'<polyline points="{points}" fill="none" '
                             f'stroke="{color}" stroke-width="2" '
                             'stroke-linejoin="round"/>')
        for i, v in enumerate(vals[:n]):
            if v is None:
                continue
            # 8px markers with a 2px surface ring; <title> is the
            # native hover tooltip.
            parts.append(
                f'<circle cx="{x(i):.1f}" cy="{y(v):.1f}" r="4" '
                f'fill="{color}" stroke="var(--surface-1)" '
                f'stroke-width="2"><title>{esc(name)} · '
                f'{esc(labels[i])}: {esc(y_fmt.format(v))}</title>'
                '</circle>')
        # Direct end-label for up to 4 series, in ink (not series color).
        if len(series) <= 4:
            last = next((i for i in range(len(vals[:n]) - 1, -1, -1)
                         if vals[i] is not None), None)
            if last is not None:
                parts.append(
                    f'<text x="{x(last) + 8:.1f}" '
                    f'y="{y(vals[last]) + 4:.1f}" font-size="11" '
                    f'fill="var(--text-secondary)">{esc(name)}</text>')
    parts.append("</svg>")
    legend = ""
    if len(series) >= 2:
        legend = ('<div class="legend">' + "".join(
            f"<span>{swatch(i + 1)}{esc(name)}</span>"
            for i, (name, _) in enumerate(series)) + "</div>")
    return "".join(parts) + legend
