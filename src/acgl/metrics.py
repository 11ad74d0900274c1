"""Run metrics and report emission.

Average performance (AP) is the mean accuracy over all tasks after the
final session; average forgetting (AF) is the mean drop from each task's
just-learned accuracy to its final accuracy (positive means forgetting,
negative means late improvement). Reports are emitted as a JSON document,
a CSV of the performance matrix, and a hand-rolled SVG heatmap; emission
is byte-deterministic given the report value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .harness import PerformanceMatrix

REPORT_SCHEMA_VERSION = 1

# Fixed color ramp: accuracy 0 maps to dark, 1 to bright.
_RAMP_LO = (16, 20, 40)
_RAMP_HI = (250, 235, 100)
_CELL = 48
_MARGIN = 56


def average_performance(matrix: PerformanceMatrix) -> float:
    """Mean of the final row: accuracy over all tasks after the last session."""
    if matrix.num_sessions < 1:
        raise ValueError("performance matrix is empty")
    row = matrix.final_row
    return float(sum(row) / len(row))


def average_forgetting(matrix: PerformanceMatrix) -> float:
    """Mean of (just-learned accuracy - final accuracy) over non-final tasks.

    The formula divides by k - 1, so it needs at least two sessions, which
    every run has (``build_session_plan`` requires ``c0 < C``); fewer rows
    raise ValueError.
    """
    k = matrix.num_sessions
    if k < 2:
        raise ValueError(f"average forgetting needs at least two sessions, got {k}")
    drops = [matrix.entry(i, i) - matrix.entry(k - 1, i) for i in range(k - 1)]
    return float(sum(drops) / (k - 1))


@dataclass(frozen=True)
class RunReport:
    matrix: PerformanceMatrix
    times: dict
    config: dict

    @property
    def ap(self) -> float:
        return average_performance(self.matrix)

    @property
    def af(self) -> float:
        return average_forgetting(self.matrix)


def matrix_to_csv(matrix: PerformanceMatrix) -> str:
    """Ragged CSV, one session per row; reals use shortest round-trip form."""
    return "".join(",".join(repr(v) for v in row) + "\n" for row in matrix.rows)


def matrix_from_csv(text: str) -> PerformanceMatrix:
    rows = tuple(
        tuple(float(cell) for cell in line.split(","))
        for line in text.splitlines()
        if line.strip()
    )
    return PerformanceMatrix(rows=rows)


def _ramp_color(v: float) -> str:
    v = min(1.0, max(0.0, v))
    rgb = (round(lo + (hi - lo) * v) for lo, hi in zip(_RAMP_LO, _RAMP_HI))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _text(x, y, size: int, body, *, anchor: str | None = "middle", fill: str | None = None) -> str:
    """One monospace ``<text>`` element; a float ``x`` or ``y`` arrives already formatted."""
    anchor_attr = "" if anchor is None else f' text-anchor="{anchor}"'
    fill_attr = "" if fill is None else f' fill="{fill}"'
    return (f'<text x="{x}" y="{y}"{anchor_attr} font-family="monospace" '
            f'font-size="{size}"{fill_attr}>{body}</text>')


def heatmap_svg(matrix: PerformanceMatrix) -> str:
    """Lower-triangular accuracy heatmap; row = after-session, column = task."""
    n = matrix.num_sessions
    width = _MARGIN + n * _CELL + 16
    height = _MARGIN + n * _CELL + 16
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        _text(f"{_MARGIN + n * _CELL / 2:.0f}", 16, 12, "accuracy on task i after session k"),
    ]
    for k in range(n):
        y = _MARGIN + k * _CELL
        parts.append(_text(_MARGIN - 8, f"{y + _CELL / 2 + 4:.0f}", 11, f"k={k}", anchor="end"))
        for i in range(k + 1):
            x = _MARGIN + i * _CELL
            v = matrix.entry(k, i)
            parts.append(
                f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
                f'fill="{_ramp_color(v)}" stroke="white" stroke-width="1"/>'
            )
            parts.append(_text(f"{x + _CELL / 2:.0f}", f"{y + _CELL / 2 + 4:.0f}", 10,
                               f"{v * 100:.1f}", fill="#ffffff" if v < 0.5 else "#000000"))
    for i in range(n):
        x = _MARGIN + i * _CELL
        parts.append(_text(f"{x + _CELL / 2:.0f}", _MARGIN - 8, 11, f"i={i}"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def curve_svg(xs: list[str], series: dict[str, list[float]], title: str) -> str:
    """Simple multi-series line plot over categorical x positions."""
    n = len(xs)
    width, height = 480, 320
    left, right, top, bottom = 64, 16, 32, 48
    plot_w, plot_h = width - left - right, height - top - bottom
    all_vals = [v for vals in series.values() for v in vals]
    lo, hi = min(all_vals), max(all_vals)
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    colors = ["#1f5fa8", "#c03a2b", "#2a8f4e", "#7a4fa3"]

    def px(i: int) -> float:
        return left + (plot_w * i / max(1, n - 1))

    def py(v: float) -> float:
        return top + plot_h * (1.0 - (v - lo) / (hi - lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        _text(f"{width / 2:.0f}", 18, 12, title),
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#888888" stroke-width="1"/>',
    ]
    for i, x in enumerate(xs):
        parts.append(_text(f"{px(i):.1f}", height - bottom + 16, 10, x))
    for tick in (lo, (lo + hi) / 2, hi):
        parts.append(_text(left - 6, f"{py(tick) + 4:.1f}", 10, f"{tick:.3f}", anchor="end"))
    for idx, (name, vals) in enumerate(series.items()):
        color = colors[idx % len(colors)]
        points = " ".join(f"{px(i):.1f},{py(v):.1f}" for i, v in enumerate(vals))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for i, v in enumerate(vals):
            parts.append(f'<circle cx="{px(i):.1f}" cy="{py(v):.1f}" r="3" fill="{color}"/>')
        parts.append(_text(left + 8, top + 16 + 14 * idx, 11, name, anchor=None, fill=color))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def report_to_json(report: RunReport) -> str:
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "ap": report.ap,
        "af": report.af,
        "times": report.times,
        "config": report.config,
        "matrix": [list(row) for row in report.matrix.rows],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def emit_report(report: RunReport, out_dir) -> None:
    """Write report.json, matrix.csv, and heatmap.svg into ``out_dir``.

    Deterministic byte output for a given report. I/O errors propagate
    with their paths intact.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    targets = {
        out / "report.json": report_to_json(report),
        out / "matrix.csv": matrix_to_csv(report.matrix),
        out / "heatmap.svg": heatmap_svg(report.matrix),
    }
    for path, content in targets.items():
        path.write_text(content, encoding="utf-8")

