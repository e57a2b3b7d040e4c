"""Tiny deterministic SVG bar-chart writer for --plot output.

Hand-rolled on purpose: plotting libraries embed timestamps, library
versions, and font metrics in their SVG output, which breaks byte-stable
golden files.  Coordinates are fixed-format decimals, the palette and
layout are constants, and the output depends only on the chart data.
Bars and category labels are emitted per chart, by one ``%``-format.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain

from .data import Record

PALETTE = ("#4477aa", "#ee6677", "#228833", "#ccbb44")

_WIDTH = 720
_CHART_HEIGHT = 250
_MARGIN_LEFT = 56
_MARGIN_RIGHT = 16
_TITLE_BAND = 34
_LABEL_BAND = 38


class Series(Record):
    label: str
    values: tuple[float, ...]


class Chart(Record):
    title: str
    categories: tuple[str, ...]
    series: tuple[Series, ...]

    def __post_init__(self):
        for series in self.series:
            if len(series.values) != len(self.categories):
                raise ValueError(
                    f"series {series.label!r} has {len(series.values)} values "
                    f"for {len(self.categories)} categories"
                )


def _escape(text: str) -> str:
    """``html.escape(text, quote=False)``, without loading ``html.entities``."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _render_chart(chart: Chart, y_offset: float, parts: list[str]) -> None:
    plot_top = y_offset + _TITLE_BAND
    plot_height = _CHART_HEIGHT - _TITLE_BAND - _LABEL_BAND
    plot_left = float(_MARGIN_LEFT)
    plot_width = float(_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT)

    all_values = [v for s in chart.series for v in s.values]
    lo = min(0.0, min(all_values)) if all_values else 0.0
    hi = max(0.0, max(all_values)) if all_values else 1.0
    if hi - lo < 1e-12:
        hi = lo + 1.0
    span = hi - lo

    parts.append(
        f'<text x="{_fmt(plot_left)}" y="{_fmt(y_offset + 20)}" '
        f'font-size="14" font-weight="bold">{_escape(chart.title)}</text>'
    )
    # axis lines: left edge and the zero line
    parts.append(
        f'<line x1="{_fmt(plot_left)}" y1="{_fmt(plot_top)}" '
        f'x2="{_fmt(plot_left)}" y2="{_fmt(plot_top + plot_height)}" '
        f'stroke="#444444" stroke-width="1"/>'
    )
    zero_y = plot_top + hi / span * plot_height
    parts.append(
        f'<line x1="{_fmt(plot_left)}" y1="{_fmt(zero_y)}" '
        f'x2="{_fmt(plot_left + plot_width)}" y2="{_fmt(zero_y)}" '
        f'stroke="#444444" stroke-width="1"/>'
    )
    for value in (hi, lo):
        parts.append(
            f'<text x="{_fmt(plot_left - 6)}" '
            f'y="{_fmt(plot_top + (hi - value) / span * plot_height + 4)}" '
            f'font-size="10" text-anchor="end">{_fmt(value)}</text>'
        )

    n_cat = len(chart.categories)
    n_ser = max(1, len(chart.series))
    slot = plot_width / max(1, n_cat)
    bar = slot * 0.8 / n_ser
    # one row per category: each series' bar, then the category label
    row, columns = [], []
    for si, series in enumerate(chart.series):
        row.append('<rect x="%%.2f" y="%%.2f" width="%.2f" height="%%.2f" fill="%s"/>'
                   % (bar, PALETTE[si % len(PALETTE)]))
        ys = [plot_top + (hi - value) / span * plot_height for value in series.values]
        columns += ([plot_left + ci * slot + slot * 0.1 + si * bar for ci in range(n_cat)],
                    [min(y, zero_y) for y in ys], [abs(y - zero_y) for y in ys])
    row.append('<text x="%%.2f" y="%.2f" font-size="10" text-anchor="middle">%%s</text>'
               % (plot_top + plot_height + 16))
    columns += ([plot_left + ci * slot + slot / 2 for ci in range(n_cat)],
                [_escape(category) for category in chart.categories])
    if n_cat:
        parts.append("\n".join(["\n".join(row)] * n_cat) % tuple(chain(*zip(*columns))))

    legend_x = plot_left
    for si, series in enumerate(chart.series):
        color = PALETTE[si % len(PALETTE)]
        parts.append(
            f'<rect x="{_fmt(legend_x)}" y="{_fmt(plot_top + plot_height + 24)}" '
            f'width="10.00" height="10.00" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_fmt(legend_x + 14)}" y="{_fmt(plot_top + plot_height + 33)}" '
            f'font-size="10">{_escape(series.label)}</text>'
        )
        legend_x += 14 + 7 * len(series.label) + 18


def render(charts: Sequence[Chart]) -> str:
    """Render charts stacked vertically into one standalone SVG document."""
    height = max(1, len(charts)) * _CHART_HEIGHT
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{height}" viewBox="0 0 {_WIDTH} {height}" '
        f'font-family="sans-serif">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{height}" fill="#ffffff"/>',
    ]
    for index, chart in enumerate(charts):
        _render_chart(chart, float(index * _CHART_HEIGHT), parts)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
