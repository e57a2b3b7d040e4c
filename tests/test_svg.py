"""The SVG writer against the per-bar renderer it replaced.

``per_bar_render_chart`` is the chart renderer as it was before bars were
emitted one chart at a time: one ``%``-format per bar and per category
label.  It is kept here as the oracle, and every rendered document must
equal its output byte for byte.
"""

from __future__ import annotations

import random
from html import escape

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcm import svg
from qcm.svg import (
    _CHART_HEIGHT,
    _LABEL_BAND,
    _MARGIN_LEFT,
    _MARGIN_RIGHT,
    _TITLE_BAND,
    _WIDTH,
    PALETTE,
    Chart,
    Series,
    _fmt,
)


def per_bar_render_chart(chart: Chart, y_offset: float, parts: list[str]) -> None:
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

    def y_of(value: float) -> float:
        return plot_top + (hi - value) / span * plot_height

    parts.append(
        f'<text x="{_fmt(plot_left)}" y="{_fmt(y_offset + 20)}" '
        f'font-size="14" font-weight="bold">{escape(chart.title, quote=False)}</text>'
    )
    parts.append(
        f'<line x1="{_fmt(plot_left)}" y1="{_fmt(plot_top)}" '
        f'x2="{_fmt(plot_left)}" y2="{_fmt(plot_top + plot_height)}" '
        f'stroke="#444444" stroke-width="1"/>'
    )
    zero_y = y_of(0.0)
    parts.append(
        f'<line x1="{_fmt(plot_left)}" y1="{_fmt(zero_y)}" '
        f'x2="{_fmt(plot_left + plot_width)}" y2="{_fmt(zero_y)}" '
        f'stroke="#444444" stroke-width="1"/>'
    )
    for bound, value in (("max", hi), ("min", lo)):
        parts.append(
            f'<text x="{_fmt(plot_left - 6)}" y="{_fmt(y_of(value) + 4)}" '
            f'font-size="10" text-anchor="end">{_fmt(value)}</text>'
        )

    n_cat = len(chart.categories)
    n_ser = max(1, len(chart.series))
    slot = plot_width / max(1, n_cat)
    bar = slot * 0.8 / n_ser
    label_y = plot_top + plot_height + 16
    for ci, category in enumerate(chart.categories):
        slot_left = plot_left + ci * slot + slot * 0.1
        for si, series in enumerate(chart.series):
            y = y_of(series.values[ci])
            parts.append(
                '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s"/>'
                % (slot_left + si * bar, min(y, zero_y), bar, abs(y - zero_y),
                   PALETTE[si % len(PALETTE)])
            )
        parts.append(
            '<text x="%.2f" y="%.2f" font-size="10" text-anchor="middle">%s</text>'
            % (plot_left + ci * slot + slot / 2, label_y, escape(category, quote=False))
        )

    legend_x = plot_left
    for si, series in enumerate(chart.series):
        color = PALETTE[si % len(PALETTE)]
        parts.append(
            f'<rect x="{_fmt(legend_x)}" y="{_fmt(plot_top + plot_height + 24)}" '
            f'width="10.00" height="10.00" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_fmt(legend_x + 14)}" y="{_fmt(plot_top + plot_height + 33)}" '
            f'font-size="10">{escape(series.label, quote=False)}</text>'
        )
        legend_x += 14 + 7 * len(series.label) + 18


def per_bar_render(charts) -> str:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(svg, "_render_chart", per_bar_render_chart)
        return svg.render(charts)


LABEL_CHARACTERS = "ab &<>%\"'"
labels = st.text(alphabet=LABEL_CHARACTERS, max_size=8)


def chart_values(kind: str, rng: random.Random) -> float:
    if kind == "zero":
        return 0.0
    if kind == "tiny":
        return rng.uniform(-1e-12, 1e-12)
    if kind == "negative":
        return -rng.expovariate(1.0) * 10.0 ** rng.randint(-6, 6)
    # mixed: signs, zeros of both signs and magnitudes from 1e-15 to 1e6
    return rng.choice((0.0, -0.0, rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-15, 6)))


@st.composite
def charts(draw) -> Chart:
    """Up to 400 categories and 4 series, values of one kind, labels holding ``&<>%``."""
    n_cat = draw(st.integers(min_value=0, max_value=400))
    kind = draw(st.sampled_from(["mixed", "negative", "zero", "tiny"]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    series = tuple(
        Series(label=label, values=tuple(chart_values(kind, rng) for _ in range(n_cat)))
        for label in draw(st.lists(labels, max_size=4))
    )
    categories = tuple(
        "".join(rng.choice(LABEL_CHARACTERS) for _ in range(rng.randint(0, 6)))
        for _ in range(n_cat)
    )
    return Chart(title=draw(labels), categories=categories, series=series)


@settings(max_examples=150, deadline=None)
@given(chart_list=st.lists(charts(), max_size=3))
@example(chart_list=[])
@example(chart_list=[Chart(title="%s", categories=("%", "&<>"), series=())])
@example(chart_list=[Chart(
    title="t", categories=("a", "b"), series=(Series(label="%d", values=(-1e-300, 5e-324)),)
)])
def test_render_matches_the_per_bar_renderer(chart_list):
    assert svg.render(chart_list) == per_bar_render(chart_list)
