"""ASCII bar-chart rendering for figure results.

Terminal-friendly rendering of the regenerated figures -- stacked bars
for the breakdown figures, grouped bars for the PIM comparisons --
so ``python -m repro figures --chart`` gives a visual read without any
plotting dependency.
"""

from __future__ import annotations

from repro._sum import left_sum
from repro.analysis.base import FigureResult

#: Characters per full-scale bar.
BAR_WIDTH = 48
#: Fill characters cycled per stacked segment.
FILLS = "#=+*%@ox"
#: Narrowest label column.
LABEL_WIDTH = 24


def _label(row: dict, plotted: list[str]) -> str:
    """A row's label: its unplotted columns, ``key=value`` unless a string."""
    return " ".join(
        value if isinstance(value, str) else "%s=%s" % (key, value)
        for key, value in row.items()
        if key not in plotted
    )


def _cells(value: float, scale: float) -> int:
    if scale <= 0:
        return 0
    return max(int(round(BAR_WIDTH * value / scale)), 0)


def _stacked_bar(parts: list[float], scale: float, length: int) -> str:
    """``parts`` stacked end to end, cut or padded with ``.`` to ``length``.

    Segment edges round from the running sum, so the segments add up to
    the cells of the whole bar rather than drifting by one per part.
    """
    out = []
    edge = 0
    running = 0.0
    for i, value in enumerate(parts):
        running += value
        end = max(_cells(running, scale), edge)
        out.append(FILLS[i % len(FILLS)] * (end - edge))
        edge = end
    return "".join(out)[:length].ljust(length, ".")


def render_chart(result: FigureResult) -> str:
    """Render a figure's rows as ASCII bars.

    Rows are grouped by their key tuple in order of first appearance, as
    EXPERIMENTS.md renders one table per group; each group gets one
    legend and one block of bars.  A row's float columns stack into its
    bar, and its other columns (names, flags, integer x values such as a
    GEMM count) label it.  A ``total_*`` column is the bar's length,
    never a segment, and groups with the same total column share one
    scale so their bars compare; any other group is scaled to its own
    longest bar.  A figure with no float column falls back to the
    textual rendering.
    """
    groups: dict[tuple, list[dict]] = {}
    for row in result.rows:
        groups.setdefault(tuple(row), []).append(row)
    blocks = []
    scales: dict = {}
    for keys, rows in groups.items():
        plotted = [k for k in keys if isinstance(rows[0][k], float)]
        total = next((k for k in plotted if k.startswith("total_")), None)
        parts = [k for k in plotted if not k.startswith("total_")] or plotted
        if total is not None:
            lengths = [float(row[total]) for row in rows]
        else:
            lengths = [left_sum(float(row[k]) for k in parts) for row in rows]
        scale_key = total or keys
        scales[scale_key] = max([scales.get(scale_key, 0.0)] + lengths)
        blocks.append((rows, plotted, total, parts, lengths, scale_key))
    if not any(plotted for _, plotted, *_ in blocks):
        return result.render_text()
    lines = ["%s: %s" % (result.figure_id, result.title)]
    for rows, plotted, total, parts, lengths, scale_key in blocks:
        legend = "  legend: " + "  ".join(
            "%s=%s" % (FILLS[i % len(FILLS)], key) for i, key in enumerate(parts)
        )
        if total is not None:
            legend += "  (bar length: %s)" % total
        lines.append(legend)
        labels = [_label(row, plotted) for row in rows]
        width = max([LABEL_WIDTH] + [len(label) for label in labels])
        scale = scales[scale_key]
        for row, label, length in zip(rows, labels, lengths):
            bar = _stacked_bar(
                [float(row[k]) for k in parts], scale, _cells(length, scale)
            )
            lines.append("  %-*s |%s" % (width, label, bar))
    return "\n".join(lines)


def render_all_charts(results: list[FigureResult]) -> str:
    return "\n\n".join(render_chart(r) for r in results)
