"""Self-contained SVG line charts for convergence traces.

Emits a fixed-viewBox document with linear axes; no plotting library, no
renderer, byte-stable output for identical inputs.
"""

from __future__ import annotations

import numpy as np

WIDTH, HEIGHT = 840, 520
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 80, 150, 50, 60
N_TICKS = 5

PALETTE = {
    "ga": "#1f77b4",
    "gea1": "#ff7f0e",
    "gea2": "#2ca02c",
    "gea3": "#d62728",
    "gea": "#9467bd",
}
_FALLBACK_COLORS = ("#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def convergence_chart(series: dict[str, np.ndarray], title: str) -> str:
    """Best-cost-per-iteration lines, one per labelled series."""
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    x0, y0 = MARGIN_LEFT, MARGIN_TOP + plot_h

    lengths = [len(trace) for trace in series.values()]
    n_iters = max(lengths, default=0)
    if n_iters > 0:
        lo = min(float(np.min(t)) for t in series.values() if len(t))
        hi = max(float(np.max(t)) for t in series.values() if len(t))
    else:
        lo, hi = 0.0, 1.0
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0

    def sx(iteration: float) -> float:
        return x0 + plot_w * iteration / max(n_iters, 1)

    def sy(value: float) -> float:
        return y0 - plot_h * (value - lo) / (hi - lo)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'font-family="sans-serif" font-size="13">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="28" text-anchor="middle" font-size="17">'
        f'{_escape(title)}</text>',
    ]

    # axes with tick labels
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black"/>')
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{MARGIN_TOP}" stroke="black"/>')
    for i in range(N_TICKS + 1):
        frac = i / N_TICKS
        tick_x = x0 + plot_w * frac
        tick_iter = frac * n_iters
        out.append(f'<line x1="{tick_x:.2f}" y1="{y0}" x2="{tick_x:.2f}" y2="{y0 + 5}" '
                   f'stroke="black"/>')
        out.append(f'<text x="{tick_x:.2f}" y="{y0 + 20}" text-anchor="middle">'
                   f'{tick_iter:.0f}</text>')
        tick_y = y0 - plot_h * frac
        tick_val = lo + (hi - lo) * frac
        out.append(f'<line x1="{x0 - 5}" y1="{tick_y:.2f}" x2="{x0}" y2="{tick_y:.2f}" '
                   f'stroke="black"/>')
        out.append(f'<text x="{x0 - 9}" y="{tick_y + 4:.2f}" text-anchor="end">'
                   f'{tick_val:.2f}</text>')
    out.append(f'<text x="{x0 + plot_w / 2:.1f}" y="{HEIGHT - 18}" text-anchor="middle">'
               f'iteration</text>')
    out.append(f'<text x="22" y="{MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
               f'transform="rotate(-90 22 {MARGIN_TOP + plot_h / 2:.1f})">best cost</text>')

    legend_x = x0 + plot_w + 18
    for index, (label, trace) in enumerate(series.items()):
        color = PALETTE.get(label, _FALLBACK_COLORS[index % len(_FALLBACK_COLORS)])
        if len(trace):
            points = " ".join(f"{sx(i + 1):.2f},{sy(v):.2f}"
                              for i, v in _run_ends(trace))
            out.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                       f'stroke-width="1.6"/>')
        legend_y = MARGIN_TOP + 16 + 22 * index
        out.append(f'<rect x="{legend_x}" y="{legend_y - 10}" width="12" height="12" '
                   f'fill="{color}"/>')
        out.append(f'<text x="{legend_x + 18}" y="{legend_y + 1}">{_escape(label)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _run_ends(trace: np.ndarray) -> zip:
    """(iteration index, value) of the first and last point of each run of
    equal values: a polyline through them draws the whole trace, since the
    points between a run's ends lie on its flat segment."""
    trace = np.asarray(trace, dtype=np.float64)
    ends = np.ones(trace.size, dtype=bool)
    change = trace[1:] != trace[:-1]
    ends[1:-1] = change[:-1] | change[1:]
    index = ends.nonzero()[0]
    return zip(index.tolist(), trace[index].tolist())


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
