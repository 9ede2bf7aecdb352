import re

import numpy as np

from gea.charts import HEIGHT, MARGIN_BOTTOM, MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, WIDTH
from gea.charts import convergence_chart


def polylines(svg):
    """The (x, y) points of each polyline, in drawing order."""
    return [[tuple(map(float, point.split(","))) for point in points.split()]
            for points in re.findall(r'<polyline points="([^"]*)"', svg)]


def trace_points(series):
    """Every (iteration, value) point of each trace in chart coordinates, as
    the chart scales them: iteration i + 1 on x, the value on y."""
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    n_iters = max(len(trace) for trace in series.values())
    lo = min(float(np.min(trace)) for trace in series.values())
    hi = max(float(np.max(trace)) for trace in series.values())
    return [[(MARGIN_LEFT + plot_w * (i + 1) / n_iters,
              MARGIN_TOP + plot_h - plot_h * (v - lo) / (hi - lo)) for i, v in enumerate(trace)]
            for trace in series.values()]


def on_path(path, x, y, tolerance=0.01):
    """True when (x, y) lies on a segment of the polyline, to its 2 decimals."""
    for (xa, ya), (xb, yb) in zip(path, path[1:]):
        if xa - tolerance <= x <= xb + tolerance:
            t = 0.0 if xb == xa else min(max((x - xa) / (xb - xa), 0.0), 1.0)
            if abs(ya + t * (yb - ya) - y) <= tolerance:
                return True
    return len(path) == 1 and abs(path[0][0] - x) <= tolerance and abs(path[0][1] - y) <= tolerance


class TestConvergenceChart:
    def test_path_passes_through_every_trace_point(self):
        rng = np.random.default_rng(3)
        # non-increasing best-cost traces with long flat runs, one with a
        # drop at every iteration, and a one-point trace
        series = {
            "ga": np.minimum.accumulate(100 - 40 * (rng.random(400) < 0.03).cumsum() / 12),
            "gea": np.minimum.accumulate(90 - rng.random(400) * 50 * (rng.random(400) < 0.05)),
            "gea1": np.linspace(80, 60, 400),
            "gea2": np.array([75.0]),
        }
        paths = polylines(convergence_chart(series, "t"))
        for path, points in zip(paths, trace_points(series)):
            assert all(on_path(path, x, y) for x, y in points)
            # the path keeps points of the trace, first and last included
            assert abs(path[0][0] - points[0][0]) < 0.01 and abs(path[-1][0] - points[-1][0]) < 0.01
        assert len(paths[2]) == 400
        assert len(paths[0]) < 400 and len(paths[1]) < 400

    def test_flat_trace_draws_its_two_ends(self):
        series = {"ga": np.full(1000, 42.0), "gea": np.linspace(50.0, 40.0, 1000)}
        flat, sloped = polylines(convergence_chart(series, "flat"))
        assert flat == [(MARGIN_LEFT + (WIDTH - MARGIN_LEFT - MARGIN_RIGHT) / 1000, flat[0][1]),
                        (WIDTH - MARGIN_RIGHT, flat[0][1])]
        assert len(sloped) == 1000
