"""Minimal deterministic SVG line plots.

The files are assembled from plain format strings with fixed precision, so
identical inputs produce byte-identical output; no plotting library is
involved.
"""

import os

import numpy as np

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 28, 44
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
SOURCE_STYLE = 'stroke="#888888" stroke-dasharray="6,4"'


def _coord(v):
    return f"{v:.3f}"


def _fmt_tick(v):
    return f"{v:.4g}"


class _Canvas:
    def __init__(self, title, xlabel, ylabel, xlim, ylim):
        self.parts = [
            '<?xml version="1.0" encoding="UTF-8"?>\n',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n',
        ]
        self.x0, self.x1 = xlim
        self.y0, self.y1 = ylim
        if self.x1 == self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 == self.y0:
            self.y1 = self.y0 + 1.0
        self._frame(title, xlabel, ylabel)

    def x_px(self, x):
        w = WIDTH - MARGIN_L - MARGIN_R
        return MARGIN_L + (x - self.x0) / (self.x1 - self.x0) * w

    def y_px(self, y):
        h = HEIGHT - MARGIN_T - MARGIN_B
        return HEIGHT - MARGIN_B - (y - self.y0) / (self.y1 - self.y0) * h

    def _frame(self, title, xlabel, ylabel):
        x0p, x1p = MARGIN_L, WIDTH - MARGIN_R
        y0p, y1p = HEIGHT - MARGIN_B, MARGIN_T
        self.parts.append(
            f'<rect x="{x0p}" y="{y1p}" width="{x1p - x0p}" height="{y0p - y1p}" '
            'fill="none" stroke="black"/>\n'
        )
        self.parts.append(
            f'<text x="{WIDTH // 2}" y="18" font-family="monospace" font-size="14" '
            f'text-anchor="middle">{title}</text>\n'
        )
        self.parts.append(
            f'<text x="{WIDTH // 2}" y="{HEIGHT - 8}" font-family="monospace" '
            f'font-size="12" text-anchor="middle">{xlabel}</text>\n'
        )
        self.parts.append(
            f'<text x="14" y="{HEIGHT // 2}" font-family="monospace" font-size="12" '
            f'text-anchor="middle" transform="rotate(-90 14 {HEIGHT // 2})">{ylabel}</text>\n'
        )
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            xv = self.x0 + frac * (self.x1 - self.x0)
            yv = self.y0 + frac * (self.y1 - self.y0)
            xp, yp = self.x_px(xv), self.y_px(yv)
            self.parts.append(
                f'<line x1="{_coord(xp)}" y1="{y0p}" x2="{_coord(xp)}" y2="{y0p + 4}" '
                'stroke="black"/>\n'
                f'<text x="{_coord(xp)}" y="{y0p + 16}" font-family="monospace" '
                f'font-size="10" text-anchor="middle">{_fmt_tick(xv)}</text>\n'
            )
            self.parts.append(
                f'<line x1="{x0p - 4}" y1="{_coord(yp)}" x2="{x0p}" y2="{_coord(yp)}" '
                'stroke="black"/>\n'
                f'<text x="{x0p - 6}" y="{_coord(yp + 3)}" font-family="monospace" '
                f'font-size="10" text-anchor="end">{_fmt_tick(yv)}</text>\n'
            )

    def polyline(self, xs, ys, color, extra=""):
        # whole-array pixel maps, formatted as Python floats: the per-point bytes
        px, py = self.x_px(xs).tolist(), self.y_px(ys).tolist()
        pts = " ".join(map("{:.3f},{:.3f}".format, px, py))
        style = extra if extra else f'stroke="{color}"'
        self.parts.append(
            f'<polyline fill="none" {style} stroke-width="1.2" points="{pts}"/>\n'
        )

    def legend(self, labels_colors):
        x = MARGIN_L + 10
        y = MARGIN_T + 16
        for label, color in labels_colors:
            self.parts.append(
                f'<line x1="{x}" y1="{y - 4}" x2="{x + 22}" y2="{y - 4}" '
                f'stroke="{color}" stroke-width="2"/>\n'
                f'<text x="{x + 28}" y="{y}" font-family="monospace" '
                f'font-size="11">{label}</text>\n'
            )
            y += 16

    def write(self, path):
        self.parts.append("</svg>\n")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("".join(self.parts))


def _limits(arrays, pad=0.05):
    lo = min(float(np.min(a)) for a in arrays)
    hi = max(float(np.max(a)) for a in arrays)
    span = hi - lo
    if span == 0.0:
        span = 1.0
    return lo - pad * span, hi + pad * span


def plot_lines(path, title, xlabel, ylabel, series):
    """Write one SVG with a line per (label, xs, ys) triple."""
    series = [(label, np.asarray(xs), np.asarray(ys)) for label, xs, ys in series]
    if not series or any(xs.size == 0 for _, xs, _ in series):
        raise ValueError("refusing to plot an empty trajectory")
    canvas = _Canvas(
        title,
        xlabel,
        ylabel,
        _limits([xs for _, xs, _ in series]),
        _limits([ys for _, _, ys in series]),
    )
    labels = []
    for k, (label, xs, ys) in enumerate(series):
        if label == "source":
            canvas.polyline(xs, ys, None, extra=SOURCE_STYLE)
            labels.append((label, "#888888"))
        else:
            color = PALETTE[k % len(PALETTE)]
            canvas.polyline(xs, ys, color)
            labels.append((label, color))
    canvas.legend(labels)
    canvas.write(path)
    return path


def plot_artifacts(name, tables, out_dir, field):
    """Signal-versus-time plot plus the three axis-plane trajectory projections.

    tables maps representation -> array with the scenario CSV columns.
    Returns the list of files written.
    """
    if not tables:
        raise ValueError("no trajectories to plot")
    paths = []
    signal_series = [
        (rep, tab[:, 0], tab[:, 5]) for rep, tab in sorted(tables.items())
    ]
    paths.append(
        plot_lines(
            os.path.join(out_dir, f"{name}_signal.svg"),
            f"{name}: signal strength versus time",
            "t",
            "c",
            signal_series,
        )
    )
    projections = [("xy", 1, 2), ("xz", 1, 3), ("yz", 2, 3)]
    some = next(iter(tables.values()))
    ts = some[:, 0]
    src = np.array([field.source(t) for t in ts])
    for tag, ix, iy in projections:
        series = [
            (rep, tab[:, ix], tab[:, iy]) for rep, tab in sorted(tables.items())
        ]
        series.append(("source", src[:, ix - 1], src[:, iy - 1]))
        paths.append(
            plot_lines(
                os.path.join(out_dir, f"{name}_traj_{tag}.svg"),
                f"{name}: trajectory ({tag[0]}, {tag[1]})",
                f"p{tag[0]}",
                f"p{tag[1]}",
                series,
            )
        )
    return paths
