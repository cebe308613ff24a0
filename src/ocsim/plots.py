"""Static SVG plots of per-interval metrics with margin bands and phase markers.

Hand-rolled SVG keeps the output byte-identical for identical runs, which the
export contract requires; plotting libraries embed volatile ids/timestamps.
"""
from __future__ import annotations

import os

from .metrics import METRICS, PHASES

WIDTH, HEIGHT = 720, 360
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 60, 20, 30, 40

METRIC_TITLES = {
    "convergence_ticks": "Convergence speed (optimization duration, ticks)",
    "solution_quality": "Solution quality (distance to target, kW)",
    "message_count": "Messages exchanged per interval",
}


def _scale(vmin, vmax):
    if vmax <= vmin:
        vmax = vmin + 1.0
    span = vmax - vmin
    pad = 0.08 * span
    vmin, vmax = vmin - pad, vmax + pad

    def sy(v):
        frac = (v - vmin) / (vmax - vmin)
        return MARGIN_T + (1.0 - frac) * (HEIGHT - MARGIN_T - MARGIN_B)
    return sy, vmin, vmax


def _fmt(v):
    return f"{v:.3f}".rstrip("0").rstrip(".")


def render_metric_svg(records, margin, metric, incident, control, warning) -> str:
    xs = [r.interval for r in records]
    ys = [r.metric(metric) for r in records]
    vmin = min(ys + [margin.lower]) if ys else 0.0
    vmax = max(ys + [margin.upper]) if ys else 1.0
    sy, vmin, vmax = _scale(vmin, vmax)
    x0, x1 = (min(xs), max(xs)) if xs else (0, 1)
    if x1 <= x0:
        x1 = x0 + 1

    def sx(x):
        return MARGIN_L + (x - x0) / (x1 - x0) * (WIDTH - MARGIN_L - MARGIN_R)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
             f'viewBox="0 0 {WIDTH} {HEIGHT}">',
             f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
             f'<text x="{WIDTH // 2}" y="18" text-anchor="middle" font-size="13" '
             f'font-family="sans-serif">{METRIC_TITLES[metric]}</text>']
    # margin band and target
    for value, color, name in ((margin.lower, "#888888", "lower"),
                               (margin.upper, "#888888", "upper"),
                               (margin.target, "#2266cc", "target")):
        y = sy(value)
        parts.append(f'<line x1="{MARGIN_L}" y1="{y:.2f}" x2="{WIDTH - MARGIN_R}" '
                     f'y2="{y:.2f}" stroke="{color}" stroke-dasharray="5,4" stroke-width="1"/>')
        parts.append(f'<text x="{WIDTH - MARGIN_R - 2}" y="{y - 3:.2f}" text-anchor="end" '
                     f'font-size="10" font-family="sans-serif" fill="{color}">'
                     f'{name} {_fmt(value)}</text>')
    # phase markers
    for x, name in ((incident, "incident"), (control, "control")):
        if x is None or not (x0 <= x <= x1):
            continue
        px = sx(x)
        parts.append(f'<line x1="{px:.2f}" y1="{MARGIN_T}" x2="{px:.2f}" '
                     f'y2="{HEIGHT - MARGIN_B}" stroke="#cc3322" stroke-width="1"/>')
        parts.append(f'<text x="{px + 3:.2f}" y="{MARGIN_T + 12}" font-size="10" '
                     f'font-family="sans-serif" fill="#cc3322">{name} {x}</text>')
    # series
    if xs:
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" stroke="#222222" '
                     f'stroke-width="1.5"/>')
    # axes
    parts.append(f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" x2="{WIDTH - MARGIN_R}" '
                 f'y2="{HEIGHT - MARGIN_B}" stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
                 f'y2="{HEIGHT - MARGIN_B}" stroke="black" stroke-width="1"/>')
    parts.append(f'<text x="{WIDTH // 2}" y="{HEIGHT - 8}" text-anchor="middle" '
                 f'font-size="11" font-family="sans-serif">negotiation interval</text>')
    for frac in (0.0, 0.5, 1.0):
        v = vmin + frac * (vmax - vmin)
        y = sy(v)
        parts.append(f'<text x="{MARGIN_L - 6}" y="{y + 3:.2f}" text-anchor="end" '
                     f'font-size="10" font-family="sans-serif">{_fmt(v)}</text>')
    if warning:
        parts.append(f'<text x="{MARGIN_L + 4}" y="{HEIGHT - MARGIN_B - 6}" font-size="11" '
                     f'font-family="sans-serif" fill="#cc3322">warning: {warning}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plots(records, margins, destination, incident, control) -> list:
    """One SVG per metric under `destination`; returns the written paths."""
    os.makedirs(destination, exist_ok=True)
    phases = {r.phase for r in records}
    missing = set(PHASES) - phases
    show_markers = phases != {"Normal"}
    warning = None
    if phases and missing and show_markers:
        warning = "missing phase(s): " + ", ".join(sorted(missing))
    paths = []
    for metric in METRICS:
        svg = render_metric_svg(records, margins.metric(metric), metric,
                                incident=incident if show_markers else None,
                                control=control if show_markers else None,
                                warning=warning)
        path = os.path.join(destination, f"{metric}.svg")
        with open(path, "w") as f:
            f.write(svg)
        paths.append(path)
    return paths
