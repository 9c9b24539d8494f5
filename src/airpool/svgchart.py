"""Minimal deterministic SVG line charts.

Writes self-contained static charts (axes, ticks, legend, optional log x)
with fixed-precision coordinates, so identical data produces identical
bytes. No external plotting dependency.
"""

import math
from typing import List, Sequence

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#7f7f7f")

_W, _H = 760, 480
_ML, _MR, _MT, _MB = 72, 24, 40, 56


class Series:
    """One polyline: a name plus x/y arrays of equal length."""

    def __init__(self, name: str, x: Sequence[float], y: Sequence[float]):
        if len(x) != len(y):
            raise ValueError("x and y must have the same length")
        self.name = name
        self.x = [float(v) for v in x]
        self.y = [float(v) for v in y]


def _ticks(lo: float, hi: float) -> List[float]:
    """Five evenly spaced ticks from lo to hi."""
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / 4
    return [lo + i * step for i in range(5)]


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def render_line_chart(path, series: List[Series], title: str, x_label: str,
                      y_label: str, log_x: bool = False) -> None:
    """Write the chart to `path` as a standalone SVG file."""
    if not series or all(len(s.x) == 0 for s in series):
        raise ValueError("nothing to plot")

    def tx(v: float) -> float:
        return math.log10(v) if log_x else v

    xs = [tx(v) for s in series for v in s.x]
    ys = [v for s in series for v in s.y]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(v: float) -> float:
        return _ML + (tx(v) - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(v: float) -> float:
        return _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
           f'viewBox="0 0 {_W} {_H}">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>',
           f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
           f'font-family="sans-serif" font-size="15">{title}</text>']
    # Axes box.
    out.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
               f'height="{_H - _MT - _MB}" fill="none" stroke="#333" stroke-width="1"/>')
    # Ticks and grid.
    for t in _ticks(x_lo, x_hi):
        x_val = 10.0 ** t if log_x else t
        xp = _ML + (t - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)
        out.append(f'<line x1="{xp:.2f}" y1="{_MT}" x2="{xp:.2f}" y2="{_H - _MB}" '
                   f'stroke="#ddd" stroke-width="0.5"/>')
        out.append(f'<text x="{xp:.2f}" y="{_H - _MB + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{_fmt(x_val)}</text>')
    for t in _ticks(y_lo, y_hi):
        yp = _H - _MB - (t - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)
        out.append(f'<line x1="{_ML}" y1="{yp:.2f}" x2="{_W - _MR}" y2="{yp:.2f}" '
                   f'stroke="#ddd" stroke-width="0.5"/>')
        out.append(f'<text x="{_ML - 6}" y="{yp + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>')
    out.append(f'<text x="{_W / 2:.1f}" y="{_H - 14}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13">{x_label}</text>')
    out.append(f'<text x="18" y="{_H / 2:.1f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 18 {_H / 2:.1f})">{y_label}</text>')
    # Series.
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(s.x, s.y))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.8"/>')
        ly = _MT + 16 + 16 * i
        out.append(f'<line x1="{_W - _MR - 150}" y1="{ly - 4}" x2="{_W - _MR - 126}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="1.8"/>')
        out.append(f'<text x="{_W - _MR - 120}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11">{s.name}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
