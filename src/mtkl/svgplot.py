"""Minimal standalone SVG line plots (no plotting runtime required)."""

from __future__ import annotations

import math

from .errors import InputError

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 34, 56


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi):
        return [0.0, 1.0]
    if hi <= lo:
        hi = lo + (abs(lo) if lo else 1.0)
    span = hi - lo
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks or [lo, hi]


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1000 or abs(v) < 0.01:
        return f"{v:.2g}"
    return f"{v:g}"


def line_plot(path, series, title: str = "", xlabel: str = "", ylabel: str = "",
              logx: bool = False) -> None:
    """Write a line plot to ``path``.

    ``series`` is a list of (name, xs, ys) triples sharing one coordinate
    frame. ``logx`` plots against log10(x) with the original values on ticks.
    """
    def tx(x):
        return math.log10(x) if logx else x

    xs_all = [tx(x) for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    if not xs_all or not ys_all:
        raise InputError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + (abs(y_lo) if y_lo else 1.0)
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(x):
        return _ML + (tx(x) - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return _MT + (1.0 - (y - y_lo) / (y_hi - y_lo)) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        'stroke="#333"/>',
    ]
    if title:
        parts.append(f'<text x="{_W/2:.1f}" y="20" text-anchor="middle" '
                     f'font-size="14">{title}</text>')

    if logx:
        x_ticks = sorted({x for _, xs, _ in series for x in xs})
    else:
        x_ticks = _nice_ticks(x_lo, x_hi)
    for t in x_ticks:
        x = px(t) if logx else _ML + (t - x_lo) / (x_hi - x_lo) * pw
        if x < _ML - 0.5 or x > _W - _MR + 0.5:
            continue
        parts.append(f'<line x1="{x:.1f}" y1="{_MT + ph}" x2="{x:.1f}" '
                     f'y2="{_MT + ph + 5}" stroke="#333"/>')
        parts.append(f'<text x="{x:.1f}" y="{_MT + ph + 18}" '
                     f'text-anchor="middle">{_fmt(t)}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" '
                     'stroke="#333"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 4:.1f}" '
                     f'text-anchor="end">{_fmt(t)}</text>')
        parts.append(f'<line x1="{_ML}" y1="{y:.1f}" x2="{_ML + pw}" y2="{y:.1f}" '
                     'stroke="#ddd"/>')
    if xlabel:
        parts.append(f'<text x="{_ML + pw/2:.1f}" y="{_H - 14}" '
                     f'text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{_MT + ph/2:.1f}" text-anchor="middle" '
                     f'transform="rotate(-90 16 {_MT + ph/2:.1f})">{ylabel}</text>')

    for k, (name, xs, ys) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys)
                       if math.isfinite(y))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.8"/>')
        for x, y in zip(xs, ys):
            if math.isfinite(y):
                parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="2.6" '
                             f'fill="{color}"/>')
        ly = _MT + 14 + 16 * k
        parts.append(f'<line x1="{_ML + pw - 130}" y1="{ly - 4}" '
                     f'x2="{_ML + pw - 108}" y2="{ly - 4}" stroke="{color}" '
                     'stroke-width="1.8"/>')
        parts.append(f'<text x="{_ML + pw - 102}" y="{ly}">{name}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
