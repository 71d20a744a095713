"""Native SVG small-multiples renderer for simulation results.

No plotting dependency: figures are a fixed 4 (sizes) x 3 (K) grid of
panels with tau^2 on the horizontal axis and one polyline per estimator.
Line styles are fixed per estimator so figures are comparable across runs.
"""

from __future__ import annotations

import math

# fixed per-estimator style: (color, dash pattern or "")
ESTIMATOR_STYLES = {
    "DL": ("#1f77b4", ""),
    "MP": ("#2ca02c", ""),
    "REML": ("#ff7f0e", ""),
    "J": ("#d62728", ""),
    "KDB": ("#9467bd", ""),
    "QP": ("#2ca02c", "6,3"),
    "BJ": ("#1f77b4", "6,3"),
    "PL": ("#ff7f0e", "6,3"),
    "IV-DL": ("#1f77b4", ""),
    "IV-MP": ("#2ca02c", ""),
    "IV-REML": ("#ff7f0e", ""),
    "IV-J": ("#d62728", ""),
    "IV-KDB": ("#9467bd", ""),
    "SSW": ("#8c564b", ""),
    "Z-DL": ("#1f77b4", ""),
    "Z-MP": ("#2ca02c", ""),
    "Z-REML": ("#ff7f0e", ""),
    "Z-J": ("#d62728", ""),
    "Z-KDB": ("#9467bd", ""),
    "HKSJ": ("#e377c2", "2,2"),
    "HKSJ-KDB": ("#7f7f7f", "2,2"),
    "SSW-KDB": ("#8c564b", "6,3"),
    "SSW/IV-KDB": ("#9467bd", ""),
    "SSW/IV-MP": ("#2ca02c", ""),
}
_FALLBACK_STYLE = ("#17becf", "4,2")

_W, _H = 1000, 1240
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 20, 98, 40
_GAP_X, _GAP_Y = 14, 30


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / target))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= target:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def figure_svg(title: str, sizes: list[int], ks: list[int],
               series: dict, estimators: list[str],
               reference: float | None = None) -> str:
    """Render one 4x3 panel figure.

    series maps (size, k, estimator) to a list of (tau2, value) pairs,
    already sorted by tau2.  ``reference`` draws a horizontal guide line
    (nominal level for coverage figures, zero for bias figures).
    """
    n_rows, n_cols = len(sizes), len(ks)
    panel_w = (_W - _MARGIN_L - _MARGIN_R - (n_cols - 1) * _GAP_X) / n_cols
    panel_h = (_H - _MARGIN_T - _MARGIN_B - (n_rows - 1) * _GAP_Y) / n_rows

    xs = sorted({x for pts in series.values() for x, _ in pts})
    ys = [y for pts in series.values() for _, y in pts if math.isfinite(y)]
    if not xs or not ys:
        raise ValueError("no finite value to plot")
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo, y_hi = min(ys), max(ys)
    if reference is not None:
        y_lo, y_hi = min(y_lo, reference), max(y_hi, reference)
    pad = 0.06 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if not math.isfinite(y_hi - y_lo):
        raise ValueError("values span more than the float range")

    def sx(x, px0):
        return px0 + (x - x_lo) / (x_hi - x_lo) * panel_w

    def sy(y, py0):
        return py0 + panel_h - (y - y_lo) / (y_hi - y_lo) * panel_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="24" font-size="15" text-anchor="middle">'
        f'{_esc(title)}</text>',
    ]
    # legend
    lx = _MARGIN_L
    for name in estimators:
        color, dash = ESTIMATOR_STYLES.get(name, _FALLBACK_STYLE)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(f'<line x1="{lx}" y1="44" x2="{lx + 26}" y2="44" '
                     f'stroke="{color}" stroke-width="2"{dash_attr}/>')
        parts.append(f'<text x="{lx + 30}" y="48" font-size="11">'
                     f'{_esc(name)}</text>')
        lx += 36 + 7 * len(name)

    y_ticks = _nice_ticks(y_lo, y_hi)
    x_ticks = _nice_ticks(x_lo, x_hi)
    for i, size in enumerate(sizes):
        for j, k in enumerate(ks):
            px0 = _MARGIN_L + j * (panel_w + _GAP_X)
            py0 = _MARGIN_T + i * (panel_h + _GAP_Y)
            parts.append(f'<rect x="{px0:.1f}" y="{py0:.1f}" '
                         f'width="{panel_w:.1f}" height="{panel_h:.1f}" '
                         f'fill="none" stroke="#999"/>')
            parts.append(f'<text x="{px0 + panel_w / 2:.1f}" y="{py0 - 5:.1f}" '
                         f'font-size="11" text-anchor="middle">'
                         f'n={size}, K={k}</text>')
            for t in y_ticks:
                yy = sy(t, py0)
                parts.append(f'<line x1="{px0:.1f}" y1="{yy:.1f}" '
                             f'x2="{px0 + panel_w:.1f}" y2="{yy:.1f}" '
                             f'stroke="#eee"/>')
                if j == 0:
                    parts.append(f'<text x="{px0 - 6:.1f}" y="{yy + 3:.1f}" '
                                 f'font-size="9" text-anchor="end">{t:g}</text>')
            for t in x_ticks:
                xx = sx(t, px0)
                if i == n_rows - 1:
                    parts.append(f'<text x="{xx:.1f}" '
                                 f'y="{py0 + panel_h + 14:.1f}" font-size="9" '
                                 f'text-anchor="middle">{t:g}</text>')
            if reference is not None:
                yy = sy(reference, py0)
                parts.append(f'<line x1="{px0:.1f}" y1="{yy:.1f}" '
                             f'x2="{px0 + panel_w:.1f}" y2="{yy:.1f}" '
                             f'stroke="#444" stroke-dasharray="3,3"/>')
            for name in estimators:
                pts = series.get((size, k, name))
                if not pts:
                    continue
                color, dash = ESTIMATOR_STYLES.get(name, _FALLBACK_STYLE)
                dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
                coords = " ".join(f"{sx(x, px0):.2f},{sy(y, py0):.2f}"
                                  for x, y in pts if math.isfinite(y))
                parts.append(f'<polyline points="{coords}" fill="none" '
                             f'stroke="{color}" stroke-width="1.6"{dash_attr}/>')
    parts.append(f'<text x="{_W / 2}" y="{_H - 10}" font-size="12" '
                 f'text-anchor="middle">between-study variance</text>')
    parts.append("</svg>")
    return "\n".join(parts)
