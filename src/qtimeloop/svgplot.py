"""The scan's SVG plot, transmitted probability against phi: no plotting
dependency, deterministic bytes."""

from __future__ import annotations


def _ticks(lo: float, hi: float) -> list[float]:
    step = (hi - lo) / 4
    return [lo + i * step for i in range(5)]


def _esc(text: str) -> str:
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


WIDTH, HEIGHT = 800, 600


def polyline_plot(points, *, title: str) -> str:
    """Render a scan's (phi, transmitted) pairs as one polyline in a WIDTH x HEIGHT SVG document.

    Coordinates are emitted at fixed precision so identical data produce
    identical bytes.
    """
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    if len(xs) < 2:
        raise ValueError("need at least two samples")
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        raise ValueError("x range is degenerate")
    y_lo = 0.0
    y_hi = max(max(ys), 1e-12) * 1.05

    left, right, top, bottom = 75.0, 25.0, 40.0, 60.0
    plot_w = WIDTH - left - right
    plot_h = HEIGHT - top - bottom

    def px(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_esc(title)}</text>',
        f'<rect x="{left:.1f}" y="{top:.1f}" width="{plot_w:.1f}" height="{plot_h:.1f}" '
        f'fill="none" stroke="black"/>',
    ]
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{top + plot_h:.2f}" x2="{x:.2f}" '
            f'y2="{top + plot_h + 6:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{top + plot_h + 22:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{tick:.3g}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(
            f'<line x1="{left - 6:.2f}" y1="{y:.2f}" x2="{left:.2f}" y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 10:.2f}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{tick:.3g}</text>'
        )
    mid = top + plot_h / 2
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">phi (rad)</text>'
    )
    parts.append(
        f'<text x="18" y="{mid:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 18 {mid:.1f})">transmitted probability</text>'
    )
    coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
