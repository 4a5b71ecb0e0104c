"""Deterministic SVG drawing of the reflected walk and its decorations.

Output depends only on the trajectory, horizon, and options: shapes are
emitted in rank order, coordinates are rounded to 2 decimals in the file
(layout only, the underlying geometry is exact), and the viewport scaling
is fixed by the data bounding box.  No timestamps, ids, or random styling.
The drawing reads the walk and the per-rank geometry of the trajectory's
level view at q (dynamics._Level) directly, as the mosaic does.  Shapes
share their corners, so each distinct pixel coordinate is formatted once, in
one batched % call for the walk and its lines and one for the slices, and
each shape is one %s-template filled with those strings.
"""
from __future__ import annotations

from .dynamics import Trajectory
from .mosaic import _level

__all__ = ["render_svg", "save_svg"]

_ACTIVE = "#1f77b4"
_GRAY = "#8a8a8a"
_WALK = "#222222"
_DASH = "#c05020"
_FILLS = ("#4c9be8", "#e8a14c", "#5cb85c", "#b07cc6", "#d9534f", "#7fcdcd")

_SHADE = 'fill="%s" fill-opacity="0.3" stroke="none"/>'
_TRIANGLE = '<polygon points="%s,%s %s,%s %s,%s" ' + _SHADE
_BAND = '<polygon points="%s,%s %s,%s %s,%s %s,%s" ' + _SHADE
_LINE = '<line x1="%s" y1="%s" x2="%s" y2="%s" '
_DASH_LINE = _LINE + f'stroke="{_DASH}" stroke-width="1" stroke-dasharray="5,4"/>'
_BASELINE = _LINE + 'stroke="%s" stroke-width="2"/>'
_STEP = "%s,%s %s,%s%s"  # a rank's jump, then its block's return to the floor if it ends one
_POLYLINE = f'<polyline points="%s,%s %s %s,%s" fill="none" stroke="{_WALK}" stroke-width="1.5"/>'


def _fmt(values: list[float]) -> list[str]:
    """Each value to 2 decimals, in one % call; "-0.00" reads "0.00" so
    equal geometry gives equal bytes."""
    return ("%.2f " * len(values) % tuple(values)).replace("-0.00", "0.00").split()


def render_svg(
    trajectory: Trajectory,
    q: float,
    *,
    shade_slices: bool = False,
    width: int = 900,
    height: int = 420,
) -> str:
    """SVG of the walk at horizon q: polyline, baselines, hypotenuse dashes.

    Baselines are blue when active (excursion roots) and gray otherwise;
    each rank's jump diagonal extends dashed down to the floor.  With
    shade_slices, per-rank slice regions (triangle plus absorption bands)
    are filled from a fixed palette.
    """
    g = _level(trajectory, q)
    pos, sizes, before = g.walk.jump_times, g.sizes, g.base_level  # walk just before each jump
    tops = [b + s for b, s in zip(before, sizes)]
    span_end = max([0.0] + g.block_end)
    ymax = max([0.0] + tops)
    xmax = span_end * 1.04 if span_end > 0 else 1.0
    ymax = ymax * 1.08 if ymax > 0 else 1.0

    # pixel x is margin + x * sx, pixel y is y0 - y * sy
    margin = 30
    sx = (width - 2 * margin) / xmax if xmax > 0 else 1.0
    sy = (height - 2 * margin) / ymax if ymax > 0 else 1.0
    y0 = height - margin
    n = len(pos)
    # per rank: jump x, base y, top y, dash end x, baseline end x; then each
    # block's end x, and the walk's first x, last x and floor y
    cols = _fmt([
        *[margin + x * sx for x in pos],
        *[y0 - y * sy for y in before],
        *[y0 - t * sy for t in tops],
        *[margin + (x + t) * sx for x, t in zip(pos, tops)],
        *[margin + e * sx for e in g.extent_end],
        *[margin + e * sx for e in g.block_end],
        margin + 0.0 * sx, margin + xmax * sx, y0 - 0.0 * sy,
    ])
    X, Y, T, DX, EX = (cols[i * n : (i + 1) * n] for i in range(5))
    *block_end, first_x, last_x, floor = cols[5 * n :]
    body = []

    if shade_slices:
        # per rank: the triangle's far x, then x_lo, y, x_hi of each band
        # level, top first; a band's bottom is bitwise the next band's top
        intercept_lo, intercept_hi = g.intercepts
        values = []
        for l, rows in enumerate(g.parallelograms):
            values.append(margin + (pos[l] + sizes[l]) * sx)
            if rows:
                a, b = intercept_lo[l], intercept_hi[l]
                for level in [rows[0][2], *[top - h for _, _, top, h in rows]]:
                    values += (margin + (a - level) * sx, y0 - level * sy,
                               margin + (b - level) * sx)
        coords = _fmt(values)
        i = 0
        for l, rows in enumerate(g.parallelograms):
            fill = _FILLS[l % len(_FILLS)]
            body.append(_TRIANGLE % (X[l], Y[l], X[l], T[l], coords[i], Y[l], fill))
            i += 1
            for _ in rows:
                xa, ya, xb, xa_bot, yb, xb_bot = coords[i : i + 6]
                body.append(_BAND % (xa, ya, xb, ya, xb_bot, yb, xa_bot, yb, fill))
                i += 3
            if rows:
                i += 3

    # hypotenuse dashes: jump diagonal extended to the floor
    body += [_DASH_LINE % (x, t, d, floor) for x, t, d in zip(X, T, DX)]

    root = g.root
    body += [
        _BASELINE % (x, y, e, y, _ACTIVE if root[j] == j else _GRAY)
        for j, (x, y, e) in enumerate(zip(X, Y, EX))
    ]

    # reflected walk polyline, flat at 0 between excursions
    ends = [""] * n
    for block, end in zip(g.blocks, block_end):
        ends[block.hi] = f" {end},{floor}"
    steps = " ".join([_STEP % step for step in zip(X, Y, X, T, ends)])
    body.append(_POLYLINE % (first_x, floor, steps, last_x, floor))

    shapes = "\n".join(body)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f"{shapes}\n</svg>\n"
    )


def save_svg(text: str, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
