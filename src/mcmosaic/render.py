"""Deterministic SVG drawing of the reflected walk and its decorations.

Output depends only on the trajectory, horizon, and options: shapes are
emitted in rank order, coordinates are rounded to 2 decimals in the file
(layout only, the underlying geometry is exact), and the viewport scaling
is fixed by the data bounding box.  No timestamps, ids, or random styling.
The drawing reads the per-rank geometry of the mosaic pass directly; each
shape is one %-template filled with its pixel coordinates.
"""
from __future__ import annotations

from .dynamics import Trajectory
from .mosaic import _RankGeometry

__all__ = ["render_svg", "save_svg"]

_ACTIVE = "#1f77b4"
_GRAY = "#8a8a8a"
_WALK = "#222222"
_DASH = "#c05020"
_FILLS = ("#4c9be8", "#e8a14c", "#5cb85c", "#b07cc6", "#d9534f", "#7fcdcd")

_SHADE = 'fill="%s" fill-opacity="0.3" stroke="none"/>'
_TRIANGLE = '<polygon points="%.2f,%.2f %.2f,%.2f %.2f,%.2f" ' + _SHADE
_BAND = '<polygon points="%.2f,%.2f %.2f,%.2f %.2f,%.2f %.2f,%.2f" ' + _SHADE
_LINE = '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
_DASH_LINE = _LINE + f'stroke="{_DASH}" stroke-width="1" stroke-dasharray="5,4"/>'
_BASELINE = _LINE + 'stroke="%s" stroke-width="2"/>'
_POINT = "%.2f,%.2f"
_POLYLINE = f'<polyline points="%s" fill="none" stroke="{_WALK}" stroke-width="1.5"/>'


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
    g = _RankGeometry.of(trajectory, q)
    pos, sizes, before = g.pos, g.sizes, g.base_level  # walk just before each jump
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
    floor_y = y0 - 0.0 * sy
    body = []

    if shade_slices:
        intercept_lo, intercept_hi = g.intercepts
        for l, rows in enumerate(g.parallelograms):
            fill = _FILLS[l % len(_FILLS)]
            x, y, m = pos[l], before[l], sizes[l]
            px, py = margin + x * sx, y0 - y * sy
            body.append(_TRIANGLE % (px, py, px, y0 - (y + m) * sy, margin + (x + m) * sx, py, fill))
            a, b = intercept_lo[l], intercept_hi[l]
            for _ev, top, h in rows:
                bot = top - h
                pt, pb = y0 - top * sy, y0 - bot * sy
                body.append(_BAND % (
                    margin + (a - top) * sx, pt, margin + (b - top) * sx, pt,
                    margin + (b - bot) * sx, pb, margin + (a - bot) * sx, pb, fill,
                ))

    # hypotenuse dashes: jump diagonal extended to the floor
    for x, t in zip(pos, tops):
        body.append(_DASH_LINE % (margin + x * sx, y0 - t * sy, margin + (x + t) * sx, floor_y))

    extent_end, root = g.extent_end, g.root
    for j, (x, y) in enumerate(zip(pos, before)):
        py = y0 - y * sy
        color = _ACTIVE if root[j] == j else _GRAY
        body.append(_BASELINE % (margin + x * sx, py, margin + extent_end[j] * sx, py, color))

    # reflected walk polyline, flat at 0 between excursions
    walk = [margin + 0.0 * sx, floor_y]
    for block, end in zip(g.blocks, g.block_end):
        for j in block.ranks():
            px = margin + pos[j] * sx
            walk += (px, y0 - before[j] * sy, px, y0 - tops[j] * sy)
        walk += (margin + end * sx, floor_y)
    walk += (margin + xmax * sx, floor_y)
    body.append(_POLYLINE % (" ".join([_POINT] * (len(walk) // 2)) % tuple(walk)))

    # avoid "-0.00" so equal geometry gives equal bytes
    shapes = "\n".join(body).replace("-0.00", "0.00")
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f"{shapes}\n</svg>\n"
    )


def save_svg(text: str, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
