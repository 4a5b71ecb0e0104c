"""SVG emitter: structure and byte determinism."""

import math
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcmosaic import render
from mcmosaic.core import ClockAssignment, RngStream, WeightedConfig, sample_clocks
from mcmosaic.dynamics import run_trajectory
from mcmosaic.mosaic import build_mosaic, slice_decomposition
from mcmosaic.render import render_svg, save_svg
from mcmosaic.surplus import SurplusCountSampler, activated_processes, dynamic_surplus
from mcmosaic.walk import WalkPath


def _traj(seed=2, n=5, q=3.0):
    cfg = WeightedConfig(tuple(RngStream(seed).generator().uniform(0.5, 2.0, n)))
    clocks = sample_clocks(cfg, RngStream(seed).named("clk"))
    return run_trajectory(cfg, clocks, RngStream(seed).named("run"), q)


def test_svg_well_formed():
    svg = render_svg(_traj(), 3.0)
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<svg") == 1
    assert 'xmlns="http://www.w3.org/2000/svg"' in svg
    # one jump diagonal per rank plus baselines and the walk polyline
    assert svg.count("stroke-dasharray") == 5
    assert "<polyline" in svg


def test_svg_deterministic():
    a = render_svg(_traj(7), 2.5)
    b = render_svg(_traj(7), 2.5)
    assert a == b


def test_svg_differs_across_seeds():
    assert render_svg(_traj(1), 2.5) != render_svg(_traj(2), 2.5)


def test_shading_adds_polygons():
    t = _traj(4)
    plain = render_svg(t, 3.0)
    shaded = render_svg(t, 3.0, shade_slices=True)
    assert "<polygon" not in plain
    assert shaded.count("<polygon") >= len(t.config.masses)
    # everything in the plain file survives shading (shapes only added)
    assert plain.count("<line") == shaded.count("<line")


def test_no_negative_zero_coordinates():
    svg = render_svg(_traj(9), 3.0, shade_slices=True)
    assert "-0.00" not in svg
    for m in re.finditer(r'width="(\d+)" height="(\d+)"', svg):
        assert int(m.group(1)) > 0 and int(m.group(2)) > 0


def test_single_vertex():
    cfg = WeightedConfig((1.25,))
    clocks = sample_clocks(cfg, RngStream(0).named("c"))
    t = run_trajectory(cfg, clocks, RngStream(0).named("r"), 1.0)
    svg = render_svg(t, 1.0)
    assert svg.count("stroke-dasharray") == 1


def test_save_svg_round_trip(tmp_path):
    svg = render_svg(_traj(), 3.0)
    out = tmp_path / "walk.svg"
    save_svg(svg, out)
    assert out.read_text() == svg


# -- the object-based render, kept as the byte reference -----------------------


def _fmt(v):
    s = f"{v:.2f}"
    return "0.00" if s == "-0.00" else s


def _canvas(width, height):
    """The renderer's canvas set to width x height pixels while in use."""
    return mock.patch.multiple(render, _WIDTH=width, _HEIGHT=height)


def reference_render_svg(trajectory, q, *, shade_slices=False, fmt=_fmt):
    """The renderer as it was before it read the mosaic pass directly: it
    rebuilds the mosaic and slice objects and formats one coordinate at a
    time, on the renderer's canvas.  fmt formats one coordinate."""
    width, height = render._WIDTH, render._HEIGHT
    path = WalkPath.from_clocks(trajectory.config, trajectory.clocks, q)
    excursions = build_mosaic(trajectory, q)
    pos = path.jump_times
    sizes = path.jump_sizes

    # each rank's height above its excursion's floor, from the excursion's
    # masses and positions relative to its first rank: the raw walk values
    # (Baseline.level) cancel when positions are large
    before = {}
    span_end = 0.0
    ymax = 0.0
    for exc in excursions:
        for i, j in enumerate(range(exc.rank_lo, exc.rank_hi + 1)):
            before[j] = math.fsum(exc.masses[:i]) - (exc.positions[i] - exc.positions[0])
            ymax = max(ymax, before[j] + sizes[j])
        span_end = max(span_end, exc.positions[0] + math.fsum(exc.masses))
    xmax = span_end * 1.04 if span_end > 0 else 1.0
    ymax = ymax * 1.08 if ymax > 0 else 1.0

    margin = 30
    sx = (width - 2 * margin) / xmax if xmax > 0 else 1.0
    sy = (height - 2 * margin) / ymax if ymax > 0 else 1.0

    def xy(x, y):
        return fmt(margin + x * sx), fmt(height - margin - y * sy)

    def pt(x, y):
        return ",".join(xy(x, y))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    fills = ("#4c9be8", "#e8a14c", "#5cb85c", "#b07cc6", "#d9534f", "#7fcdcd")
    if shade_slices:
        for i, sl in enumerate(slice_decomposition(trajectory, q)):
            fill = fills[i % len(fills)]
            tri = [
                (sl.position, sl.base_level),
                (sl.position, sl.base_level + sl.base_mass),
                (sl.position + sl.base_mass, sl.base_level),
            ]
            pts = " ".join(pt(x, y) for x, y in tri)
            out.append(f'<polygon points="{pts}" fill="{fill}" fill-opacity="0.3" stroke="none"/>')
            for para in sl.parallelograms:
                top = para.top_level
                bot = top - para.height
                corners = [
                    (sl.intercept_lo - top, top),
                    (sl.intercept_hi - top, top),
                    (sl.intercept_hi - bot, bot),
                    (sl.intercept_lo - bot, bot),
                ]
                pts = " ".join(pt(x, y) for x, y in corners)
                out.append(
                    f'<polygon points="{pts}" fill="{fill}" fill-opacity="0.3" stroke="none"/>'
                )
    for j in range(len(path)):
        top = before[j] + sizes[j]
        ax, ay = xy(pos[j], top)
        bx, by = xy(pos[j] + top, 0.0)
        out.append(
            f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" '
            f'stroke="#c05020" stroke-width="1" stroke-dasharray="5,4"/>'
        )
    for exc in excursions:
        for b in exc.baselines:
            (a0, a1) = b.pieces[0]
            lvl = before[b.owner_rank]
            color = "#1f77b4" if b.status == "active" else "#8a8a8a"
            ax, ay = xy(a0, lvl)
            bx, by = xy(a1, lvl)
            out.append(
                f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" stroke="{color}" stroke-width="2"/>'
            )
    walk_pts = [(0.0, 0.0)]
    for exc in excursions:
        for j in range(exc.rank_lo, exc.rank_hi + 1):
            walk_pts.append((pos[j], before[j]))
            walk_pts.append((pos[j], before[j] + sizes[j]))
        walk_pts.append((exc.positions[0] + math.fsum(exc.masses), 0.0))
    walk_pts.append((xmax, 0.0))
    pts = " ".join(pt(x, y) for x, y in walk_pts)
    out.append(f'<polyline points="{pts}" fill="none" stroke="#222222" stroke-width="1.5"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _render_domain(max_n):
    """Masses log-uniform over 1e-6..1e6 (or all equal), n from 1 to max_n,
    tied clocks, q from 1e-3 to 1e12 over sigma2 or at a positive event time,
    shading on and off, small canvases."""
    return (
        st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=max_n),
        st.booleans(),
        st.integers(0, 2**32 - 1),
        st.lists(st.tuples(st.integers(0, max_n - 1), st.integers(0, max_n - 1)), max_size=4),
        st.floats(-3.0, 12.0),
        st.floats(0.0, 1.0),
        st.booleans(),
        st.sampled_from([(900, 420), (300, 200), (61, 61), (60, 60), (13, 7), (1, 1), (0, 0)]),
    )


def assert_render_matches_reference(exponents, equal, seed, ties, log_q, fraction, shade, size):
    masses = [10.0 ** exponents[0]] * len(exponents) if equal else [10.0**e for e in exponents]
    cfg = WeightedConfig(tuple(masses))
    xi = list(sample_clocks(cfg, RngStream(seed).named("clocks")).xi)
    for a, b in ties:
        xi[a % len(xi)] = xi[b % len(xi)]
    clocks = ClockAssignment.from_xi(xi)
    q = 10.0**log_q / math.fsum(m * m for m in masses)
    traj = run_trajectory(cfg, clocks, RngStream(seed), q)
    positive = [ev.time for ev in traj.events if ev.time > 0.0]
    if fraction > 0.5 and positive:
        q = positive[int((fraction - 0.5) * 2 * (len(positive) - 1))]
    with _canvas(*size):
        assert render_svg(traj, q, shade_slices=shade) == reference_render_svg(
            traj, q, shade_slices=shade
        )


@settings(deadline=None, max_examples=150)
@given(*_render_domain(30))
@example([0, 0, 0, 1, 0, 0, 0, -6, 5], False, 0, [(3, 7)], -2, 0, False, (900, 420))
def test_render_matches_object_reference(exponents, equal, seed, ties, log_q, fraction, shade, size):
    """The bytes equal the reference's over the render domain, n up to 30."""
    assert_render_matches_reference(exponents, equal, seed, ties, log_q, fraction, shade, size)


@settings(deadline=None, max_examples=300)
@given(*_render_domain(8))
def test_render_matches_object_reference_on_tiny_walks(
    exponents, equal, seed, ties, log_q, fraction, shade, size
):
    """n from 1 to 8, where the batched writer's fixed cost and its empty
    and one-rank batches show: the bytes equal the reference's."""
    assert_render_matches_reference(exponents, equal, seed, ties, log_q, fraction, shade, size)


def test_coordinates_in_the_negative_rounding_band_print_as_zero():
    """At width 13 some pixel coordinates of this walk fall in (-0.005, 0):
    plain 2-decimal formatting prints them as -0.00, the file as 0.00."""
    t = _traj(5)
    with _canvas(13, 420):
        raw = reference_render_svg(t, 3.0, shade_slices=True, fmt=lambda v: f"{v:.2f}")
        svg = render_svg(t, 3.0, shade_slices=True)
        assert svg == reference_render_svg(t, 3.0, shade_slices=True)
    assert raw.count("-0.00") == 3
    assert "-0.00" not in svg
    assert svg == raw.replace("-0.00", "0.00")


_HORIZON_READERS = {
    "activated_processes": lambda t, q: activated_processes(t, q, include_loops=True),
    "dynamic_surplus": lambda t, q: dynamic_surplus(t, RngStream(0), q, variant="multigraph"),
    "SurplusCountSampler": SurplusCountSampler,
    "build_mosaic": build_mosaic,
    "slice_decomposition": slice_decomposition,
    "render_svg": render_svg,
    "render_svg(shade_slices)": lambda t, q: render_svg(t, q, shade_slices=True),
}


@pytest.mark.parametrize("name", list(_HORIZON_READERS))
def test_level_readers_share_one_horizon_check(name):
    """Every reader at a horizon raises the level view's one message for a
    q outside [0, q_max] (NaN included) and answers at q_max itself; at
    q = 0 the surplus readers answer (nothing has arrived yet) and the
    mosaic readers raise the walk's error (there is no walk at 0)."""
    read, t = _HORIZON_READERS[name], _traj(2, q=3.0)
    for q in (-1.0, math.nan, 3.0 * (1 + 1e-12)):
        with pytest.raises(ValueError, match=re.escape(f"q={q!r} outside the horizon [0, 3.0]")):
            read(t, q)
    read(t, 3.0)
    if name in ("activated_processes", "dynamic_surplus", "SurplusCountSampler"):
        read(t, 0.0)
    else:
        with pytest.raises(ValueError, match=re.escape("q must be finite and > 0, got 0.0")):
            read(t, 0.0)
