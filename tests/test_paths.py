"""Path geometry: segments, bitwise contiguity, loops, composition order."""

import cmath
import importlib
import math

import numpy as np
import pytest

from conftest import SEED, sample_poles
from fuchsia import jsonio
from fuchsia.cli import main
from fuchsia.errors import GeometryError, ValidationError
from fuchsia.inverse import solve, validate_instance
from fuchsia.monodromy import monodromy, verify_theorem
from fuchsia.paths import (
    COMB_OFFSET,
    HOP_RATIO,
    RADIUS_FACTOR,
    TOOTH_FACTOR,
    Arc,
    ContinuationPath,
    TWO_PI,
    Line,
    _comb,
    build_loops,
    composition_order,
    default_base_point,
    hops,
    path_clearance_audit,
    segment_distances,
)
from fuchsia.system import validate_system


def generic_2x2_system(poles, seed=SEED):
    """Generic 2x2 residues summing to zero, the largest of 2-norm 0.2."""
    rng = np.random.default_rng(seed)
    mats = rng.normal(size=(len(poles), 2, 2)) + 1j * rng.normal(size=(len(poles), 2, 2))
    mats -= mats.mean(axis=0)
    mats *= 0.2 / np.linalg.norm(mats, 2, axis=(1, 2)).max()
    return validate_system(poles, list(mats))


def comb_parts(loop):
    """The comb direction d, the foot of the base point and the foot of the
    loop's pole, read off a loop's lines z0 -> f0 -> f_j -> tooth end."""
    half = len(loop.segments) // 2
    head, circle = loop.segments[:half], loop.segments[half]
    return cmath.rect(1.0, circle.angle_start), head[0].end, head[-1].start


def circle_radii(loops):
    return [loop.segments[len(loop.segments) // 2].radius for loop in loops]


def test_line_basics():
    seg = Line(0.0, 3.0 + 4.0j)
    assert seg.length == 5.0
    [z] = hops([(seg,)], [10.0 + 0j])
    assert z[0] == 0.0
    assert z[-1] == 3.0 + 4.0j
    assert np.all(np.abs(np.diff(z) / np.abs(np.diff(z)) - (0.6 + 0.8j)) < 1e-15)
    assert seg.reversed().start == seg.end


def test_line_rejects_zero_length():
    with pytest.raises(ValidationError):
        Line(1.0 + 1.0j, 1.0 + 1.0j)


@pytest.mark.parametrize(
    "start, end",
    [(-1e308 + 1j, 1e308 + 1j), (complex(math.nan), 1.0), (0.0, complex(0.0, math.inf))],
)
def test_line_rejects_a_non_finite_endpoint_or_difference(start, end):
    """Finite endpoints whose difference overflows are an input error too:
    such a line would reach ``paths.hops`` as one hop of length inf."""
    with pytest.raises(ValidationError, match="finite"):
        Line(start, end)


def test_line_min_distance_interior_and_endpoint():
    [[inside, beyond]] = segment_distances([Line(0.0, 2.0)], [1.0 + 1.0j, -3.0])
    assert inside == pytest.approx(1.0)
    assert beyond == pytest.approx(3.0)


def test_long_line_is_measured_from_its_nearer_end():
    """A line between 1e100 and 2 misses the pole 0 by 2, whichever way it
    runs: projected from its far end, the distance cancels to the rounding
    of the line's length and reads 0."""
    assert segment_distances([Line(1e100, 2.0), Line(2.0, 1e100)], [0.0]).tolist() == [[2.0], [2.0]]


def test_arc_point_is_shared_formula():
    """``Arc.start`` is the one formula for the anchor of a circle: hops
    start and end there, and every hop point lies on the circle."""
    center, radius, angle = 1.0 + 2.0j, 0.75, 0.3
    arc = Arc(center, radius, angle, angle + TWO_PI)
    assert arc.start == center + radius * complex(math.cos(angle), math.sin(angle))
    [z] = hops([(arc,)], [center])
    assert z[0] == z[-1] == arc.start == arc.end
    assert np.all(np.abs(np.abs(z - center) - radius) < 1e-15)


def test_closed_arc_end_is_start_bitwise():
    """A circle's end is its start bit for bit, though the point at
    angle_start + 2 pi differs from it in the last bits."""
    arc = Arc(0.0, 1.0, 0.3, 0.3 + TWO_PI)
    assert arc.end == arc.start
    assert arc.center + complex(math.cos(arc.angle_end), math.sin(arc.angle_end)) != arc.start


def test_closed_arc_reversal_keeps_anchor_and_flips_sweep():
    arc = Arc(0.5j, 2.0, 0.7, 0.7 + TWO_PI)
    rev = arc.reversed()
    assert rev.angle_start == arc.angle_start
    assert rev.start == arc.start
    assert rev.end == arc.end
    assert rev.span == -arc.span


def test_arc_rejects_overlong_span():
    with pytest.raises(ValidationError, match="one full turn"):
        Arc(0.0, 1.0, 0.0, 7.0)


@pytest.mark.parametrize("span", [math.pi / 2, -1.0, 0.0, TWO_PI * (1.0 + 1e-8)])
def test_arc_rejects_a_partial_turn(span):
    with pytest.raises(ValidationError, match="one full turn"):
        Arc(0.0, 1.0, 0.3, 0.3 + span)


@pytest.mark.parametrize(
    "center, start, end",
    [
        (complex(math.nan), 0.0, TWO_PI),
        (complex(0.0, math.inf), 0.0, TWO_PI),
        (0.0, math.nan, TWO_PI),
        (0.0, 1.0, math.inf),
    ],
)
def test_arc_rejects_a_non_finite_centre_or_angle(center, start, end):
    with pytest.raises(ValidationError, match="finite"):
        Arc(center, 1.0, start, end)


def test_circle_distance_inside_outside_and_at_centre():
    """A circle is |(|w - c| - r)| from w in every direction, r from its centre."""
    circle = Arc(1.0j, 1.0, 2.0, 2.0 + TWO_PI)
    got = segment_distances([circle], [3.0j, 1.5j, 1.0 + 2.0j, 1.0j])
    assert got.tolist() == [[1.0, 0.5, pytest.approx(math.sqrt(2.0) - 1.0), 1.0]]


def test_segment_distances_covers_every_segment_and_point_at_once():
    """Lines clamp the projection; a circle is |dist - r| in every direction, its centre r away."""
    angle = 0.3
    circle = Arc(1.0 + 1.0j, 0.5, angle, angle + TWO_PI)
    clockwise = Arc(0.0, 1.0, 0.0, -TWO_PI)
    line = Line(0.0, 2.0)
    points = [1.0 + 1.0j, 1.0 + 1.0j + 2.0 * cmath.exp(1j * (angle - 1e-12)), -1.0, 1.0 + 3.0j]
    got = segment_distances([line, circle, clockwise], points)
    assert got.shape == (3, 4)
    assert got[1, 0] == 0.5
    assert got[1, 1] == pytest.approx(1.5, rel=1e-14)
    assert got[0].tolist() == pytest.approx([1.0, abs(points[1] - 2.0), 1.0, 3.0])
    assert got[2].tolist() == pytest.approx([abs(abs(w) - 1.0) for w in points])
    for segment, row in zip([line, circle, clockwise], got):
        assert segment_distances([segment], points)[0].tolist() == row.tolist()


def _loop_distance(seg, w):
    """Reference for ``segment_distances``: one segment and one point in scalar arithmetic."""
    if isinstance(seg, Line):
        u = (seg.end - seg.start) / seg.length
        t = min(max(((w - seg.start) * u.conjugate()).real, 0.0), seg.length)
        return abs(w - (seg.start + t * u))
    return abs(abs(w - seg.center) - seg.radius)


def test_segment_distances_match_the_scalar_loop():
    rng = np.random.default_rng(SEED + 8)
    segments = [Line(complex(*rng.normal(size=2)), complex(*rng.normal(size=2))) for _ in range(20)]
    for _ in range(20):
        start, sign = rng.uniform(-4.0, 4.0), rng.choice([-1.0, 1.0])
        segments.append(Arc(complex(*rng.normal(size=2)), rng.uniform(0.1, 2.0), start, start + sign * TWO_PI))
    points = [complex(*p) for p in 2.0 * rng.normal(size=(30, 2))] + [segments[-1].center]
    got = segment_distances(segments, points)
    for seg, row in zip(segments, got):
        expected = np.array([_loop_distance(seg, w) for w in points])
        # The two sum in different orders: allow a few ulps of the largest magnitude involved.
        assert np.all(np.abs(row - expected) <= 8 * np.finfo(float).eps * (1.0 + np.abs(points) + 4.0))


def test_arc_reversed_preserves_endpoints():
    """A clockwise circle reverses to a counterclockwise one and back, on
    the same endpoints."""
    arc = Arc(1.0j, 0.5, 0.2, 0.2 - TWO_PI)
    rev = arc.reversed()
    assert rev.span > 0.0
    assert rev.start == arc.end
    assert rev.end == arc.start
    assert rev.reversed() == arc


def test_path_requires_contiguity():
    a = Line(0.0, 1.0)
    b = Line(1.0 + 1e-15j, 2.0)
    with pytest.raises(ValidationError):
        ContinuationPath((a, b))


def test_empty_path_needs_anchor():
    with pytest.raises(ValidationError, match="at least one segment"):
        ContinuationPath(())


def test_path_reversal_round_trip():
    a = Line(0.0, 1.0)
    b = Arc(2.0, 1.0, math.pi, math.pi + TWO_PI)
    path = ContinuationPath((a, Line(a.end, b.start), b))
    back = path.reversed()
    assert back.start == path.end
    assert back.end == path.start
    again = back.reversed()
    assert [type(s) for s in again.segments] == [type(s) for s in path.segments]
    assert again.segments[0].start == path.segments[0].start


def test_default_base_point():
    assert default_base_point([1.0j, -2.0]) == 3.0 + 0.0j


def test_loop_radii_scale():
    """A circle's radius is RADIUS_FACTOR times its pole's distance to the
    nearest other pole or base point, unless a tooth passes closer than
    TOOTH_FACTOR times that: then the tooth sets it."""
    poles = [0.0 + 0j, 1.0 + 0j]
    assert circle_radii(build_loops(poles, 3.0 + 0j)) == [0.4, 0.4]
    poles = [cmath.exp(2j * math.pi * k / 16) for k in range(16)]
    z0 = default_base_point(poles)
    loops = build_loops(poles, z0)
    d = comb_parts(loops[0])[0]
    nearest = abs(poles[1] - poles[0])
    expected = []
    for a in poles:
        rel = [(a - p) * d.conjugate() for p in poles + [z0]]
        beside = min((abs(w.imag) for w in rel if w.real > 0.0), default=math.inf)
        expected.append(min(RADIUS_FACTOR * nearest, beside / TOOTH_FACTOR))
    assert circle_radii(loops) == pytest.approx(expected, rel=1e-12)
    assert min(expected) < 0.5 * RADIUS_FACTOR * nearest


def test_pole_loop_closed_and_clear():
    poles = [0.0 + 0j, 1.0 + 0j]
    loops = build_loops(poles, 2.0 + 0j)
    loop = loops[0]
    assert loop.end == loop.start == 2.0 + 0j
    audited = path_clearance_audit(loop, poles)
    assert audited >= min(COMB_OFFSET, min(circle_radii(loops))) * (1.0 - 1e-12)
    assert audited > 0.0


def test_pole_loop_winding_angles():
    """The loop's circle is a single ccw full turn around its own pole."""
    poles = [0.0 + 0j, 1.5 + 0j]
    loop = build_loops(poles, 2.5 + 0j)[0]
    circles = [s for s in loop.segments if isinstance(s, Arc)]
    assert len(circles) == 1
    assert circles[0].center == poles[0]
    assert circles[0].span == pytest.approx(2.0 * math.pi)


def test_collinear_loops_retrace_their_approach():
    """On a row with the base point in line, every loop is lines out to the
    tooth, one circle, and the exact mirror of the lines back, with the
    tooth parallel to the comb direction: no detour arcs."""
    poles = [-1.0 + 0j, 0.0 + 0j, 1.0 + 0j]
    for loop in build_loops(poles, 2.0 + 0j):
        n = len(loop.segments)
        assert n == 7
        for k in range(n // 2):
            fore = loop.segments[k]
            aft = loop.segments[n - 1 - k]
            assert isinstance(fore, Line)
            assert fore.start == aft.end
            assert fore.end == aft.start
        d, _, foot = comb_parts(loop)
        tooth = loop.segments[n // 2 - 1]
        assert tooth.end == loop.segments[n // 2].start
        assert abs(((tooth.end - foot) * d.conjugate()).imag) < 1e-15


@pytest.mark.parametrize(
    "poles",
    [
        sample_poles(np.random.default_rng(SEED), 5),
        [complex(x) for x in (-2.0, -1.0, 0.0, 1.0, 2.0)],
        [cmath.exp(2j * math.pi * k / 6) for k in range(6)],
    ],
    ids=["disk", "row", "circle"],
)
def test_legs_of_a_loop_are_its_approach_and_circle(poles):
    """Every loop's legs are its lines out from the base point and its
    circle around its own pole; the rest of the loop is the lines reversed."""
    z0 = default_base_point(poles)
    for loop, a in zip(build_loops(poles, z0), poles):
        approach, (circle,) = loop.legs
        assert approach and all(isinstance(seg, Line) for seg in approach)
        assert approach[0].start == z0 and approach[-1].end == circle.start
        assert isinstance(circle, Arc) and circle.center == a
        assert loop.segments == approach + (circle,) + tuple(seg.reversed() for seg in reversed(approach))


def test_legs_of_any_other_path_are_the_path():
    """A loop whose last line ends one ulp off its base point, and an open
    path, are each one leg of all their segments."""
    loop = build_loops([0.0 + 0j, 1.0 + 0j], 2.0 + 0j)[0]
    last = loop.segments[-1]
    moved = Line(last.start, complex(np.nextafter(last.end.real, np.inf), last.end.imag))
    off = ContinuationPath(loop.segments[:-1] + (moved,))
    assert off.legs == (off.segments,)
    open_path = ContinuationPath((Line(2.0, 2.0 + 1j), Line(2.0 + 1j, 3.0 + 1j), Line(3.0 + 1j, 3.0)))
    assert open_path.legs == (open_path.segments,)


def test_legs_are_derived_once_per_path():
    """A path's legs are derived on the first read and kept: every later
    read returns the same tuple, and the path stays frozen and equal to a
    fresh copy of itself."""
    loop = build_loops([0.0 + 0j, 1.0 + 0j], 2.0 + 0j)[0]
    first = loop.legs
    assert loop.legs is first
    copy = ContinuationPath(loop.segments)
    assert copy == loop and copy.legs == first
    with pytest.raises(AttributeError):
        loop.segments = loop.segments[::-1]


def test_build_loops_base_on_pole_rejected():
    with pytest.raises(GeometryError):
        build_loops([0.0, 1.0], base_point=1.0 + 0j)


def test_build_loops_default_base():
    rep = monodromy(generic_2x2_system([0.0, 1.0]))
    assert rep.base_point == 2.0 + 0j
    assert all(loop.start == 2.0 + 0j for loop in rep.loops)


def test_crowded_row_composes_to_identity():
    """Six collinear poles with the base point in line, a layout that once
    needed more nested detours than allowed, compose to the identity."""
    poles = [complex(x) for x in (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0)]
    rep = monodromy(generic_2x2_system(poles), base_point=4.0 + 0j)
    assert rep.product_defect <= 1e-9


@pytest.mark.parametrize(
    "poles",
    [[cmath.exp(2j * math.pi * k / n) for k in range(n)] for n in (4, 6, 8, 10, 16)]
    + [[complex(k - (n - 1) / 2) for k in range(n)] for n in (5, 6, 10, 20)],
    ids=[f"circle-{n}" for n in (4, 6, 8, 10, 16)] + [f"row-{n}" for n in (5, 6, 10, 20)],
)
def test_symmetric_layouts_compose_to_identity(poles):
    """Unit circles and real rows, where the base point lines up with poles,
    give generic residues a product defect at the integration tolerance."""
    rep = monodromy(generic_2x2_system(poles))
    assert rep.product_defect <= 1e-9


def test_composition_order_is_permutation(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        poles = sample_poles(rng, n)
        z0 = default_base_point(poles)
        order = composition_order(build_loops(poles, z0))
        assert sorted(order) == list(range(n))


def test_composition_order_descends_along_the_line():
    """The order is the loops' feet on the comb's line, from the far side of
    d (counterclockwise) down: Im((f_j - f0) conj d) descending."""
    poles = [0.0 + 0j, 1.0 + 0.8j, -0.5 - 0.9j]
    z0 = default_base_point(poles)
    loops = build_loops(poles, z0)
    positions = []
    for loop in loops:
        d, base_foot, foot = comb_parts(loop)
        positions.append(((foot - base_foot) * d.conjugate()).imag)
    order = composition_order(loops)
    assert [positions[i] for i in order] == sorted(positions, reverse=True)
    assert len(set(positions)) == len(poles)


def test_composition_order_is_the_order_of_the_feet(rng):
    """Read off the circles, the order is that of the comb's feet along its
    line, Im((f_j - f0) conj d) descending, on random disks and on rows."""
    for k in range(300):
        n = int(rng.integers(2, 7))
        turn = cmath.rect(1.0, rng.uniform(0.0, TWO_PI))
        poles = sample_poles(rng, n) if k % 3 else [j * turn for j in range(n)]
        z0 = default_base_point(poles) if k % 2 else complex(*rng.uniform(-4.0, 4.0, 2))
        if min(abs(z0 - a) for a in poles) < 0.1:
            continue
        d, _, feet = _comb(poles, z0)
        feet_order = np.argsort(-((feet[:-1] - feet[-1]) * d.conjugate()).imag, kind="stable").tolist()
        assert composition_order(build_loops(poles, z0)) == feet_order


def test_one_comb_per_call(monkeypatch, tmp_path):
    """``monodromy``, ``verify_theorem``, an inverse instance with its solve
    and a CLI ``invert`` op each build the comb once: the composition order
    is read off the loops, and the instance carries its loops to the solver."""
    paths = importlib.import_module("fuchsia.paths")
    calls = []

    def counting(*args):
        calls.append(args)
        return _comb(*args)

    monkeypatch.setattr(paths, "_comb", counting)
    poles = [0.0, 1.5, 0.4 + 1.1j]
    system = validate_system(poles, [0.1 * b for b in generic_2x2_system(poles).residues])
    rep = monodromy(system)
    system_path, report_path = tmp_path / "system.json", tmp_path / "m.json"
    system_path.write_text(jsonio.canonical_json(system.to_dict()), encoding="utf-8")
    assert main(["--quiet", "monodromy", str(system_path), "--json", str(report_path)]) == 0
    for call in (
        lambda: monodromy(system).product_defect < 1e-8,
        lambda: verify_theorem(system).overall,
        lambda: solve(validate_instance(poles, rep.matrices)).converged,
        lambda: main(["--quiet", "invert", str(report_path)]) == 0,
    ):
        calls.clear()
        assert call()
        assert len(calls) == 1


def test_composition_order_collinear_row():
    """A row's teeth run across it, so its order is the row's own order."""
    poles = [-1.0 + 0j, 0.0 + 0j, 1.0 + 0j]
    assert composition_order(build_loops(poles, 2.0 + 0j)) == [0, 1, 2]


def test_composition_order_deterministic(rng):
    poles = sample_poles(rng, 4)
    z0 = default_base_point(poles)
    assert composition_order(build_loops(poles, z0)) == composition_order(build_loops(poles, z0))


def test_loops_stay_outside_foreign_circles():
    """Every loop keeps 1.5 r_q from every other pole q, or COMB_OFFSET
    where that is less, so it never enters another loop's circle, and it
    keeps min(COMB_OFFSET, min_k r_k) from every pole."""
    layouts = [
        [-1.0 + 0j, 0.0 + 0j, 1.0 + 0j],
        [0.0 + 0j, 1.2 + 0.5j, -0.8 + 0.7j, 0.3 - 1.1j],
        [0.5j, -0.5j, 1.5j],
        [cmath.exp(2j * math.pi * k / 6) for k in range(6)],
    ]
    for poles in layouts:
        loops = build_loops(poles, default_base_point(poles))
        radii = circle_radii(loops)
        for j, loop in enumerate(loops):
            assert path_clearance_audit(loop, poles) >= min(COMB_OFFSET, min(radii)) * (1.0 - 1e-12)
            for q, a in enumerate(poles):
                if q == j:
                    continue
                assert segment_distances(loop.segments, [a]).min() >= min(1.5 * radii[q], COMB_OFFSET) * (1.0 - 1e-12)


def piece_layouts():
    """Loops of a collinear row and of a random disk."""
    rng = np.random.default_rng(SEED)
    for poles in ([-1.0 + 0j, 0.0 + 0j, 1.0 + 0j], sample_poles(rng, 5)):
        yield poles, build_loops(poles, default_base_point(poles))


def test_pieces_are_no_longer_than_their_pole_distance():
    """Every hop is at most half as long as its start's distance to the
    nearest pole, and its piece of the segment no longer than that."""
    count = 0
    for poles, loops in piece_layouts():
        legs = [(seg,) for loop in loops for seg in loop.segments]
        for (segment,), points in zip(legs, hops(legs, poles)):
            distance = np.abs(points[:-1, None] - np.array(poles)).min(axis=1)
            assert np.all(np.abs(np.diff(points)) <= 0.5 * distance)
            # A piece's length is the segment's length over a power of two.
            assert np.all(np.abs(np.diff(points)) <= segment.length)
            count += len(points) - 1
    assert count > 100


def test_pieces_join_end_to_end():
    """A leg's hops run from its first segment's start through every join,
    exactly, to its last segment's end; a circle ends at its start
    bit for bit."""
    for poles, loops in piece_layouts():
        legs = [loop.segments for loop in loops]
        for leg, points in zip(legs, hops(legs, poles)):
            assert points[0] == leg[0].start
            assert points[-1] == leg[-1].end
            for segment in leg[1:]:
                assert segment.start in points
            assert np.all(np.diff(points) != 0.0)
    circle = Arc(0.0 + 0j, 0.4, 0.3, 0.3 + TWO_PI)
    [points] = hops([(circle,)], [0.0 + 0j])
    assert points[-1] == points[0] == circle.start


def test_full_circle_splits_into_sixteen_arcs():
    circle = Arc(0.0 + 0j, 0.4, math.pi, 3.0 * math.pi)
    [points] = hops([(circle,)], [0.0 + 0j, 1.0 + 0j])
    assert len(points) == 17
    steps = np.angle(np.diff(points) / (points[:-1] - circle.center))
    assert np.all(np.abs(np.abs(np.diff(points)) - 2.0 * 0.4 * math.sin(math.pi / 16.0)) < 1e-15)
    assert np.all(steps > 0.0)


def test_pieces_without_poles_keep_the_segment():
    segment = Line(0.0 + 0j, 100.0 + 0j)
    [points] = hops([(segment,)], [])
    assert list(points) == [segment.start, segment.end]


def test_approach_pieces_shrink_toward_the_pole():
    [points] = hops([(Line(3.0 + 0j, 0.4 + 0j),)], [0.0 + 0j])
    assert list(-np.diff(points).real) == pytest.approx([1.3, 0.65, 0.325, 0.325])


@pytest.mark.parametrize("pole", [0.0 + 0j, 1e-300j])
def test_hops_reject_a_leg_through_a_pole(pole):
    """A pole on a leg, or within rounding of it, leaves a piece too long
    however far it is halved: the bisection raises once the piece's
    parameter interval cannot be split, instead of running on."""
    with pytest.raises(ValidationError, match="passes through a pole"):
        hops([(Line(-1.0 + 0j, 1.0 + 0j),)], [pole])


def full_bisection_hops(legs, poles):
    """Reference for ``hops``: the same bisection, placing every point and
    measuring its pole distance again at every level, with ``np.insert``."""
    segments = [seg for leg in legs for seg in leg]
    lines = [isinstance(seg, Line) for seg in segments]
    base = np.array([seg.start if line else seg.center for seg, line in zip(segments, lines)])
    tip = np.array([seg.end if line else seg.center for seg, line in zip(segments, lines)])
    step = tip - base
    radius, angle, span = np.array(
        [(0.0, 0.0, 0.0) if line else (seg.radius, seg.angle_start, seg.span) for seg, line in zip(segments, lines)]
    ).T
    length = np.array([seg.length for seg in segments])
    poles = np.asarray(poles, dtype=complex)
    owner = np.repeat(np.arange(len(segments)), 2)
    t = np.tile([0.0, 1.0], len(segments))
    u = 1.0 - t
    while True:
        far = t > 0.5
        along = np.where(far, tip[owner] - u * step[owner], base[owner] + t * step[owner])
        z = along + radius[owner] * np.exp(1j * (angle[owner] + t * span[owner]))
        if not poles.size:
            break
        width = np.where(far[:-1], u[:-1] - u[1:], t[1:] - t[:-1])
        piece = owner[1:] == owner[:-1]
        if (piece & (width <= 0.0)).any():
            raise ValidationError("a leg passes through a pole")
        distance = np.abs(z[:-1, None] - poles).min(axis=1)
        long = piece & (width * length[owner[:-1]] > HOP_RATIO * distance)
        if not long.any():
            break
        at = np.flatnonzero(long) + 1
        owner = np.insert(owner, at, owner[at])
        t, u = np.insert(t, at, (t[at - 1] + t[at]) / 2.0), np.insert(u, at, (u[at - 1] + u[at]) / 2.0)
    first = t == 0.0
    last = u == 0.0
    z[first] = [segments[i].start for i in owner[first]]
    z[last] = [segments[i].end for i in owner[last]]
    leading = np.cumsum([0] + [len(leg) for leg in legs[:-1]])
    keep = ~first | np.isin(owner, leading)
    counts = np.add.reduceat(keep.astype(int), np.searchsorted(owner, leading))
    return np.split(z[keep], np.cumsum(counts)[:-1])


def test_hops_equal_the_full_bisection(rng):
    """Placing only each level's midpoints gives the hop points of the full
    bisection bit for bit: on the cut legs (approach, circle) and the whole
    loops of disks, rows and circles of poles, from default and random base
    points and from 1e16, 1e100 and 1e300, and on the same legs with no
    poles."""
    far = [1e16, 1e100, 1e300]
    for k in range(300):
        n = int(rng.integers(2, 6))
        turn = cmath.rect(1.0, rng.uniform(0.0, TWO_PI))
        layout = k % 3
        if layout == 0:
            poles = sample_poles(rng, n)
        elif layout == 1:
            poles = [j * turn for j in range(n)]
        else:
            poles = [turn * cmath.rect(1.0, TWO_PI * j / n) for j in range(n)]
        if k % 100 < 3:
            z0 = complex(far[k % 100])
        elif k % 2:
            z0 = default_base_point(poles)
        else:
            z0 = complex(*rng.uniform(-4.0, 4.0, 2))
        if min(abs(z0 - a) for a in poles) < 0.1:
            continue
        legs = []
        for loop in build_loops(poles, z0):
            half = len(loop.segments) // 2
            legs += [loop.segments[:half], loop.segments[half : half + 1]]
            # A whole loop as one leg too, but not from a far base point, where the reference is slow.
            legs += [] if abs(z0) > 1e3 else [loop.segments]
        for pole_set in (poles, []):
            got, want = hops(legs, pole_set), full_bisection_hops(legs, pole_set)
            assert len(got) == len(want) == len(legs)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
