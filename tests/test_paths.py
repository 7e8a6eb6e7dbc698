"""Path geometry: segments, bitwise contiguity, loops, composition order."""

import cmath
import math

import numpy as np
import pytest

from conftest import SEED, sample_poles
from fuchsia.errors import GeometryError, ValidationError
from fuchsia.paths import (
    Arc,
    ContinuationPath,
    Line,
    arc_point,
    build_loops,
    composition_order,
    default_base_point,
    loop_radii,
    path_clearance_audit,
)
from fuchsia.system import validate_system


def toy_system(poles):
    n = len(poles)
    b = np.array([[0.1]], dtype=complex)
    residues = [b] * (n - 1) + [-(n - 1) * b]
    return validate_system(poles, residues)


def test_line_basics():
    seg = Line(0.0, 3.0 + 4.0j)
    assert seg.length == 5.0
    z, v = seg.frame(np.array([0.0, 5.0]))
    assert z[0] == 0.0
    assert z[1] == 3.0 + 4.0j
    assert np.all(np.abs(v - (0.6 + 0.8j)) < 1e-15)
    assert seg.reversed().start == seg.end


def test_line_rejects_zero_length():
    with pytest.raises(ValidationError):
        Line(1.0 + 1.0j, 1.0 + 1.0j)


def test_line_min_distance_interior_and_endpoint():
    seg = Line(0.0, 2.0)
    assert seg.min_distance_to(1.0 + 1.0j) == pytest.approx(1.0)
    assert seg.min_distance_to(-3.0) == pytest.approx(3.0)


def test_arc_point_is_shared_formula():
    center, radius, angle = 1.0 + 2.0j, 0.75, 0.3
    arc = Arc(center, radius, angle, angle + 1.0)
    assert arc.start == arc_point(center, radius, angle)
    z, _ = arc.frame(np.zeros(1))
    assert abs(z[0] - arc.start) < 1e-15


def test_closed_arc_end_is_start_bitwise():
    arc = Arc(0.0, 1.0, 0.7, 0.7 + 2.0 * math.pi, closed=True)
    assert arc.end == arc.start
    # An open full-turn arc only promises closeness, not bitwise identity.
    open_arc = Arc(0.0, 1.0, 0.7, 0.7 + 2.0 * math.pi)
    assert abs(open_arc.end - open_arc.start) < 1e-14


def test_closed_arc_reversal_keeps_anchor_and_flips_sweep():
    arc = Arc(0.5j, 2.0, 0.7, 0.7 + 2.0 * math.pi, closed=True)
    rev = arc.reversed()
    assert rev.closed
    assert rev.start == arc.start
    assert rev.end == arc.end
    assert rev.span == -arc.span


def test_arc_rejects_overlong_span():
    with pytest.raises(ValidationError):
        Arc(0.0, 1.0, 0.0, 7.0)


def test_arc_min_distance_inside_and_outside_window():
    arc = Arc(0.0, 1.0, 0.0, math.pi / 2)
    assert arc.min_distance_to(2.0) == pytest.approx(1.0)
    assert arc.min_distance_to(0.5) == pytest.approx(0.5)
    assert arc.min_distance_to(-2.0) == pytest.approx(abs(-2.0 - arc.end))


def test_arc_reversed_preserves_endpoints():
    arc = Arc(1.0j, 0.5, 0.2, 1.9)
    rev = arc.reversed()
    assert rev.start == arc.end
    assert rev.end == arc.start


def test_path_requires_contiguity():
    a = Line(0.0, 1.0)
    b = Line(1.0 + 1e-15j, 2.0)
    with pytest.raises(ValidationError):
        ContinuationPath((a, b), clearance=0.1)


def test_trivial_path():
    path = ContinuationPath.trivial(2.5 + 1.0j)
    assert path.length == 0.0
    assert path.start == path.end == 2.5 + 1.0j


def test_empty_path_needs_anchor():
    with pytest.raises(ValidationError):
        ContinuationPath((), clearance=1.0)


def test_path_reversal_round_trip():
    a = Line(0.0, 1.0)
    b = Arc(2.0, 1.0, math.pi, 0.5)
    path = ContinuationPath((a, Line(a.end, b.start), b), clearance=0.05)
    back = path.reversed()
    assert back.start == path.end
    assert back.end == path.start
    again = back.reversed()
    assert [type(s) for s in again.segments] == [type(s) for s in path.segments]
    assert again.segments[0].start == path.segments[0].start


def test_default_base_point():
    assert default_base_point([1.0j, -2.0]) == 3.0 + 0.0j


def test_loop_radii_scale():
    poles = [0.0 + 0j, 1.0 + 0j]
    radii = loop_radii(poles, 3.0 + 0j)
    assert radii == [0.4, 0.4]


def test_pole_loop_closed_and_clear():
    poles = [0.0 + 0j, 1.0 + 0j]
    loop = build_loops(toy_system(poles), 2.0 + 0j)[0]
    assert loop.end == loop.start == 2.0 + 0j
    audited = path_clearance_audit(loop, poles)
    assert audited >= loop.clearance * (1.0 - 1e-12)
    assert audited > 0.0


def test_pole_loop_winding_angles():
    """The loop's circle is a single ccw full turn around its own pole."""
    poles = [0.0 + 0j, 1.5 + 0j]
    loop = build_loops(toy_system(poles), 2.5 + 0j)[0]
    circles = [
        s for s in loop.segments if isinstance(s, Arc) and getattr(s, "closed", False)
    ]
    assert len(circles) == 1
    assert circles[0].center == poles[0]
    assert circles[0].span == pytest.approx(2.0 * math.pi)


def test_collinear_detours_cancel_winding():
    """Approach and return legs are exact mirror images around a blocker."""
    poles = [-1.0 + 0j, 0.0 + 0j, 1.0 + 0j]
    loop = build_loops(toy_system(poles), 2.0 + 0j)[0]
    n = len(loop.segments)
    for k in range((n - 1) // 2):
        fore = loop.segments[k]
        aft = loop.segments[n - 1 - k]
        assert fore.start == aft.end
        assert fore.end == aft.start


def test_build_loops_base_on_pole_rejected():
    system = toy_system([0.0, 1.0])
    with pytest.raises(GeometryError):
        build_loops(system, base_point=1.0 + 0j)


def test_build_loops_default_base():
    system = toy_system([0.0, 1.0])
    loops = build_loops(system)
    assert all(loop.start == 2.0 + 0j for loop in loops)


def test_too_crowded_raises():
    poles = [complex(x) for x in (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0)]
    system = toy_system(poles)
    with pytest.raises(GeometryError):
        build_loops(system, base_point=4.0 + 0j)


def test_composition_order_is_permutation(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        poles = sample_poles(rng, n)
        z0 = default_base_point(poles)
        order = composition_order(poles, z0)
        assert sorted(order) == list(range(n))


def test_composition_order_angle_ascending():
    poles = [0.0 + 0j, 1.0 + 0.8j, -0.5 - 0.9j]
    z0 = default_base_point(poles)
    order = composition_order(poles, z0)
    angles = [cmath.phase(poles[i] - z0) for i in order]
    assert angles == sorted(angles)


def test_composition_order_collinear_near_first():
    poles = [-1.0 + 0j, 0.0 + 0j, 1.0 + 0j]
    assert composition_order(poles, 2.0 + 0j) == [2, 1, 0]


def test_composition_order_deterministic(rng):
    poles = sample_poles(rng, 4)
    z0 = default_base_point(poles)
    assert composition_order(poles, z0) == composition_order(poles, z0)


def test_loops_stay_outside_foreign_circles():
    """Corridors never enter another loop's circle, so loops are unlinked."""
    layouts = [
        [-1.0 + 0j, 0.0 + 0j, 1.0 + 0j],
        [0.0 + 0j, 1.2 + 0.5j, -0.8 + 0.7j, 0.3 - 1.1j],
        [0.5j, -0.5j, 1.5j],
    ]
    for poles in layouts:
        z0 = default_base_point(poles)
        radii = loop_radii(poles, z0)
        loops = build_loops(toy_system(poles), z0)
        for j, loop in enumerate(loops):
            for q, a in enumerate(poles):
                if q == j:
                    continue
                assert loop.min_distance_to(a) > radii[q]
