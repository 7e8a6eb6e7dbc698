"""Continuation paths: unit-speed lines and circular arcs with exact joins.

Loops around poles are built as chord-out, full counterclockwise circle,
chord-back trips from a common base point.  When the chord to one pole would
pass too close to another, the chord detours around the interfering pole
along an arc on a fixed side of travel; the return leg is the exact bitwise
reverse of the approach, so detours contribute zero winding around every
pole.  Adjacent segments share endpoint values bit for bit: each segment is
constructed from the previous segment's computed endpoint, and a closed arc
reports its start value as its end.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, ValidationError
from .system import DEFAULT_POLE_SEPARATION

TWO_PI = 2.0 * math.pi

# Loop and composition conventions baked into this module; reports carry the
# tag so downstream consumers can check compatibility.
LOOP_CONVENTION = "ccw-circle/reversed-approach/order-angle-asc-near-first/v2"


def arc_point(center: complex, radius: float, angle: float) -> complex:
    """The single shared formula for points on circles.

    Every construction site uses this helper so that two segments meeting on
    a circle agree on the junction bit for bit.
    """
    return center + radius * complex(math.cos(angle), math.sin(angle))


@dataclass(frozen=True)
class Line:
    """Straight segment from ``start`` to ``end``, parameterized by arc length."""

    start: complex
    end: complex

    def __post_init__(self):
        if self.start == self.end:
            raise ValidationError("zero-length line segment")
        if not all(
            math.isfinite(v) for v in (self.start.real, self.start.imag, self.end.real, self.end.imag)
        ):
            raise ValidationError("line endpoints must be finite")

    @property
    def length(self) -> float:
        return abs(self.end - self.start)

    def frame(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Points start + s u and unit velocities u at an array of arc lengths."""
        u = (self.end - self.start) / self.length
        return self.start + s * u, np.full(s.shape, u)

    def reversed(self) -> "Line":
        return Line(self.end, self.start)

    def min_distance_to(self, w: complex) -> float:
        d = self.end - self.start
        length = abs(d)
        u = d / length
        rel = (w - self.start) * u.conjugate()
        t = min(max(rel.real, 0.0), length)
        return abs(w - (self.start + t * u))


@dataclass(frozen=True)
class Arc:
    """Circular arc, counterclockwise when angle_end > angle_start.

    ``closed`` marks a full circle: its reported endpoint is then the exact
    start value, which keeps loop contiguity bitwise even though
    cos(a + 2 pi) differs from cos(a) in the last bits.
    """

    center: complex
    radius: float
    angle_start: float
    angle_end: float
    closed: bool = field(default=False)

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValidationError(f"arc radius must be positive and finite, got {self.radius}")
        span = self.angle_end - self.angle_start
        if span == 0.0 or not math.isfinite(span):
            raise ValidationError("arc must sweep a nonzero finite angle")
        if abs(span) > TWO_PI * (1.0 + 1e-9):
            raise ValidationError("arc sweeps more than a full turn")
        if self.closed and abs(abs(span) - TWO_PI) > 1e-9:
            raise ValidationError("closed arc must sweep a full turn")

    @property
    def span(self) -> float:
        return self.angle_end - self.angle_start

    @property
    def length(self) -> float:
        return self.radius * abs(self.span)

    @property
    def start(self) -> complex:
        return arc_point(self.center, self.radius, self.angle_start)

    @property
    def end(self) -> complex:
        if self.closed:
            return self.start
        return arc_point(self.center, self.radius, self.angle_end)

    def frame(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Points center + r e^{i phi(s)} and unit velocities at an array of arc lengths.

        phi(s) = angle_start +- s / radius, the sign being that of the sweep.
        """
        sign = 1.0 if self.span > 0 else -1.0
        turn = np.exp(1j * (self.angle_start + sign * s / self.radius))
        return self.center + self.radius * turn, (1j * sign) * turn

    def reversed(self) -> "Arc":
        # A closed arc must keep its reported endpoint bitwise, so reverse
        # it by flipping the sweep direction around the same anchor angle;
        # swapping the angles would re-anchor at angle_end, whose cos/sin
        # differ from angle_start's in the last bits.
        if self.closed:
            return Arc(
                self.center,
                self.radius,
                self.angle_start,
                self.angle_start - self.span,
                closed=True,
            )
        return Arc(self.center, self.radius, self.angle_end, self.angle_start)

    def min_distance_to(self, w: complex) -> float:
        rel = w - self.center
        dist = abs(rel)
        if dist == 0.0:
            return self.radius
        phi = cmath.phase(rel)
        span = self.span
        lo = min(self.angle_start, self.angle_end)
        width = abs(span)
        offset = (phi - lo) % TWO_PI
        if offset <= width:
            return abs(dist - self.radius)
        d_start = abs(w - arc_point(self.center, self.radius, self.angle_start))
        d_end = abs(w - arc_point(self.center, self.radius, self.angle_end))
        return min(d_start, d_end)


Segment = Line | Arc


@dataclass(frozen=True)
class ContinuationPath:
    """Contiguous chain of segments with a claimed pole clearance.

    Construction demands bitwise endpoint contiguity; the ``clearance``
    field records the distance every segment is claimed to keep from every
    pole, which ``path_clearance_audit`` can verify against a pole set.
    A path may also be trivial (no segments, zero length) at an ``anchor``
    point; continuation along it is the identity by definition.
    """

    segments: tuple[Segment, ...]
    clearance: float
    anchor: complex | None = field(default=None)

    def __post_init__(self):
        if not self.segments and self.anchor is None:
            raise ValidationError("a path needs at least one segment or an anchor point")
        if not (self.clearance > 0.0 and math.isfinite(self.clearance)):
            raise ValidationError("path clearance must be positive")
        for i in range(len(self.segments) - 1):
            if self.segments[i].end != self.segments[i + 1].start:
                raise ValidationError(
                    f"segments {i} and {i + 1} do not join exactly: "
                    f"{self.segments[i].end!r} vs {self.segments[i + 1].start!r}"
                )

    @classmethod
    def trivial(cls, point: complex) -> "ContinuationPath":
        return cls(segments=(), clearance=1.0, anchor=complex(point))

    @property
    def start(self) -> complex:
        if not self.segments:
            return self.anchor
        return self.segments[0].start

    @property
    def end(self) -> complex:
        if not self.segments:
            return self.anchor
        return self.segments[-1].end

    @property
    def length(self) -> float:
        return sum(seg.length for seg in self.segments)

    def min_distance_to(self, w: complex) -> float:
        if not self.segments:
            return abs(self.anchor - w)
        return min(seg.min_distance_to(w) for seg in self.segments)

    def reversed(self) -> "ContinuationPath":
        return ContinuationPath(
            tuple(seg.reversed() for seg in reversed(self.segments)),
            clearance=self.clearance,
            anchor=self.anchor,
        )


def path_clearance_audit(path: ContinuationPath, poles) -> float:
    """Recompute the minimum distance from any path segment to any pole."""
    return min(path.min_distance_to(a) for a in poles)


def default_base_point(poles) -> complex:
    """Base point 1 + max |a_i| on the positive real axis, right of all poles."""
    return complex(1.0 + max(abs(a) for a in poles), 0.0)


# Loop sizing.  Each loop circle has radius RADIUS_FACTOR times the distance
# to the nearest pole or base point; corridors to other poles must keep out
# of the exclusion disk of EXCLUSION_FACTOR times a pole's circle radius,
# detouring along its boundary.  Corridors sharing a detour pole nest at
# radii spaced by NEST_STEP so the planar arrangement stays non-crossing,
# which is what makes the composition order below correct.  These constants
# satisfy EXCLUSION_FACTOR * (1 + MAX_NEST_RANK * NEST_STEP) * RADIUS_FACTOR
# < 1/2, so detour bulges around distinct poles can never intersect.
RADIUS_FACTOR = 0.4
EXCLUSION_FACTOR = 1.08
NEST_STEP = 0.05
MAX_NEST_RANK = 2


def loop_radii(poles, z0: complex) -> list[float]:
    """Circle radius for each pole's loop: scaled nearest-feature distance."""
    radii = []
    for j, a in enumerate(poles):
        nearest = min(
            (abs(a - p) for i, p in enumerate(poles) if i != j),
            default=math.inf,
        )
        limit = min(nearest, abs(z0 - a))
        r = RADIUS_FACTOR * limit
        if not (r > 0.0 and math.isfinite(r)):
            raise GeometryError(
                f"cannot size a loop around pole {a}: another pole or the "
                "base point coincides with it"
            )
        radii.append(r)
    return radii


def _chord_frame(z0: complex, entry: complex):
    d = entry - z0
    length = abs(d)
    if length == 0.0:
        raise GeometryError("base point coincides with a loop entry point")
    return d / length, length


def _detour_plan(poles, z0: complex, radii: list[float]):
    """For each corridor, which poles it must detour and on which side.

    Returns ``plan[j] = list of (q, side)`` and the nesting rank table
    ``rank[(j, q)]``.  A corridor detours pole q when its straight chord
    would enter q's exclusion disk; the side is the side of the chord the
    pole is avoided on (+1 means the counterclockwise side of travel), with
    exact hits resolved to +1 so collinear corridors nest consistently by
    destination distance.
    """
    n = len(poles)
    entries = []
    for j, a in enumerate(poles):
        theta = cmath.phase(z0 - a)
        entries.append(arc_point(a, radii[j], theta))
    plan: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    detourers: dict[tuple[int, int], list[int]] = {}
    for j in range(n):
        u, length = _chord_frame(z0, entries[j])
        for q in range(n):
            if q == j:
                continue
            exclusion = EXCLUSION_FACTOR * radii[q]
            rel = (poles[q] - z0) * u.conjugate()
            t_near = min(max(rel.real, 0.0), length)
            seg_dist = abs(poles[q] - (z0 + t_near * u))
            if seg_dist >= exclusion:
                continue
            side = 1 if rel.imag <= 0.0 else -1
            plan[j].append((q, side))
            detourers.setdefault((q, side), []).append(j)
    rank: dict[tuple[int, int], int] = {}
    for (q, _side), members in detourers.items():
        members.sort(key=lambda j: (abs(poles[j] - z0), j))
        for position, j in enumerate(members):
            if position > MAX_NEST_RANK:
                raise GeometryError(
                    f"more than {MAX_NEST_RANK + 1} corridors need to detour "
                    f"around pole {poles[q]}; configuration too crowded"
                )
            rank[(j, q)] = position
    return plan, rank, entries


def _approach_segments(z0, poles, j, radii, plan, rank, entry):
    """Segments from z0 to the loop entry, respecting the detour plan."""
    u, length = _chord_frame(z0, entry)
    events = []
    for q, side in plan[j]:
        detour_radius = (
            EXCLUSION_FACTOR * radii[q] * (1.0 + NEST_STEP * rank[(j, q)])
        )
        rel = (poles[q] - z0) * u.conjugate()
        t_foot, h = rel.real, rel.imag
        if detour_radius <= abs(h):
            continue
        half = math.sqrt(detour_radius * detour_radius - h * h)
        t_enter, t_exit = t_foot - half, t_foot + half
        if t_enter <= 0.0 or t_exit >= length:
            raise GeometryError(
                f"detour around pole {poles[q]} reaches a chord endpoint; "
                "configuration too crowded for this base point"
            )
        events.append((t_enter, t_exit, detour_radius, q, side))
    events.sort()
    for k in range(len(events) - 1):
        if events[k][1] >= events[k + 1][0]:
            raise GeometryError(
                f"detours around poles {poles[events[k][3]]} and "
                f"{poles[events[k + 1][3]]} overlap on one chord"
            )

    segments: list[Segment] = []
    cursor = z0
    for t_enter, t_exit, detour_radius, q, side in events:
        pole = poles[q]
        chi_in = cmath.phase(z0 + t_enter * u - pole)
        chi_out = cmath.phase(z0 + t_exit * u - pole)
        q_in = arc_point(pole, detour_radius, chi_in)
        if cursor != q_in:
            segments.append(Line(cursor, q_in))
        # Route the arc through the point on the chosen side of the chord.
        normal_angle = cmath.phase(1j * side * u)
        ccw_span = (chi_out - chi_in) % TWO_PI
        side_offset = (normal_angle - chi_in) % TWO_PI
        if side_offset <= ccw_span:
            arc = Arc(pole, detour_radius, chi_in, chi_in + ccw_span)
        else:
            arc = Arc(pole, detour_radius, chi_in, chi_in - (TWO_PI - ccw_span))
        segments.append(arc)
        cursor = arc.end
    if cursor != entry:
        segments.append(Line(cursor, entry))
    return segments


def _assemble_loop(z0, poles, j, radii, plan, rank, entry) -> ContinuationPath:
    theta = cmath.phase(z0 - poles[j])
    approach = _approach_segments(z0, poles, j, radii, plan, rank, entry)
    circle = Arc(poles[j], radii[j], theta, theta + TWO_PI, closed=True)
    back = [seg.reversed() for seg in reversed(approach)]
    probe = ContinuationPath(tuple(approach + [circle] + back), clearance=radii[j])
    audited = path_clearance_audit(probe, poles)
    if not audited > 0.0:
        raise GeometryError(f"loop around pole {poles[j]} touches a pole")
    return ContinuationPath(probe.segments, clearance=audited)


def composition_order(poles, base_point: complex) -> list[int]:
    """Pole indices in the order their loops compose to the identity.

    Traversing the loops in the returned order (first entry first) gives a
    contractible composite, so the monodromy product with the first loop as
    the rightmost factor is the identity.  Because the loop corridors form
    a non-crossing planar arrangement, the order is the counterclockwise
    cyclic order of corridor germs at the base point: angle of (pole -
    base) ascending in (-pi, pi], nearer poles first among exact angular
    ties (collinear corridors nest with farther destinations detouring on
    the counterclockwise side).  Pinned by product-identity tests.
    """
    z0 = complex(base_point)
    keyed = []
    for i, a in enumerate(poles):
        keyed.append((cmath.phase(a - z0), abs(a - z0), i))
    keyed.sort()
    return [i for _, _, i in keyed]


def build_loops(system, base_point=None) -> list[ContinuationPath]:
    """One loop per pole of ``system``, all based at the same point.

    The default base point is ``1 + max |a_i|`` on the real axis.  Each
    loop is a chord out (detouring other poles' exclusion disks), one full
    counterclockwise circle, then the exact bitwise reverse of the chord,
    so it winds once around its own pole and zero times around the others;
    its stored clearance is the audited minimum pole distance.  The whole
    family forms a non-crossing arrangement whose composition order is
    ``composition_order``.
    """
    poles = [complex(a) for a in system.poles]
    z0 = default_base_point(poles) if base_point is None else complex(base_point)
    if not (math.isfinite(z0.real) and math.isfinite(z0.imag)):
        raise GeometryError("base point must be finite")
    for a in poles:
        if abs(z0 - a) <= DEFAULT_POLE_SEPARATION:
            raise GeometryError(f"base point {z0} coincides with the pole {a}")
    radii = loop_radii(poles, z0)
    plan, rank, entries = _detour_plan(poles, z0, radii)
    return [
        _assemble_loop(z0, poles, j, radii, plan, rank, entries[j])
        for j in range(len(poles))
    ]
