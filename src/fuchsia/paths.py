"""Continuation paths: unit-speed lines and full circles with exact joins.

Loops around poles hang on a comb.  Every pole has a tooth along one
direction d to a line L beyond all poles, and the base point joins L along
d as well.  A pole's loop runs from the base point onto L, along L to its
tooth, down the tooth, once counterclockwise around a small circle, and
back along the exact bitwise reverse of the way in.  Parallel teeth never
cross, so the loops need no detours, and their order along L is the order
in which they compose to the identity.  Adjacent segments share endpoint
values bit for bit: each segment is constructed from the previous
segment's computed endpoint, and a circle reports its start value as its
end.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ValidationError
from .system import DEFAULT_POLE_SEPARATION

TWO_PI = 2.0 * math.pi

# Loop and composition conventions baked into this module; reports carry the
# tag so downstream consumers can check compatibility.
LOOP_CONVENTION = "ccw-circle/reversed-approach/comb-order-foot-desc/v3"


@dataclass(frozen=True)
class Line:
    """Straight segment from ``start`` to ``end``, parameterized by arc length."""

    start: complex
    end: complex

    def __post_init__(self):
        if self.start == self.end:
            raise ValidationError("zero-length line segment")
        if not (cmath.isfinite(self.start) and cmath.isfinite(self.end)):
            raise ValidationError("line endpoints must be finite")

    @property
    def length(self) -> float:
        return abs(self.end - self.start)

    def reversed(self) -> "Line":
        return Line(self.end, self.start)


@dataclass(frozen=True)
class Arc:
    """One full turn of a circle, counterclockwise when angle_end > angle_start.

    The turn starts and ends at the point of ``angle_start``, and its end is
    that exact start value, which keeps loop contiguity bitwise even though
    cos(a + 2 pi) differs from cos(a) in the last bits.  The angles are kept
    as given: ``paths.hops`` spaces its points by angle_end - angle_start.
    """

    center: complex
    radius: float
    angle_start: float
    angle_end: float

    def __post_init__(self):
        if not (cmath.isfinite(self.center) and self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValidationError(f"arc centre {self.center} must be finite, radius {self.radius} positive and finite")
        # Written so that a NaN or infinite angle, whose span is NaN or infinite, fails it too.
        if not abs(abs(self.span) - TWO_PI) <= 1e-9:
            raise ValidationError("an arc must sweep one full turn between finite angles")

    @property
    def span(self) -> float:
        return self.angle_end - self.angle_start

    @property
    def length(self) -> float:
        return self.radius * abs(self.span)

    @property
    def start(self) -> complex:
        return self.center + self.radius * complex(math.cos(self.angle_start), math.sin(self.angle_start))

    @property
    def end(self) -> complex:
        return self.start

    def reversed(self) -> "Arc":
        # Flip the sweep around the same anchor angle: swapping the angles
        # would re-anchor at angle_end, whose cos/sin differ from
        # angle_start's in the last bits.
        return Arc(self.center, self.radius, self.angle_start, self.angle_start - self.span)


Segment = Line | Arc


def segment_distances(segments, points) -> np.ndarray:
    """(S, K) distances from each of S segments to each of K points, in one numpy pass.

    A line is measured to the point's projection clamped onto it, a circle
    as |(|w - c| - r)|, so its centre is r away.
    """
    w = np.asarray(points, dtype=complex)
    line = np.array([isinstance(seg, Line) for seg in segments])
    out = np.empty((len(segments), w.size))
    if line.any():
        ends = np.array([(seg.start, seg.end) for seg, is_line in zip(segments, line) if is_line])
        p, d = ends[:, :1], ends[:, 1:] - ends[:, :1]
        length = np.abs(d)
        u = d / length
        t = np.clip(((w - p) * u.conj()).real, 0.0, length)
        out[line] = np.abs(w - (p + t * u))
    if not line.all():
        center, radius = np.array([(seg.center, seg.radius) for seg, is_line in zip(segments, line) if not is_line]).T
        out[~line] = np.abs(np.abs(w - center[:, None]) - radius.real[:, None])
    return out


# Every hop of a continuation is at most HOP_RATIO times as long as the
# distance from its start to the nearest pole.
HOP_RATIO = 0.5


def hops(legs, poles) -> list[np.ndarray]:
    """The hop points of every leg, each leg a chain of segments, from one bisection.

    A leg's points z_0 ... z_H run along its segments, and hop i goes from
    z_i to z_{i+1}.  Every segment is halved, a line at its midpoint and an
    arc at its middle angle, while a piece is longer than ``HOP_RATIO``
    times the distance from its start to the nearest pole; each level of
    halving is one numpy pass over the pieces of all legs.  So every hop
    z -> z + h has |h| <= |z - a| / 2 for every pole a, and the piece it
    stands for lies in the pole-free disk around z of half the distance to
    the nearest pole, so the chord gives the piece's transfer.  A full circle
    around its own pole becomes 16 arcs, and a line ending near a pole
    becomes hops that shrink geometrically toward it.  A segment's first
    and last points are its own ``start`` and ``end``, so joins are exact
    and a circle's last hop ends at its start bit for bit.  With no
    poles every segment is one hop; a pole on a leg, or within rounding of
    it, raises ``ValidationError`` once a piece can no longer be halved.
    """
    segments = [seg for leg in legs for seg in leg]
    lines = [isinstance(seg, Line) for seg in segments]
    # A point at parameter t in [0, 1] is base + t step + radius e^{i (angle + t span)}.
    base = np.array([seg.start if line else seg.center for seg, line in zip(segments, lines)])
    step = np.array([seg.end - seg.start if line else 0.0 for seg, line in zip(segments, lines)])
    radius, angle, span = np.array(
        [(0.0, 0.0, 0.0) if line else (seg.radius, seg.angle_start, seg.span) for seg, line in zip(segments, lines)]
    ).T
    length = np.array([seg.length for seg in segments])
    poles = np.asarray(poles, dtype=complex)
    owner = np.repeat(np.arange(len(segments)), 2)
    t = np.tile([0.0, 1.0], len(segments))
    while True:
        z = base[owner] + t * step[owner] + radius[owner] * np.exp(1j * (angle[owner] + t * span[owner]))
        if not poles.size:
            break
        distance = np.abs(z[:-1, None] - poles).min(axis=1)
        long = (owner[1:] == owner[:-1]) & ((t[1:] - t[:-1]) * length[owner[:-1]] > HOP_RATIO * distance)
        if not long.any():
            break
        at = np.flatnonzero(long) + 1
        middle = (t[at - 1] + t[at]) / 2.0
        if ((middle <= t[at - 1]) | (middle >= t[at])).any():
            raise ValidationError("a leg passes through a pole: its hops cannot be halved any further")
        owner = np.insert(owner, at, owner[at])
        t = np.insert(t, at, middle)
    first = t == 0.0
    last = t == 1.0
    z[first] = [segments[i].start for i in owner[first]]
    z[last] = [segments[i].end for i in owner[last]]
    # Each segment after the first of its leg starts where the one before ends.
    leading = np.cumsum([0] + [len(leg) for leg in legs[:-1]])
    keep = ~first | np.isin(owner, leading)
    counts = np.add.reduceat(keep.astype(int), np.searchsorted(owner, leading))
    return np.split(z[keep], np.cumsum(counts)[:-1])


@dataclass(frozen=True)
class ContinuationPath:
    """Contiguous chain of at least one segment with a claimed pole clearance.

    Construction demands bitwise endpoint contiguity; the ``clearance``
    field records the distance every segment is claimed to keep from every
    pole, which ``path_clearance_audit`` can verify against a pole set.
    """

    segments: tuple[Segment, ...]
    clearance: float

    def __post_init__(self):
        if not self.segments:
            raise ValidationError("a path needs at least one segment")
        if not (self.clearance > 0.0 and math.isfinite(self.clearance)):
            raise ValidationError("path clearance must be positive")
        for i in range(len(self.segments) - 1):
            if self.segments[i].end != self.segments[i + 1].start:
                raise ValidationError(
                    f"segments {i} and {i + 1} do not join exactly: "
                    f"{self.segments[i].end!r} vs {self.segments[i + 1].start!r}"
                )

    @property
    def start(self) -> complex:
        return self.segments[0].start

    @property
    def end(self) -> complex:
        return self.segments[-1].end

    @property
    def length(self) -> float:
        return sum(seg.length for seg in self.segments)

    def reversed(self) -> "ContinuationPath":
        return ContinuationPath(
            tuple(seg.reversed() for seg in reversed(self.segments)),
            clearance=self.clearance,
        )


def path_clearance_audit(path: ContinuationPath, poles) -> float:
    """Recompute the minimum distance from any path segment to any pole."""
    return float(segment_distances(path.segments, poles).min())


def default_base_point(poles) -> complex:
    """Base point 1 + max |a_i| on the positive real axis, right of all poles."""
    return complex(1.0 + max(abs(a) for a in poles), 0.0)


# Comb loops.  The teeth run parallel to one direction d, the best of
# COMB_ANGLES evenly spaced candidates, up to the line L that lies
# COMB_OFFSET beyond the farthest pole along d.  A pole's circle has radius
# RADIUS_FACTOR times its distance to the nearest other pole or the base
# point, and at most 1 / TOOTH_FACTOR times the distance at which any tooth
# passes beside it.
COMB_ANGLES = 180
COMB_OFFSET = 1.0
RADIUS_FACTOR = 0.4
TOOTH_FACTOR = 2.16


def _comb(poles, z0: complex):
    """The comb's direction d, the loop radii and the feet of the poles and z0.

    P is the poles and then z0.  A pole a_k is ahead of a point p of P when
    Re((a_k - p) conj d) > 0, and a tooth from p along d then passes it at
    |Im((a_k - p) conj d)|.  The score of d is the smallest such distance
    over all pairs, each divided by a_k's distance to the nearest other
    point of P; d is the best of ``COMB_ANGLES`` candidates, scored in one
    numpy pass.  L is {Re(z conj d) = h}, ``COMB_OFFSET`` beyond the
    farthest pole, and the feet are the points of P moved along d onto L.
    Raises ``GeometryError`` when z0 is not finite or lies on a pole, or
    when every candidate lines up a pole ahead of a point exactly.
    """
    if not (math.isfinite(z0.real) and math.isfinite(z0.imag)):
        raise GeometryError("base point must be finite")
    poles = np.asarray(poles, dtype=complex)
    points = np.append(poles, z0)
    on_pole = np.abs(poles - z0) <= DEFAULT_POLE_SEPARATION
    if on_pole.any():
        raise GeometryError(f"base point {z0} coincides with the pole {poles[on_pole][0]}")
    gaps = np.abs(poles[:, None] - points)
    np.fill_diagonal(gaps, np.inf)
    nearest = gaps.min(axis=1)
    angles = TWO_PI * np.arange(COMB_ANGLES) / COMB_ANGLES
    rel = (poles[:, None] - points) * np.exp(-1j * angles)[:, None, None]
    beside = np.where(rel.real > 0.0, np.abs(rel.imag), np.inf).min(axis=2)
    score = (beside / nearest).min(axis=1)
    best = int(np.argmax(score))
    if not score[best] > 0.0:
        raise GeometryError("every comb direction runs a tooth through a pole")
    d = cmath.rect(1.0, float(angles[best]))
    along = (points * d.conjugate()).real
    h = float(along[:-1].max()) + COMB_OFFSET
    radii = np.minimum(RADIUS_FACTOR * nearest, beside[best] / TOOTH_FACTOR)
    return d, radii, points + (h - along) * d


def composition_order(poles, base_point: complex) -> list[int]:
    """Pole indices in the order their loops compose to the identity.

    Traversing the loops in the returned order (first entry first) gives a
    contractible composite, so the monodromy product with the first loop as
    the rightmost factor is the identity.  The loops of ``build_loops``
    leave the line L of the comb at their feet f_j, so they leave the
    foot f0 of the base point in the counterclockwise order of their feet
    along L: Im((f_j - f0) conj d) descending.  The comb keeps those
    values distinct.  Pinned by product-identity tests.
    """
    d, _, feet = _comb(poles, complex(base_point))
    position = ((feet[:-1] - feet[-1]) * d.conjugate()).imag
    return np.argsort(-position, kind="stable").tolist()


def build_loops(poles, base_point) -> list[ContinuationPath]:
    """One loop per pole in ``poles``, all based at ``base_point``.

    The loop of pole a_j is lines z0 -> f0 -> f_j -> a_j + r_j d (zero-length
    ones skipped), one full counterclockwise circle of radius r_j, then
    the exact bitwise reverse of the lines, so it winds once around its own
    pole and zero times around the others.  d, the feet f and the radii r
    are the comb of ``_comb``: the teeth f_j -> a_j are parallel, so no two
    loops cross, and ``composition_order`` reads their order off L.  Every
    loop's stated clearance is min(``COMB_OFFSET``, min_k r_k): L lies
    ``COMB_OFFSET`` from every pole, a tooth passes a pole k ahead of it at
    ``TOOTH_FACTOR`` r_k or more and one behind it at 1.5 r_k or more, and
    a circle keeps 1.5 r_k from every other pole k.
    """
    poles = [complex(a) for a in poles]
    z0 = complex(base_point)
    d, radii, feet = _comb(poles, z0)
    clearance = min(COMB_OFFSET, float(radii.min()))
    angle = cmath.phase(d)
    *feet, base_foot = feet.tolist()
    loops = []
    for a, r, foot in zip(poles, radii.tolist(), feet):
        circle = Arc(a, r, angle, angle + TWO_PI)
        corners = [z0, base_foot, foot, circle.start]
        head = [Line(p, q) for p, q in zip(corners, corners[1:]) if p != q]
        segments = head + [circle] + [seg.reversed() for seg in reversed(head)]
        loops.append(ContinuationPath(tuple(segments), clearance=clearance))
    return loops
