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
from functools import cached_property

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
        # A finite difference needs finite endpoints, and it also rules out
        # endpoints like -1e308 and 1e308, whose difference overflows.
        if not cmath.isfinite(self.end - self.start):
            raise ValidationError("line endpoints and their difference must be finite")

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
        # Projected from the nearer end: from the far end of a long line the projection cancels to its rounding.
        t, back = ((w - p) * u.conj()).real, ((ends[:, 1:] - w) * u.conj()).real
        near = np.where(t > back, ends[:, 1:] - np.clip(back, 0.0, length) * u, p + np.clip(t, 0.0, length) * u)
        out[line] = np.abs(w - near)
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
    halving is one numpy pass over the pieces of all legs, and it places
    and measures only the midpoints it inserts, so every point is placed
    once, by one formula, whichever level inserts it.  So every hop
    z -> z + h has |h| <= |z - a| / 2 for every pole a, and the piece it
    stands for lies in the pole-free disk around z of half the distance to
    the nearest pole, so the chord gives the piece's transfer.  A full circle
    around its own pole becomes 16 arcs, and a line ending near a pole
    becomes hops that shrink geometrically toward it.  A line's far half is
    placed from its end, so a hop point resolves eps times its distance to
    the nearer end.  A segment's first and last points are its own
    ``start`` and ``end``, so joins are exact and a circle's last hop ends
    at its start bit for bit.  With no poles every segment is one hop.  This
    is the one check of how close a leg comes to a pole: a pole on a leg,
    or within rounding of it for its distance to the nearer end, raises
    ``ValidationError`` once a piece can no longer be halved, and so does a
    hop point whose difference from a pole is not finite.
    """
    segments = [seg for leg in legs for seg in leg]
    lines = [isinstance(seg, Line) for seg in segments]
    # A point at t in [0, 1] is base + t step + radius e^{i (angle + t span)}, or tip - u step for u = 1 - t < 1/2.
    base = np.array([seg.start if line else seg.center for seg, line in zip(segments, lines)])
    tip = np.array([seg.end if line else seg.center for seg, line in zip(segments, lines)])
    step = tip - base
    radius, angle, span = np.array(
        [(0.0, 0.0, 0.0) if line else (seg.radius, seg.angle_start, seg.span) for seg, line in zip(segments, lines)]
    ).T
    length = np.array([seg.length for seg in segments])
    poles = np.asarray(poles, dtype=complex)

    def place(owner, t, u):
        """The points at t (u = 1 - t) of the segments ``owner``, and their distances to the nearest pole."""
        along = np.where(t > 0.5, tip[owner] - u * step[owner], base[owner] + t * step[owner])
        z = along + radius[owner] * np.exp(1j * (angle[owner] + t * span[owner]))
        with np.errstate(over="ignore"):
            offsets = z[:, None] - poles
        if not np.isfinite(offsets).all():
            raise ValidationError("a hop point's difference from a pole overflows: the leg is too far from the poles")
        return z, np.abs(offsets).min(axis=1, initial=np.inf)

    owner = np.repeat(np.arange(len(segments)), 2)
    t = np.tile([0.0, 1.0], len(segments))
    u = 1.0 - t
    z, distance = place(owner, t, u)
    while poles.size:
        # A piece's width in the parameter of the end nearer its start; a halving that rounded onto an end left a 0.
        width = np.where(t[:-1] > 0.5, u[:-1] - u[1:], t[1:] - t[:-1])
        piece = owner[1:] == owner[:-1]
        if (piece & (width <= 0.0)).any():
            raise ValidationError(
                "a leg passes through a pole, or too close to one for its length: its hops cannot be halved any further"
            )
        at = (piece & (width * length[owner[:-1]] > HOP_RATIO * distance[:-1])).nonzero()[0]
        if not at.size:
            break
        # Only the midpoints are new: each is placed once and lands after its piece's start.
        mid_t, mid_u = (t[at] + t[at + 1]) / 2.0, (u[at] + u[at + 1]) / 2.0
        mid = (owner[at], mid_t, mid_u) + place(owner[at], mid_t, mid_u)
        slots = at + np.arange(1, at.size + 1)
        old = np.ones(t.size + at.size, dtype=bool)
        old[slots] = False
        merged = []
        for kept, added in zip((owner, t, u, z, distance), mid):
            both = np.empty(old.size, dtype=kept.dtype)
            both[old], both[slots] = kept, added
            merged.append(both)
        owner, t, u, z, distance = merged
    first = t == 0.0
    last = u == 0.0
    z[first] = [segments[i].start for i in owner[first]]
    z[last] = [segments[i].end for i in owner[last]]
    # Each segment after the first of its leg starts where the one before ends.
    leading = np.cumsum([0] + [len(leg) for leg in legs[:-1]])
    leads = np.zeros(len(segments), dtype=bool)
    leads[leading] = True
    keep = ~first | leads[owner]
    counts = np.add.reduceat(keep.astype(int), np.searchsorted(owner, leading))
    ends = np.cumsum(counts).tolist()
    points = z[keep]
    return [points[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]


@dataclass(frozen=True)
class ContinuationPath:
    """Contiguous chain of at least one segment, joined bit for bit.

    A path is its segments: how close it comes to a pole is checked where
    it is continued, by ``hops``, which rejects a leg through a pole, and
    ``path_clearance_audit`` measures it against any pole set.
    """

    segments: tuple[Segment, ...]

    def __post_init__(self):
        if not self.segments:
            raise ValidationError("a path needs at least one segment")
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
        return ContinuationPath(tuple(seg.reversed() for seg in reversed(self.segments)))

    @cached_property
    def legs(self) -> tuple[tuple[Segment, ...], ...]:
        """The legs the path is continued along: (approach, (circle,)) for a loop, else (segments,).

        A loop is a path whose tail is the exact bitwise reverse of its
        head, segment by segment, around one middle segment, as every loop
        of ``build_loops`` is; its transfer is T^-1 C T, T the head's and C
        the middle's.  Any other path, even one ulp off a loop, is one leg.
        A path is frozen, so its legs are derived once, on the first read.
        """
        segments = self.segments
        half = len(segments) // 2
        head, tail = segments[:half], segments[half + 1:]
        if head and tail == tuple(seg.reversed() for seg in reversed(head)):
            return head, segments[half:half + 1]
        return (segments,)


def path_clearance_audit(path: ContinuationPath, poles) -> float:
    """The minimum distance from any segment of ``path`` to any of ``poles``."""
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
    # rel[p, k, c]: pole k from point p, in the frame of candidate c, so every minimum is over whole rows.
    rel = (poles[:, None] - points[:, None, None]) * np.exp(-1j * angles)
    beside = np.where(rel.real > 0.0, np.abs(rel.imag), np.inf).min(axis=0)
    score = (beside / nearest[:, None]).min(axis=0)
    best = int(np.argmax(score))
    if not score[best] > 0.0:
        raise GeometryError("every comb direction runs a tooth through a pole")
    d = cmath.rect(1.0, float(angles[best]))
    along = (points * d.conjugate()).real
    h = float(along[:-1].max()) + COMB_OFFSET
    radii = np.minimum(RADIUS_FACTOR * nearest, beside[:, best] / TOOTH_FACTOR)
    return d, radii, points + (h - along) * d


def composition_order(loops) -> list[int]:
    """Pole indices in the order the loops of ``build_loops`` compose to the identity.

    Traversing the loops in the returned order (first entry first) gives a
    contractible composite, so the monodromy product with the first loop as
    the rightmost factor is the identity.  The loops leave the line L of
    the comb at their feet, so they leave the foot of the base point in
    the counterclockwise order of their feet along L.  A foot is its pole
    moved along the comb direction d, which leaves Im(. conj d) unchanged,
    so the order is Im(a_j conj d) descending; every loop's circle, its
    second leg (``ContinuationPath.legs``), is around a_j, anchored at the
    angle of d.  The comb keeps those values distinct.  Pinned by
    product-identity tests.
    """
    circles = [circle for _, (circle,) in (loop.legs for loop in loops)]
    d = cmath.rect(1.0, circles[0].angle_start)
    position = (np.array([circle.center for circle in circles]) * d.conjugate()).imag
    return np.argsort(-position, kind="stable").tolist()


def build_loops(poles, base_point) -> list[ContinuationPath]:
    """One loop per pole in ``poles``, all based at ``base_point``.

    The loop of pole a_j is lines z0 -> f0 -> f_j -> a_j + r_j d (zero-length
    ones skipped), one full counterclockwise circle of radius r_j, then
    the exact bitwise reverse of the lines, so it winds once around its own
    pole and zero times around the others.  d, the feet f and the radii r
    are the comb of ``_comb``: the teeth f_j -> a_j are parallel, so no two
    loops cross, and their order along L is ``composition_order``.  Every
    loop stays min(``COMB_OFFSET``, min_k r_k) from every pole: L lies
    ``COMB_OFFSET`` from every pole, a tooth passes a pole k ahead of it at
    ``TOOTH_FACTOR`` r_k or more and one behind it at 1.5 r_k or more, and
    a circle keeps 1.5 r_k from every other pole k.
    """
    poles = [complex(a) for a in poles]
    z0 = complex(base_point)
    d, radii, feet = _comb(poles, z0)
    angle = cmath.phase(d)
    *feet, base_foot = feet.tolist()
    loops = []
    for a, r, foot in zip(poles, radii.tolist(), feet):
        circle = Arc(a, r, angle, angle + TWO_PI)
        corners = [z0, base_foot, foot, circle.start]
        head = [Line(p, q) for p, q in zip(corners, corners[1:]) if p != q]
        segments = head + [circle] + [seg.reversed() for seg in reversed(head)]
        loops.append(ContinuationPath(tuple(segments)))
    return loops
