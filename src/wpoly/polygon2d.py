"""Exact lattice polygon geometry in the plane.

Everything here runs on integers.  Hulls come from a monotone chain.  A
polygon is its vertex cycle and its counts, taken from the edge gcds and
the area/boundary identity 2*area = 2i + b - 2 (Pick's formula).  Its
lattice points are listed only on request, by `lattice_inventory`: one
walk over its edges gives each row its two ends from the exact edge
crossings and marks the boundary points, and the walk's counts are
checked against those.

The canonical form under affine unimodular equivalence, reflections
included: anchor each directed edge u->v of the cycle and of its mirror
image by (x, y) -> (s(x-ux) + t(y-uy), px(y-uy) - py(x-ux)), for
(px, py) the edge's primitive direction and s*px + t*py = 1, which puts
the polygon in 0 <= y <= h, shear by (x, y) -> (x - c*y, y) with
c = m // h, the one shear putting the top row's least x, m, in [0, h),
and take the least vertex listing.  Each listing starts (0, 0), (L, 0),
L the anchored edge's lattice length, so only the shortest edges are
anchored.  The canonical polygon is the winning listing, checked on the
vertices and against Pick's counts.  `_class_key` is a cheaper complete
invariant of the same classes, a cyclic word of edge lengths and
determinants, for telling classes apart without listing a canonical form.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import repeat
from math import gcd

from .errors import DegenerateInputError, InvariantViolation, PreconditionError

Point2 = tuple[int, int]


def _cross(o: Point2, a: Point2, b: Point2) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _pick_counts(cycle: tuple[Point2, ...]) -> tuple[int, int, int]:
    """(twice the area, interior count, boundary count) of a vertex cycle.

    Twice the area comes from the shoelace sum, the boundary count from
    the edge gcds, and the interior count from Pick's formula
    2*area = 2i + b - 2, which needs 2*area and b to have equal parity.
    """
    k = len(cycle)
    area2 = 0
    b = 0
    for j in range(k):
        (px, py), (qx, qy) = cycle[j], cycle[(j + 1) % k]
        area2 += px * qy - qx * py
        b += gcd(abs(qx - px), abs(qy - py))
    if (area2 - b) % 2 != 0:
        raise InvariantViolation(f"area/boundary parity fails for {cycle}")
    return area2, (area2 - b + 2) // 2, b


@dataclass(frozen=True)
class LatticePolygon:
    """Convex lattice polygon: its vertex cycle and its lattice counts.

    vertices is a strictly convex counterclockwise cycle; i and b are the
    interior and boundary counts from Pick's formula and the edge gcds,
    n = i + b.  The points themselves are listed by `lattice_inventory`.
    """

    vertices: tuple[Point2, ...]
    i: int
    b: int
    n: int

    def bounding_box(self) -> tuple[int, int, int, int]:
        xs = [p[0] for p in self.vertices]
        ys = [p[1] for p in self.vertices]
        return (min(xs), min(ys), max(xs), max(ys))


@dataclass(frozen=True)
class UnimodularAffineMap:
    """Affine map x -> L x + t with integer L, |det L| = 1."""

    linear: tuple[tuple[int, int], tuple[int, int]]
    translation: tuple[int, int]

    def __post_init__(self) -> None:
        if abs(self.det) != 1:
            raise PreconditionError(f"linear part {self.linear} is not unimodular")

    @property
    def det(self) -> int:
        (a, b), (c, d) = self.linear
        return a * d - b * c

    def apply(self, p: Point2) -> Point2:
        (a, b), (c, d) = self.linear
        return (a * p[0] + b * p[1] + self.translation[0],
                c * p[0] + d * p[1] + self.translation[1])

    def compose(self, other: "UnimodularAffineMap") -> "UnimodularAffineMap":
        """The map applying `other` first, then self."""
        (a, b), (c, d) = self.linear
        (e, f), (g2, h) = other.linear
        linear = ((a * e + b * g2, a * f + b * h),
                  (c * e + d * g2, c * f + d * h))
        tx, ty = other.translation
        translation = (a * tx + b * ty + self.translation[0],
                       c * tx + d * ty + self.translation[1])
        return UnimodularAffineMap(linear, translation)

    def inverse(self) -> "UnimodularAffineMap":
        (a, b), (c, d) = self.linear
        s = self.det  # 1/det == det for det = +-1
        inv = ((d * s, -b * s), (-c * s, a * s))
        tx, ty = self.translation
        return UnimodularAffineMap(
            inv, (-(inv[0][0] * tx + inv[0][1] * ty), -(inv[1][0] * tx + inv[1][1] * ty))
        )


_MIRROR = UnimodularAffineMap(((1, 0), (0, -1)), (0, 0))


def _half_hull(pts: Iterable[Point2]) -> list[Point2]:
    """One monotone chain over sorted points: keep only left turns."""
    chain: list[Point2] = []
    for p in pts:
        x, y = p
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (y - oy) > (ay - oy) * (x - ox):
                break
            chain.pop()
        chain.append(p)
    return chain


def _hull_cycle(points: Iterable[Point2]) -> tuple[Point2, ...]:
    """Monotone-chain hull; counterclockwise from the lex-least vertex."""
    pts = sorted(set(points))
    if len(pts) < 3:
        raise DegenerateInputError("need at least 3 distinct points")
    cycle = tuple(_half_hull(pts)[:-1] + _half_hull(reversed(pts))[:-1])
    if len(cycle) < 3:
        raise DegenerateInputError("points are collinear")
    return cycle


def _check_turns(cycle: tuple[Point2, ...]) -> None:
    """Raise InvariantViolation on a cycle that is not strictly convex
    counterclockwise.

    Every turn must be strictly left, and the edge directions must pass
    the positive x-axis once: left turns alone allow a cycle that winds
    twice, as a pentagram does.  Every cycle tested here is one the
    program built (a hull, a splice or a canonical map's image), so a
    failure is a bug; `_hull_cycle` refuses degenerate input before.
    """
    if len(cycle) < 3:
        raise InvariantViolation("polygon needs at least 3 vertices")
    k = len(cycle)
    for idx in range(k):
        if _cross(cycle[idx], cycle[(idx + 1) % k], cycle[(idx + 2) % k]) <= 0:
            raise InvariantViolation(
                f"vertex cycle is not strictly convex counterclockwise at {cycle[(idx + 1) % k]}"
            )
    up = [qy > py or (qy == py and qx > px)
          for (px, py), (qx, qy) in zip(cycle, cycle[1:] + cycle[:1])]
    if sum(u and not up[j - 1] for j, u in enumerate(up)) != 1:
        raise InvariantViolation(f"vertex cycle {cycle} winds more than once")


def _build_polygon(cycle: tuple[Point2, ...]) -> LatticePolygon:
    """Validate a CCW strictly convex cycle and count its lattice points by Pick."""
    _check_turns(cycle)
    _, i, b = _pick_counts(cycle)
    return LatticePolygon(vertices=cycle, i=i, b=b, n=i + b)


def lattice_inventory(poly: LatticePolygon) -> tuple[tuple[Point2, ...], tuple[Point2, ...]]:
    """Every lattice point of the closed polygon in row-major order, and
    its interior points in the same order.

    The edges are walked once each.  An edge from (px, py) to (qx, qy)
    meets row y at x = px + (y - py)*dx/dy, dx = qx - px, dy = qy - py.
    A counterclockwise cycle rises (dy > 0) along its right side and
    falls (dy < 0) along its left side, and each side covers every row
    from the lowest vertex to the highest, so the rising edges give each
    row its right end, the floor of their crossing, and the falling edges
    its left end, the ceiling of theirs.  A row shared by two edges of one
    side sits at their common vertex, where both crossings are that
    vertex.  The top and bottom rows lie on the boundary; in any other row
    the boundary meets the row only at its two crossings, so an end is a
    boundary point exactly when its crossing is a lattice point, and the
    interior points lie strictly between those.  A row's interior points
    are a slice of its points, so each is listed as one tuple.

    The scan classifies the points it lists itself; its boundary count
    must equal poly.b, from the edge gcds, and its interior count poly.i,
    from 2*area = 2i + b - 2.
    """
    cycle = poly.vertices
    ys = [p[1] for p in cycle]
    y_min, y_max = min(ys), max(ys)
    # each row's (left end, least x right of the left boundary) and
    # (right end, greatest x left of the right boundary)
    left: list[tuple[int, int]] = [(0, 0)] * (y_max - y_min + 1)
    right = left.copy()
    for (px, py), (qx, qy) in zip(cycle, cycle[1:] + cycle[:1]):
        dx, dy = qx - px, qy - py
        if dy > 0:
            for y in range(py, qy + 1):
                x, rem = divmod(px * dy + (y - py) * dx, dy)
                right[y - y_min] = (x, x - (rem == 0))
        elif dy < 0:
            for y in range(qy, py + 1):
                x, rem = divmod(px * dy + (y - py) * dx, dy)
                left[y - y_min] = (x + (rem != 0), x + 1)
    points: list[Point2] = []
    interior: list[Point2] = []
    b = 0
    for y, (lo, in_lo), (hi, in_hi) in zip(range(y_min, y_max + 1), left, right):
        start = len(points) - lo  # points[start + x] is (x, y)
        points.extend(zip(range(lo, hi + 1), repeat(y)))
        if y == y_min or y == y_max:
            b += hi - lo + 1
        else:
            b += in_lo - lo + hi - in_hi
            interior += points[start + in_lo:start + in_hi + 1]
    if b != poly.b or len(interior) != poly.i:
        raise InvariantViolation(
            f"lattice counts disagree for {cycle}: "
            f"direct (i={len(interior)}, b={b}) vs derived (i={poly.i}, b={poly.b})"
        )
    return tuple(points), tuple(interior)


def convex_hull(points: list[Point2] | tuple[Point2, ...]) -> LatticePolygon:
    """Convex hull of the given lattice points as a LatticePolygon."""
    for p in points:
        if len(p) != 2 or not all(isinstance(c, int) and not isinstance(c, bool) for c in p):
            raise DegenerateInputError(f"not a lattice point: {p!r}")
    return _build_polygon(_hull_cycle([tuple(p) for p in points]))


# ---------------------------------------------------------------------------
# canonical form and equivalence


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _edge_steps(cycle: tuple[Point2, ...]) -> tuple[list[int], list[Point2]]:
    """Lattice length and primitive direction of each edge cycle[j] -> cycle[j+1]."""
    lengths, dirs = [], []
    for (ux, uy), (vx, vy) in zip(cycle, cycle[1:] + cycle[:1]):
        length = gcd(vx - ux, vy - uy)
        lengths.append(length)
        dirs.append(((vx - ux) // length, (vy - uy) // length))
    return lengths, dirs


def _class_key(cycle: tuple[Point2, ...]) -> tuple[tuple[int, int, int, int], ...]:
    """Complete invariant of a strictly convex CCW cycle under affine
    unimodular maps, reflections included: the least rotation of its
    cyclic word and of its mirror image's.

    Let r_i and l_i be the primitive direction and the lattice length of
    the edge leaving vertex i, d_i = det(r_{i-1}, r_i) > 0 and u any
    vector with det(r_{i-1}, u) = 1.  The letter at vertex i is
    (l_i, d_i, det(r_{i-1}, r_{i+1}), det(r_i, u) mod d_i); the last entry
    does not depend on u, as u + t*r_{i-1} moves det(r_i, u) by -t*d_i.
    The mirror image, read the other way round, has at vertex i the letter
    (l_{i-1}, d_i, det(r_{i-2}, r_i), det(r_{i-1}, u_i) mod d_i) with
    det(r_i, u_i) = 1.  One extended gcd s*px + t*py = 1 per edge
    r = (px, py) gives that edge's u = (-t, s) with det(r, u) = 1 for
    both words.

    Invariance: translations move no edge; a map of det 1 keeps lattice
    lengths and determinants and carries a valid u to a valid u; a map of
    det -1 also reverses the cycle and negates each determinant, which
    swaps the two words.  The least rotation forgets the first vertex.

    Completeness: send r_{i-1} to (1, 0) by an SL2(Z) map.  Then
    r_i = (a, d_i) and u = (x, 1) for some x, so the last entry is
    a - x*d_i mod d_i = a mod d_i, and the maps fixing (1, 0) are the
    shears, which move a by multiples of d_i: one letter fixes
    (r_{i-1}, r_i) up to SL2(Z) and a shear.  As r_{i-1} and r_i are
    independent, det(r_i, r_{i+1}) = d_{i+1} and det(r_{i-1}, r_{i+1})
    fix r_{i+1}, and so on round the cycle; the lengths then fix the
    vertices from vertex i.  So cycles with equal keys are equivalent.
    """
    k = len(cycle)
    lengths, dirs = _edge_steps(cycle)
    bezout = [_egcd(px, py)[1:] for px, py in dirs]
    word: list[tuple[int, int, int, int]] = []
    mirror: list[tuple[int, int, int, int]] = []
    for i in range(k):
        (ax, ay), (bx, by), (cx, cy) = dirs[i - 2], dirs[i - 1], dirs[i]
        nx, ny = dirs[(i + 1) % k]
        d = bx * cy - by * cx
        s, t = bezout[i - 1]
        word.append((lengths[i], d, bx * ny - by * nx, (cx * s + cy * t) % d))
        s, t = bezout[i]
        mirror.append((lengths[i - 1], d, ax * cy - ay * cx, (bx * s + by * t) % d))
    words = (tuple(word), tuple(reversed(mirror)))
    return min(w[j:] + w[:j] for w in words for j in range(k))


def _canonical_cycle(vertices: tuple[Point2, ...]) -> tuple[tuple[Point2, ...], UnimodularAffineMap]:
    """Least vertex listing over all edge anchorings of the cycle and of its
    mirror image, and the map sending the vertices onto it.

    Anchoring u->v by (s(x-ux) + t(y-uy), px(y-uy) - py(x-ux)) puts u at
    the origin, the edge along +x and the polygon in 0 <= y <= h.  Every
    other map doing so differs by a shear (x, y) -> (x - c*y, y), which
    moves the top row by -c*h, so c = m // h, for m the top row's least x,
    is the one shear putting that x in [0, h): each anchoring fixes one map.
    Only a strictly smaller listing replaces the best, so on a symmetric
    polygon the first winner (cycle edges, then the mirror's) gives the map.

    Every anchored listing starts (0, 0), (L, 0), L the lattice length of
    the anchored edge, so only edges of the least length L can win and the
    others are skipped.  A skipped listing is larger than every kept one,
    so the least listing and its first winner, hence the map, are those of
    the full pass.
    """
    lengths, dirs = _edge_steps(vertices)
    shortest = min(lengths)
    k = len(vertices)
    mirrored = tuple((x, -y) for x, y in reversed(vertices))
    # the mirror's edge j is the vertices' edge k-2-j run backwards and mirrored
    mirrored_steps = [(lengths[e], (-dirs[e][0], dirs[e][1])) for e in range(k - 2, -2, -1)]
    best: tuple[Point2, ...] | None = None
    for mirror, cycle, steps in ((False, vertices, zip(lengths, dirs)),
                                 (True, mirrored, mirrored_steps)):
        for j, (length, (px, py)) in enumerate(steps):
            if length != shortest:
                continue
            ux, uy = cycle[j]
            _, s, t = _egcd(px, py)
            pts = [(s * (x - ux) + t * (y - uy), px * (y - uy) - py * (x - ux))
                   for x, y in cycle[j:] + cycle[:j]]
            h = max(y for _, y in pts)
            if h < 1 or min(y for _, y in pts) != 0:
                raise InvariantViolation("edge anchoring left the polygon outside y >= 0")
            c = min(x for x, y in pts if y == h) // h
            cand = tuple((x - c * y, y) for x, y in pts)
            if best is None or cand < best:
                best, won = cand, (mirror, s, t, px, py, c, ux, uy)
    mirror, s, t, px, py, c, ux, uy = won
    a, b = s + c * py, t - c * px
    m = UnimodularAffineMap(((a, b), (-py, px)), (-(a * ux + b * uy), py * ux - px * uy))
    return best, m.compose(_MIRROR) if mirror else m


def _canonical_polygon(vertices: tuple[Point2, ...]) -> LatticePolygon:
    """The polygon of the `_canonical_cycle` of a vertex cycle, whose map
    must send the vertices exactly onto it; every class and form listed
    is made here."""
    cycle, m = _canonical_cycle(vertices)
    if set(map(m.apply, vertices)) != set(cycle):
        raise InvariantViolation(f"canonical map does not send {vertices} onto {cycle}")
    return _build_polygon(cycle)


def canonical_form(poly: LatticePolygon) -> LatticePolygon:
    """Canonical representative of the polygon's equivalence class: the
    `_canonical_polygon` of its vertices, whose Pick counts must equal
    poly's, which ties the form's counts to its source."""
    form = _canonical_polygon(poly.vertices)
    if (form.i, form.b) != (poly.i, poly.b):
        raise InvariantViolation(
            f"canonical cycle {form.vertices} has (i={form.i}, b={form.b}), "
            f"its source (i={poly.i}, b={poly.b})"
        )
    return form


def equivalent(p1: LatticePolygon, p2: LatticePolygon) -> tuple[bool, UnimodularAffineMap | None]:
    """Equivalence test with a verified witness map sending p1 onto p2.

    A unimodular affine map is a bijection of Z^2 sending conv(V) onto
    conv(m(V)), so a witness that sends p1's vertices onto p2's sends
    p1's lattice points onto p2's.
    """
    c1, m1 = _canonical_cycle(p1.vertices)
    c2, m2 = _canonical_cycle(p2.vertices)
    if c1 != c2:
        return (False, None)
    witness = m2.inverse().compose(m1)
    if set(map(witness.apply, p1.vertices)) != set(p2.vertices):
        raise InvariantViolation("equivalence witness does not map the vertices")
    return (True, witness)
