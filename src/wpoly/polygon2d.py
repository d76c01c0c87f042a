"""Exact lattice polygon geometry in the plane.

Everything here runs on integers: convex hulls by monotone chain; one
row scan that lists the lattice points from the exact edge crossings and
marks the boundary ones, its counts checked against the edge gcds and
the area/boundary identity 2*area = 2i + b - 2 (Pick's formula); and a
canonical form under affine unimodular equivalence, reflections
included: anchor each directed edge u->v of the cycle and of its mirror
image by (x, y) -> (s(x-ux) + t(y-uy), px(y-uy) - py(x-ux)), for
(px, py) the edge's primitive direction and s*px + t*py = 1, which puts
the polygon in 0 <= y <= h, shear by (x, y) -> (x - c*y, y) with
c = m // h, the one shear putting the top row's least x, m, in [0, h),
and take the least vertex listing.  Each listing starts (0, 0), (L, 0),
L the anchored edge's lattice length, so only the shortest edges are
anchored.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from math import gcd

from .errors import DegenerateInputError, InvariantViolation, PreconditionError
from .quadruples import Quadruple
from .wpolytope import Point3, WeightedPolytope, _triple_solver

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
    """Convex lattice polygon with its full lattice point inventory.

    vertices is a counterclockwise cycle with no three consecutive
    collinear points.  lattice_points lists every lattice point of the
    closed polygon in row-major order, and interior_points the interior
    ones in the same order; i and b are the interior and boundary counts,
    n = i + b.
    """

    vertices: tuple[Point2, ...]
    lattice_points: tuple[Point2, ...]
    interior_points: tuple[Point2, ...]
    i: int
    b: int
    n: int

    def bounding_box(self) -> tuple[int, int, int, int]:
        xs = [p[0] for p in self.vertices]
        ys = [p[1] for p in self.vertices]
        return (min(xs), min(ys), max(xs), max(ys))

    def to_json_dict(self) -> dict:
        return {"vertices": [[x, y] for x, y in self.vertices]}


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


def _hull_cycle(points: list[Point2]) -> tuple[Point2, ...]:
    """Monotone-chain hull; counterclockwise from the lex-least vertex."""
    pts = sorted(set(points))
    if len(pts) < 3:
        raise DegenerateInputError("need at least 3 distinct points")
    lower: list[Point2] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point2] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    cycle = tuple(lower[:-1] + upper[:-1])
    if len(cycle) < 3:
        raise DegenerateInputError("points are collinear")
    return cycle


def _hull_lattice_points(
    cycle: tuple[Point2, ...],
) -> tuple[tuple[Point2, ...], tuple[Point2, ...], int]:
    """All lattice points of the closed polygon row by row, its interior
    points in the same order, and its boundary point count.

    Each non-horizontal edge, taken upward from (px, py) to (qx, qy),
    crosses row y at x = (c + y*dx) / dy with dx = qx - px, dy = qy - py > 0
    and c = px*dy - py*dx.  Per row the slice runs from the least ceiling
    to the greatest floor of the crossings (every vertex of a strictly
    convex cycle ends such an edge), so this stays correct for thin
    slanted shapes.  The top and bottom rows lie on the boundary; in any
    other row the boundary meets the slice only at its two crossings, so a
    point there is a boundary point exactly when some edge crosses the row
    at it, that is when the crossing's ceiling equals its floor.
    """
    ys = [p[1] for p in cycle]
    y_min, y_max = min(ys), max(ys)
    slanted: list[tuple[int, int, int, int, int]] = []
    for (px, py), (qx, qy) in zip(cycle, cycle[1:] + cycle[:1]):
        if py > qy:
            px, py, qx, qy = qx, qy, px, py
        if py != qy:
            slanted.append((py, qy, px * (qy - py) - py * (qx - px), qx - px, qy - py))
    points: list[Point2] = []
    interior: list[Point2] = []
    b = 0
    for y in range(y_min, y_max + 1):
        ceils: list[int] = []
        floors: list[int] = []
        exact: set[int] = set()
        for y0, y1, c, dx, dy in slanted:
            if y0 <= y <= y1:
                floor, rem = divmod(c + y * dx, dy)
                floors.append(floor)
                if rem:
                    ceils.append(floor + 1)
                else:
                    ceils.append(floor)
                    exact.add(floor)
        row = range(min(ceils), max(floors) + 1)
        points.extend((x, y) for x in row)
        if y == y_min or y == y_max:
            b += len(row)
        else:
            b += len(exact)
            interior.extend((x, y) for x in row if x not in exact)
    return tuple(points), tuple(interior), b


def _build_polygon(cycle: tuple[Point2, ...]) -> LatticePolygon:
    """Validate a CCW strictly convex cycle and take its lattice inventory.

    The boundary count from the edge gcds and the interior count from
    2*area = 2i + b - 2 are verified against the row scan's own
    classification of the points it lists.
    """
    if len(cycle) < 3:
        raise DegenerateInputError("polygon needs at least 3 vertices")
    k = len(cycle)
    for idx in range(k):
        turn = _cross(cycle[idx], cycle[(idx + 1) % k], cycle[(idx + 2) % k])
        if turn <= 0:
            raise DegenerateInputError(
                f"vertex cycle is not strictly convex counterclockwise at {cycle[(idx + 1) % k]}"
            )
    _, i_pick, b_gcd = _pick_counts(cycle)
    points, interior, b_direct = _hull_lattice_points(cycle)
    i_direct = len(interior)
    if b_direct != b_gcd or i_direct != i_pick:
        raise InvariantViolation(
            f"lattice counts disagree for {cycle}: "
            f"direct (i={i_direct}, b={b_direct}) vs derived (i={i_pick}, b={b_gcd})"
        )
    return LatticePolygon(
        vertices=cycle,
        lattice_points=points,
        interior_points=interior,
        i=i_pick,
        b=b_gcd,
        n=i_pick + b_gcd,
    )


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
    k = len(vertices)
    shortest = min(
        gcd(vx - ux, vy - uy) for (ux, uy), (vx, vy) in zip(vertices, vertices[1:] + vertices[:1])
    )
    mirrored = tuple((x, -y) for x, y in reversed(vertices))
    best: tuple[Point2, ...] | None = None
    for mirror, cycle in ((False, vertices), (True, mirrored)):
        for j in range(k):
            ux, uy = cycle[j]
            vx, vy = cycle[(j + 1) % k]
            g = gcd(vx - ux, vy - uy)
            if g != shortest:
                continue
            px, py = (vx - ux) // g, (vy - uy) // g
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


def canonical_form(poly: LatticePolygon) -> LatticePolygon:
    """Canonical representative of the polygon's equivalence class."""
    cycle, _ = _canonical_cycle(poly.vertices)
    return _build_polygon(cycle)


def equivalent(p1: LatticePolygon, p2: LatticePolygon) -> tuple[bool, UnimodularAffineMap | None]:
    """Equivalence test with a verified witness map sending p1 onto p2."""
    c1, m1 = _canonical_cycle(p1.vertices)
    c2, m2 = _canonical_cycle(p2.vertices)
    if c1 != c2:
        return (False, None)
    witness = m2.inverse().compose(m1)
    image = {witness.apply(p) for p in p1.lattice_points}
    if image != set(p2.lattice_points):
        raise InvariantViolation("equivalence witness does not map point sets")
    return (True, witness)


# ---------------------------------------------------------------------------
# projection from the degree plane to Z^2


def projection_coordinates(
    p: WeightedPolytope, triple: tuple[Point3, Point3, Point3]
) -> list[Point2]:
    """Coefficients (alpha1, alpha2) of every row over the triple.

    Writing a row as alpha1*t1 + alpha2*t2 + alpha3*t3 forces
    alpha1 + alpha2 + alpha3 = 1, so the first two coefficients identify
    the row; they are the row's coordinates after projection.  The triple
    is inverted once, as adj/det with |det| = d, for all the rows.
    """
    return _row_coordinates(p, triple, _triple_solver(p.quadruple, triple)[2])


def _row_coordinates(p: WeightedPolytope, triple, solve) -> list[Point2]:
    """projection_coordinates through an inverted triple's solve."""
    images: list[Point2] = []
    for row in p.points:
        a1, a2, a3 = solve(row)
        if a1 + a2 + a3 != 1:
            raise InvariantViolation(
                f"{p.quadruple}: affine coefficients of {row} sum to {a1 + a2 + a3}"
            )
        images.append((a1, a2))
    for pt, expected in zip(triple, ((1, 0), (0, 1), (0, 0))):
        if images[p.points.index(pt)] != expected:
            raise InvariantViolation(f"triple row {pt} did not project to {expected}")
    return images


def project(
    p: WeightedPolytope, triple: tuple[Point3, Point3, Point3]
) -> LatticePolygon:
    """Projected polygon; point count and interior count must be preserved."""
    return _projected_hull(p, projection_coordinates(p, triple))


def _projected_hull(p: WeightedPolytope, images: list[Point2]) -> LatticePolygon:
    """Hull of the projection coordinates of p's rows, checked to hold
    exactly those points and as many interior points as p."""
    return _check_projected_interior(p, _images_hull(p.quadruple, images))


def _images_hull(q: Quadruple, images: Iterable[Point2]) -> LatticePolygon:
    """Hull of the projected rows of q, checked to hold exactly those
    lattice points.  It depends on the point set alone."""
    images = set(images)
    poly = convex_hull(list(images))
    if images != set(poly.lattice_points):
        raise InvariantViolation(f"{q}: projection gained or lost lattice points")
    return poly


def _check_projected_interior(p: WeightedPolytope, poly: LatticePolygon) -> LatticePolygon:
    """poly, checked to have as many interior points as the polytope p."""
    if poly.i != len(p.interior):
        raise InvariantViolation(
            f"{p.quadruple}: projected interior count {poly.i} != {len(p.interior)}"
        )
    return poly
