"""Exact lattice polygon geometry in the plane.

Everything here runs on integers.  Hulls come from a monotone chain.  A
polygon is built from its vertex cycle alone: one `_cycle_steps` pass
checks its strict convexity and gives its counts, from the edge gcds and
2*area = 2i + b - 2 (Pick's formula), and each edge's lattice length and
primitive direction, which the polygon keeps.  Its lattice points are
listed only on request, by `lattice_inventory`: one walk over its edges
gives each row its two ends from the exact edge crossings and marks the
boundary points, and the walk's counts are checked against those.

The canonical form under affine unimodular equivalence, reflections
included: anchor each directed edge u->v of the cycle and of its mirror
image by (x, y) -> (s(x-ux) + t(y-uy), px(y-uy) - py(x-ux)), for
(px, py) the edge's primitive direction and s*px + t*py = 1, which puts
the polygon in 0 <= y <= h, shear by (x, y) -> (x - c*y, y) with
c = m // h, the one shear putting the top row's least x, m, in [0, h),
and take the least vertex listing.  Each listing starts (0, 0), (L, 0),
L the anchored edge's lattice length, so only the shortest edges are
anchored, and anchorings are compared by their third vertex before a
listing is built.  Rotating calipers give each anchoring its h and m
with one pointer per pass round the cycle.  The canonical polygon is the
winning listing, checked on the vertices and against Pick's counts.
`_class_key` is a cheaper complete invariant of the same classes, a
cyclic word of edge lengths and determinants, for telling classes apart
without listing a canonical form.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import repeat
from math import gcd

from .errors import DegenerateInputError, InvariantViolation, PreconditionError

Point2 = tuple[int, int]


@dataclass(frozen=True, slots=True)
class LatticePolygon:
    """Convex lattice polygon, built from its vertices alone: a strictly
    convex counterclockwise cycle, checked by one `_cycle_steps` pass,
    which gives the interior and boundary counts i and b, n = i + b, and
    the lattice length and primitive direction of each edge vertices[j] ->
    vertices[j+1] as lengths[j] and dirs[j].  The points themselves are
    listed by `lattice_inventory`."""

    vertices: tuple[Point2, ...]
    i: int = field(init=False)
    b: int = field(init=False)
    n: int = field(init=False)
    lengths: tuple[int, ...] = field(init=False)
    dirs: tuple[Point2, ...] = field(init=False)

    def __post_init__(self) -> None:
        (_, i, b), lengths, dirs = _cycle_steps(self.vertices)
        for name, value in (("i", i), ("b", b), ("n", i + b),
                            ("lengths", tuple(lengths)), ("dirs", tuple(dirs))):
            object.__setattr__(self, name, value)

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


def _cycle_steps(cycle: tuple[Point2, ...]) -> tuple[tuple[int, int, int], list[int], list[Point2]]:
    """((twice the area, interior count, boundary count), lattice lengths,
    primitive directions) of a strictly convex counterclockwise vertex
    cycle, with the steps of edge cycle[j] -> cycle[j+1] at j; any other
    cycle raises InvariantViolation.

    One pass over the edges e_j = cycle[j+1] - cycle[j] takes the
    shoelace sum, each edge's gcd and direction, and the turns.  Every
    turn det(e_{j-1}, e_j) must be positive, at vertex 1, ..., k-1 and
    then 0, and is checked before e_j is divided by its gcd, so an edge of
    length 0 fails as a turn.  The edge directions must also pass the
    positive x-axis once: left turns alone allow a cycle that winds twice,
    as a pentagram does.  The boundary count is the sum of the gcds, and
    the interior count comes from Pick's formula 2*area = 2i + b - 2,
    which needs 2*area and b to have equal parity.  It runs once per
    `LatticePolygon`, which keeps what it gives.  Every cycle tested here
    is one the program built (a hull, a splice, a box-walk closure or a
    canonical map's image), so a failure is a bug; `_hull_cycle` refuses
    degenerate input before.
    """
    if len(cycle) < 3:
        raise InvariantViolation("polygon needs at least 3 vertices")
    (ux, uy), (vx, vy) = cycle[0], cycle[1]
    ex, ey = vx - ux, vy - uy
    up = ey > 0 or (ey == 0 and ex > 0)
    area2 = b = rises = 0
    lengths: list[int] = []
    dirs: list[Point2] = []
    for wx, wy in cycle[2:] + cycle[:2]:
        dx, dy = wx - vx, wy - vy
        if ex * dy <= ey * dx:
            raise InvariantViolation(
                f"vertex cycle is not strictly convex counterclockwise at {(vx, vy)}"
            )
        length = gcd(dx, dy)
        lengths.append(length)
        dirs.append((dx // length, dy // length))
        area2 += vx * wy - vy * wx
        b += length
        rise = dy > 0 or (dy == 0 and dx > 0)
        rises += rise and not up
        vx, vy, ex, ey, up = wx, wy, dx, dy, rise
    if rises != 1:
        raise InvariantViolation(f"vertex cycle {cycle} winds more than once")
    if (area2 - b) % 2 != 0:
        raise InvariantViolation(f"area/boundary parity fails for {cycle}")
    lengths.insert(0, lengths.pop())  # the pass ends with edge 0
    dirs.insert(0, dirs.pop())
    return (area2, (area2 - b + 2) // 2, b), lengths, dirs


def _row_ends(poly: LatticePolygon) -> tuple[int, list[tuple[int, int]], list[tuple[int, int]]]:
    """(y_min, left, right): row y_min + r of the polygon holds the
    lattice points from x = left[r][0] to x = right[r][0], and, in a row
    other than the bottom and the top one, its interior points from
    left[r][1] to right[r][1].

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
    interior points lie strictly between those.

    The ends are checked against Pick's counts: the rows must hold
    poly.n = b + i points, poly.i of them interior, for b from the edge
    gcds and i from 2*area = 2i + b - 2.
    """
    cycle = poly.vertices
    ys = [p[1] for p in cycle]
    y_min, y_max = min(ys), max(ys)
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
    i = sum(in_hi - in_lo + 1 for (_, in_lo), (_, in_hi) in zip(left[1:-1], right[1:-1]))
    b = sum(hi - lo + 1 for (lo, _), (hi, _) in zip(left, right)) - i
    if b != poly.b or i != poly.i:
        raise InvariantViolation(
            f"lattice counts disagree for {cycle}: "
            f"direct (i={i}, b={b}) vs derived (i={poly.i}, b={poly.b})"
        )
    return y_min, left, right


def lattice_inventory(poly: LatticePolygon) -> tuple[tuple[Point2, ...], tuple[Point2, ...]]:
    """Every lattice point of the closed polygon in row-major order, and
    its interior points in the same order, listed from the checked ends
    of `_row_ends`; a row's interior points are a slice of its points."""
    y_min, left, right = _row_ends(poly)
    y_max = y_min + len(left) - 1
    points: list[Point2] = []
    interior: list[Point2] = []
    for y, (lo, in_lo), (hi, in_hi) in zip(range(y_min, y_max + 1), left, right):
        start = len(points) - lo  # points[start + x] is (x, y)
        points.extend(zip(range(lo, hi + 1), repeat(y)))
        if y_min < y < y_max:
            interior += points[start + in_lo:start + in_hi + 1]
    return tuple(points), tuple(interior)


def convex_hull(points: list[Point2] | tuple[Point2, ...]) -> LatticePolygon:
    """Convex hull of the given lattice points as a LatticePolygon."""
    for p in points:
        if len(p) != 2 or not all(isinstance(c, int) and not isinstance(c, bool) for c in p):
            raise DegenerateInputError(f"not a lattice point: {p!r}")
    return LatticePolygon(_hull_cycle([tuple(p) for p in points]))


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


def _class_key(lengths: Sequence[int], dirs: Sequence[Point2]) -> tuple[tuple[int, int, int, int], ...]:
    """Complete invariant of a strictly convex CCW cycle under affine
    unimodular maps, reflections included, from its edge steps as
    `_cycle_steps` gives them: the least rotation of its cyclic word and
    of its mirror image's.

    Let r_i and l_i be the primitive direction and the lattice length of
    the edge leaving vertex i, d_i = det(r_{i-1}, r_i) > 0 and u any
    vector with det(r_{i-1}, u) = 1.  The letter at vertex i is
    (l_i, d_i, det(r_{i-1}, r_{i+1}), det(r_i, u) mod d_i); the last entry
    does not depend on u, as u + t*r_{i-1} moves det(r_i, u) by -t*d_i.
    The mirror image, read the other way round, has at vertex i the letter
    (l_{i-1}, d_i, det(r_{i-2}, r_i), det(r_{i-1}, u_i) mod d_i) with
    det(r_i, u_i) = 1.  The last entry is taken mod d_i, so it is 0 at a
    vertex with d_i = 1; at any other, an extended gcd s*px + t*py = 1 of
    r = (px, py) gives u = (-t, s) with det(r, u) = 1, for r = r_{i-1} in
    the word and r = r_i in the mirror's.

    Invariance: translations move no edge; a map of det 1 keeps lattice
    lengths and determinants and carries a valid u to a valid u; a map of
    det -1 also reverses the cycle and negates each determinant, which
    swaps the two words.  The least rotation forgets the first vertex; it
    starts at the least letter of the two words, so only the rotations
    starting there are formed.

    Completeness: send r_{i-1} to (1, 0) by an SL2(Z) map.  Then
    r_i = (a, d_i) and u = (x, 1) for some x, so the last entry is
    a - x*d_i mod d_i = a mod d_i, and the maps fixing (1, 0) are the
    shears, which move a by multiples of d_i: one letter fixes
    (r_{i-1}, r_i) up to SL2(Z) and a shear.  As r_{i-1} and r_i are
    independent, det(r_i, r_{i+1}) = d_{i+1} and det(r_{i-1}, r_{i+1})
    fix r_{i+1}, and so on round the cycle; the lengths then fix the
    vertices from vertex i.  So cycles with equal keys are equivalent.
    """
    k = len(lengths)
    word: list[tuple[int, int, int, int]] = []
    mirror: list[tuple[int, int, int, int]] = []
    for i in range(k):
        (ax, ay), (bx, by), (cx, cy) = dirs[i - 2], dirs[i - 1], dirs[i]
        nx, ny = dirs[(i + 1) % k]
        d = bx * cy - by * cx
        w = m = 0
        if d > 1:
            _, s, t = _egcd(bx, by)
            w = (cx * s + cy * t) % d
            _, s, t = _egcd(cx, cy)
            m = (bx * s + by * t) % d
        word.append((lengths[i], d, bx * ny - by * nx, w))
        mirror.append((lengths[i - 1], d, ax * cy - ay * cx, m))
    words = (tuple(word), tuple(reversed(mirror)))
    least = min(min(words[0]), min(words[1]))
    return min(w[j:] + w[:j] for w in words for j in range(k) if w[j] == least)


def _canonical_cycle(poly: LatticePolygon) -> tuple[tuple[Point2, ...], UnimodularAffineMap]:
    """Least vertex listing over all edge anchorings of the polygon's cycle
    and of its mirror image, and the map sending the vertices onto it.

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
    the full pass.  For the same reason the anchorings are compared by
    their third vertex: one whose third vertex is larger than the best
    listing's loses, and a full listing is built only on a tie or a
    smaller third vertex.

    h and m come from rotating calipers (Toussaint 1983).  Over the edge
    j = u->v the heights px(y-uy) - py(x-ux) of the strictly convex cycle
    rise from vertex j+1 to the top row, which is one vertex or two joined
    by an edge along -x, and fall back to 0 at vertex j.  So a pointer put
    at vertex j+2 and moved on while the next height is not smaller stops
    at the top row's last vertex, the one with the least x.  For a later
    edge j', each edge from j'+1 up to that stop turns from j' by less
    than from j, so by less than a half turn: it still rises, and the
    pointer goes on from there (from j'+2 if it lies before).  It moves at
    most twice round the cycle per pass instead of listing every vertex
    for every anchoring.  The pointer stops before coming back to u.

    The edge lengths and directions are the polygon's own, from the
    `_cycle_steps` pass that built it, which refuses a cycle that is not
    strictly convex counterclockwise; so an h < 1 or a listing below
    y = 0 is a fault of the calipers, and raises.
    """
    vertices, lengths, dirs = poly.vertices, poly.lengths, poly.dirs
    shortest = min(lengths)
    k = len(vertices)
    mirrored = tuple((x, -y) for x, y in reversed(vertices))
    # the mirror's edge j is the vertices' edge k-2-j run backwards and mirrored
    mirrored_steps = [(lengths[e], (-dirs[e][0], dirs[e][1])) for e in range(k - 2, -2, -1)]
    best: tuple[Point2, ...] | None = None
    for mirror, cycle, steps in ((False, vertices, zip(lengths, dirs)),
                                 (True, mirrored, mirrored_steps)):
        top = 0  # the last vertex of greatest height over the anchored edge, unwrapped
        for j, (length, (px, py)) in enumerate(steps):
            if length != shortest:
                continue
            ux, uy = cycle[j]
            top = max(top, j + 2)
            x, y = cycle[top % k]
            h = px * (y - uy) - py * (x - ux)
            while top < j + k - 1:
                x, y = cycle[(top + 1) % k]
                f = px * (y - uy) - py * (x - ux)
                if f < h:
                    break
                top, h = top + 1, f
            if h < 1:
                raise InvariantViolation("edge anchoring left the polygon outside y >= 0")
            _, s, t = _egcd(px, py)
            x, y = cycle[top % k]
            c = (s * (x - ux) + t * (y - uy)) // h
            a, b = s + c * py, t - c * px
            if best is not None:
                x, y = cycle[(j + 2) % k]
                if (a * (x - ux) + b * (y - uy), px * (y - uy) - py * (x - ux)) > best[2]:
                    continue
            cand = tuple((a * (x - ux) + b * (y - uy), px * (y - uy) - py * (x - ux))
                         for x, y in cycle[j:] + cycle[:j])
            if min(y for _, y in cand) != 0:
                raise InvariantViolation("edge anchoring left the polygon outside y >= 0")
            if best is None or cand < best:
                best, won = cand, (mirror, a, b, px, py, ux, uy)
    mirror, a, b, px, py, ux, uy = won
    m = UnimodularAffineMap(((a, b), (-py, px)), (-(a * ux + b * uy), py * ux - px * uy))
    return best, m.compose(_MIRROR) if mirror else m


def _canonical_polygon(poly: LatticePolygon) -> tuple[LatticePolygon, UnimodularAffineMap]:
    """The `LatticePolygon` of a polygon's `_canonical_cycle`, and the map,
    checked to send the polygon's vertices exactly onto it; every class,
    form and equivalence witness is made from these.  Building it is the
    canonical listing's one `_cycle_steps` pass."""
    cycle, m = _canonical_cycle(poly)
    if set(map(m.apply, poly.vertices)) != set(cycle):
        raise InvariantViolation(f"canonical map does not send {poly.vertices} onto {cycle}")
    return LatticePolygon(cycle), m


def canonical_form(poly: LatticePolygon) -> LatticePolygon:
    """Canonical representative of the polygon's equivalence class: the
    `_canonical_polygon` of poly, whose Pick counts must equal poly's,
    which ties the form's counts to its source."""
    form = _canonical_polygon(poly)[0]
    if (form.i, form.b) != (poly.i, poly.b):
        raise InvariantViolation(
            f"canonical cycle {form.vertices} has (i={form.i}, b={form.b}), "
            f"its source (i={poly.i}, b={poly.b})"
        )
    return form


def equivalent(p1: LatticePolygon, p2: LatticePolygon) -> tuple[bool, UnimodularAffineMap | None]:
    """Equivalence test with a witness map sending p1 onto p2.

    The polygons are equivalent when their canonical cycles agree.  Then
    `_canonical_polygon` has checked that m1 sends p1's vertices onto that
    one cycle and m2 sends p2's onto it, so m2^-1 * m1 sends p1's vertices
    onto p2's.  A unimodular affine map is a bijection of Z^2 sending
    conv(V) onto conv(m(V)), so the witness sends p1's lattice points onto
    p2's.
    """
    form1, m1 = _canonical_polygon(p1)
    form2, m2 = _canonical_polygon(p2)
    if form1.vertices != form2.vertices:
        return (False, None)
    return (True, m2.inverse().compose(m1))
