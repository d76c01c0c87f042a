"""The lattice polytope attached to a good quadruple.

For a good quadruple (w0, w1, w2, d) the polytope P collects every
exponent vector (a, b, c) >= 0 with a*w0 + b*w1 + c*w2 = d.  It is held
as rows, one per exponent of the heaviest axis, written in a closed-form
lattice chart of the plane (`_build`): each row is a run of (1, 0) steps
in Z^2, and no point is listed.  Its point matrix M(P) has the points as
rows in ascending lexicographic order; `_lex_points` draws them from the
rows, lazily.  Key facts exercised here: the number of interior points
equals the genus, which build() checks for every polytope; every 3x3
minor of M(P) is divisible by d; some triple of rows has |det| exactly
d; and the distinguished rows (axis i's is the pure power x_i^(d/w_i)
when w_i divides d, else the condition-(i) witness x_i^k * x_j that
validate reports) fall into one of seven cases with a predictable
determinant.  The case is read off where each axis's row points
(CASE_MAPS): to the one other axis the row uses, or to itself for a pure
power.  Over a triple of |det| = d the charted rows project onto the
lattice points of a plane polygon with as many interior points
(project).
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from itertools import permutations

from .errors import DegenerateInputError, InvariantViolation, PreconditionError
from .polygon2d import LatticePolygon, Point2, _hull_cycle
from .quadruples import GENUS_CAP, Quadruple, _condition_i_witness, validate

Point3 = tuple[int, int, int]
Row = tuple[Point2, int]  # ((s, x), count): the charted points (s + t, x), 0 <= t < count
Frame = tuple[int, int, int, int, int]  # the chart's (outer, second, third, beta, y0)

# Hard bound on the point count: n <= 3g + 7, where only one shape per
# genus class may reach 3g + 7 (the soft bound is 3g + 6).  The bound
# (Scott 1976) holds only for g >= 1: polygons without interior points,
# such as conv{(0,0),(k,0),(0,1)}, have any number of points, and genus-0
# polytopes follow suit ((1,1,4;5) has n = 8).  build() and the
# exceptional flag therefore apply it to g >= 1 only.
def _soft_bound(g: int) -> int:
    return 3 * g + 6


@dataclass(frozen=True)
class WeightedPolytope:
    """The polytope as the rows of `_build`'s walk, one per exponent of
    the heaviest axis, in the lattice chart of its plane: a row ((s, x),
    count) holds the points charted (s + t, x), 0 <= t < count.  frame is
    the chart (see `_chart`), n the rows' point total and genus the
    interior count, both of which `_build` checked.  No point is stored;
    `points` lists them from the rows."""

    quadruple: Quadruple
    n: int
    genus: int
    exceptional_bound: bool
    rows: tuple[Row, ...]
    frame: Frame

    @property
    def points(self) -> tuple[Point3, ...]:
        """Every point, in ascending lex order: the rows of M(P)."""
        return tuple(_lex_points(self))


@dataclass(frozen=True)
class CaseReport:
    """The distinguished rows of a polytope and their case.

    rows[i] is the row of axis i, in the original coordinate order.
    permutation sigma aligns the rows with the case's CASE_MAPS entry:
    slot t corresponds to original axis sigma[t].  k and l are the case
    integers where the case defines them.
    """

    quadruple: Quadruple
    rows: tuple[Point3, Point3, Point3]
    case_tag: str
    permutation: tuple[int, int, int]
    k: int | None
    l: int | None
    actual_det: int
    predicted_det: int
    genus_identity: tuple[int, int]

    def to_dict(self) -> dict:
        return {
            "case": self.case_tag,
            "rows": [list(p) for p in self.rows],
            "permutation": list(self.permutation),
            "k": self.k,
            "l": self.l,
            "actual_det": self.actual_det,
            "predicted_det": self.predicted_det,
            "genus_identity": list(self.genus_identity),
        }


def minor_det(v1: Point3, v2: Point3, v3: Point3) -> int:
    """Exact 3x3 determinant of the three points as rows."""
    a, b, c = v1
    d, e, f = v2
    g, h, i = v3
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def build(q: Quadruple) -> WeightedPolytope:
    """Enumerate the polytope of a good quadruple.

    Runs validate() and hands the genus it derives to _build, which
    checks the polytope against it; a quadruple that is not good, or
    whose genus exceeds GENUS_CAP, is a PreconditionError raised before
    any point is enumerated.
    """
    report = validate(q)
    if not report.is_good:
        raise PreconditionError(f"{q} is not a good quadruple")
    assert report.genus is not None
    if report.genus > GENUS_CAP:
        raise PreconditionError(f"{q}: genus={report.genus} exceeds the genus cap {GENUS_CAP}")
    return _build(q, report.genus)


_OTHER_AXES = ((1, 2), (0, 2), (0, 1))


def _frame(q: Quadruple) -> Frame:
    """The chart of q's plane (see `_chart`): the outer axis is the first
    heaviest, second and third the others in index order, and with
    inv = w_second^-1 mod w_third, beta = -w_outer*inv and y0 = d*inv,
    both mod w_third."""
    w = q.weights
    outer = w.index(max(w))
    second, third = _OTHER_AXES[outer]
    wz = w[third]
    inv = pow(w[second], -1, wz)
    return outer, second, third, -w[outer] * inv % wz, q.d * inv % wz


def _inner_span(y: int, rest: int, wy: int, wz: int) -> tuple[int, int]:
    """Bounds of the interior subrange of a row starting at y (see
    `_build`): its least member >= 1 and the largest y with z >= 1."""
    return y or wz, (rest - wz) // wy


def _build(q: Quadruple, g: int) -> WeightedPolytope:
    """The polytope of q, which the caller has already validated as good
    with genus g, as its charted rows.

    With the axes and constants of `_frame` and weights wx, wy, wz, the
    outer loop runs over the exponent x of the outer axis, at most
    d / max(w) + 1 values.  For rest = d - x*wx, the exponents y of the
    second axis that leave rest - y*wy divisible by wz are the class of
    rest*inv = y0 + beta*x mod wz (the weights are pairwise coprime, so wy
    is invertible), and those with y*wy <= rest are the row's points.
    Writing y0 + beta*x = k*wz + y_start, 0 <= y_start < wz, the row's
    least point is y = y_start, charted (s, x) = (-k, x), and it holds
    (rest // wy - y_start) // wz + 1 points, stepping y by wz; a row
    start is checked to lie on the plane, rest - y_start*wy = 0 (mod wz).
    A value of x with no point gives no row.  n is the rows' total.

    The interior points, every exponent >= 1, are counted per row: x >= 1,
    and y >= 1 with z = (rest - y*wy)/wz >= 1 bound y to one subrange of
    its class, from its least member >= 1 (y_start, or wz when y_start = 0)
    up to (rest - wz) // wy (`_inner_span`).  The least end is in the
    class, so the subrange holds (high - low) // wz + 1 points when
    high >= low and none else, and it lies in the row, as
    (rest - wz) // wy <= rest // wy.  The count must be exactly g.  For
    g >= 1 n is checked against the hard bound n <= 3g + 7; 3g + 7 itself
    is legal but flagged exceptional.
    """
    w, d = q.weights, q.d
    frame = outer, second, third, beta, y0 = _frame(q)
    wx, wy, wz = w[outer], w[second], w[third]
    rows: list[Row] = []
    n = interior = 0
    for x in range(d // wx + 1):
        rest = d - x * wx
        k, y = divmod(y0 + beta * x, wz)
        top = rest // wy
        if y > top:
            continue
        if (rest - y * wy) % wz:
            raise InvariantViolation(
                f"{q}: the row of exponent {x} on axis {outer} starts off the plane of degree {d}"
            )
        count = (top - y) // wz + 1
        rows.append(((-k, x), count))
        n += count
        if x:
            low, high = _inner_span(y, rest, wy, wz)
            if high >= low:
                interior += (high - low) // wz + 1
    if interior != g:
        raise InvariantViolation(f"{q}: {interior} interior points but genus {g}")
    if g >= 1 and n > _soft_bound(g) + 1:
        raise InvariantViolation(
            f"{q}: point count {n} exceeds the hard bound {_soft_bound(g) + 1}"
        )
    return WeightedPolytope(
        quadruple=q,
        n=n,
        genus=g,
        exceptional_bound=g >= 1 and n > _soft_bound(g),
        rows=tuple(rows),
        frame=frame,
    )


def _lex_points(p: WeightedPolytope):
    """p's points in ascending lex order, drawn lazily from a heap of its
    rows.

    Along a row the point moves by the fixed step: 0 on the outer axis,
    +w_third on the second and -w_second on the third.  The second axis
    comes before the third in index order, so the step's first nonzero
    entry is positive and each row runs up in lex order from its start.
    Each row enters the heap at its start; the least point is drawn and
    replaced by its successor in its row, so the draws merge the rows."""
    q = p.quadruple
    w, d = q.weights, q.d
    outer, second, third, beta, y0 = p.frame
    wx, wy, wz = w[outer], w[second], w[third]
    heap = []
    for (s, x), count in p.rows:
        point = [0, 0, 0]
        point[outer], point[second] = x, y0 + beta * x + wz * s
        point[third] = (d - wx * x - wy * point[second]) // wz
        heap.append((tuple(point), count))
    heapify(heap)
    step = [0, 0, 0]
    step[second], step[third] = wz, -wy
    da, db, dc = step
    while heap:
        point, count = heap[0]
        yield point
        if count > 1:
            a, b, c = point
            heapreplace(heap, ((a + da, b + db, c + dc), count - 1))
        else:
            heappop(heap)


def find_unimodular_triple(p: WeightedPolytope) -> tuple[Point3, Point3, Point3]:
    """First row triple (by sorted row-index order) with |det| == d: the
    two lex-least points P0, P1 and the first point P after them, in the
    lex draw of `_lex_points`, with |minor_det(P0, P1, P)| == d.

    This is the first such triple of `combinations(range(n), 3)` order,
    found after the same draws and the same minors, because that order
    always stops at rows 0 and 1:
    1. P1 - P0 is primitive.  A lattice point strictly between P0 and P1
       is a point of the polytope, and it lies strictly between them in
       lex order, as lex order is additive; none does.
    2. If some point Q lies off the line P0P1, take a unimodular
       triangulation of conv(P0, P1, Q) that uses all its lattice points.
       The primitive edge P0P1 lies in one of its triangles, whose apex,
       a point of the polytope, is at lattice distance 1 from the line.
    3. det T = +-d*det B by the chart's minors (see `project`), and
       |det B| is the lattice length of P0P1, which is 1 by step 1, times
       the lattice distance of the third row from that line.  So distance
       1 is |det| = d.
    If every point lies on one line, no triple has |det| = d in either
    order, which is an InvariantViolation.  So the search reads at most
    n - 2 minors, not C(n, 3).

    The draw along the first lex line: P0 has a = 0, as condition (ii) on
    axis 0 gives a point there.  If P1 has a = 0 too, the line P0P1 is
    {a = 0}, and a point's a is its lattice distance from that line:
    gcd(w1, w2) = 1, so some degree-0 lattice vector has a = 1.  Then the
    third row is the lex-least point with a = 1, and the search draws
    |{a = 0}| + 1 points.

    A polytope of fewer than three points, which some genus-0 quadruples
    have, holds no triple: that is degenerate input, not a violation.
    """
    d = p.quadruple.d
    if p.n < 3:
        raise DegenerateInputError(
            f"{p.quadruple}: only {p.n} polytope points, no row triple to project through"
        )
    draw = _lex_points(p)
    p0, p1 = next(draw), next(draw)
    for point in draw:
        if abs(minor_det(p0, p1, point)) == d:
            return (p0, p1, point)
    raise InvariantViolation(f"{p.quadruple}: no row triple with |det| == {d}")


def _axis_row(q: Quadruple, axis: int) -> Point3:
    """Axis i's distinguished row: x_i^(d/w_i) when w_i divides d, else
    the condition-(i) witness x_i^k * x_j, whose least j is then not i.
    """
    w, d = q.weights, q.d
    row = [0, 0, 0]
    if d % w[axis] == 0:
        row[axis] = d // w[axis]
    elif (witness := _condition_i_witness(w, d, axis)) is not None:
        row[axis], j = witness
        row[j] = 1
    else:
        raise InvariantViolation(f"{q}: no distinguished point for axis {axis}")
    return tuple(row)


# Each distinguished row is a pure power x_i^e or a monomial x_i^e * x_j,
# so axis i points to j, or to itself.  The seven cases are the seven
# shapes of such a map up to relabelling the axes; an entry says where
# slots 0, 1, 2 point.  Orbit sizes 2, 6, 3, 6, 3, 6, 1 cover all 27 maps.
CASE_MAPS = {
    "a.i": (1, 2, 0),  # 3-cycle: rows (a,1,0), (0,b,1), (1,0,c)
    "a.ii": (1, 2, 1),  # 2-cycle plus tail: (a,1,0), (0,b,1), (0,1,c)
    "b.i": (0, 2, 1),  # fixed point plus 2-cycle: (a,0,0), (0,b,1), (0,1,c)
    "b.ii": (0, 0, 1),  # chain into a fixed point: (a,0,0), (1,b,0), (0,1,c)
    "b.iii": (0, 0, 0),  # two axes into one fixed point: (a,0,0), (1,b,0), (1,0,c)
    "c": (0, 1, 0),  # two fixed points, third into one: (a,0,0), (0,b,0), (1,0,c)
    "d": (0, 1, 2),  # identity: (a,0,0), (0,b,0), (0,0,c)
}

# map -> (tag, least sigma in lex order), slot t being axis sigma[t]; the
# sigmas run in reverse so that the least one is written last
_CASE_OF_MAP = {
    tuple(sigma[slots[sigma.index(i)]] for i in range(3)): (tag, sigma)
    for tag, slots in CASE_MAPS.items()
    for sigma in reversed(list(permutations(range(3))))
}


def _case_report(p: WeightedPolytope) -> CaseReport:
    """Classify the distinguished rows by where each axis's row points
    (CASE_MAPS).  The determinant and genus identity are left unchecked.
    """
    q = p.quadruple
    rows = tuple(_axis_row(q, axis) for axis in range(3))
    if len(set(rows)) < 3:
        raise PreconditionError(f"{q}: distinguished points coincide (degenerate, genus 0)")
    points_to = tuple(next((j for j in range(3) if j != i and r[j]), i) for i, r in enumerate(rows))
    tag, sigma = _CASE_OF_MAP[points_to]
    u = tuple(q.weights[axis] for axis in sigma)
    a, b, c = (rows[axis][axis] for axis in sigma)
    k, l, det, identity = _case_formulas(q, p.genus, tag, u, a, b, c)
    return CaseReport(q, rows, tag, sigma, k, l, minor_det(*rows), det, identity)


def _case_formulas(
    q: Quadruple, g: int, tag: str, u: tuple[int, int, int], a: int, b: int, c: int
) -> tuple[int | None, int | None, int, tuple[int, int]]:
    """(k, l, predicted determinant, both sides of the genus identity) of
    one case, from the weights u and free exponents a, b, c of slots 0, 1, 2.

    k and l must be exact quotients >= 1, else InvariantViolation.  The
    rest of each case's row template follows from the shape, the rows'
    degree equations and pairwise coprimality.  In a.ii, a*u0 + u1 =
    b*u1 + u2 = u1 + c*u2 = d gives (b - 1)u1 = (c - 1)u2 and a*u0 = c*u2,
    so u2 divides b - 1 and a, and with k = (b - 1)/u2, l = a/u2 that is
    c = 1 + k*u1 = l*u0 and d = k*u1*u2 + u1 + u2 = l*u0*u2 + u1.
    """
    u0, u1, u2 = u
    d = q.d

    def quotient(name: str, num: int, den: int) -> int:
        value, rest = divmod(num, den)
        if rest or value < 1:
            raise InvariantViolation(
                f"{q}: case {tag} needs {name} = {num}/{den} to be a positive integer"
            )
        return value

    if tag == "a.i":
        rhs = d * (d - u0 - u1 - u2) + u0 * u1 + u0 * u2 + u1 * u2
        return None, None, (2 * g + 1) * d, ((2 * g + 1) * u0 * u1 * u2, rhs)
    if tag == "a.ii":
        k, l = quotient("k", b - 1, u2), quotient("l", a, u2)
        return k, l, (2 * g + 1 + k - l) * d, (2 * g + 1, a * k + l - k)
    if tag == "b.i":
        k = quotient("k", b - 1, u2)
        return k, None, (2 * g + k) * d, (2 * g, k * (a - 1))
    if tag == "b.ii":
        k = quotient("k", a - 1, u1)
        return k, None, (2 * g + k) * d, (2 * g, k * (c - 1))
    if tag == "b.iii":
        k = quotient("k", d - u0, u0 * u1 * u2)
        return k, None, k * d * (d - u0), (2 * g, k * (d - u1 - u2))
    if tag == "c":
        k, l = quotient("k", b, u0), quotient("l", c, u0)
        return k, l, (2 * g + k + l - 1) * d, (2 * g + l + k - 1, k * l * u0)
    k = quotient("k", d, u0 * u1 * u2)  # d
    return k, None, k * d * d, (2 * g - 2 + k * (u0 + u1 + u2), k * d)


def verify_case_identities(p: WeightedPolytope) -> CaseReport:
    """Compare the actual determinant and genus identity with the case formulas.

    Raises InvariantViolation if either comparison fails; the report
    carries both sides of each.
    """
    report = _case_report(p)
    if report.actual_det != report.predicted_det:
        raise InvariantViolation(
            f"{p.quadruple}: case {report.case_tag} determinant mismatch: "
            f"actual {report.actual_det}, predicted {report.predicted_det}"
        )
    lhs, rhs = report.genus_identity
    if lhs != rhs:
        raise InvariantViolation(
            f"{p.quadruple}: case {report.case_tag} genus identity fails: {lhs} != {rhs}"
        )
    return report


def _triple_solver(q: Quadruple, triple: tuple[Point3, Point3, Point3]):
    """Invert the row triple T once, in integers: (adj, det).

    adj is T's adjugate, so adj*T = det*I, and |det| = d is checked, so
    T^-1 = adj/det.
    """
    (a, b, c), (d, e, f), (g, h, i) = triple
    adj = (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )
    det = a * adj[0][0] + b * adj[1][0] + c * adj[2][0]
    if abs(det) != q.d:
        raise PreconditionError(f"triple determinant {det} does not have |det| == d = {q.d}")
    return adj, det


def _chart(p: WeightedPolytope, points) -> list[Point2]:
    """Chart coordinates u = (s, x) of points P of p's plane w.P = d.

    With p's frame (`_frame`): axes outer, second, third of weights wx,
    wy, wz, and beta, y0: x = P[outer] and s = (P[second] - beta*x - y0)/wz,
    exact as wy*P[second] = d - wx*x (mod wz); a P off that lattice or of
    degree other than d is an InvariantViolation.  Conversely u charts
    P[outer] = x, P[second] = y0 + beta*x + wz*s, P[third] = (d - wy*y0)/wz
    - ((wx + wy*beta)/wz)*x - wy*s, integral by the choice of y0 and beta.
    As P[i] = <a_i, u> + b_i, the minors det(a_second, a_third),
    det(a_third, a_outer) and det(a_outer, a_second) are -wx, -wy, -wz,
    coprime and of one sign, so the a_i span the degree-0 lattice and the
    chart is unimodular.  It sends `_build`'s step to (1, 0)."""
    q = p.quadruple
    w, d = q.weights, q.d
    outer, second, third, beta, y0 = p.frame
    wx, wy, wz = w[outer], w[second], w[third]
    charted = []
    for point in points:
        x, y = point[outer], point[second]
        s, off = divmod(y - beta * x - y0, wz)
        if off or wx * x + wy * y + wz * point[third] != d:
            raise InvariantViolation(f"{q}: {point} is no lattice point of the plane of degree {d}")
        charted.append((s, x))
    return charted


def project(p: WeightedPolytope, triple: tuple[Point3, Point3, Point3]) -> LatticePolygon:
    """Projected polygon: its lattice points are exactly the images of
    p's points, the triple's at (1, 0), (0, 1) and (0, 0), and its point
    and interior counts are the polytope's n and genus.

    The point alpha1*t1 + alpha2*t2 + alpha3*t3, alphas summing to 1, has
    the image (alpha1, alpha2) and the chart u3 + B*(alpha1, alpha2), B =
    [u1 - u3 | u2 - u3] for the triple's charts u1, u2, u3.  By the
    chart's minors det T = +-d*det B, so |det T| = d gives det B = +-1,
    which is checked.  p's rows, already charted, are carried by
    B^-1*(u - u3), and only their ends are hulled and checked
    (`_rows_hull`)."""
    q = p.quadruple
    det = minor_det(*triple)
    if abs(det) != q.d:
        raise PreconditionError(f"triple determinant {det} does not have |det| == d = {q.d}")
    (s1, x1), (s2, x2), (s3, x3) = _chart(p, triple)
    a, b, c, e = s1 - s3, s2 - s3, x1 - x3, x2 - x3  # B = [[a, b], [c, e]]
    unit = a * e - b * c
    if unit not in (1, -1):
        raise InvariantViolation(f"{q}: the triple's chart has determinant {unit}, not +-1")
    rows = tuple(
        ((unit * (e * (s - s3) - b * (x - x3)), unit * (a * (x - x3) - c * (s - s3))), n)
        for (s, x), n in p.rows
    )
    return _rows_hull(p, (unit * e, -unit * c), rows)


_LOST = "projection gained or lost lattice points"


def _rows_hull(
    p: WeightedPolytope, sigma: Point2, rows: tuple[tuple[Point2, int], ...]
) -> LatticePolygon:
    """Hull of p's projected rows, checked to hold exactly their points
    and as many points and interior points as p.  Row (e0, c) holds the
    images e0 + t*sigma, 0 <= t < c, so it depends on sigma and the rows
    alone.  Only a row's two ends can be hull vertices, so the hull is
    taken over the ends, and as exact integer images they skip the input
    checks of `convex_hull`.

    Every end is checked to lie in the hull, in the half-plane of each
    edge; by convexity each whole row then lies in it.  The rows must lie
    on pairwise distinct lines of direction sigma (distinct
    det(sigma, e0)).  `_hull_cycle` refuses collinear ends, so there are
    two rows at least, distinct lines also give sigma != (0, 0), and the
    images are pairwise distinct lattice points.  The rows are p's, carried
    count for count, so they hold p.n images, the total `_build` summed
    from the same rows; that total must be the hull's Pick count poly.n,
    so the images are exactly the hull's lattice points.  Last, poly.i
    must be the genus g that `_build` counted, so the projection keeps
    both counts."""
    q = p.quadruple
    sx, sy = sigma
    ends = [end for (x, y), c in rows for end in ((x, y), (x + (c - 1) * sx, y + (c - 1) * sy))]
    poly = LatticePolygon(_hull_cycle(ends))
    cycle = poly.vertices
    for (ux, uy), (vx, vy) in zip(cycle, cycle[1:] + cycle[:1]):
        dx, dy = vx - ux, vy - uy
        if any(dx * (y - uy) < dy * (x - ux) for x, y in ends):
            raise InvariantViolation(f"{q}: {_LOST}: a row leaves the hull")
    if len({sx * y - sy * x for (x, y), _ in rows}) != len(rows):
        raise InvariantViolation(f"{q}: {_LOST}: two rows share a line")
    if poly.n != p.n:
        raise InvariantViolation(f"{q}: projected point count {poly.n} != {p.n}")
    if poly.i != p.genus:
        raise InvariantViolation(f"{q}: projected interior count {poly.i} != {p.genus}")
    return poly
