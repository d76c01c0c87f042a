"""The lattice polytope attached to a good quadruple.

For a good quadruple (w0, w1, w2, d) the polytope P collects every
exponent vector (a, b, c) >= 0 with a*w0 + b*w1 + c*w2 = d.  Its point
matrix M(P) has the points as rows in ascending lexicographic order.
Key facts exercised here: the number of interior points equals the
genus, which build() checks for every polytope; every 3x3 minor of M(P)
is divisible by d; some triple of rows has |det| exactly d; and the
distinguished rows (axis i's is the pure power x_i^(d/w_i) when w_i
divides d, else the condition-(i) witness x_i^k * x_j that validate
reports) fall into one of seven cases with a predictable determinant.
The case is read off where each axis's row points (CASE_MAPS): to the
one other axis the row uses, or to itself for a pure power.  Written
over a triple of |det| = d, the rows project onto the lattice points of
a plane polygon with as many interior points (project).  The enumeration
walks the polytope as parallel rows, start + t*step for one common step,
and the projection solves each row's start and the step once.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .errors import DegenerateInputError, InvariantViolation, PreconditionError
from .polygon2d import LatticePolygon, Point2, _build_polygon, _hull_cycle
from .quadruples import GENUS_CAP, Quadruple, _condition_i_witness, validate

Point3 = tuple[int, int, int]
Row = tuple[Point3, int]  # (start, count): the points start + t*step, 0 <= t < count

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
    """The polytope's points in ascending lex order, their count n, the
    genus, which `_build` checked to be the count of interior points,
    and the walk that listed them: every point is start + t*step for
    exactly one row (start, count) of rows and one 0 <= t < count."""

    quadruple: Quadruple
    points: tuple[Point3, ...]
    n: int
    genus: int
    exceptional_bound: bool
    step: Point3
    rows: tuple[Row, ...]


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


def _build(q: Quadruple, g: int) -> WeightedPolytope:
    """The polytope of q, which the caller has already validated as good
    with genus g.

    The outer loop runs over the exponent x of the heaviest axis, at most
    d / max(w) + 1 values.  Within it the exponents y of a second axis
    that leave a remainder divisible by the third weight form one residue
    class mod that weight, stepped from its least member (the weights are
    pairwise coprime, so the second weight is invertible), so each inner
    step yields a point.  Each value of x with a point is one row: its
    least point and its point count.  Stepping y by wz takes z down by wy,
    so every row shares the step (0, wz, -wy) of degree 0, and that walk
    is the one source of the rows and the points.  The points are then
    sorted into ascending lex order.  The interior points, those with
    every coordinate >= 1, are counted, not kept, and must number exactly
    g.  For g >= 1 the point count is checked against the hard bound
    n <= 3g + 7; hitting 3g + 7 itself is legal but flagged as exceptional.
    """
    w = q.weights
    d = q.d
    outer = w.index(max(w))
    second, third = (axis for axis in range(3) if axis != outer)
    wx, wy, wz = w[outer], w[second], w[third]
    slot = tuple((outer, second, third).index(axis) for axis in range(3))
    inverse = pow(wy, -1, wz)
    points: list[Point3] = []
    rows: list[Row] = []
    for x in range(d // wx + 1):
        rest = d - x * wx
        ys = range(rest * inverse % wz, rest // wy + 1, wz)
        if not ys:
            continue
        start = len(points)
        for y in ys:
            xyz = (x, y, (rest - y * wy) // wz)
            points.append((xyz[slot[0]], xyz[slot[1]], xyz[slot[2]]))
        rows.append((points[start], len(ys)))
    walk_step = (0, wz, -wy)
    step = (walk_step[slot[0]], walk_step[slot[1]], walk_step[slot[2]])
    points.sort()
    interior = sum(1 for a, b, c in points if a >= 1 and b >= 1 and c >= 1)
    n = len(points)
    if interior != g:
        raise InvariantViolation(f"{q}: {interior} interior points but genus {g}")
    if g >= 1 and n > _soft_bound(g) + 1:
        raise InvariantViolation(
            f"{q}: point count {n} exceeds the hard bound {_soft_bound(g) + 1}"
        )
    return WeightedPolytope(
        quadruple=q,
        points=tuple(points),
        n=n,
        genus=g,
        exceptional_bound=g >= 1 and n > _soft_bound(g),
        step=step,
        rows=tuple(rows),
    )


def find_unimodular_triple(p: WeightedPolytope) -> tuple[Point3, Point3, Point3]:
    """First row triple (by sorted row-index order) with |det| == d.

    A polytope of fewer than three points, which some genus-0 quadruples
    have, holds no triple: that is degenerate input, not a violation.
    """
    d = p.quadruple.d
    if p.n < 3:
        raise DegenerateInputError(
            f"{p.quadruple}: only {p.n} polytope points, no row triple to project through"
        )
    pts = p.points
    for i, j, k in combinations(range(p.n), 3):
        if abs(minor_det(pts[i], pts[j], pts[k])) == d:
            return (pts[i], pts[j], pts[k])
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
    """Invert the row triple T once, in integers: (adj, det, solve).

    adj is T's adjugate, so adj*T = det*I, and |det| = d is checked, so
    T^-1 = adj/det; solve(target) is alpha = target*adj/det, checked to be
    integral; the checks of `_row_images` imply alpha*T = target.
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

    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = adj

    def solve(target: Point3) -> tuple[int, int, int]:
        x, y, z = target
        a0, r0 = divmod(x * c00 + y * c10 + z * c20, det)
        a1, r1 = divmod(x * c01 + y * c11 + z * c21, det)
        a2, r2 = divmod(x * c02 + y * c12 + z * c22, det)
        if r0 or r1 or r2:
            raise InvariantViolation(f"{q}: non-integral decomposition of {target} over {triple}")
        return (a0, a1, a2)

    return adj, det, solve


def _row_images(
    p: WeightedPolytope, triple: tuple[Point3, Point3, Point3]
) -> tuple[Point2, tuple[tuple[Point2, int], ...]]:
    """(sigma, rows): the image of p's step, and each row's start image
    and count, over the triple.

    Writing a point as alpha1*t1 + alpha2*t2 + alpha3*t3 forces
    alpha1 + alpha2 + alpha3 = 1, so the first two coefficients identify
    the point; they are its coordinates after projection.  The triple is
    inverted once, as adj/det with |det| = d, and only each row's start,
    the step and the triple are solved.

    The checks: each division by det is exact, each start's coefficients
    sum to 1 and the step's to 0, and the triple rows t1, t2, t3 solve to
    (1, 0, 0), (0, 1, 0) and (0, 0, 1).  So solve sends T to I: its three
    linear forms, as the columns of a matrix A, satisfy T*A = det*I, so
    A = det*T^-1 = adj, and every target whose division is exact has
    alpha*T = target*A*T/det = target.  By linearity the point
    start + t*step solves exactly to alpha(start) + t*alpha(step), whose
    coefficients sum to 1, so its image is e0 + t*sigma, e0 the start's.
    """
    q = p.quadruple
    solve = _triple_solver(q, triple)[2]
    for row, expected in zip(triple, ((1, 0, 0), (0, 1, 0), (0, 0, 1))):
        if solve(row) != expected:
            raise InvariantViolation(f"triple row {row} did not project to {expected[:2]}")
    s1, s2, s3 = solve(p.step)
    if s1 + s2 + s3 != 0:
        raise InvariantViolation(
            f"{q}: affine coefficients of the step {p.step} sum to {s1 + s2 + s3}"
        )
    rows = []
    for start, n in p.rows:
        a1, a2, a3 = solve(start)
        if a1 + a2 + a3 != 1:
            raise InvariantViolation(f"{q}: affine coefficients of {start} sum to {a1 + a2 + a3}")
        rows.append(((a1, a2), n))
    return (s1, s2), tuple(rows)


def project(p: WeightedPolytope, triple: tuple[Point3, Point3, Point3]) -> LatticePolygon:
    """Projected polygon: its lattice points are exactly the images of
    p's points, the triple's at (1, 0), (0, 1) and (0, 0), and its point
    and interior counts are the polytope's n and genus.  Each row is
    solved once (`_row_images`), and only the row ends are hulled and
    checked (`_rows_hull`)."""
    return _rows_hull(p, *_row_images(p, triple))


_LOST = "projection gained or lost lattice points"


def _rows_hull(
    p: WeightedPolytope, sigma: Point2, rows: tuple[tuple[Point2, int], ...]
) -> LatticePolygon:
    """Hull of p's projected rows, checked to hold exactly their points
    and as many points and interior points as p.  Row (e0, c) holds the
    images e0 + t*sigma, 0 <= t < c, so it depends on sigma and the rows
    alone.  Only a row's two ends can be hull vertices, so the hull is
    taken over the ends, and as exact integer solves they skip the input
    checks of `convex_hull`.

    Every end is checked to lie in the hull, in the half-plane of each
    edge; by convexity each whole row then lies in it.  The rows must lie
    on pairwise distinct lines of direction sigma (distinct
    det(sigma, e0)).  `_hull_cycle` refuses collinear ends, so there are
    two rows at least, distinct lines also give sigma != (0, 0), and the
    images are pairwise distinct lattice points.  The row counts must sum
    to the hull's Pick count poly.n, so the images are exactly the hull's
    lattice points.  Last, poly.n must be p.n and poly.i the genus g that
    `_build` counted, so the projection keeps both counts."""
    q = p.quadruple
    sx, sy = sigma
    ends = [end for (x, y), c in rows for end in ((x, y), (x + (c - 1) * sx, y + (c - 1) * sy))]
    poly = _build_polygon(_hull_cycle(ends))
    cycle = poly.vertices
    for (ux, uy), (vx, vy) in zip(cycle, cycle[1:] + cycle[:1]):
        dx, dy = vx - ux, vy - uy
        if any(dx * (y - uy) < dy * (x - ux) for x, y in ends):
            raise InvariantViolation(f"{q}: {_LOST}: a row leaves the hull")
    if len({sx * y - sy * x for (x, y), _ in rows}) != len(rows):
        raise InvariantViolation(f"{q}: {_LOST}: two rows share a line")
    held = sum(c for _, c in rows)
    if held != poly.n:
        raise InvariantViolation(f"{q}: {_LOST}: the rows hold {held}, the hull {poly.n}")
    if poly.n != p.n:
        raise InvariantViolation(f"{q}: projected point count {poly.n} != {p.n}")
    if poly.i != p.genus:
        raise InvariantViolation(f"{q}: projected interior count {poly.i} != {p.genus}")
    return poly
