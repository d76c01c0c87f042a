"""The lattice polytope attached to a good quadruple.

For a good quadruple (w0, w1, w2, d) the polytope P collects every
exponent vector (a, b, c) >= 0 with a*w0 + b*w1 + c*w2 = d.  Its point
matrix M(P) has the points as rows in ascending lexicographic order.
Key facts exercised here: the number of interior points equals the
genus, which build() checks for every polytope; every 3x3 minor of M(P)
is divisible by d; some triple of rows has |det| exactly d; and a
distinguished triple of near-axis points falls into one of seven cases
with a predictable determinant.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .errors import DegenerateInputError, InvariantViolation, PreconditionError
from .quadruples import Quadruple, validate

Point3 = tuple[int, int, int]

CASE_TAGS = ("a.i", "a.ii", "b.i", "b.ii", "b.iii", "c", "d")

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
    quadruple: Quadruple
    points: tuple[Point3, ...]
    interior: tuple[Point3, ...]
    n: int
    genus: int
    exceptional_bound: bool


@dataclass(frozen=True)
class DistinguishedTriangle:
    """Per-axis distinguished points plus their case classification.

    rows[i] is the point chosen for axis i, in the original coordinate
    order.  permutation sigma aligns the rows with the case template:
    template slot t corresponds to original axis sigma[t].  k and l are
    the case integers where the case defines them.
    """

    rows: tuple[Point3, Point3, Point3]
    case_tag: str
    permutation: tuple[int, int, int]
    k: int | None
    l: int | None
    predicted_det: int


@dataclass(frozen=True)
class CaseReport:
    quadruple: Quadruple
    triangle: DistinguishedTriangle
    actual_det: int
    predicted_det: int
    genus_identity: tuple[int, int]

    def to_dict(self) -> dict:
        return {
            "case": self.triangle.case_tag,
            "rows": [list(p) for p in self.triangle.rows],
            "permutation": list(self.triangle.permutation),
            "k": self.triangle.k,
            "l": self.triangle.l,
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
    checks the polytope against it; a quadruple that is not good is a
    PreconditionError.
    """
    report = validate(q)
    if not report.is_good:
        raise PreconditionError(f"{q} is not a good quadruple")
    assert report.genus is not None
    return _build(q, report.genus)


def _build(q: Quadruple, g: int) -> WeightedPolytope:
    """The polytope of q, which the caller has already validated as good
    with genus g.

    The outer loop runs over the exponent x of the heaviest axis, at most
    d / max(w) + 1 values.  Within it the exponents y of a second axis
    that leave a remainder divisible by the third weight form one residue
    class mod that weight, stepped from its least member (the weights are
    pairwise coprime, so the second weight is invertible), so each inner
    step yields a point.  The points are then sorted into ascending lex
    order.  The interior points, those with every coordinate >= 1, must
    number exactly g.  For g >= 1 the point count is checked against the
    hard bound n <= 3g + 7; hitting 3g + 7 itself is legal but flagged as
    exceptional.
    """
    w = q.weights
    d = q.d
    outer = w.index(max(w))
    second, third = (axis for axis in range(3) if axis != outer)
    wx, wy, wz = w[outer], w[second], w[third]
    slot = tuple((outer, second, third).index(axis) for axis in range(3))
    inverse = pow(wy, -1, wz)
    points: list[Point3] = []
    for x in range(d // wx + 1):
        rest = d - x * wx
        for y in range(rest * inverse % wz, rest // wy + 1, wz):
            xyz = (x, y, (rest - y * wy) // wz)
            points.append((xyz[slot[0]], xyz[slot[1]], xyz[slot[2]]))
    points.sort()
    interior = tuple(p for p in points if p[0] >= 1 and p[1] >= 1 and p[2] >= 1)
    n = len(points)
    if len(interior) != g:
        raise InvariantViolation(
            f"{q}: {len(interior)} interior points but genus {g}"
        )
    if g >= 1 and n > _soft_bound(g) + 1:
        raise InvariantViolation(
            f"{q}: point count {n} exceeds the hard bound {_soft_bound(g) + 1}"
        )
    return WeightedPolytope(
        quadruple=q,
        points=tuple(points),
        interior=interior,
        n=n,
        genus=g,
        exceptional_bound=g >= 1 and n > _soft_bound(g),
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


def _axis_row(p: WeightedPolytope, axis: int) -> Point3:
    """The distinguished point for one axis.

    Preference order: the pure power of the axis, then the point with a
    single unit in the lower other axis, then in the higher other axis.
    """
    w = p.quadruple.weights
    d = p.quadruple.d
    if d % w[axis] == 0:
        pt = [0, 0, 0]
        pt[axis] = d // w[axis]
        return tuple(pt)
    others = [j for j in range(3) if j != axis]
    for j in others:
        rest = d - w[j]
        if rest >= w[axis] and rest % w[axis] == 0:
            pt = [0, 0, 0]
            pt[axis] = rest // w[axis]
            pt[j] = 1
            return tuple(pt)
    raise InvariantViolation(
        f"{p.quadruple}: no distinguished point for axis {axis}"
    )


def _permute(pt: Point3, sigma: tuple[int, int, int]) -> Point3:
    return (pt[sigma[0]], pt[sigma[1]], pt[sigma[2]])


def _match_case(p: WeightedPolytope) -> tuple[DistinguishedTriangle, tuple[int, int]]:
    """Classify the distinguished rows by the case templates.

    Tries templates in a fixed order and axis permutations in lex order;
    the first full match by (case tag, sigma) wins, where sigma maps
    template slots to original axes.  Returns the triangle and both sides
    of the matched case's genus identity, unchecked.
    """
    q = p.quadruple
    rows = tuple(_axis_row(p, axis) for axis in range(3))
    if len(set(rows)) < 3:
        raise PreconditionError(
            f"{q}: distinguished points coincide (degenerate, genus 0)"
        )
    w = q.weights
    d = q.d
    n_div = sum(1 for wi in w if d % wi == 0)
    candidates = []
    for sigma in permutations(range(3)):
        u = (w[sigma[0]], w[sigma[1]], w[sigma[2]])
        r = tuple(_permute(rows[sigma[t]], sigma) for t in range(3))
        match = _try_templates(n_div, u, d, p.genus, r)
        if match is not None:
            tag, k, l, det, identity = match
            candidates.append((CASE_TAGS.index(tag), sigma, k, l, det, identity))
    if not candidates:
        raise InvariantViolation(
            f"{q}: distinguished rows {rows} match no determinant case"
        )
    order, sigma, k, l, det, identity = min(candidates, key=lambda c: c[:2])
    return (DistinguishedTriangle(rows, CASE_TAGS[order], sigma, k, l, det), identity)


def _try_templates(
    n_div: int,
    u: tuple[int, int, int],
    d: int,
    g: int,
    r: tuple[Point3, Point3, Point3],
) -> tuple[str, int | None, int | None, int, tuple[int, int]] | None:
    """Check the permuted rows against the templates for their divisor count.

    A match returns (case tag, k, l, predicted determinant, genus
    identity), the identity as its two sides computed from the same u,
    rows, k and l.  Only the template decides the match; the identity is
    compared by verify_case_identities.
    """
    u0, u1, u2 = u
    r0, r1, r2 = r
    if n_div == 0:
        # a.i: rows (a,1,0), (0,b,1), (1,0,c)
        if (
            r0[1] == 1 and r0[2] == 0 and r0[0] >= 1
            and r1[0] == 0 and r1[2] == 1 and r1[1] >= 1
            and r2[0] == 1 and r2[1] == 0 and r2[2] >= 1
        ):
            rhs = d * (d - u0 - u1 - u2) + u0 * u1 + u0 * u2 + u1 * u2
            return ("a.i", None, None, (2 * g + 1) * d, ((2 * g + 1) * u0 * u1 * u2, rhs))
        # a.ii: rows (a,1,0), (0,b,1), (0,1,c)
        if (
            r0[1] == 1 and r0[2] == 0 and r0[0] >= 1
            and r1[0] == 0 and r1[2] == 1 and r1[1] >= 1
            and r2[0] == 0 and r2[1] == 1 and r2[2] >= 1
        ):
            a, b, c = r0[0], r1[1], r2[2]
            if a % u2 != 0 or (b - 1) % u2 != 0:
                return None
            l = a // u2
            k = (b - 1) // u2
            if k < 1 or l < 1:
                return None
            if c != 1 + k * u1 or a != l * u2 or c != l * u0:
                return None
            if d != k * u1 * u2 + u1 + u2 or d != l * u0 * u2 + u1:
                return None
            return ("a.ii", k, l, (2 * g + 1 + k - l) * d, (2 * g + 1, a * k + l - k))
        return None
    if n_div == 1:
        if u0 * (d // u0) != d:
            return None
        a = d // u0
        if r0 != (a, 0, 0):
            return None
        # b.i: rows (a,0,0), (0,b,1), (0,1,c)
        if (
            r1[0] == 0 and r1[2] == 1 and r1[1] >= 1
            and r2[0] == 0 and r2[1] == 1 and r2[2] >= 1
        ):
            b, c = r1[1], r2[2]
            if (b - 1) % u2 != 0:
                return None
            k = (b - 1) // u2
            if k < 1 or c != k * u1 + 1 or d != k * u1 * u2 + u1 + u2:
                return None
            return ("b.i", k, None, (2 * g + k) * d, (2 * g, k * (a - 1)))
        # b.ii: rows (a,0,0), (1,b,0), (0,1,c)
        if (
            r1[0] == 1 and r1[2] == 0 and r1[1] >= 1
            and r2[0] == 0 and r2[1] == 1 and r2[2] >= 1
        ):
            b, c = r1[1], r2[2]
            if (a - 1) % u1 != 0:
                return None
            k = (a - 1) // u1
            if k < 1 or b != k * u0 or d != k * u0 * u1 + u0 or d != c * u2 + u1:
                return None
            return ("b.ii", k, None, (2 * g + k) * d, (2 * g, k * (c - 1)))
        # b.iii: rows (a,0,0), (1,b,0), (1,0,c)
        if (
            r1[0] == 1 and r1[2] == 0 and r1[1] >= 1
            and r2[0] == 1 and r2[1] == 0 and r2[2] >= 1
        ):
            b, c = r1[1], r2[2]
            prod = u0 * u1 * u2
            if (d - u0) % prod != 0:
                return None
            k = (d - u0) // prod
            if k < 1 or b != k * u0 * u2 or c != k * u0 * u1:
                return None
            return ("b.iii", k, None, k * d * (d - u0), (2 * g, k * (d - u1 - u2)))
        return None
    if n_div == 2:
        # c: rows (a,0,0), (0,b,0), (1,0,c); u0 | d, u1 | d, u2 does not
        if d % u0 != 0 or d % u1 != 0 or d % u2 == 0:
            return None
        if (
            r0 == (d // u0, 0, 0)
            and r1 == (0, d // u1, 0)
            and r2[0] == 1 and r2[1] == 0 and r2[2] >= 1
        ):
            a, b, c = r0[0], r1[1], r2[2]
            if b % u0 != 0 or c % u0 != 0:
                return None
            k = b // u0
            l = c // u0
            if k < 1 or l < 1 or a != k * u1 or a != l * u2 + 1:
                return None
            if d != k * u0 * u1 or d != l * u0 * u2 + u0:
                return None
            return ("c", k, l, (2 * g + k + l - 1) * d, (2 * g + l + k - 1, k * l * u0))
        return None
    # n_div == 3, case d: diagonal rows
    prod = u0 * u1 * u2
    if d % prod != 0:
        return None
    k = d // prod
    if k < 1:
        return None
    if (
        r0 == (k * u1 * u2, 0, 0)
        and r1 == (0, k * u0 * u2, 0)
        and r2 == (0, 0, k * u0 * u1)
    ):
        return ("d", k, None, k * d * d, (2 * g - 2 + k * (u0 + u1 + u2), k * d))
    return None


def distinguished_triangle(p: WeightedPolytope) -> DistinguishedTriangle:
    """Distinguished per-axis points with their case classification."""
    return _match_case(p)[0]


def verify_case_identities(p: WeightedPolytope) -> CaseReport:
    """Compare the actual determinant and genus identity with the case formulas.

    Raises InvariantViolation if either comparison fails; the report
    carries both sides of each.
    """
    tri, identity = _match_case(p)
    actual = minor_det(*tri.rows)
    report = CaseReport(
        quadruple=p.quadruple,
        triangle=tri,
        actual_det=actual,
        predicted_det=tri.predicted_det,
        genus_identity=identity,
    )
    if actual != tri.predicted_det:
        raise InvariantViolation(
            f"{p.quadruple}: case {tri.case_tag} determinant mismatch: "
            f"actual {actual}, predicted {tri.predicted_det}"
        )
    if identity[0] != identity[1]:
        raise InvariantViolation(
            f"{p.quadruple}: case {tri.case_tag} genus identity fails: "
            f"{identity[0]} != {identity[1]}"
        )
    return report


def _triple_solver(q: Quadruple, triple: tuple[Point3, Point3, Point3]):
    """Invert the row triple T once, in integers: (adj, det, solve).

    adj*T = det*I and |det| = d is checked, so T^-1 = adj/det; solve(target)
    is alpha = target*adj/det, checked to be integral and to rebuild alpha*T = target.
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
        rebuilt = (a0 * a + a1 * d + a2 * g, a0 * b + a1 * e + a2 * h, a0 * c + a1 * f + a2 * i)
        if rebuilt != (x, y, z):
            raise InvariantViolation(
                f"{q}: decomposition of {target} does not reconstruct the target"
            )
        return (a0, a1, a2)

    return adj, det, solve


def decompose(
    p: WeightedPolytope,
    triple: tuple[Point3, Point3, Point3],
    target: Point3,
) -> tuple[int, int, int]:
    """The integer alphas target*adj/det, so target = sum alpha_i * triple_i.

    The triple must have |det| == d and the target must solve the degree
    equation for a positive multiple of d.  Non-integer coefficients are
    an invariant violation, not bad input.
    """
    q = p.quadruple
    solve = _triple_solver(q, triple)[2]
    if any(x < 0 for x in target):
        raise PreconditionError(f"target {target} has negative coordinates")
    degree = sum(t * wi for t, wi in zip(target, q.weights))
    if degree == 0 or degree % q.d != 0:
        raise PreconditionError(
            f"target {target} has degree {degree}, not a positive multiple of d"
        )
    return solve(target)
