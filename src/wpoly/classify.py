"""Grouping quadruples by projected polygon class, and class enumeration.

Every good quadruple of genus g projects, through a det-d row triple or
a lattice chart of its plane, to a lattice polygon with g interior
points, unique up to affine unimodular maps.  This module groups them by
the canonical form of that polygon, enumerates all candidate classes for
a genus by two independent methods, and transports curves between
quadruples in the same class through an exact rational basis change.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InvariantViolation, PreconditionError
from .polygon2d import (
    LatticePolygon,
    Point2,
    _canonical_polygon,
    _class_key,
    _egcd,
    _row_ends,
    equivalent,
)
from .quadruples import Quadruple, enumerate_g_good
from .render import json_text
from .wpolytope import (
    Point3, _build, _rows_hull, _triple_solver, build, find_unimodular_triple, project,
)


@dataclass(frozen=True)
class ClassEntry:
    """A class's canonical polygon, which holds its point count n, and its members."""

    canonical: LatticePolygon
    members: tuple[Quadruple, ...]


@dataclass(frozen=True)
class ClassAtlas:
    g: int
    d_max: int
    classes: tuple[ClassEntry, ...]

    def to_json_dict(self) -> dict:
        return {
            "version": 1,
            "g": self.g,
            "d_max": self.d_max,
            "classes": [
                {
                    "canonical": [[x, y] for x, y in entry.canonical.vertices],
                    "n": entry.canonical.n,
                    "members": [[*q.weights, q.d] for q in entry.members],
                }
                for entry in self.classes
            ],
        }

    def up_to(self, d_max: int) -> ClassAtlas:
        """The atlas at a smaller degree bound: members with d <= d_max in
        their order, classes left without members dropped.  Classes are
        sorted by their polygon alone and members come in degree order, so
        this equals group_by_class(g, d_max)."""
        if d_max > self.d_max:
            raise PreconditionError(f"cannot extend an atlas at d_max {self.d_max} to {d_max}")
        entries = []
        for entry in self.classes:
            members = tuple(q for q in entry.members if q.d <= d_max)
            if members:
                entries.append(ClassEntry(canonical=entry.canonical, members=members))
        return ClassAtlas(g=self.g, d_max=d_max, classes=tuple(entries))

    def to_json_bytes(self) -> bytes:
        return (json_text(self.to_json_dict()) + "\n").encode("utf-8")

    def to_csv_text(self) -> str:
        lines = ["w0,w1,w2,d,n,class_index"]
        for index, entry in enumerate(self.classes):
            for q in entry.members:
                lines.append(f"{q.w0},{q.w1},{q.w2},{q.d},{entry.canonical.n},{index}")
        return "\n".join(lines) + "\n"


def group_by_class(g: int, d_max: int) -> ClassAtlas:
    """Atlas of genus-g quadruples up to d_max, grouped by polygon class.

    Classes are sorted by (point count, canonical vertices); members stay
    in enumeration order.  Each quadruple's polytope comes from
    _build(q, g), as enumerate_g_good has validated it, and comes as its
    rows in the lattice chart of its plane: the class needs some lattice
    chart, not a det-d triple.  The charted rows key a
    memo of class keys: equal keys hold equal point sets (the 589 members
    of g = 1..3 at d_max 120 give 73 keys for 73 point sets).  On a miss,
    `_rows_hull` checks the hull against that member's n and genus.  A
    hit needs no recheck: the member's own `_build` checked every row
    start on the plane and produced the key's rows; its n is the total of
    those rows, which `_build` summed; and its genus is g, which `_build`
    checked.  The class key comes from the edge steps the hull holds.  The
    first hull of each class key is canonicalised by `_class_polygons`, as
    in the enumerators, and each class's members are found by its key.
    """
    seen: dict[tuple, tuple] = {}
    classes: dict[tuple, tuple[LatticePolygon, set[int], list[Quadruple]]] = {}
    for q in enumerate_g_good(g, d_max):
        p = _build(q, g)
        if p.rows not in seen:
            hull = _rows_hull(p, (1, 0), p.rows)
            seen[p.rows] = key = _class_key(hull.lengths, hull.dirs)
            classes.setdefault(key, (hull, set(), []))[1].add(hull.n)
        classes[seen[p.rows]][2].append(q)
    del seen  # the charted rows are not kept while the canonical polygons are built
    entries = []
    for poly, key in _class_polygons({k: rep for k, (rep, _, _) in classes.items()}, g):
        _, ns, members = classes[key]
        if ns != {poly.n}:
            raise InvariantViolation(
                f"class {poly.vertices} has {poly.n} points, its point sets {sorted(ns)}"
            )
        entries.append(ClassEntry(canonical=poly, members=tuple(members)))
    return ClassAtlas(g=g, d_max=d_max, classes=tuple(entries))


# ---------------------------------------------------------------------------
# enumeration of polygon classes with a fixed interior count


def _class_polygons(reps: dict[tuple, LatticePolygon], g: int) -> list[tuple[LatticePolygon, tuple]]:
    """(polygon, key) of each class of a {`_class_key`: representative}
    dict, sorted by (n, vertices); each representative is canonicalised
    once, by `_canonical_polygon` from the edge steps it holds, and must
    have g interior points.  The key is complete, so two keys with one
    polygon are a bug.  Each class's row ends are checked against Pick's
    counts, which the splices also use; no point is listed."""
    classes: dict[tuple[Point2, ...], tuple[LatticePolygon, tuple]] = {}
    for key, rep in reps.items():
        poly = _canonical_polygon(rep)[0]
        if classes.setdefault(poly.vertices, (poly, key))[1] != key:
            raise InvariantViolation(f"class {poly.vertices} has two class keys")
    pairs = sorted(classes.values(), key=lambda pair: (pair[0].n, pair[0].vertices))
    for poly, _ in pairs:
        _row_ends(poly)
        if poly.i != g:
            raise InvariantViolation(f"class {poly.vertices} has {poly.i} interior points, not {g}")
    return pairs


def _inductive_cycles(g: int, n_max: int) -> dict[tuple, LatticePolygon]:
    """Grow classes point by point from the unit triangle up to n_max points.

    A class with n+1 lattice points is reachable from one with n points
    by re-adding a vertex, and only the points of `_growth_points` can be
    re-added, so each level extends every class rep by each of them whose
    hull gains exactly that point; `_splices` forms each such hull by
    splicing the point into the parent's cycle.  It walks only the run of
    edges the point sees, and splices the point once, from the first edge
    of that run it lies one step beyond.  It skips whole every edge whose
    inner lattice points would, as interior points of any hull beyond it,
    raise the parent's interior count past g.  Classes keep at most g
    interior points along the way.  Completeness rests on this argument,
    not on a search box.  For g >= 1 the levels stop at 3g + 7 points, as
    by Scott's bound no class with g >= 1 interior points has more; the
    genus-0 strips, which grow without end, are not followed past it.

    A grown child C = hull(P + q) is kept only when q carries the largest
    `_vertex_keys` key of C (canonical augmentation, McKay 1998), so most
    classes are grown from one parent, not from each.  Keys can tie, so a
    class may still come from several parents; each level keeps the first
    child of each `_class_key`, and the {key: polygon} of those with g
    interior points is returned.  This loses no class C with n+1 points
    and at most g interior points:

    - let v* be a vertex of C with the largest key.  P* = conv(C's lattice
      points other than v*) is 2-dimensional: it is a segment only when C
      is a height-1 triangle over an edge of length L >= 2 with apex v*,
      and that apex has key (1, 1, .), below the (1, L, .) of each base
      vertex, so it is never v*;
    - P* has n points and at most g interior points, so by induction a
      representative phi(P*) of its class is in `current`;
    - growth points, splices and vertex keys are equivariant under affine
      unimodular maps, so phi(v*) is a growth point of phi(P*) by the
      argument of `_growth_points`, and it comes with the first edge of
      its run; that edge is not skipped, as its inner points are interior
      points of phi(C), which has at most g.  `_splices` accepts it,
      phi(v*) carries the largest key of phi(C), and the filter keeps
      phi(C).

    Each class rep is a `LatticePolygon`, which holds its counts and edge
    steps from its one `_cycle_steps` pass; its class key comes from those
    steps, and `_splices` grows it from them.
    """
    start = LatticePolygon(((0, 0), (1, 0), (0, 1)))
    current = {_class_key(start.lengths, start.dirs): start}
    found = dict(current) if g == 0 else {}
    for _ in range(3, min(n_max, 3 * g + 7) if g else n_max):
        grown: dict[tuple, LatticePolygon] = {}
        for parent in current.values():
            for _, child in _splices(parent, g):
                grown.setdefault(_class_key(child.lengths, child.dirs), child)
        current = grown
        found.update((key, c) for key, c in current.items() if c.i == g)
    return found


def _vertex_keys(lengths: Sequence[int], dirs: Sequence[Point2]) -> list[tuple[int, int, int]]:
    """Key (min(l_in, l_out), max(l_in, l_out), det(p_in, p_out)) of each
    vertex of a cycle, from the `_cycle_steps` lattice lengths l and
    primitive directions p of its incoming and outgoing edges.

    Affine unimodular maps keep lattice lengths and the determinant of two
    directions up to sign.  A reflection also reverses the cycle, which
    swaps a vertex's two edges (absorbed by min/max) and negates both
    directions; det(-p_out, -p_in) = det(p_in, p_out), so the determinant,
    positive at a counterclockwise vertex, is kept too.
    """
    return [
        _key(lengths[j - 1], dirs[j - 1], l_out, p_out)
        for j, (l_out, p_out) in enumerate(zip(lengths, dirs))
    ]


def _key(l_in: int, p_in: Point2, l_out: int, p_out: Point2) -> tuple[int, int, int]:
    """The `_vertex_keys` key of a vertex between two edges."""
    return (min(l_in, l_out), max(l_in, l_out), p_in[0] * p_out[1] - p_in[1] * p_out[0])


def _growth_points(cycle: tuple[Point2, ...], lengths: Sequence[int], dirs: Sequence[Point2],
                   longest: int):
    """(j, q) for every point q whose hull with the cycle can gain exactly
    q, with j the first edge of the run of edges that q lies one lattice
    step beyond, given the cycle's edge steps; edges longer than
    `longest` are left out, and with them the points whose run starts
    there.

    Such a q lies beyond the line of some edge e = (u, v) of lattice
    length l.  The triangle conv(e + q) meets the cycle only in e, so its
    lattice points are e's l + 1 points and q, and Pick's formula gives
    twice its area as l = l*h, with h the lattice distance of q from e's
    line: h = 1.  With p = (px, py) the primitive direction of e and
    f(x) = cross(p, x - u) >= 0 on the cycle, q lies on the line f = -1,
    which holds u + (t, -s) + m*p for s*px + t*py = 1.  The same holds at
    every other edge q lies beyond, so f >= -1 at q on every edge, and
    the edges with f(q) = -1 are those q sees, one run of them.  At the
    first edge j of that run f_{j-1}(q) >= 0 and f_{j+1}(q) >= -1; as the
    cycle turns left at u and at v, these bound m below and above.  Any
    point outside sees one run of edges, which has one first edge, so
    each q comes once, with f_j(q) = -1 and f_{j-1}(q) >= 0.
    """
    for j, ((ux, uy), (px, py)) in enumerate(zip(cycle, dirs)):
        if lengths[j] > longest:
            continue
        (ax, ay), (bx, by) = dirs[j - 1], dirs[(j + 1) % len(dirs)]
        _, s, t = _egcd(px, py)
        lo = -(-(ax * s + ay * t) // (ax * py - ay * px))
        hi = lengths[j] + (1 - bx * s - by * t) // (px * by - py * bx)
        for m in range(lo, hi + 1):
            yield j, (ux + t + m * px, uy - s + m * py)


def _splices(parent: LatticePolygon, g: int):
    """(q, child) for each growth point q of the parent polygon, of cycle
    its vertices and n = i + b lattice points, whose hull(cycle + q) gains
    exactly q (interior + boundary = n + 1), has at most g interior points
    and carries its largest vertex key at q; the child is the
    `LatticePolygon` of that hull's cycle, starting at q.

    Let f_j = cross(p_j, q - v_j), p_j the primitive direction of the edge
    e_j = v_j -> v_{j+1} of lattice length l_j.  Of a strictly convex
    polygon a point outside sees one contiguous chain of edges, those with
    f_j < 0.  An edge with f_j = 0 has q on its line, past one end, and
    the cycle turns left there, so the neighbour edge at that end has
    f < 0: such edges sit only at the ends of the run of edges with
    f <= 0, a -> ... -> z, and that run is unique.  The hull replaces the
    run by a -> q -> z and drops the run's inner vertices (on an end edge
    with f = 0 the dropped vertex lies on a segment to q).  The triangles
    (v_j, v_{j+1}, q) over the run tile the added region, each of twice
    area -l_j*f_j, and the boundary swaps the run's lattice length for
    gcd(q - a) + gcd(q - z); Pick gives the interior.  A vertex key
    depends on its two edges alone, so only a, q and z get new keys.

    Each (j, q) of `_growth_points` has f_j(q) = -1, so edge j is in q's
    run, and the run is found by walking back from j and forward from
    j + 1 while f <= 0: only the run's edges and the two that bound it are
    evaluated.  The one-run argument needs strict convexity, winding
    included, which `_cycle_steps` checked when the parent was built.  A
    back walk that comes round to j again would mean q sees every edge,
    and raises; the forward walk stops at latest at the edge with f > 0
    that ended the back walk.

    `_growth_points` gives each q once, with the first edge j of its run
    of edges with f = -1, so q is spliced once without a set of seen
    points.  The back walk from j crosses at most one edge, one with
    f = 0 on which the run of edges with f <= 0 begins.

    An edge j with i + l_j - 1 > g, i the cycle's interior count, is
    skipped whole: the hull of the cycle and a q beyond the edge's line
    no longer has the edge on its boundary, so the edge's l_j - 1 inner
    lattice points become interior points, next to the cycle's i, and no
    such q is kept.

    The keys are taken once per parent, from the steps it holds, and
    twice its area is 2i + b - 2.  A child is built only when kept, by its
    one `_cycle_steps` pass, which checks its turns and winding; its
    (i, b) must equal the splice's, which by Pick's formula ties its
    twice-area too.  The parent is not recounted.
    """
    cycle, lengths, dirs = parent.vertices, parent.lengths, parent.dirs
    k = len(cycle)
    keys = _vertex_keys(lengths, dirs)
    inner, b = parent.i, parent.b
    area2 = 2 * inner + b - 2
    for j, q in _growth_points(cycle, lengths, dirs, g - inner + 1):
        qx, qy = q
        child_area2, child_b = area2 + lengths[j], b - lengths[j]
        a = j
        while True:
            a = (a - 1) % k
            if a == j:
                raise InvariantViolation(f"{q} sees every edge of {cycle}")
            (ux, uy), (px, py) = cycle[a], dirs[a]
            f = px * (qy - uy) - py * (qx - ux)
            if f > 0:
                break
            child_area2 -= lengths[a] * f
            child_b -= lengths[a]
        a = (a + 1) % k
        z = (j + 1) % k
        while True:
            (ux, uy), (px, py) = cycle[z], dirs[z]
            f = px * (qy - uy) - py * (qx - ux)
            if f > 0:
                break
            child_area2 -= lengths[z] * f
            child_b -= lengths[z]
            z = (z + 1) % k
        (ax, ay), (zx, zy) = cycle[a], cycle[z]
        l_aq, l_qz = gcd(qx - ax, qy - ay), gcd(zx - qx, zy - qy)
        child_b += l_aq + l_qz
        if (child_area2 - child_b) % 2 != 0:
            raise InvariantViolation(f"area/boundary parity fails growing {cycle} by {q}")
        interior = (child_area2 - child_b + 2) // 2
        if interior + child_b != inner + b + 1 or interior > g:
            continue
        p_aq = ((qx - ax) // l_aq, (qy - ay) // l_aq)
        p_qz = ((zx - qx) // l_qz, (zy - qy) // l_qz)
        key_q = _key(l_aq, p_aq, l_qz, p_qz)
        retained = k - (z - a) % k + 1
        if (
            key_q < _key(lengths[a - 1], dirs[a - 1], l_aq, p_aq)
            or key_q < _key(l_qz, p_qz, lengths[z], dirs[z])
            or any(key_q < keys[(z + t) % k] for t in range(1, retained - 1))
        ):
            continue
        child = LatticePolygon((q,) + (cycle[z:] + cycle[:z])[:retained])
        if (child.i, child.b) != (interior, child_b):
            raise InvariantViolation(f"splicing {q} into {cycle} miscounts {child.vertices}")
        yield q, child


def _angular_directions(bound: int) -> list[Point2]:
    """Primitive directions with coordinates in [-bound, bound], ordered
    counterclockwise starting just above angle -90 degrees."""
    dirs = [
        (dx, dy)
        for dx in range(-bound, bound + 1)
        for dy in range(-bound, bound + 1)
        if (dx, dy) != (0, 0) and gcd(abs(dx), abs(dy)) == 1
    ]

    # the right half-plane (with +y) first, then the left (with -y); in
    # each, the slope rises counterclockwise and the vertical comes last
    return sorted(
        dirs, key=lambda d: (d[0] < 0 or (d[0] == 0 and d[1] < 0), d[0] == 0,
                             Fraction(d[1], d[0]) if d[0] else 0)
    )


def _box_cycles(g: int, bound: int, n_max: int) -> dict[tuple, LatticePolygon]:
    """{`_class_key`: `LatticePolygon` of the first cycle} of all classes
    with g interior points realizable in a bound x bound grid, by
    enumeration of vertex cycles.

    Cycles are walked counterclockwise from the lex-least vertex with
    angularly increasing primitive edge directions; a cycle is kept when
    its interior count is exactly g and no cycle kept before has its
    `_class_key`.  The search prunes on twice-area > g + n_max - 2, which
    by Pick's formula no class with n <= n_max exceeds.

    Three more cuts drop only chains that cannot close with g interior
    points.  Let C be a convex cycle that completes the partial chain
    (0,0), c1, ..., ck.  The chain's points are vertices of C in C's
    cyclic order, so closing the chain by the chord ck -> (0,0) gives a
    convex P' inside C, and interior(P') <= interior(C).

    1. interior(P') comes from Pick's formula: twice its area is the
       tracked area2, its boundary count the tracked edge lengths plus the
       chord's.  Once it exceeds g the step is cut, and so is every longer
       step in the same direction: P' for a shorter step is the longer
       one's P' cut by a chord through two of its boundary points, so
       convex, nested and with no more interior points.
    2. A chain extended past ck turns its chord into a diagonal of C, so
       the chord's glen - 1 inner lattice points become interior points of
       C too.  interior(P') + glen - 1 > g reads area2 - blen + glen > 2g,
       and then the chain is only closed, never extended.
    3. C is strictly convex, so (0,0) lies strictly left of the line of
       each edge not incident to it.  That line does not depend on the
       edge's length, so a step from ck in direction d is cut when
       cross(d, -ck) <= 0.  Every later direction is cut too: by
       induction (0,0) is strictly left of the last edge, of direction l,
       so -ck lies in the half-turn after l.  The directions after l
       sweep that half-turn in increasing angle, so cross(d, -ck) > 0
       holds on a first run of them and fails on all later ones.
       At the first step ck is a multiple of l, and the cut is the turn
       test cross(l, d) > 0.  After it the cut implies the turn test and
       keeps every step off (0,0).  It also makes the chord direction
       -ck/glen a grid direction after l and left of it, so a chain
       closes once the chord turns left into the first edge.

    A closed cycle is keyed from the edge steps the walk carries beside
    the chain, a grid length times a primitive direction each, and from
    the chord of the closing test, glen times -ck/glen.  The polygon is
    built only at the first closure of each key.
    """
    dirs = _angular_directions(bound)
    area_bound = g + n_max - 2
    found: dict[tuple, LatticePolygon] = {}

    def extend(
        chain: list[Point2], lengths: list[int], steps: list[Point2], last_idx: int,
        area2: int, blen: int, glen: int, ylo: int, yhi: int,
    ) -> None:
        """lengths and steps are the chain's edge steps; area2 and
        blen + glen are twice the area and the boundary count of the chain
        closed by its chord, of lattice length glen; ylo..yhi is its y-range."""
        px, py = chain[-1]
        if len(chain) >= 3:
            cx, cy = -px // glen, -py // glen
            fx, fy = steps[0]
            if cx * fy - cy * fx > 0:
                if (area2 - (blen + glen)) % 2 != 0:
                    raise InvariantViolation(f"parity failure closing chain {chain}")
                if area2 - (blen + glen) + 2 == 2 * g:
                    key = _class_key(lengths + [glen], steps + [(cx, cy)])
                    if key not in found:
                        found[key] = LatticePolygon(tuple(chain))
            if area2 - blen + glen > 2 * g:
                return
        for ni in range(last_idx + 1, len(dirs)):
            dx, dy = dirs[ni]
            if dy * px - dx * py <= 0:
                break
            for length in range(1, 2 * bound + 2):
                nx, ny = px + length * dx, py + length * dy
                if nx < 0 or nx > bound or (nx == 0 and ny < 0):
                    break
                lo, hi = min(ylo, ny), max(yhi, ny)
                if hi - lo > bound:
                    break
                new_area2 = area2 + (px * ny - nx * py)
                if new_area2 > area_bound:
                    break
                new_glen = gcd(nx, abs(ny))
                if new_area2 - (blen + length + new_glen) + 2 > 2 * g:
                    break
                chain.append((nx, ny))
                lengths.append(length)
                steps.append((dx, dy))
                extend(chain, lengths, steps, ni, new_area2, blen + length, new_glen, lo, hi)
                chain.pop()
                lengths.pop()
                steps.pop()

    for fi, fd in enumerate(dirs):
        if fd[0] < 1:
            continue
        for length in range(1, bound + 1):
            start = (length * fd[0], length * fd[1])
            if start[0] > bound or abs(start[1]) > bound:
                break
            extend([(0, 0), start], [length], [fd], fi, 0, length, length,
                   min(0, start[1]), max(0, start[1]))
    return found


def enumerate_classes(
    g: int,
    method: str = "inductive",
    *,
    n_max: int | None = None,
) -> tuple[LatticePolygon, ...]:
    """All classes with exactly g interior points and n_max (default 3g + 7,
    which misses no class for g >= 1) or fewer lattice points.

    method="inductive" grows classes point by point; it is complete for
    every n_max.  method="box" enumerates every class realizable in a fixed
    bound x bound grid.  The bound max(3, 2g + 2) holds every class for
    g >= 1 (the widest, the hull of (0,0),(2,0),(0,2g+2), needs width 2g + 2);
    at g = 0 it is max(3, n_max - 2), as every genus-0 class with n points
    is twice the unit triangle or lies in a height-1 strip of width <= n - 2.
    The box walk cuts a chain once it would hold more than g interior
    points or has turned past its start (see `_box_cycles`), so it lists
    g = 5 in a few seconds.
    Both methods tell classes apart by `_class_key`; `_class_polygons`
    canonicalises each class once, checking its canonical map.  Neither
    returns a class above n_max points: the inductive levels stop at
    min(n_max, 3g + 7) points, and the box walk bounds twice the area,
    g + n - 2 by Pick's formula, by g + n_max - 2.
    """
    if g < 0:
        raise PreconditionError(f"g must be >= 0, got {g}")
    cap = (3 * g + 7) if n_max is None else n_max
    if cap < 3:
        raise PreconditionError(f"n_max must be >= 3, got {cap}")
    if method == "inductive":
        reps = _inductive_cycles(g, cap)
    elif method == "box":
        reps = _box_cycles(g, max(3, 2 * g + 2 if g else cap - 2), cap)
    else:
        raise ValueError(f"unknown method {method!r}")
    return tuple(poly for poly, _ in _class_polygons(reps, g))


# ---------------------------------------------------------------------------
# basis change and curve transport


@dataclass(frozen=True)
class BasisChange:
    """Exact rational coordinate change aligning two polytopes row by row.

    matrix T satisfies row_i(M(P)) * T = row_{row_map[i]}(M(P')) for every
    row; all denominators in T divide the common degree d.  rows are the
    rows of M(P), in the order row_map indexes them; images[i] is the
    target row row_map[i], the checked image of rows[i].
    """

    q_from: Quadruple
    q_to: Quadruple
    matrix: tuple[tuple[Fraction, Fraction, Fraction], ...]
    row_map: tuple[int, ...]
    rows: tuple[Point3, ...]
    images: tuple[Point3, ...]


def basis_change(q_from: Quadruple, q_to: Quadruple) -> BasisChange:
    """Coordinate change between two quadruples of one polygon class.

    Both quadruples are projected by `project` through their first
    determinant-d triples, and `equivalent` gives the witness carrying the
    first polygon onto the second; quadruples of different classes are a
    precondition failure.  The source triple T projects to (1, 0), (0, 1)
    and (0, 0), so its partner rows R_to are the witness images u of those
    points lifted through the target triple: u0*t0 + u1*t1 + (1-u0-u1)*t2.
    With T inverted once, as adj/det, the matrix is adj * R_to / det, and
    its denominators divide d because |det| = d.  The row map is read
    off the check of every row in integers: row * (adj * R_to) must be det
    times a target row, its image, and each target row is hit once.
    """
    p_from, p_to = build(q_from), build(q_to)
    t_from, t_to = find_unimodular_triple(p_from), find_unimodular_triple(p_to)
    same, witness = equivalent(project(p_from, t_from), project(p_to, t_to))
    if not same:
        raise PreconditionError(
            f"{q_from} and {q_to} do not share a polygon class; nothing to map"
        )
    rows_to = [
        [u0 * a + u1 * b + (1 - u0 - u1) * c for a, b, c in zip(*t_to)]
        for u0, u1 in map(witness.apply, ((1, 0), (0, 1), (0, 0)))
    ]
    adj, det = _triple_solver(q_from, t_from)
    scaled = [
        [sum(a * r[c] for a, r in zip(adj_row, rows_to)) for c in range(3)] for adj_row in adj
    ]
    matrix = tuple(tuple(Fraction(x, det) for x in row) for row in scaled)
    d = q_from.d
    bad = [entry for row in matrix for entry in row if d % entry.denominator]
    if bad:
        raise InvariantViolation(f"basis change entry {bad[0]} has denominator not dividing {d}")
    points_to = p_to.points
    target = {tuple(det * x for x in row): j for j, row in enumerate(points_to)}
    rows = p_from.points
    row_map = []
    for row in rows:
        j = target.get(tuple(sum(x * s[c] for x, s in zip(row, scaled)) for c in range(3)))
        if j is None:
            raise InvariantViolation(f"basis change does not carry row {row} to a row of {q_to}")
        row_map.append(j)
    if sorted(row_map) != list(range(p_to.n)):
        raise InvariantViolation(f"basis change does not pair the rows of {q_from} and {q_to}")
    images = tuple(points_to[j] for j in row_map)
    return BasisChange(q_from, q_to, matrix, tuple(row_map), rows, images)


@dataclass(frozen=True)
class WeightedCurve:
    """Finite sum of monomials, each of full weighted degree d."""

    quadruple: Quadruple
    terms: tuple[tuple[Fraction, Point3], ...]

    @property
    def support(self) -> frozenset[Point3]:
        return frozenset(v for _, v in self.terms)


def make_curve(q: Quadruple, terms) -> WeightedCurve:
    """Validate and normalize curve terms (sorted by exponent vector)."""
    seen: dict[Point3, Fraction] = {}
    for coef, expo in terms:
        coef = Fraction(coef)
        if coef == 0:
            raise ValueError(f"zero coefficient for {expo}")
        v = tuple(expo)
        if len(v) != 3 or any(
            not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in v
        ):
            raise ValueError(f"bad exponent vector {expo!r}")
        if sum(x * w for x, w in zip(v, q.weights)) != q.d:
            raise ValueError(f"monomial {v} does not have weighted degree {q.d}")
        if v in seen:
            raise ValueError(f"duplicate monomial {v}")
        seen[v] = coef
    if not seen:
        raise ValueError("curve needs at least one term")
    return WeightedCurve(
        quadruple=q, terms=tuple((seen[v], v) for v in sorted(seen))
    )


def _support_conditions(support: frozenset[Point3]) -> tuple[tuple[bool, bool, bool], tuple[bool, bool, bool]]:
    """Which of the two monomial conditions the support itself witnesses."""
    # (i): some v = x_i^k * x_j with k >= 1 and any j, that is v[i] >= 1,
    # at most 1 in the other two exponents and degree sum(v) >= 2;
    # (ii): some v with v[i] = 0
    cond_i = tuple(
        any(v[i] >= 1 and sum(v) - v[i] <= 1 and sum(v) >= 2 for v in support)
        for i in range(3)
    )
    return (cond_i, tuple(any(v[i] == 0 for v in support) for i in range(3)))


def map_curve(
    curve: WeightedCurve, bc: BasisChange
) -> tuple[WeightedCurve, tuple[str, ...]]:
    """Transport a curve on bc.q_from to one on bc.q_to, term by term.

    Each term moves to the checked image of its monomial.  `basis_change`
    has shown in integers that d*T carries each source row to d times a
    target row, each target row hit once, so a support inside bc.rows
    maps to distinct points of the target polytope, of degree bc.q_to.d:
    the terms pass `make_curve`'s checks as the curve's did, and are only
    sorted by exponent.  Monomial-condition coverage of the support is
    compared before and after; regressions come back as warnings.
    """
    if curve.quadruple != bc.q_from:
        raise PreconditionError(
            f"curve on {curve.quadruple} does not start the basis change from {bc.q_from}"
        )
    image = dict(zip(bc.rows, bc.images))
    if not curve.support <= image.keys():
        raise PreconditionError("curve support contains non-polytope monomials")
    mapped = WeightedCurve(
        quadruple=bc.q_to,
        terms=tuple(sorted(((coef, image[v]) for coef, v in curve.terms), key=lambda t: t[1])),
    )
    warnings = []
    before = _support_conditions(curve.support)
    after = _support_conditions(mapped.support)
    for label, idx in (("(i)", 0), ("(ii)", 1)):
        for axis in range(3):
            if before[idx][axis] and not after[idx][axis]:
                warnings.append(
                    f"support condition {label} for axis {axis} lost under mapping"
                )
    return (mapped, tuple(warnings))


@dataclass(frozen=True)
class StabilizationReport:
    g: int
    steps: tuple[tuple[int, int], ...]
    growing: bool


def stabilization_steps(d_steps) -> list[int]:
    """The degree bounds as a list; they must be nonempty, strictly
    increasing and at least 1."""
    steps = list(d_steps)
    if not steps:
        raise PreconditionError("stabilize steps must be nonempty")
    if any(a >= b for a, b in zip(steps, steps[1:])):
        raise PreconditionError(f"stabilize steps must be strictly increasing, got {steps}")
    if steps[0] < 1:
        raise PreconditionError(f"stabilize steps must be >= 1, got {steps}")
    return steps


def atlas_stabilization(atlas: ClassAtlas, d_steps) -> StabilizationReport:
    """Class counts of an atlas along increasing degree bounds up to its
    d_max; a class counts at a step when one of its members has degree at
    most that step."""
    steps = stabilization_steps(d_steps)
    if steps[-1] > atlas.d_max:
        raise PreconditionError(f"step {steps[-1]} exceeds the atlas bound {atlas.d_max}")
    first_d = [min(q.d for q in entry.members) for entry in atlas.classes]
    counts = [sum(d <= step for d in first_d) for step in steps]
    growing = len(counts) >= 2 and counts[-1] > counts[-2]
    return StabilizationReport(
        g=atlas.g, steps=tuple(zip(steps, counts)), growing=growing
    )
