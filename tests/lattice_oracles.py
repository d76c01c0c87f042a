"""Brute-force lattice checks and fuzzing helpers shared by the tests.

None of these is on a program path: the triangulation, the random
unimodular maps, the shifted interior recount, Cramer's rule, the
per-point projection, the looping condition (ii) witness, the
double-loop point list, the memo-free atlas, the re-hulled growth step
and the canonical cycles of an enumerator's classes only check what the
package computes, and the vertex-dropping row projection only breaks it.
"""
import random
from collections import Counter
from fractions import Fraction
from math import gcd

from wpoly import (
    ClassAtlas,
    ClassEntry,
    UnimodularAffineMap,
    build,
    canonical_form,
    convex_hull,
    enumerate_g_good,
    find_unimodular_triple,
    lattice_inventory,
    project,
)
from wpoly.classify import _edge_steps, _vertex_keys
from wpoly.errors import InvariantViolation, PreconditionError
from wpoly.polygon2d import _canonical_cycle, _hull_cycle, _pick_counts
from wpoly.wpolytope import _triple_solver


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _edges(cycle):
    return [(cycle[k], cycle[(k + 1) % len(cycle)]) for k in range(len(cycle))]


def on_boundary(p, cycle):
    """Whether p lies on some edge of the vertex cycle, edge by edge."""
    for a, b in _edges(cycle):
        if _cross(a, b, p) == 0:
            if min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]):
                return True
    return False


def tiling_faults(poly, tris):
    """Ways the pieces fail to triangulate the polygon edge to edge; empty
    when the corners are exactly the polygon's lattice points, every
    primitive boundary segment is a piece edge once in the cycle's
    direction, and every other directed piece edge is used once with its
    reverse used by exactly one other piece."""
    faults = []
    corners = {p for t in tris for p in t}
    points = set(lattice_inventory(poly)[0])
    if corners != points:
        faults.append(f"piece corners differ from the lattice points by {corners ^ points}")
    boundary = set()
    for (px, py), (qx, qy) in _edges(poly.vertices):
        g = gcd(abs(qx - px), abs(qy - py))
        sx, sy = (qx - px) // g, (qy - py) // g
        boundary.update(
            ((px + j * sx, py + j * sy), (px + (j + 1) * sx, py + (j + 1) * sy)) for j in range(g)
        )
    used = Counter((t[j], t[(j + 1) % 3]) for t in tris for j in range(3))
    for (u, v), count in used.items():
        if count != 1:
            faults.append(f"directed edge {u}->{v} used {count} times")
        elif (v, u) in boundary:
            faults.append(f"edge {u}->{v} runs against the boundary")
        elif (u, v) not in boundary and used[(v, u)] != 1:
            faults.append(f"inner edge {u}->{v} has its reverse in {used[(v, u)]} pieces")
    unused = boundary - set(used)
    if unused:
        faults.append(f"boundary segments no piece has as an edge: {sorted(unused)}")
    return faults


Triangle = tuple[tuple[int, int], tuple[int, int], tuple[int, int]]

IDENTITY = UnimodularAffineMap(((1, 0), (0, 1)), (0, 0))


def triangulate(poly) -> tuple[Triangle, ...]:
    """Split the polygon into primitive lattice triangles.

    Start from the fan off the first vertex.  Take a triangle off a stack
    and look for a lattice point of the polygon in the closed triangle
    that is not a corner.  If there is one, q, replace the triangle by
    those of its sub-triangles towards q that have positive area (two
    when q lies on an edge), each handed only its parent's points;
    otherwise keep it.  Each split tiles its parent, so the kept pieces
    tile the polygon.  A kept piece holds no lattice point but its
    corners, so two triangles sharing an edge both end up cut at every
    lattice point of that edge and their pieces meet along it edge to
    edge: the result is a triangulation.  It has exactly 2i + b - 2
    triangles, each of twice-area 1.
    """
    verts = poly.vertices
    points = lattice_inventory(poly)[0]
    stack = [
        ((verts[0], verts[s], verts[s + 1]), points)
        for s in range(1, len(verts) - 1)
    ]
    tris: list[Triangle] = []
    while stack:
        (a, b, c), points = stack.pop()
        inside = [
            p for p in points
            if _cross(a, b, p) >= 0 and _cross(b, c, p) >= 0 and _cross(c, a, p) >= 0
        ]
        q = next((p for p in inside if p not in (a, b, c)), None)
        if q is None:
            tris.append((a, b, c))
            continue
        for child in ((a, b, q), (b, c, q), (c, a, q)):
            if _cross(*child) > 0:
                stack.append((child, inside))
    expected = 2 * poly.i + poly.b - 2
    if len(tris) != expected:
        raise InvariantViolation(
            f"triangulation produced {len(tris)} pieces, expected {expected}"
        )
    for t in tris:
        if _cross(t[0], t[1], t[2]) != 1:
            raise InvariantViolation(f"non-primitive piece {t}")
    return tuple(tris)


def random_unimodular_map(seed: int, size: int) -> UnimodularAffineMap:
    """Deterministic fuzzing map: `size` elementary shears, an optional
    axis swap (only when size >= 2), and a translation bounded by size."""
    if size < 0:
        raise PreconditionError(f"size must be >= 0, got {size}")
    if size == 0:
        return IDENTITY
    rng = random.Random(seed)
    m = IDENTITY
    for _ in range(size):
        t = rng.choice([-3, -2, -1, 1, 2, 3])
        if rng.random() < 0.5:
            step = UnimodularAffineMap(((1, t), (0, 1)), (0, 0))
        else:
            step = UnimodularAffineMap(((1, 0), (t, 1)), (0, 0))
        m = step.compose(m)
    if size >= 2 and rng.random() < 0.5:
        m = UnimodularAffineMap(((0, 1), (1, 0)), (0, 0)).compose(m)
    shift = UnimodularAffineMap(
        ((1, 0), (0, 1)), (rng.randint(-size, size), rng.randint(-size, size))
    )
    return shift.compose(m)


def apply_map(poly, m: UnimodularAffineMap):
    """Image polygon under an affine unimodular map."""
    return convex_hull([m.apply(p) for p in poly.vertices])


def interior_count(p) -> int:
    """Interior point count of a polytope, verified by an independent
    shifted count.

    A point is interior exactly when all coordinates are >= 1, i.e. when
    (a-1, b-1, c-1) >= 0 solves the degree equation with right side
    d - w0 - w1 - w2.  Both counts must agree.
    """
    w0, w1, w2 = p.quadruple.weights
    target = p.quadruple.d - w0 - w1 - w2
    shifted = 0
    if target >= 0:
        for a in range(target // w0 + 1):
            rest_a = target - a * w0
            for b in range(rest_a // w1 + 1):
                if (rest_a - b * w1) % w2 == 0:
                    shifted += 1
    direct = len(p.interior)
    if shifted != direct:
        raise InvariantViolation(
            f"{p.quadruple}: interior counts disagree ({direct} direct, {shifted} shifted)"
        )
    return direct


def _det3(r0, r1, r2):
    (a, b, c), (d, e, f), (g, h, i) = r0, r1, r2
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def cramer_decompose(triple, target):
    """The exact alphas with target = sum alpha_i * triple_i, by Cramer's
    rule: alpha_i is the determinant of the triple with row i replaced by
    the target, over the triple's own determinant."""
    det = _det3(*triple)
    alphas = []
    for i in range(3):
        replaced = list(triple)
        replaced[i] = target
        alphas.append(Fraction(_det3(*replaced), det))
    return tuple(alphas)


def condition_ii_witness_loop(weights, d, axis):
    """Condition (ii) witness by trying e_j = 0, 1, ... up to d / w_j."""
    j, k = [a for a in range(3) if a != axis]
    wj, wk = weights[j], weights[k]
    for ej in range(d // wj + 1):
        rest = d - ej * wj
        if rest % wk == 0:
            return ((j, ej), (k, rest // wk))
    return None


def polytope_points_loop(q):
    """Every (a, b, c) >= 0 of degree d, by trying each (a, b) in lex order."""
    w0, w1, w2 = q.weights
    points = []
    for a in range(q.d // w0 + 1):
        rest_a = q.d - a * w0
        for b in range(rest_a // w1 + 1):
            rest = rest_a - b * w1
            if rest % w2 == 0:
                points.append((a, b, rest // w2))
    return tuple(points)


def atlas_oracle(g, d_max):
    """group_by_class without its per-atlas memo: public build, project
    and canonical_form on every quadruple, grouped by canonical vertices
    and sorted by (point count, vertices)."""
    grouped = {}
    for q in enumerate_g_good(g, d_max):
        p = build(q)
        canon = canonical_form(project(p, find_unimodular_triple(p)))
        grouped.setdefault(canon.vertices, (canon, []))[1].append(q)
    entries = [
        ClassEntry(canonical=canon, n=canon.n, members=tuple(members))
        for canon, members in sorted(grouped.values(), key=lambda e: (e[0].n, e[0].vertices))
    ]
    return ClassAtlas(g=g, d_max=d_max, classes=tuple(entries))


def grow_cycle(cycle, q, n, g):
    """Hull cycle of cycle+q, re-hulled and fully recounted, when it gains
    exactly q and keeps interior <= g (q lies outside the 2-dimensional
    cycle, so it is a hull vertex); else None."""
    grown = _hull_cycle(list(cycle) + [q])
    _, interior, b = _pick_counts(grown)
    if interior + b != n + 1 or interior > g:
        return None
    return grown


def canonical_cycles(reps):
    """The set of canonical cycles of an enumerator's {class key: cycle}
    dict; the key is complete, so no two keys share a canonical cycle."""
    cycles = {_canonical_cycle(rep)[0] for rep in reps.values()}
    assert len(cycles) == len(reps), "two class keys share a canonical cycle"
    return cycles


def keeps(cycle, q):
    """Whether the vertex q carries the largest vertex key of the cycle,
    from keys recomputed over the whole cycle."""
    keys = _vertex_keys(*_edge_steps(cycle))
    return keys[cycle.index(q)] == max(keys)


def projection_coordinates(p, triple):
    """Coefficients (alpha1, alpha2) of every point of p over the triple,
    in p.points order, each point solved on its own.

    Writing a point as alpha1*t1 + alpha2*t2 + alpha3*t3 forces
    alpha1 + alpha2 + alpha3 = 1, so the first two coefficients identify
    the point.  Each point's division by det must be exact and its
    coefficients must sum to 1, and the triple rows must project to
    (1, 0), (0, 1) and (0, 0): then alpha*T = point for every point.
    """
    solve = _triple_solver(p.quadruple, triple)[2]
    images = []
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


def row_points(p):
    """Every point start + t*step of p's rows, in walk order."""
    return [
        tuple(a + t * s for a, s in zip(start, p.step)) for start, c in p.rows for t in range(c)
    ]


def row_image_list(sigma, rows):
    """Every image e0 + t*sigma of the projected rows, in row order."""
    return [(x + t * sigma[0], y + t * sigma[1]) for (x, y), c in rows for t in range(c)]


def vertex_dropped(row_images):
    """`_row_images`, but with one hull vertex taken off the end of its
    row (the row dropped if it held only that point).  The vertex is one
    whose removal keeps the interior count, and the hull of the remaining
    images holds exactly them, so only the projected point count goes
    wrong; a projection without such a vertex is left as it is."""

    def dropped(p, triple):
        sigma, rows = row_images(p, triple)
        images = row_image_list(sigma, rows)
        hull = convex_hull(images)
        for v in hull.vertices:
            if convex_hull([pt for pt in images if pt != v]).i != hull.i:
                continue
            kept = []
            for (x, y), c in rows:
                last = (x + (c - 1) * sigma[0], y + (c - 1) * sigma[1])
                if v == (x, y) and c > 1:
                    kept.append(((x + sigma[0], y + sigma[1]), c - 1))
                elif v == last and c > 1:
                    kept.append(((x, y), c - 1))
                elif v != (x, y):
                    kept.append(((x, y), c))
            return sigma, tuple(kept)
        return sigma, rows

    return dropped
