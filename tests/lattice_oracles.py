"""Brute-force lattice checks and fuzzing helpers shared by the tests.

None of these is on a program path: the triangulation, the random
unimodular maps, the shifted interior recount, Cramer's rule, the
per-point projection, the looping condition (ii) witness, the
enumeration through validate's full report, the goodness test as first
written (a _congruent range per condition (ii)
witness and a Fraction genus), the Pick count and the turn check as
first written (one pass each over the cycle), the double-loop point list, the listing
build of a polytope, the memo-free atlas, the re-hulled growth step, the
canonical cycles of an enumerator's classes, and the class key,
canonical cycle and splice kernels as first written (every rotation,
every shortest-edge listing in full, every edge a growth point lies
beyond), the unchecked edge steps, and the curve transport as first
written (every term through the basis-change matrix) only check what the
package computes, and the vertex-dropping polytope only breaks it.
"""
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import gcd

from wpoly import (
    ClassAtlas,
    ClassEntry,
    Quadruple,
    UnimodularAffineMap,
    build,
    validate,
    canonical_form,
    convex_hull,
    enumerate_g_good,
    find_unimodular_triple,
    lattice_inventory,
    project,
)
from wpoly.classify import WeightedCurve, _key, _support_conditions, _vertex_keys, make_curve
from wpoly.errors import InvariantViolation, PreconditionError
from wpoly.polygon2d import _MIRROR, Point2, _canonical_cycle, _egcd, _hull_cycle
from wpoly.quadruples import ValidityReport, _case_candidates, _condition_i_witness, _congruent


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _edges(cycle):
    return [(cycle[k], cycle[(k + 1) % len(cycle)]) for k in range(len(cycle))]


def _edge_steps(cycle: tuple[Point2, ...]) -> tuple[list[int], list[Point2]]:
    """Lattice length and primitive direction of each edge cycle[j] ->
    cycle[j+1], with no check of the cycle: the steps `_cycle_steps` takes
    in its one checked pass, and `_box_cycles` carries along its walk."""
    lengths, dirs = [], []
    for (ux, uy), (vx, vy) in zip(cycle, cycle[1:] + cycle[:1]):
        length = gcd(vx - ux, vy - uy)
        lengths.append(length)
        dirs.append(((vx - ux) // length, (vy - uy) // length))
    return lengths, dirs


def _pick_counts(cycle):
    """(twice the area, interior count, boundary count) of a vertex cycle,
    as first written: twice the area from the shoelace sum, the boundary
    count from the edge gcds, and the interior count from Pick's formula
    2*area = 2i + b - 2, which needs 2*area and b to have equal parity."""
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


def _check_turns(cycle):
    """Raise InvariantViolation on a cycle that is not strictly convex
    counterclockwise, as first written: every turn must be strictly left,
    checked vertex by vertex from vertex 1, and the edge directions must
    pass the positive x-axis once, which a pentagram's left turns do
    twice."""
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
    """Interior point count of a polytope's listed points, verified by an
    independent shifted count; neither reads the genus that build checked.

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
    direct = sum(1 for point in p.points if min(point) >= 1)
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
    the target, over the triple's own determinant; an int when that
    division is exact, else a Fraction."""
    det = _det3(*triple)
    alphas = []
    for i in range(3):
        replaced = list(triple)
        replaced[i] = target
        num = _det3(*replaced)
        alphas.append(num // det if num % det == 0 else Fraction(num, det))
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


def _condition_ii_witness_oracle(weights, d, axis):
    j, k = [a for a in range(3) if a != axis]
    wj, wk = weights[j], weights[k]
    for ej in _congruent(wj, d, wk, 0, d // wj):
        return ((j, ej), (k, (d - ej * wj) // wk))
    return None


def _raw_genus_oracle(q):
    w0, w1, w2 = q.weights
    d = q.d
    prod = w0 * w1 * w2
    numerator = d * (d - w0 - w1 - w2)
    numerator += gcd(w0, d) * (prod // w0)
    numerator += gcd(w1, d) * (prod // w1)
    numerator += gcd(w2, d) * (prod // w2)
    numerator -= prod
    return Fraction(numerator, 2 * prod)


def validate_oracle(q):
    """validate as first written: generator expressions over the axes,
    each condition (ii) witness as the first of a _congruent range, and
    the genus as an exact Fraction."""
    w = q.weights
    d = q.d
    coprime = (
        gcd(w[0], w[1]) == 1 and gcd(w[0], w[2]) == 1 and gcd(w[1], w[2]) == 1
    )
    dominates = all(d > wi for wi in w)
    cond_i = tuple(_condition_i_witness(w, d, i) for i in range(3))
    cond_ii = tuple(_condition_ii_witness_oracle(w, d, i) for i in range(3))
    divides = tuple(d % wi == 0 for wi in w)
    good = (
        coprime
        and dominates
        and all(x is not None for x in cond_i)
        and all(x is not None for x in cond_ii)
    )
    g = None
    if good:
        value = _raw_genus_oracle(q)
        if value.denominator != 1:
            raise InvariantViolation(
                f"genus of good quadruple {q} is not an integer: {value}"
            )
        g = int(value)
    return ValidityReport(
        quadruple=q,
        pairwise_coprime=coprime,
        degree_dominates=dominates,
        condition_i=cond_i,
        condition_ii=cond_ii,
        divides=divides,
        is_good=good,
        genus=g,
    )


def enumerate_oracle(g, d_max):
    """enumerate_g_good with the full report: every coprime candidate of
    the case walk built as a Quadruple and kept when validate's genus is
    g, in (d, w0, w1, w2) order."""
    keys = {(d, *sorted(u)) for _, *u, d in _case_candidates(g, d_max)}
    found = []
    for d, w0, w1, w2 in sorted(keys):
        if gcd(w0, w1) == gcd(w0, w2) == gcd(w1, w2) == 1:
            q = Quadruple(w0, w1, w2, d)
            if validate(q).genus == g:
                found.append(q)
    return found


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
        ClassEntry(canonical=canon, members=tuple(members))
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
    """The set of canonical cycles of an enumerator's {class key: polygon}
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
    in p.points order, each point decomposed on its own by Cramer's rule.

    Writing a point as alpha1*t1 + alpha2*t2 + alpha3*t3 forces
    alpha1 + alpha2 + alpha3 = 1, so the first two coefficients identify
    the point.  Each point's coefficients must be integers summing to 1,
    and the triple rows must project to (1, 0), (0, 1) and (0, 0).
    """
    images = []
    points = p.points
    for row in points:
        alphas = cramer_decompose(triple, row)
        if any(a.denominator != 1 for a in alphas):
            raise InvariantViolation(f"{p.quadruple}: non-integral decomposition of {row}")
        if sum(alphas) != 1:
            raise InvariantViolation(f"{p.quadruple}: affine coefficients of {row} sum to {sum(alphas)}")
        images.append(alphas[:2])
    for pt, expected in zip(triple, ((1, 0), (0, 1), (0, 0))):
        if images[points.index(pt)] != expected:
            raise InvariantViolation(f"triple row {pt} did not project to {expected}")
    return images


def chart_forms(q):
    """The chart of q's plane as the affine forms of its lattice triangle:
    (a_i, b_i) for each axis i in index order, with point[i] = <a_i, u> +
    b_i at the chart coordinates u = (s, x).  Written out from the
    weights: the outer axis is the first heaviest, second and third the
    others in index order, inv is found by trial, beta = -wx*inv and
    y0 = d*inv mod wz."""
    w, d = q.weights, q.d
    outer = w.index(max(w))
    second, third = [axis for axis in range(3) if axis != outer]
    wx, wy, wz = w[outer], w[second], w[third]
    inv = next(k for k in range(wz) if (k * wy - 1) % wz == 0)
    beta, y0 = -wx * inv % wz, d * inv % wz
    (gamma, r1), (b3, r2) = divmod(wx + wy * beta, wz), divmod(d - wy * y0, wz)
    assert r1 == r2 == 0, q
    forms = [None, None, None]
    forms[outer] = ((0, 1), 0)
    forms[second] = ((wz, beta), y0)
    forms[third] = ((-wy, -gamma), b3)
    return forms


def chart_point(forms, u):
    """The point at chart coordinates u under `chart_forms`."""
    return tuple(a0 * u[0] + a1 * u[1] + b for (a0, a1), b in forms)


def listing_build(q):
    """`_build` as it was before the polytope became its charted rows:
    the same residue-stepped walk over the outer axis, but every point
    listed, sorted into ascending lex order and scanned for the interior
    count, and each row start charted by `chart_forms`' constants.
    Returns (points, charted rows, n, interior count)."""
    w, d = q.weights, q.d
    outer = w.index(max(w))
    second, third = [axis for axis in range(3) if axis != outer]
    wx, wy, wz = w[outer], w[second], w[third]
    inv = next(k for k in range(wz) if (k * wy - 1) % wz == 0)
    beta, y0 = -wx * inv % wz, d * inv % wz
    points, rows = [], []
    for x in range(d // wx + 1):
        rest = d - x * wx
        ys = range(rest * inv % wz, rest // wy + 1, wz)
        if not ys:
            continue
        for y in ys:
            point = [0, 0, 0]
            point[outer], point[second], point[third] = x, y, (rest - y * wy) // wz
            points.append(tuple(point))
        s, off = divmod(ys[0] - beta * x - y0, wz)
        assert not off, q
        rows.append(((s, x), len(ys)))
    points.sort()
    interior = sum(1 for point in points if min(point) >= 1)
    return tuple(points), tuple(rows), len(points), interior


def row_points(p):
    """Every point of p's charted rows, (s + t, x) for 0 <= t < count,
    carried back by `chart_forms`, in walk order."""
    forms = chart_forms(p.quadruple)
    return [chart_point(forms, u) for u in row_image_list((1, 0), p.rows)]


def row_image_list(sigma, rows):
    """Every image e0 + t*sigma of the projected rows, in row order."""
    return [(x + t * sigma[0], y + t * sigma[1]) for (x, y), c in rows for t in range(c)]


def vertex_dropped(p):
    """p with one hull vertex taken off the end of its charted row (the
    row dropped if it held only that point) and n left as it was.  The
    vertex is one whose removal keeps the interior count, and the hull of
    the remaining points holds exactly them, so only the projected point
    count goes wrong; a polytope without such a vertex is left as it is."""
    rows = p.rows
    images = row_image_list((1, 0), rows)
    hull = convex_hull(images)
    for v in hull.vertices:
        if convex_hull([pt for pt in images if pt != v]).i != hull.i:
            continue
        kept = []
        for (s, x), c in rows:
            last = (s + c - 1, x)
            if v == (s, x) and c > 1:
                kept.append(((s + 1, x), c - 1))
            elif v == last and c > 1:
                kept.append(((s, x), c - 1))
            elif v != (s, x):
                kept.append(((s, x), c))
        return replace(p, rows=tuple(kept))
    return p


def class_key_oracle(cycle: tuple[Point2, ...]) -> tuple[tuple[int, int, int, int], ...]:
    """`_class_key` with a Bezout pair at every edge and every rotation of
    both words formed: the least rotation of the cycle's word and of its
    mirror image's (see `_class_key` for the letters and the proof)."""
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


def canonical_cycle_oracle(vertices: tuple[Point2, ...]) -> tuple[tuple[Point2, ...], UnimodularAffineMap]:
    """`_canonical_cycle` with every shortest-edge anchoring listed in full:
    each anchoring's height and top row come from all of its vertices, and
    the least listing wins, the first one on ties (cycle edges, then the
    mirror's), which fixes the map."""
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


def splices_under_old_bound(cycle, counts, g):
    """`_splices` as first written: its growth points bound m below by
    f_{j-1}(q) >= -1, so a point comes once with every edge it lies one
    step beyond, and the back walk drops it at any edge but the first of
    its run ("spliced from the earlier edge")."""
    _check_turns(cycle)
    k = len(cycle)
    lengths, dirs = _edge_steps(cycle)
    keys = _vertex_keys(lengths, dirs)
    area2, inner, b = counts

    def growth_points():
        for j, ((ux, uy), (px, py)) in enumerate(zip(cycle, dirs)):
            if lengths[j] > g - inner + 1:
                continue
            (ax, ay), (bx, by) = dirs[j - 1], dirs[(j + 1) % len(dirs)]
            _, s, t = _egcd(px, py)
            lo = -((1 - ax * s - ay * t) // (ax * py - ay * px))
            hi = lengths[j] + (1 - bx * s - by * t) // (px * by - py * bx)
            for m in range(lo, hi + 1):
                yield j, (ux + t + m * px, uy - s + m * py)

    for j, q in growth_points():
        qx, qy = q
        child_area2, child_b = area2 + lengths[j], b - lengths[j]
        a = j
        while True:
            a = (a - 1) % k
            if a == j:
                raise InvariantViolation(f"{q} sees every edge of {cycle}")
            (ux, uy), (px, py) = cycle[a], dirs[a]
            f = px * (qy - uy) - py * (qx - ux)
            if f > 0 or f == -1:
                break
            child_area2 -= lengths[a] * f
            child_b -= lengths[a]
        if f == -1:
            continue  # spliced from the earlier edge
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
        child = (q,) + (cycle[z:] + cycle[:z])[:retained]
        child_counts = (child_area2, interior, child_b)
        if _pick_counts(child) != child_counts:
            raise InvariantViolation(f"splicing {q} into {cycle} miscounts {child}")
        yield q, child_counts, child


def map_curve_oracle(curve: WeightedCurve, bc) -> tuple[WeightedCurve, tuple[str, ...]]:
    """`map_curve` as first written: every term carried through d*T on its
    own, each image checked to be a nonnegative lattice point of the
    target degree, and the mapped terms validated again by `make_curve`."""
    if curve.quadruple != bc.q_from:
        raise PreconditionError(
            f"curve on {curve.quadruple} does not start the basis change from {bc.q_from}"
        )
    q_to = bc.q_to
    d = bc.q_from.d
    if not curve.support <= set(bc.rows):
        raise PreconditionError("curve support contains non-polytope monomials")
    scaled = [[x * d for x in row] for row in bc.matrix]
    if any(x.denominator != 1 for row in scaled for x in row):
        raise InvariantViolation(f"basis change matrix has a denominator not dividing {d}")
    scaled = [[x.numerator for x in row] for row in scaled]
    new_terms = []
    for coef, v in curve.terms:
        image = [sum(v[k] * scaled[k][c] for k in range(3)) for c in range(3)]
        if any(x % d or x < 0 for x in image):
            image = [Fraction(x, d) for x in image]
            raise InvariantViolation(f"monomial {v} maps to non-lattice {image}")
        iv = tuple(x // d for x in image)
        if sum(x * w for x, w in zip(iv, q_to.weights)) != q_to.d:
            raise InvariantViolation(f"monomial {v} maps off degree {q_to.d}")
        new_terms.append((coef, iv))
    mapped = make_curve(q_to, new_terms)
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
