"""Hulls, lattice counts, canonical forms, projections, and the
triangulation oracle."""
import ast
import re
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpoly import (
    LatticePolygon,
    Quadruple,
    UnimodularAffineMap,
    build,
    canonical_form,
    convex_hull,
    enumerate_classes,
    enumerate_g_good,
    equivalent,
    find_unimodular_triple,
    lattice_inventory,
    project,
)
from wpoly import polygon2d, wpolytope
from wpoly.classify import _inductive_cycles
from wpoly.cli import main
from wpoly.errors import DegenerateInputError, InvariantViolation, PreconditionError
from wpoly.polygon2d import (
    _MIRROR, _canonical_cycle, _class_key, _cycle_steps, _egcd, _hull_cycle,
)

from lattice_oracles import (
    IDENTITY,
    _check_turns,
    _edge_steps,
    _pick_counts,
    apply_map,
    canonical_cycle_oracle,
    chart_forms,
    chart_point,
    class_key_oracle,
    on_boundary,
    projection_coordinates,
    random_unimodular_map,
    row_image_list,
    row_points,
    tiling_faults,
    triangulate,
)

UNIT = [(0, 0), (1, 0), (0, 1)]
BIG_TRIANGLE = [(0, 0), (3, 0), (0, 3)]
SQUARE2 = [(0, 0), (2, 0), (2, 2), (0, 2)]


def _point_set(poly):
    return set(lattice_inventory(poly)[0])


def test_hull_unit_triangle():
    p = convex_hull(UNIT)
    assert p.vertices == ((0, 0), (1, 0), (0, 1))
    assert p.n == 3 and p.i == 0 and p.b == 3


def test_hull_drops_interior_and_duplicate_points():
    p = convex_hull(SQUARE2 + [(1, 1), (0, 0), (2, 0)])
    assert p.vertices == ((0, 0), (2, 0), (2, 2), (0, 2))
    assert p.n == 9 and p.i == 1 and p.b == 8


def test_hull_drops_edge_midpoints_from_vertex_list():
    p = convex_hull([(0, 0), (1, 0), (2, 0), (0, 2), (0, 1), (1, 1)])
    assert p.vertices == ((0, 0), (2, 0), (0, 2))


def test_hull_rejects_degenerate_input():
    with pytest.raises(DegenerateInputError):
        convex_hull([(0, 0), (1, 1)])
    with pytest.raises(DegenerateInputError):
        convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])


@pytest.mark.parametrize("point", [(0.5, 1), (0, 1.0), (1, 2, 3)], ids=["fraction", "float", "3-tuple"])
def test_hull_refuses_a_point_off_the_lattice(point):
    with pytest.raises(DegenerateInputError, match=rf"^not a lattice point: {re.escape(repr(point))}$"):
        convex_hull([(0, 0), (2, 0), point, (0, 2)])


def test_counts_frozen():
    for pts, counts in ((BIG_TRIANGLE, (1, 9)), (SQUARE2, (1, 8)),
                        ([(0, 0), (1, 0), (1, 1), (0, 1)], (0, 4))):
        p = convex_hull(pts)
        assert (p.i, p.b) == counts


def test_lattice_points_of_thin_slanted_triangle():
    # tall skinny shape: per-row interval scan must stay exact
    p = convex_hull([(0, 0), (1, 0), (3, 6)])
    assert p.n == 7
    points = lattice_inventory(p)[0]
    assert (2, 3) in points and (1, 1) in points
    assert p.i == 1 and p.b == 6


def test_area2_matches_pick():
    for pts in (UNIT, BIG_TRIANGLE, SQUARE2, [(0, 0), (2, 0), (1, 1), (0, 1)]):
        p = convex_hull(pts)
        assert _pick_counts(p.vertices)[0] == 2 * p.i + p.b - 2


def test_triangulate_trapezoid():
    p = convex_hull([(0, 0), (2, 0), (1, 1), (0, 1)])
    tris = triangulate(p)
    assert len(tris) == 3
    assert len(tris) == 2 * p.i + p.b - 2


def test_triangulate_pieces_are_primitive_and_cover():
    for pts in (BIG_TRIANGLE, SQUARE2, [(0, 0), (1, 0), (3, 6)]):
        p = convex_hull(pts)
        tris = triangulate(p)
        assert len(tris) == 2 * p.i + p.b - 2
        total = 0
        for a, b, c in tris:
            area2 = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
            assert area2 == 1
            total += area2
        assert total == _pick_counts(p.vertices)[0]


def test_tiling_check_catches_overlap_that_counts_allow():
    # two copies of one half of the unit square: right count, primitive,
    # right total area, and still no tiling
    p = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
    pieces = [((0, 0), (1, 0), (1, 1))] * 2
    assert len(pieces) == 2 * p.i + p.b - 2 == _pick_counts(p.vertices)[0]
    assert tiling_faults(p, pieces) != []
    assert tiling_faults(p, triangulate(p)) == []


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
        min_size=3,
        max_size=9,
    )
)
def test_triangulation_of_random_hulls_tiles_the_polygon(pts):
    try:
        p = convex_hull(pts)
    except DegenerateInputError:
        return
    assert tiling_faults(p, triangulate(p)) == []


def test_map_composition_and_inverse():
    m = UnimodularAffineMap(((2, 1), (1, 1)), (3, -2))
    inv = m.inverse()
    for pt in [(0, 0), (5, -3), (-2, 7)]:
        assert inv.apply(m.apply(pt)) == pt
        assert m.apply(inv.apply(pt)) == pt


def test_map_rejects_non_unimodular():
    with pytest.raises(PreconditionError):
        UnimodularAffineMap(((2, 0), (0, 1)), (0, 0))


def test_canonical_frozen_values():
    assert canonical_form(convex_hull(UNIT)).vertices == ((0, 0), (1, 0), (0, 1))
    assert canonical_form(convex_hull(BIG_TRIANGLE)).vertices == ((0, 0), (3, 0), (0, 3))


def test_canonical_idempotent():
    for pts in (UNIT, BIG_TRIANGLE, SQUARE2, [(0, 0), (1, 0), (3, 6)]):
        c = canonical_form(convex_hull(pts))
        assert canonical_form(c).vertices == c.vertices


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 4))
def test_canonical_invariant_under_unimodular_maps(seed, size):
    p = convex_hull(SQUARE2)
    m = random_unimodular_map(seed, size)
    assert canonical_form(apply_map(p, m)).vertices == canonical_form(p).vertices


def test_equivalent_gives_verified_witness():
    p = convex_hull(BIG_TRIANGLE)
    m = random_unimodular_map(99, 3)
    q = apply_map(p, m)
    same, witness = equivalent(p, q)
    assert same and witness is not None
    assert set(map(witness.apply, _point_set(p))) == _point_set(q)


def test_equivalent_distinguishes_classes():
    same, witness = equivalent(convex_hull(UNIT), convex_hull(SQUARE2))
    assert not same and witness is None


def test_canonical_merges_shear_and_translation():
    # a sheared unit triangle and a far-translated 3x dilation fold back
    # onto the class representatives of their untransformed shapes
    sheared = convex_hull([(0, 0), (1, 0), (1, 1)])
    assert canonical_form(sheared).vertices == canonical_form(convex_hull(UNIT)).vertices
    translated = convex_hull([(5, 7), (8, 7), (5, 10)])
    same, _ = equivalent(translated, convex_hull(BIG_TRIANGLE))
    assert same
    big = canonical_form(convex_hull(BIG_TRIANGLE)).vertices
    assert canonical_form(translated).vertices == big


def test_equivalence_relation_properties():
    base = convex_hull([(0, 0), (2, 0), (0, 2)])
    left = apply_map(base, random_unimodular_map(11, 3))
    right = apply_map(base, random_unimodular_map(22, 3))

    same, w_self = equivalent(base, base)
    assert same
    assert set(map(w_self.apply, _point_set(base))) == _point_set(base)

    fwd, w_fwd = equivalent(base, left)
    back, w_back = equivalent(left, base)
    assert fwd and back
    assert set(map(w_back.apply, _point_set(left))) == _point_set(base)

    hop, w_hop = equivalent(left, right)
    assert hop
    chained = w_hop.compose(w_fwd)
    assert set(map(chained.apply, _point_set(base))) == _point_set(right)


def test_mirror_detection():
    # (0,0),(1,0),(3,6) is chiral: no orientation-preserving map sends it
    # to its mirror image, but reflections are part of the equivalence
    p = convex_hull([(0, 0), (1, 0), (3, 6)])
    mirrored = convex_hull([(x, -y) for x, y in p.vertices])
    same, witness = equivalent(p, mirrored)
    assert same and witness.det == -1


def _reference_anchor_map(u, v, cycle):
    """The map sending u to the origin, edge u->v along +x, and the polygon
    into the upper half-plane with the top row's least x in [0, h), built
    as a shear composed with an edge map."""
    ex, ey = v[0] - u[0], v[1] - u[1]
    g = gcd(abs(ex), abs(ey))
    px, py = ex // g, ey // g
    _, alpha, beta = _egcd(px, py)
    linear = ((alpha, beta), (-py, px))
    base = UnimodularAffineMap(
        linear,
        (-(linear[0][0] * u[0] + linear[0][1] * u[1]),
         -(linear[1][0] * u[0] + linear[1][1] * u[1])),
    )
    pts = [base.apply(p) for p in cycle]
    h = max(p[1] for p in pts)
    assert h >= 1 and min(p[1] for p in pts) == 0
    mtop = min(p[0] for p in pts if p[1] == h)
    shear = UnimodularAffineMap(((1, -(mtop // h)), (0, 1)), (0, 0))
    return shear.compose(base)


def _reference_canonical_cycle(vertices):
    """Oracle: least listing over every anchoring, map by map composition."""
    bases = [
        (vertices, IDENTITY),
        (tuple(_MIRROR.apply(p) for p in reversed(vertices)), _MIRROR),
    ]
    best = best_map = None
    for cycle, base_map in bases:
        k = len(cycle)
        for s in range(k):
            m = _reference_anchor_map(cycle[s], cycle[(s + 1) % k], cycle)
            rotated = cycle[s:] + cycle[:s]
            cand = tuple(m.apply(p) for p in rotated)
            if best is None or cand < best:
                best = cand
                best_map = m.compose(base_map)
    return best, best_map


def _assert_kernel_matches_reference(vertices):
    listing, m = _canonical_cycle(LatticePolygon(vertices))
    ref_listing, ref_map = _reference_canonical_cycle(vertices)
    assert listing == ref_listing
    assert m == ref_map
    assert {m.apply(p) for p in vertices} == set(listing)


@pytest.mark.parametrize(
    "pts",
    [
        [(0, 0), (1, 0), (1, 1), (0, 1)],
        [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)],
        [(0, 0), (2, 0), (0, 2)],
    ],
)
def test_canonical_tie_break_on_symmetric_shapes(pts):
    # several anchorings give the least listing here; the first one in
    # cycle-then-mirror order decides the map
    _assert_kernel_matches_reference(convex_hull(pts).vertices)


@pytest.mark.parametrize(
    "vertices, det",
    [
        # two shortest edges of length 1 beside one of length 3
        (((0, 0), (3, 0), (0, 1)), 1),
        # a unique shortest edge, (3,0)->(0,2); an anchoring on the cycle wins
        (((0, 0), (3, 0), (0, 2)), 1),
        # a unique shortest edge, (2,0)->(0,3), whose anchoring wins only
        # in the mirror image's order
        (((0, 0), (2, 0), (0, 3)), -1),
    ],
)
def test_canonical_prune_on_mixed_edge_lengths(vertices, det):
    # only anchorings on shortest edges are tried; the listing and the map
    # must still equal the reference over every anchoring
    _assert_kernel_matches_reference(vertices)
    listing, m = _canonical_cycle(LatticePolygon(vertices))
    assert listing[:2] == ((0, 0), (1, 0))
    assert m.det == det


@pytest.mark.parametrize(
    "pts",
    [
        UNIT,
        SQUARE2,
        # mixed edge lengths, so only some edges are anchored
        [(0, 0), (3, 0), (4, 1), (4, 3), (1, 3), (0, 1)],
        [(0, 0), (1, 0), (3, 6)],
    ],
)
def test_canonical_cycle_refuses_a_clockwise_cycle(pts):
    # the kernel reads its edge steps from the polygon it is handed, whose
    # `_cycle_steps` pass refuses the first right turn; it is handed only
    # counterclockwise hulls, so this is a bug and must not yield a listing
    clockwise = tuple(reversed(convex_hull(pts).vertices))
    with pytest.raises(InvariantViolation, match=r"not strictly convex counterclockwise"):
        _canonical_cycle(LatticePolygon(clockwise))


def _assert_kernels_match_oracles(poly):
    # the calipers kernel, the lean class key, the one-pass cycle steps and
    # the polygon's fields against the kernels as first written: listing
    # and map, key, and the counts, turn check and edge steps
    cycle = poly.vertices
    counts = _pick_counts(cycle)
    lengths, dirs = _edge_steps(cycle)
    _, i, b = counts
    assert (poly.i, poly.b, poly.n, poly.lengths, poly.dirs) == (
        i, b, i + b, tuple(lengths), tuple(dirs)
    )
    assert _canonical_cycle(poly) == canonical_cycle_oracle(cycle)
    assert _class_key(lengths, dirs) == class_key_oracle(cycle)
    _check_turns(cycle)
    assert _cycle_steps(cycle) == (counts, lengths, dirs)


# a symmetry of Z^2 applied to every point, so that a share of the hulls
# are symmetric and several anchorings tie for the least listing
SYMMETRIES = [None, lambda x, y: (-x, -y), lambda x, y: (-x, y), lambda x, y: (y, x)]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
        min_size=3,
        max_size=14,
    ),
    st.sampled_from(SYMMETRIES),
)
def test_canonical_kernel_matches_reference(pts, symmetry):
    if symmetry is not None:
        pts = pts + [symmetry(x, y) for x, y in pts]
    try:
        p = convex_hull(pts)
    except DegenerateInputError:
        return
    _assert_kernel_matches_reference(p.vertices)
    _assert_kernels_match_oracles(p)


@pytest.mark.parametrize(
    "vertices",
    [
        # shortest edges 0 and 3: the top over edge 3 is vertex 1, which
        # comes before the top over edge 0, vertex 2, so the calipers
        # restart two vertices past edge 3's start rather than go on from
        # vertex 2
        ((-1, 1), (0, -4), (2, 4), (0, 4)),
        # shortest edges 1 and 4, tops at vertices 3 and 2 (wrapped)
        ((-4, 0), (0, -2), (4, -1), (0, 3), (-4, 1)),
    ],
)
def test_calipers_restart_after_a_far_anchored_edge(vertices):
    _assert_kernels_match_oracles(LatticePolygon(vertices))
    _assert_kernel_matches_reference(vertices)


def test_kernels_match_oracles_on_every_class_up_to_genus_6():
    # each class as the inductive walk first meets it and as its
    # canonical form, each polygon with the fields it was built with;
    # g = 0 lists its classes with at most 7 points
    cycles = 0
    for g in range(7):
        reps = list(_inductive_cycles(g, 3 * g + 7).values())
        forms = list(enumerate_classes(g))
        assert len(reps) == len(forms)
        for poly in reps + forms:
            _assert_kernels_match_oracles(poly)
        cycles += len(reps) + len(forms)
    assert cycles == 2 * (12 + 16 + 45 + 120 + 211 + 403 + 714)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_kernels_match_oracles_on_every_projected_polygon(g):
    # the polygons `classify` meets in the atlases of g = 1..3 at dmax 120
    for q in enumerate_g_good(g, 120):
        p = build(q)
        _assert_kernels_match_oracles(project(p, find_unimodular_triple(p)))


POINTS = st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=10)

# turns left at every vertex but winds twice
PENTAGRAM = ((0, 0), (3, 2), (-1, 2), (2, 0), (1, 3))


def _steps_or_message(kernel, cycle):
    """A kernel's result on a cycle, or the message of the
    InvariantViolation it raises; any other exception fails the test."""
    try:
        return kernel(cycle)
    except InvariantViolation as e:
        return str(e)


def _oracle_steps(cycle):
    _check_turns(cycle)
    return (_pick_counts(cycle), *_edge_steps(cycle))


def _faulty_cycle(hull, fault, start, where):
    """The hull's cycle from vertex `start`, with one fault: run clockwise,
    vertex `where` repeated (the first vertex again at the end when
    `where` is past the last), a collinear vertex on the first edge of the
    doubled cycle or a reflex one just inside it, or the star through
    every second vertex of an odd number of them, a pentagram when the
    hull has too few."""
    k = len(hull)
    cycle = hull[start % k:] + hull[:start % k]
    if fault == "clockwise":
        return cycle[::-1]
    if fault == "repeated":
        j = where % (k + 1)
        return cycle + cycle[:1] if j == k else cycle[:j + 1] + cycle[j:]
    if fault in ("collinear", "reflex"):
        (ux, uy), (vx, vy) = cycle[0], cycle[1]
        # one step along the left normal of the first edge, into the hull
        nx, ny = (uy - vy, vx - ux) if fault == "reflex" else (0, 0)
        doubled = tuple((2 * x, 2 * y) for x, y in cycle)
        return doubled[:1] + ((ux + vx + nx, uy + vy + ny),) + doubled[1:]
    if fault == "star":
        odd = k - (k % 2 == 0)
        if odd < 5:
            return tuple((x + cycle[0][0], y + cycle[0][1]) for x, y in PENTAGRAM)
        return tuple(cycle[2 * j % odd] for j in range(odd))
    return cycle


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=7))
def test_cycle_steps_match_the_oracles_on_any_vertex_list(pts):
    # most lists are not strictly convex counterclockwise cycles; each such
    # must raise InvariantViolation with the oracles' message, and none may
    # divide by the gcd of an edge of length 0
    cycle = tuple(pts)
    assert _steps_or_message(_cycle_steps, cycle) == _steps_or_message(_oracle_steps, cycle)


@settings(max_examples=300, deadline=None)
@given(
    POINTS,
    st.sampled_from(["none", "clockwise", "repeated", "collinear", "reflex", "star"]),
    st.integers(0, 20),
    st.integers(0, 20),
)
def test_cycle_steps_refuse_each_faulty_cycle_as_the_oracles_do(pts, fault, start, where):
    try:
        hull = _hull_cycle(pts)
    except DegenerateInputError:
        return
    cycle = _faulty_cycle(hull, fault, start, where)
    got = _steps_or_message(_cycle_steps, cycle)
    assert got == _steps_or_message(_oracle_steps, cycle)
    assert isinstance(got, str) == (fault != "none")


@pytest.mark.parametrize(
    "cycle, message",
    [
        (((0, 0), (1, 0)), "^polygon needs at least 3 vertices$"),
        # an edge of length 0 first, in the middle, last and wrapping round
        (((0, 0), (0, 0), (1, 0), (0, 1)), r"counterclockwise at \(0, 0\)$"),
        (((0, 0), (1, 0), (1, 0), (0, 1)), r"counterclockwise at \(1, 0\)$"),
        (((0, 0), (1, 0), (0, 1), (0, 1)), r"counterclockwise at \(0, 1\)$"),
        (((0, 0), (1, 0), (0, 1), (0, 0)), r"counterclockwise at \(0, 0\)$"),
        (((0, 0), (1, 0), (2, 0), (0, 1)), r"counterclockwise at \(1, 0\)$"),
        (((0, 0), (0, 1), (1, 0)), r"counterclockwise at \(0, 1\)$"),
        (PENTAGRAM, "winds more than once$"),
    ],
)
def test_cycle_steps_refuse_a_cycle_that_is_not_strictly_convex(cycle, message):
    # each turn is checked before its edge is divided by its gcd
    with pytest.raises(InvariantViolation, match=message):
        _cycle_steps(cycle)
    assert re.search(message, _steps_or_message(_oracle_steps, cycle))


@settings(max_examples=150, deadline=None)
@given(POINTS, st.integers(0, 10**6), st.integers(1, 5))
def test_class_key_survives_unimodular_maps_and_mirror(pts, seed, size):
    try:
        cycle = _hull_cycle(pts)
    except DegenerateInputError:
        return
    key = _class_key(*_edge_steps(cycle))
    for m in (random_unimodular_map(seed, size), _MIRROR):
        assert _class_key(*_edge_steps(_hull_cycle([m.apply(v) for v in cycle]))) == key


@settings(max_examples=300, deadline=None)
@given(POINTS, POINTS, st.booleans(), st.integers(0, 10**6))
def test_class_key_equal_exactly_when_canonical_forms_are(pts, other, related, seed):
    # a random second hull is rarely equivalent to the first, so half the
    # pairs take a unimodular image of the first hull's points instead
    if related:
        m = random_unimodular_map(seed, 4)
        other = [m.apply(p) for p in pts]
    try:
        p, q = _hull_cycle(pts), _hull_cycle(other)
    except DegenerateInputError:
        return
    same = _canonical_cycle(LatticePolygon(p))[0] == _canonical_cycle(LatticePolygon(q))[0]
    assert (_class_key(*_edge_steps(p)) == _class_key(*_edge_steps(q))) == same
    assert same or not related


def test_random_map_deterministic_per_seed():
    assert random_unimodular_map(7, 3) == random_unimodular_map(7, 3)
    assert random_unimodular_map(0, 0) == IDENTITY


def test_projection_coordinates_frozen():
    # (1,3,2;7): the outer axis is 1, second 0 and third 2, so wz = 2 and
    # beta = y0 = 1, and the point (a, b, c) has the chart ((a - b - 1)/2, b)
    p = build(Quadruple(1, 3, 2, 7))
    triple = find_unimodular_triple(p)
    rows = p.rows
    assert rows == (((0, 0), 4), ((-1, 1), 3), ((-1, 2), 1))
    assert [chart_point(chart_forms(p.quadruple), u) for u, _ in rows] == [
        (1, 0, 3), (0, 1, 2), (1, 2, 0)
    ]
    assert wpolytope._chart(p, triple) == [(-1, 1), (0, 0), (-1, 2)]
    # the triple's map B^-1 (u - u3), B^-1 = [[-2, -1], [1, 0]], sends the
    # step (1, 0) to (-2, 1) and the row starts to (0, 1), (1, 0), (0, 0);
    # point by point that is the per-point oracle's image, and the triple
    # rows themselves land on the coordinate triangle
    coords = dict(zip(p.points, projection_coordinates(p, triple)))
    images = [(-2 * (s + 1) - (x - 2), s + 1) for s, x in row_image_list((1, 0), rows)]
    assert dict(zip(row_points(p), images)) == coords
    assert [coords[row] for row in triple] == [(1, 0), (0, 1), (0, 0)]
    assert project(p, triple) == convex_hull(images)


def test_projection_coordinates_checks_rows_and_triple(monkeypatch):
    p = build(Quadruple(1, 3, 2, 7))
    triple = find_unimodular_triple(p)
    # a point of degree 2d is off the plane, and the chart refuses it
    with pytest.raises(InvariantViolation, match=r"\(14, 0, 0\) is no lattice point of the"):
        wpolytope._chart(p, [(14, 0, 0)])
    # a chart of determinant 2, the true one with s doubled, gives the
    # triple a chart that is no lattice basis, which the projection refuses
    chart = wpolytope._chart
    monkeypatch.setattr(
        wpolytope, "_chart", lambda p, points: [(2 * s, x) for s, x in chart(p, points)]
    )
    with pytest.raises(InvariantViolation, match=r"the triple's chart has determinant 2, not \+-1$"):
        project(p, triple)


def test_plane_layer_imports_only_the_errors():
    # the projection from the polytope layer lives in wpolytope, which
    # imports polygon2d; polygon2d itself is plane geometry alone
    modules = set()
    for node in ast.walk(ast.parse(Path(polygon2d.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    assert {m for m in modules if m.startswith((".", "wpoly"))} == {".errors"}
    assert not hasattr(polygon2d, "project") and not hasattr(polygon2d, "projection_coordinates")


def test_project_preserves_counts():
    for tup in [(1, 1, 1, 3), (1, 3, 2, 7), (1, 2, 1, 5), (1, 1, 1, 4)]:
        p = build(Quadruple(*tup))
        poly = project(p, find_unimodular_triple(p))
        assert poly.n == p.n
        assert poly.i == p.genus


def test_projected_hull_shape_frozen():
    # three of the eight image points sit on hull edges without being
    # vertices, so the strict hull is a quadrilateral
    p = build(Quadruple(1, 3, 2, 7))
    poly = project(p, find_unimodular_triple(p))
    assert poly.vertices == ((-6, 4), (0, 0), (1, 0), (0, 1))
    assert (poly.i, poly.b, poly.n) == (1, 7, 8)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
        min_size=3,
        max_size=10,
    )
)
def test_hull_of_random_points_obeys_pick(pts):
    try:
        p = convex_hull(pts)
    except DegenerateInputError:
        return
    # i and b recounted point by point against every edge
    points, listed_interior = lattice_inventory(p)
    boundary = [q for q in points if on_boundary(q, p.vertices)]
    interior = tuple(q for q in points if not on_boundary(q, p.vertices))
    assert len(boundary) == p.b
    assert interior == listed_interior
    assert _pick_counts(p.vertices)[0] == 2 * len(interior) + len(boundary) - 2
    assert p.n == p.i + p.b
    assert set(p.vertices) <= set(points)


def _box_oracle(vertices):
    """Every bounding-box point on the inner side of every CCW edge, row by row."""
    k = len(vertices)
    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    return tuple(
        (x, y)
        for y in range(min(ys), max(ys) + 1)
        for x in range(min(xs), max(xs) + 1)
        if all(
            (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0]) >= 0
            for a, b in ((vertices[j], vertices[(j + 1) % k]) for j in range(k))
        )
    )


@pytest.mark.parametrize(
    "pts",
    [[(0, 0), (1, 0), (4, 13)], [(0, 0), (1, 0), (3, 6)], [(0, 0), (13, 4), (0, 1)]]
    + [[(0, 0), (1, 0), (0, 2 * g + 2)] for g in range(1, 7)]
    + [[(0, 0), (2, 0), (0, 2 * g + 2)] for g in range(1, 7)],
)
def test_row_scan_matches_box_oracle_on_thin_shapes(pts):
    p = convex_hull(pts)
    assert lattice_inventory(p)[0] == _box_oracle(p.vertices)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-15, 15), st.integers(-15, 15)),
        min_size=3,
        max_size=8,
    )
)
def test_row_scan_matches_box_oracle(pts):
    try:
        p = convex_hull(pts)
    except DegenerateInputError:
        return
    assert lattice_inventory(p)[0] == _box_oracle(p.vertices)


def _slanted(h):
    """Triangles and quadrilaterals h rows high with 3 or 4 edges, some with
    a horizontal bottom or top edge, none with a vertical one."""
    return [
        [(0, 0), (1, 0), (7, h)],
        [(0, 0), (3, 0), (h // 5, h)],
        [(0, 0), (-5, h), (-4, h)],
        [(0, 0), (h // 3, h), (h // 3 - 2, h)],
        [(0, 0), (2, 1), (11, h)],
        [(0, 0), (4, 1), (-3, h)],
        [(0, 0), (2, 0), (9, h), (8, h)],
        [(0, 0), (1, 0), (h // 7 + 1, h - 1), (h // 7, h)],
    ]


@pytest.mark.parametrize("pts", [pts for h in (37, 128, 211, 300) for pts in _slanted(h)])
def test_row_scan_matches_box_oracle_on_tall_shapes(pts):
    # many more rows than edges: each edge is walked over its whole height
    p = convex_hull(pts)
    assert lattice_inventory(p)[0] == _box_oracle(p.vertices)
    points, interior = lattice_inventory(p)
    assert interior == tuple(q for q in points if not on_boundary(q, p.vertices))
    assert p.b == sum(gcd(b[0] - a[0], b[1] - a[1])
                      for a, b in zip(p.vertices, p.vertices[1:] + p.vertices[:1]))


SYMMETRIC = [
    [(0, 0), (1, 0), (1, 1), (0, 1)],
    [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)],
    [(0, 0), (2, 0), (0, 2)],
    [(-1, -1), (1, -1), (1, 1), (-1, 1)],
    [(0, 0), (3, 0), (0, 3)],
]


def _row_major(points):
    return tuple(sorted(points, key=lambda q: (q[1], q[0])))


def _assert_form_lists_the_mapped_inventory(p):
    # the canonical polygon's points are its source's, carried by the
    # canonical map and listed in the row scan's order
    to_canonical = _canonical_cycle(p)[1]
    points, interior = lattice_inventory(p)
    assert lattice_inventory(canonical_form(p)) == (
        _row_major(map(to_canonical.apply, points)),
        _row_major(map(to_canonical.apply, interior)),
    )


@pytest.mark.parametrize(
    "pts", SYMMETRIC + [[(0, 0), (2, 0), (0, 3)], [(0, 0), (3, 0), (0, 2)], [(0, 0), (1, 0), (3, 6)]]
)
def test_canonical_form_carries_the_rescanned_inventory(pts):
    # symmetric shapes tie between anchorings; (0,0),(2,0),(0,3) is won by
    # the mirror image, so its map has det -1
    _assert_form_lists_the_mapped_inventory(convex_hull(pts))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=3, max_size=9),
        st.sampled_from(SYMMETRIC),
    ),
    st.integers(0, 10**6),
    st.integers(0, 4),
    st.booleans(),
)
def test_canonical_form_carries_the_rescanned_inventory_of_random_hulls(pts, seed, size, mirror):
    m = random_unimodular_map(seed, size)
    if mirror:
        m = m.compose(_MIRROR)
    try:
        p = convex_hull([m.apply(q) for q in pts])
    except DegenerateInputError:
        return
    _assert_form_lists_the_mapped_inventory(p)


def _off_by_a_translation(poly):
    cycle, m = _canonical_cycle(poly)
    return cycle, UnimodularAffineMap(m.linear, (m.translation[0] + 1, m.translation[1]))


def _off_by_one_vertex(poly):
    cycle, m = _canonical_cycle(poly)
    (x, y), rest = cycle[-1], cycle[:-1]
    return rest + ((x + 1, y),), m


@pytest.mark.parametrize("fault", [_off_by_a_translation, _off_by_one_vertex])
def test_canonical_form_refuses_a_wrong_canonical_map(monkeypatch, capsys, fault):
    # the carried inventory is only as good as the map, so a map that
    # misses the cycle is a bug: exit 2, not a wrong polygon
    monkeypatch.setattr(polygon2d, "_canonical_cycle", fault)
    with pytest.raises(InvariantViolation, match="canonical map does not send"):
        canonical_form(convex_hull([(0, 0), (3, 0), (1, 4)]))
    assert main(["poly", "analyze", "1", "3", "2", "7"]) == 2
    assert "canonical map does not send" in capsys.readouterr().err


def _miscounted(monkeypatch, pts, di, db):
    """The hull of pts built by a `_cycle_steps` pass that miscounts it by
    di interior and db boundary points, twice the area kept consistent."""
    real = polygon2d._cycle_steps

    def miscount(cycle):
        (area2, i, b), lengths, dirs = real(cycle)
        return (area2 + 2 * di + db, i + di, b + db), lengths, dirs

    with monkeypatch.context() as m:
        m.setattr(polygon2d, "_cycle_steps", miscount)
        return convex_hull(pts)


def test_canonical_form_refuses_a_source_whose_counts_disagree(monkeypatch):
    # the form is built by its own pass, which counts right
    p = _miscounted(monkeypatch, [(0, 0), (3, 0), (1, 4)], 1, 0)
    true = convex_hull(p.vertices)
    assert (p.i, p.b, p.n) == (true.i + 1, true.b, true.n + 1)
    with pytest.raises(InvariantViolation, match="its source"):
        canonical_form(p)


def test_equivalent_refuses_a_witness_that_misses_the_vertices(monkeypatch, capsys):
    # only p's canonical map is off by a translation, so the witness would
    # send p's vertices one step right of q's; the map is refused where it
    # is made, and so is the source's when `map curve` transports a curve
    p = convex_hull([(0, 0), (3, 0), (1, 4)])
    q = convex_hull([(5, 7), (8, 7), (6, 11)])
    source = build(Quadruple(1, 3, 2, 7))
    shifted = {p.vertices, project(source, find_unimodular_triple(source)).vertices}

    def fault(poly):
        return (_off_by_a_translation if poly.vertices in shifted else _canonical_cycle)(poly)

    monkeypatch.setattr(polygon2d, "_canonical_cycle", fault)
    with pytest.raises(InvariantViolation, match="canonical map does not send"):
        equivalent(p, q)
    assert main(["map", "curve", "1", "3", "2", "7", "1", "2", "3", "7"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "canonical map does not send" in err


def test_lattice_inventory_refuses_counts_that_disagree_with_the_scan(monkeypatch):
    for di, db in ((1, 0), (0, -1)):
        wrong = _miscounted(monkeypatch, [(0, 0), (3, 0), (1, 4)], di, db)
        with pytest.raises(InvariantViolation, match="lattice counts disagree"):
            lattice_inventory(wrong)


def test_lattice_polygon_refuses_a_cycle_it_cannot_check():
    # the constructor takes only the vertices and checks them by its one
    # pass; every cycle built into a polygon is the program's own, so a
    # clockwise cycle, a doubled vertex or a pentagram, which turns left at
    # every vertex, is a bug, not bad input
    for cycle, message in [
        (((0, 0), (0, 1), (1, 0)), r"not strictly convex counterclockwise at \(0, 1\)$"),
        (((0, 0), (1, 0), (1, 0), (0, 1)), r"not strictly convex counterclockwise at \(1, 0\)$"),
        (PENTAGRAM, "winds more than once$"),
    ]:
        with pytest.raises(InvariantViolation, match=message):
            LatticePolygon(cycle)
