"""Class atlases, dual-method enumeration, basis change, curve transport."""
import functools
import hashlib
import itertools
import math
import re
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpoly import (
    Quadruple,
    UnimodularAffineMap,
    WeightedCurve,
    basis_change,
    build,
    canonical_form,
    enumerate_classes,
    enumerate_g_good,
    equivalent,
    find_unimodular_triple,
    group_by_class,
    make_curve,
    map_curve,
    project,
)
from wpoly import classify, polygon2d, wpolytope
from wpoly.classify import (
    _angular_directions,
    _box_cycles,
    _growth_points,
    _inductive_cycles,
    _splices,
    _vertex_keys,
    atlas_stabilization,
    stabilization_steps,
)
from wpoly.cli import main
from wpoly.errors import DegenerateInputError, InvariantViolation, PreconditionError
from wpoly.polygon2d import (
    _MIRROR,
    _canonical_cycle,
    _class_key,
    _cycle_steps,
    _hull_cycle,
    convex_hull,
    lattice_inventory,
)

from lattice_oracles import (
    _check_turns, _edge_steps, _pick_counts, atlas_oracle, canonical_cycles, grow_cycle, keeps,
    map_curve_oracle, random_unimodular_map, row_image_list, splices_under_old_bound,
    vertex_dropped,
)

G1_CLASS_COUNT = 16
G2_CLASS_COUNT = 45
# Castryck, "Moving out the edges of a lattice polygon" (2012), Table 1.
CASTRYCK_COUNTS = {1: 16, 2: 45, 3: 120, 4: 211, 5: 403, 6: 714, 7: 1023, 8: 1830}
# sha256 of group_by_class(g, 240).to_json_bytes(); atlas bytes are part
# of the behaviour contract, so a change here must be deliberate.
ATLAS_240_SHA256 = {
    1: "c01a7d113d13944317cd2f12521dbdb6682345e2249526dc7f43b24fb8ac64ef",
    2: "f59cd8be33d1508f05d3c7d2ed5afb4deb9d4517798ffdfc06c5cc7c76691153",
    3: "6862f3d2a09547a4b1663ec7eea292b791114b185dab6caaee218bb1c9c48606",
}


def _projected(q):
    p = build(q)
    return project(p, find_unimodular_triple(p))


def test_atlas_g1_d7_structure():
    atlas = group_by_class(1, 7)
    assert atlas.g == 1 and atlas.d_max == 7
    rows = [([*q.weights, q.d], e.canonical.n) for e in atlas.classes for q in e.members]
    assert rows == [
        ([1, 2, 3, 6], 7),
        ([1, 2, 3, 7], 8),
        ([1, 1, 2, 4], 9),
        ([1, 1, 1, 3], 10),
    ]


def test_atlas_classes_sorted_by_point_count():
    atlas = group_by_class(1, 30)
    ns = [e.canonical.n for e in atlas.classes]
    assert ns == sorted(ns)
    assert len(atlas.classes) == 8


def test_atlas_json_dict_shape():
    d = group_by_class(1, 7).to_json_dict()
    assert d["version"] == 1
    assert d["g"] == 1 and d["d_max"] == 7
    assert [c["n"] for c in d["classes"]] == [7, 8, 9, 10]
    assert d["classes"][0]["canonical"] == [[0, 0], [1, 0], [3, 6]]
    assert d["classes"][0]["members"] == [[1, 2, 3, 6]]


def test_atlas_bytes_deterministic():
    first = group_by_class(1, 20)
    again = group_by_class(1, 20)
    assert first.to_json_bytes() == again.to_json_bytes()
    assert first.to_json_bytes().endswith(b"\n")


@pytest.mark.parametrize("g", sorted(ATLAS_240_SHA256))
def test_atlas_bytes_golden(g):
    digest = hashlib.sha256(group_by_class(g, 240).to_json_bytes()).hexdigest()
    assert digest == ATLAS_240_SHA256[g]


@pytest.mark.parametrize("g", range(1, 7))
def test_atlas_matches_the_memo_free_oracle(g):
    # the oracle groups by canonical form, so a class key that merged two
    # classes would show here
    assert group_by_class(g, 240).to_json_bytes() == atlas_oracle(g, 240).to_json_bytes()


def test_atlas_makes_one_hull_per_row_key(monkeypatch):
    # the memo keeps each charted-rows key's class key, so the 589 members
    # of g = 1..3 at d_max 120 need only the hulls of their 73 keys, which
    # hold 73 point sets; each hull takes the chart's step (1, 0)
    made = []
    rows_hull = classify._rows_hull

    def counted(p, sigma, rows):
        assert sigma == (1, 0)
        made.append(rows)
        return rows_hull(p, sigma, rows)

    monkeypatch.setattr(classify, "_rows_hull", counted)
    members = sum(
        len(entry.members) for g in (1, 2, 3) for entry in group_by_class(g, 120).classes
    )
    point_sets = {frozenset(row_image_list((1, 0), key)) for key in made}
    assert (members, len(made), len(set(made)), len(point_sets)) == (589, 73, 73, 73)


@pytest.mark.parametrize(
    "genera, d_max, calls", [((2,), 10**4, 14), ((1, 2, 3), 120, 48)], ids=["g2-d10000", "g1-3-d120"]
)
def test_atlas_canonicalises_once_per_class(monkeypatch, genera, d_max, calls):
    # one canonical form per class, not per projected point set (84 sets
    # for g = 1..3 at d_max 120)
    count = []

    def canonical(cycle):
        count.append(cycle)
        return _canonical_cycle(cycle)

    monkeypatch.setattr(polygon2d, "_canonical_cycle", canonical)
    classes = sum(len(group_by_class(g, d_max).classes) for g in genera)
    assert len(count) == classes == calls


def test_first_member_of_a_row_key_checks_the_projected_interior(monkeypatch):
    # the hull of each projected-rows key is checked against the polytope
    # of the key's first member, here the last key's, whose genus is
    # handed on one short
    seen = set()
    for q in enumerate_g_good(1, 30):
        key = build(q).rows
        if key not in seen:
            seen.add(key)
            first = q
    build_checked = classify._build

    def corrupted(q, g):
        p = build_checked(q, g)
        return replace(p, genus=p.genus - 1) if q == first else p

    monkeypatch.setattr(classify, "_build", corrupted)
    message = rf"^{re.escape(str(first))}: projected interior count 1 != 0$"
    with pytest.raises(InvariantViolation, match=message) as excinfo:
        group_by_class(1, 30)
    assert excinfo.traceback[-1].name == "_rows_hull"


def test_projection_that_loses_a_point_is_caught(monkeypatch):
    # the hull of the projected rows holds exactly their images and keeps
    # the interior count, but has one point fewer than the polytope
    build_checked = classify._build
    monkeypatch.setattr(classify, "_build", lambda q, g: vertex_dropped(build_checked(q, g)))
    with pytest.raises(InvariantViolation, match=r"^\(1,1,1;3\): projected point count 9 != 10$"):
        group_by_class(1, 30)


def test_atlas_csv_golden():
    atlas = group_by_class(1, 7)
    assert atlas.to_csv_text() == (
        "w0,w1,w2,d,n,class_index\n"
        "1,2,3,6,7,0\n"
        "1,2,3,7,8,1\n"
        "1,1,2,4,9,2\n"
        "1,1,1,3,10,3\n"
    )


def test_atlas_members_all_share_class_polygon():
    atlas = group_by_class(1, 30)
    for entry in atlas.classes:
        for q in entry.members:
            poly = _projected(q)
            same, _ = equivalent(poly, entry.canonical)
            assert same, (q, entry.canonical.vertices)


def test_class_key_independent_of_triple_choice():
    # the canonical form must not depend on which |det| = d row triple
    # anchored the projection
    q = Quadruple(1, 3, 2, 7)
    p = build(q)
    base = canonical_form(project(p, find_unimodular_triple(p))).vertices
    found = 0
    for triple in itertools.combinations(p.points, 3):
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = triple
        det = (
            a0 * (b1 * c2 - b2 * c1)
            - a1 * (b0 * c2 - b2 * c0)
            + a2 * (b0 * c1 - b1 * c0)
        )
        if abs(det) != q.d:
            continue
        found += 1
        assert canonical_form(project(p, triple)).vertices == base
    assert found >= 10


def test_enum_inductive_g1_is_complete():
    classes = enumerate_classes(1, "inductive")
    assert len(classes) == G1_CLASS_COUNT
    assert all(p.i == 1 for p in classes)
    ns = sorted(p.n for p in classes)
    assert ns[0] == 4 and ns[-1] == 10


def test_enum_box_g1_default_bound_matches_inductive():
    box = {p.vertices for p in enumerate_classes(1, "box")}
    ind = {p.vertices for p in enumerate_classes(1, "inductive")}
    assert box == ind


def test_enum_box_bound3_misses_exactly_the_wide_triangle():
    # the triangle hull of (0,0),(2,0),(0,4) has width 4 in every
    # direction independent of x, so no 3x3 grid contains it
    box3 = canonical_cycles(_box_cycles(1, 3, 10))
    ind = {p.vertices for p in enumerate_classes(1, "inductive")}
    assert len(box3) == 15
    assert ind - box3 == {((0, 0), (2, 0), (0, 4))}


def test_enum_checks_the_interior_count_of_every_class(monkeypatch):
    # a closed chain the walk wrongly accepts, here with i = 2 and n = 10,
    # must not come back as a genus-1 class; it is given as the canonical
    # listing of conv{(0,0),(5,0),(0,2)}, which the message names
    box_cycles = classify._box_cycles
    wrong = ((0, 0), (1, 0), (5, 10))
    monkeypatch.setattr(
        classify, "_box_cycles",
        lambda *args: {**box_cycles(*args), _class_key(*_edge_steps(wrong)): wrong},
    )
    message = rf"^class {re.escape(str(wrong))} has 2 interior points, not 1$"
    with pytest.raises(InvariantViolation, match=message):
        enumerate_classes(1, "box")


def test_enum_g0_counts():
    classes = enumerate_classes(0, "inductive", n_max=4)
    by_n = {}
    for p in classes:
        by_n.setdefault(p.n, []).append(p.vertices)
    assert len(by_n[3]) == 1
    assert len(by_n[4]) == 2


def test_enum_g0_box_bound_follows_n_max():
    # genus-0 strips need width n - 2, so the default box bound grows with n_max
    box = {p.vertices for p in enumerate_classes(0, "box", n_max=9)}
    assert box == {p.vertices for p in enumerate_classes(0, "inductive", n_max=9)}
    assert len(box) == 20


def test_enum_g2_inductive_count():
    assert len(enumerate_classes(2, "inductive")) == G2_CLASS_COUNT


@pytest.mark.parametrize("g", sorted(CASTRYCK_COUNTS))
def test_enum_inductive_counts_match_castryck(g):
    assert len(enumerate_classes(g, "inductive")) == CASTRYCK_COUNTS[g]


@pytest.mark.parametrize("g", [3, 4])
def test_enum_box_counts_match_castryck(g):
    box = enumerate_classes(g, "box")
    assert len(box) == CASTRYCK_COUNTS[g]
    assert box == enumerate_classes(g, "inductive")


@pytest.mark.parametrize("g", range(9))
def test_class_keys_tell_every_enumerated_class_apart(g):
    # the classes of g = 1..8 are complete by Castryck's counts above, so
    # distinct keys here show the key is complete on every class the
    # enumerators meet; g = 0 lists its classes with at most 7 points
    classes = enumerate_classes(g)
    assert len({_class_key(*_edge_steps(p.vertices)) for p in classes}) == len(classes)


def _margin_growth_points(cycle, margin):
    """Brute oracle: the points of the cycle's bounding box grown by margin
    whose hull with the cycle gains exactly that point."""
    n = sum(_pick_counts(cycle)[1:])
    xs = [p[0] for p in cycle]
    ys = [p[1] for p in cycle]
    return {
        (qx, qy)
        for qx in range(min(xs) - margin, max(xs) + margin + 1)
        for qy in range(min(ys) - margin, max(ys) + margin + 1)
        if sum(_pick_counts(_hull_cycle(list(cycle) + [(qx, qy)]))[1:]) == n + 1
    }


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=3, max_size=8))
def test_growth_points_cover_margin_oracle(pts):
    try:
        poly = convex_hull(pts)
    except DegenerateInputError:
        return
    growth = {q for _, q in _every_growth_point(poly.vertices)}
    assert _margin_growth_points(poly.vertices, 2 * poly.n + 4) <= growth
    assert not growth & set(lattice_inventory(poly)[0])


def _rotations(cycle):
    return {cycle[j:] + cycle[:j] for j in range(len(cycle))}


def _every_growth_point(cycle):
    """`_growth_points` with no edge left out."""
    lengths, dirs = _edge_steps(cycle)
    return _growth_points(cycle, lengths, dirs, max(lengths))


def _growth_set(cycle):
    return {q for _, q in _every_growth_point(cycle)}


def _rep(cycle):
    """A cycle with its counts and edge steps, as `_splices` takes it, all
    from the oracles."""
    return (cycle, _pick_counts(cycle), *_edge_steps(cycle))


def _assert_splices_match_oracles(cycle, g):
    """The splices are exactly the growth points q whose re-hulled cycle + q
    the oracle grows and keeps, each once, with the re-hulled counts, a
    child equal to the re-hulled cycle up to rotation, starting at q, and
    that child's own edge steps."""
    n = sum(_pick_counts(cycle)[1:])
    spliced = list(_splices(*_rep(cycle), g))
    kept = set()
    for q in _growth_set(cycle):
        grown = grow_cycle(cycle, q, n, g)
        if grown is not None and keeps(grown, q):
            kept.add(q)
    assert sorted(q for q, _ in spliced) == sorted(kept)
    for q, (child, counts, lengths, dirs) in spliced:
        grown = _hull_cycle(list(cycle) + [q])
        assert counts == _pick_counts(grown)
        assert child[0] == q
        assert child in _rotations(grown)
        assert (lengths, dirs) == _edge_steps(child)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=10))
def test_splices_match_rehull_and_key_oracles(pts):
    try:
        cycle = _hull_cycle(pts)
    except DegenerateInputError:
        return
    interior = _pick_counts(cycle)[1]
    for g in sorted({0, 1, 2, interior, interior + 1, interior + 3}):
        _assert_splices_match_oracles(cycle, g)


@pytest.mark.parametrize(
    "cycle, q, g, child",
    [
        # q on the line of the edge (0,0)->(1,0): a collinear extension
        (((0, 0), (1, 0), (0, 1)), (2, 0), 0, ((0, 0), (2, 0), (0, 1))),
        # the far apex of the g = 6 class conv{(0,0),(1,0),(4,13)}
        (((0, 0), (1, 0), (3, 9)), (4, 13), 6, ((0, 0), (1, 0), (4, 13))),
        # a run of three edges, collinear at both ends: (0,1) and (1,1) drop
        (((0, 1), (1, 1), (2, 2), (0, 2)), (0, 0), 1, ((0, 0), (2, 2), (0, 2))),
    ],
)
def test_splice_pinned_cases(cycle, q, g, child):
    spliced = {p: rep[0] for p, rep in _splices(*_rep(cycle), g)}
    assert spliced[q] in _rotations(child)
    _assert_splices_match_oracles(cycle, g)


def test_an_edge_too_long_for_g_is_skipped_whole():
    # this cycle has i = 1: a point beyond its bottom edge, of length 2,
    # makes (1,0) interior too, so at g = 1 nothing is spliced below it,
    # while (-1,0), beyond the left edge, is
    cycle = ((0, 0), (2, 0), (1, 2), (0, 1))
    assert _pick_counts(cycle) == (5, 1, 5)
    below = {q for j, q in _every_growth_point(cycle) if j == 0}
    assert below and all(qy == -1 for _, qy in below)
    assert [q for q, _ in _splices(cycle, (5, 1, 5), *_edge_steps(cycle), 1)] == [(-1, 0)]
    assert all(grow_cycle(cycle, q, 6, 1) is None for q in below)
    _assert_splices_match_oracles(cycle, 1)


def test_a_point_beyond_two_edges_is_spliced_once():
    # (-1,-1) lies one step beyond both legs of the unit triangle, edges 2
    # and 0 of one run; it comes only with edge 2, the first of that run,
    # and is spliced once
    cycle = ((0, 0), (1, 0), (0, 1))
    assert [j for j, q in _every_growth_point(cycle) if q == (-1, -1)] == [2]
    spliced = [
        (q, counts, child)
        for q, (child, counts, _, _) in _splices(cycle, (1, 0, 3), *_edge_steps(cycle), 1)
        if q == (-1, -1)
    ]
    assert spliced == [((-1, -1), (3, 1, 3), ((-1, -1), (1, 0), (0, 1)))]
    _assert_splices_match_oracles(cycle, 1)


def _assert_growth_points_start_their_runs(cycle):
    # each point comes with the first edge of its run only: one step
    # beyond edge j, f_j(q) = cross(p_j, q - v_j) = -1, and on or inside
    # the line of edge j - 1
    dirs = _edge_steps(cycle)[1]

    def f(e, q):
        (ux, uy), (px, py) = cycle[e], dirs[e]
        return px * (q[1] - uy) - py * (q[0] - ux)

    for j, q in _every_growth_point(cycle):
        assert f(j, q) == -1 and f(j - 1, q) >= 0


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=10))
def test_no_growth_point_lies_beyond_the_edge_before_its_own(pts):
    try:
        cycle = _hull_cycle(pts)
    except DegenerateInputError:
        return
    _assert_growth_points_start_their_runs(cycle)


def _parents_met(genera):
    """(cycle, counts, lengths, dirs, g) of every `_splices` call of the
    inductive enumeration at each of the genera."""
    met = []
    real = classify._splices

    def recording(*args):
        met.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "_splices", recording)
        for g in genera:
            enumerate_classes(g)
    return met


def test_splices_match_the_old_bound_on_every_parent_up_to_genus_6():
    # the bound f_{j-1}(q) >= 0 leaves out exactly the points the old
    # back walk dropped as spliced from an earlier edge, so every parent
    # the enumerations of g <= 6 meet gives the same splices in order
    parents = _parents_met(range(7))
    assert len(parents) > 3000
    for cycle, counts, lengths, dirs, g in parents:
        _assert_growth_points_start_their_runs(cycle)
        spliced = [(q, rep[1], rep[0]) for q, rep in _splices(cycle, counts, lengths, dirs, g)]
        assert spliced == list(splices_under_old_bound(cycle, counts, g))


def test_growth_points_reach_the_far_apex():
    # the class g = 6 needs conv{(0,0),(1,0),(4,13)}: its apex lies 4 rows
    # above the hull of its other 8 points, beyond a bounding-box margin of 2
    rest = [p for p in lattice_inventory(convex_hull([(0, 0), (1, 0), (4, 13)]))[0] if p != (4, 13)]
    cycle = convex_hull(rest).vertices
    assert cycle == ((0, 0), (1, 0), (3, 9))
    assert (4, 13) in _growth_set(cycle)
    assert (4, 13) not in _margin_growth_points(cycle, 2)
    spliced = {q: (rep[1], rep[0]) for q, rep in _splices(*_rep(cycle), 6)}
    assert spliced[(4, 13)] == ((13, 6, 3), ((4, 13), (0, 0), (1, 0)))


@pytest.mark.parametrize(
    "cycle, message",
    [
        # a collinear vertex at (1, 0)
        (((0, 0), (1, 0), (2, 0), (0, 1)), "not strictly convex"),
        # a pentagram: it turns left at every vertex but winds twice
        (((0, 0), (3, 2), (-1, 2), (2, 0), (1, 3)), "winds more than once"),
    ],
)
def test_splices_refuse_a_parent_that_is_not_strictly_convex(monkeypatch, cycle, message):
    # a point sees one run of edges of a strictly convex cycle, so that is
    # checked on each child as it is built, before it is keyed or handed
    # on as a parent: here every child the splices build is this cycle
    monkeypatch.setattr(classify, "_cycle_steps", lambda child: _cycle_steps(cycle))
    start = ((0, 0), (1, 0), (0, 1))
    with pytest.raises(InvariantViolation, match=message):
        list(_splices(*_rep(start), 3))


def test_a_level_representative_that_is_not_strictly_convex_is_a_bug(monkeypatch, capsys):
    # every child of the 5-point level is built with its first vertex
    # doubled, an edge of length 0
    real = classify._cycle_steps

    def doubled(cycle):
        counts, _, _ = real(cycle)
        return real(cycle[:1] + cycle if sum(counts[1:]) == 5 else cycle)

    monkeypatch.setattr(classify, "_cycle_steps", doubled)
    with pytest.raises(InvariantViolation, match="not strictly convex"):
        enumerate_classes(1)
    assert main(["polygons", "enum", "--genus", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invariant violation: vertex cycle is not strictly convex")


def _unfiltered_inductive_cycles(g, n_max):
    """Oracle: the inductive growth with no vertex-key filter, which
    canonicalises every accepted growth."""
    current = {_canonical_cycle(((0, 0), (1, 0), (0, 1)))[0]}
    found = set(current) if g == 0 else set()
    for level_n in range(3, n_max):
        grown = (
            grow_cycle(c, q, level_n, g)
            for c in current
            for q in _growth_set(c)
        )
        current = {_canonical_cycle(c)[0] for c in grown if c is not None}
        found |= {c for c in current if _pick_counts(c)[1] == g}
    return found


@pytest.mark.parametrize(
    "g, n_max", [(g, 3 * g + 7) for g in range(1, 6)] + [(0, n) for n in range(3, 12)]
)
def test_inductive_filter_matches_unfiltered_growth(g, n_max):
    filtered = canonical_cycles(_inductive_cycles(g, n_max))
    assert filtered == _unfiltered_inductive_cycles(g, n_max)
    assert filtered


def _keys_by_vertex(cycle):
    return dict(zip(cycle, _vertex_keys(*_edge_steps(cycle))))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=10),
    st.integers(0, 10**6),
    st.integers(1, 4),
)
def test_vertex_keys_survive_unimodular_maps_and_mirror(pts, seed, size):
    try:
        cycle = _hull_cycle(pts)
    except DegenerateInputError:
        return
    keys = _keys_by_vertex(cycle)
    assert all(det > 0 for _, _, det in keys.values())
    for m in (random_unimodular_map(seed, size), _MIRROR):
        image = _keys_by_vertex(_hull_cycle([m.apply(v) for v in cycle]))
        assert {m.apply(v): key for v, key in keys.items()} == image


def test_height_one_apex_never_carries_the_largest_key():
    # removing the apex of conv{(0,0),(3,0),(0,1)} leaves a segment, so the
    # completeness argument needs the apex key strictly below the largest
    keys = _keys_by_vertex(((0, 0), (3, 0), (0, 1)))
    assert keys[(0, 1)] == (1, 1, 3)
    assert keys[(0, 1)] < max(keys.values()) == (1, 3, 1)


def test_inductive_filter_canonicalises_fewer_than_accepted_growths(monkeypatch):
    # each class is canonicalised once, however many accepted growths and
    # kept children reach it
    calls = {"canonical": 0, "accepted": 0}

    def canonical(cycle):
        calls["canonical"] += 1
        return _canonical_cycle(cycle)

    def splices(cycle, counts, lengths, dirs, g):
        n = sum(counts[1:])
        calls["accepted"] += sum(grow_cycle(cycle, q, n, g) is not None for q in _growth_set(cycle))
        yield from _splices(cycle, counts, lengths, dirs, g)

    monkeypatch.setattr(polygon2d, "_canonical_cycle", canonical)
    monkeypatch.setattr(classify, "_splices", splices)
    assert len(enumerate_classes(2)) == G2_CLASS_COUNT
    assert calls["canonical"] == G2_CLASS_COUNT < calls["accepted"]


def test_box_walk_canonicalises_once_per_class(monkeypatch):
    # the g = 2 walk closes 2598 cycles with 2 interior points, keys each
    # one, and canonicalises only the first one of each of the 45 classes;
    # the counts pin the closures, which no cut of the walk may lose
    calls = {"canonical": 0, "keyed": 0}

    def canonical(cycle):
        calls["canonical"] += 1
        return _canonical_cycle(cycle)

    def class_key(lengths, dirs):
        calls["keyed"] += 1
        return _class_key(lengths, dirs)

    monkeypatch.setattr(polygon2d, "_canonical_cycle", canonical)
    monkeypatch.setattr(classify, "_class_key", class_key)
    assert len(enumerate_classes(2, "box")) == G2_CLASS_COUNT
    assert calls["canonical"] == G2_CLASS_COUNT
    assert calls["keyed"] == 2598
    assert len(enumerate_classes(1, "box")) == CASTRYCK_COUNTS[1]
    assert calls["keyed"] == 3010


@pytest.mark.parametrize("g", [0, 1, 2, 3])
def test_box_walk_keys_each_closed_cycle_by_its_own_steps(monkeypatch, g):
    # the steps the walk carries, with the chord's, are the unchecked edge
    # steps of the chain it closes, on every keyed cycle
    keyed = 0

    def class_key(lengths, dirs):
        nonlocal keyed
        keyed += 1
        chain = tuple(sys._getframe(1).f_locals["chain"])
        assert (lengths, dirs) == _edge_steps(chain), chain
        return _class_key(lengths, dirs)

    monkeypatch.setattr(classify, "_class_key", class_key)
    n_max = 3 * g + 7
    found = _box_cycles(g, max(3, 2 * g + 2 if g else n_max - 2), n_max)
    assert keyed >= len(found) > 0
    assert all(key == _class_key(*_edge_steps(cycle)) for key, cycle in found.items())


def _shifted_triangle_listing(vertices):
    # the true map, but the listing of the class of (1,1,1;3) one step right
    cycle, m = _canonical_cycle(vertices)
    if cycle == ((0, 0), (3, 0), (0, 3)):
        cycle = tuple((x + 1, y) for x, y in cycle)
    return cycle, m


def test_every_listed_class_passes_the_canonical_map_check(monkeypatch, capsys, tmp_path):
    # a listing its map does not reach is a bug in the enumerators and the
    # atlas alike: exit 2, not a shifted class
    monkeypatch.setattr(polygon2d, "_canonical_cycle", _shifted_triangle_listing)
    message = r"^canonical map does not send .* onto \(\(1, 0\), \(4, 0\), \(1, 3\)\)$"
    for method in ("inductive", "box"):
        with pytest.raises(InvariantViolation, match=message):
            enumerate_classes(1, method)
    assert main(["polygons", "enum", "--genus", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invariant violation: canonical map does not send")
    with pytest.raises(InvariantViolation, match=message):
        group_by_class(1, 30)
    atlas_dir = tmp_path / "atlas"
    assert main(["classify", "--genus", "1", "--dmax", "30", "--atlas-dir", str(atlas_dir)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invariant violation: canonical map does not send")
    assert not atlas_dir.exists()


@pytest.mark.parametrize("method", ["inductive", "box"])
def test_a_key_that_splits_a_class_is_a_bug(monkeypatch, capsys, tmp_path, method):
    # a key that also holds the edge steps gives one class as many keys as
    # it has listings up to translation; their canonical forms then
    # coincide, which the enumerators and the atlas must report, not list
    # as several classes
    monkeypatch.setattr(
        classify, "_class_key",
        lambda lengths, dirs: (_class_key(lengths, dirs), tuple(lengths), tuple(dirs)),
    )
    with pytest.raises(InvariantViolation, match=r"^class .* has two class keys$"):
        enumerate_classes(1, method)
    assert main(["polygons", "enum", "--genus", "1", "--method", method]) == 2
    assert "invariant violation: class" in capsys.readouterr().err
    with pytest.raises(InvariantViolation, match=r"^class .* has two class keys$"):
        group_by_class(1, 30)
    atlas_dir = tmp_path / "atlas"
    assert main(["classify", "--genus", "1", "--dmax", "30", "--atlas-dir", str(atlas_dir)]) == 2
    assert "invariant violation: class" in capsys.readouterr().err
    assert not atlas_dir.exists() or not any(atlas_dir.iterdir())


def test_a_key_that_merges_classes_is_a_bug_in_the_atlas(monkeypatch):
    # one key for every hull puts all members in the class of the first
    # hull; the point sets of other sizes must be reported
    monkeypatch.setattr(classify, "_class_key", lambda lengths, dirs: ())
    message = r"^class .* has 10 points, its point sets \[4, 5, 6, 7, 8, 9, 10\]$"
    with pytest.raises(InvariantViolation, match=message):
        group_by_class(1, 30)


def test_splice_recount_catches_a_miscounted_child(monkeypatch):
    # every built child is recounted in full: this count is wrong only when
    # `_splices` recounts the child it has just built, and right for the
    # start triangle's counts, so the recount alone can catch it
    real = polygon2d._cycle_steps

    def miscount(cycle):
        (area2, interior, b), lengths, dirs = real(cycle)
        if sys._getframe(1).f_locals.get("child") is cycle:
            return (area2 + 2, interior + 1, b), lengths, dirs
        return (area2, interior, b), lengths, dirs

    monkeypatch.setattr(classify, "_cycle_steps", miscount)
    with pytest.raises(InvariantViolation, match="miscounts"):
        _inductive_cycles(1, 10)


@pytest.mark.parametrize("g", range(5))
def test_every_parent_comes_with_its_own_counts(monkeypatch, g):
    # `_splices` neither recounts nor re-checks its parent, so the counts
    # and edge steps each level hands on with a representative must be
    # that representative's, and it must be strictly convex
    parents = []
    real = classify._splices

    def checked(cycle, counts, lengths, dirs, g):
        parents.append(cycle)
        _check_turns(cycle)
        assert counts == _pick_counts(cycle)
        assert (lengths, dirs) == _edge_steps(cycle)
        return real(cycle, counts, lengths, dirs, g)

    monkeypatch.setattr(classify, "_splices", checked)
    enumerate_classes(g)
    assert len(parents) > 1 and parents[0] == ((0, 0), (1, 0), (0, 1))


@pytest.mark.parametrize(
    "g, method", [(g, "inductive") for g in (1, 2, 3)] + [(g, "box") for g in (1, 2)]
)
def test_n_max_cuts_the_default_listing(g, method):
    # the enumerators return no class above n_max, so no filter is needed
    default = enumerate_classes(g, method)
    for n_max in range(4, 3 * g + 6):
        cut = tuple(p for p in default if p.n <= n_max)
        assert enumerate_classes(g, method, n_max=n_max) == cut


@pytest.mark.parametrize("g", [1, 2])
def test_inductive_stops_at_scotts_bound(g):
    # no class with g >= 1 interior points has more than 3g + 7 points, so a
    # larger n_max lists the same classes without following genus-0 strips
    assert enumerate_classes(g, n_max=60) == enumerate_classes(g)
    assert _inductive_cycles(g, 10**5) == _inductive_cycles(g, 3 * g + 7)


def _unpruned_box_cycles(g, bound, n_max):
    """Oracle: the box walk with only the grid and twice-area prunes.

    Walks every convex chain from the lex-least vertex (0,0) with
    angularly increasing edge directions inside the grid, and
    canonicalises each closed cycle with g interior points.
    """
    dirs = _angular_directions(bound)
    index = {d: i for i, d in enumerate(dirs)}
    area_bound = g + n_max - 2
    found = set()

    def vcross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    def close(chain, first_dir, last_idx, area2, blen):
        pos = chain[-1]
        cx, cy = -pos[0], -pos[1]
        glen = math.gcd(abs(cx), abs(cy))
        prim = (cx // glen, cy // glen)
        ci = index.get(prim)
        if ci is None or ci <= last_idx:
            return
        if vcross(dirs[last_idx], prim) <= 0 or vcross(prim, first_dir) <= 0:
            return
        interior = (area2 - (blen + glen) + 2) // 2
        if (area2 - (blen + glen)) % 2 != 0:
            raise InvariantViolation(f"parity failure closing chain {chain}")
        if interior != g:
            return
        can, _ = _canonical_cycle(tuple(chain))
        found.add(can)

    def extend(chain, first_dir, last_idx, area2, blen):
        if len(chain) >= 3:
            close(chain, first_dir, last_idx, area2, blen)
        pos = chain[-1]
        ys = [p[1] for p in chain]
        for ni in range(last_idx + 1, len(dirs)):
            nd = dirs[ni]
            if vcross(dirs[last_idx], nd) <= 0:
                break
            for length in range(1, 2 * bound + 2):
                np_ = (pos[0] + length * nd[0], pos[1] + length * nd[1])
                if np_ == (0, 0):
                    break
                if np_[0] < 0 or np_[0] > bound or (np_[0] == 0 and np_[1] < 0):
                    break
                if max(max(ys), np_[1]) - min(min(ys), np_[1]) > bound:
                    break
                new_area2 = area2 + (pos[0] * np_[1] - np_[0] * pos[1])
                if new_area2 > area_bound:
                    break
                chain.append(np_)
                extend(chain, first_dir, ni, new_area2, blen + length)
                chain.pop()

    for fi, fd in enumerate(dirs):
        if fd[0] < 1:
            continue
        for length in range(1, bound + 1):
            start = (length * fd[0], length * fd[1])
            if start[0] > bound or abs(start[1]) > bound:
                break
            extend([(0, 0), start], fd, fi, 0, length)
    return found


@pytest.mark.parametrize("bound", [3, 4, 5])
@pytest.mark.parametrize("g, n_max", [(0, 7), (0, 5), (0, 9), (1, 10), (1, 8), (2, 13), (2, 11)])
def test_box_cycles_match_unpruned_walk(g, bound, n_max):
    # n_max is the default 3g + 7, two less, and 9 at g = 0
    pruned = canonical_cycles(_box_cycles(g, bound, n_max))
    assert pruned == _unpruned_box_cycles(g, bound, n_max)
    assert pruned


@pytest.mark.parametrize("g, bound, n_max", [(1, 5, 10), (2, 5, 13)])
def test_box_walk_enters_no_chain_its_prunes_exclude(g, bound, n_max):
    # equal cycle sets cannot show a prune that cuts too little, so watch
    # the walk: every chain it enters, closed by its chord, has at most g
    # interior points (prune 1), every chain it extends past its chord
    # keeps interior + the chord's inner points at most g (prune 2), and
    # every chain it enters has (0,0) strictly left of its last edge (cut 3)
    entered = extended = 0

    def watch(frame, event, arg):
        nonlocal entered, extended
        code = frame.f_code
        if event != "call" or code.co_name != "extend" or code.co_filename != _box_cycles.__code__.co_filename:
            return
        here = frame.f_locals
        if len(here["chain"]) >= 3:
            entered += 1
            assert here["area2"] - (here["blen"] + here["glen"]) + 2 <= 2 * g
            (ax, ay), (bx, by) = here["chain"][-2:]
            assert (by - ay) * bx - (bx - ax) * by > 0
        parent = frame.f_back.f_locals
        if frame.f_back.f_code is code and len(parent["chain"]) >= 4:
            extended += 1
            assert parent["area2"] - parent["blen"] + parent["glen"] <= 2 * g

    sys.setprofile(watch)
    try:
        found = _box_cycles(g, bound, n_max)
    finally:
        sys.setprofile(None)
    assert found and entered and extended


@pytest.mark.parametrize("g", [2, 3])
def test_atlas_classes_among_enumerated_classes(g):
    # criterion 4's last clause, beyond g = 1 and d <= 60
    atlas = group_by_class(g, 120)
    enumerated = {p.vertices for p in enumerate_classes(g, "inductive")}
    assert {e.canonical.vertices for e in atlas.classes} <= enumerated


def test_enum_rejects_bad_args():
    with pytest.raises(ValueError):
        enumerate_classes(1, "exhaustive")
    with pytest.raises(PreconditionError):
        enumerate_classes(-1, "inductive")
    with pytest.raises(PreconditionError):
        enumerate_classes(1, "inductive", n_max=2)


def test_basis_change_permutation_pair():
    qa, qb = Quadruple(1, 3, 2, 7), Quadruple(1, 2, 3, 7)
    bc = basis_change(qa, qb)
    assert bc.matrix == (
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(0)),
    )
    assert sorted(bc.row_map) == list(range(8))


def test_basis_change_identity_pair():
    q = Quadruple(1, 2, 3, 6)
    bc = basis_change(q, q)
    assert bc.matrix == (
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    )
    assert bc.row_map == tuple(range(7))


# sha256 over every ordered same-class pair of the g = 1, 2 atlases at
# dmax 40 (540 pairs) of repr((a, b, matrix, row_map, mapped terms,
# warnings)), each pair mapping the curve with every source row as a term
TRANSPORT_SHA256 = "0ba7a3abc4b5b184d1a6d9a46f032bb49b5b40884ffbe12f5a5bd67fe2d34b9e"


@functools.cache
def _same_class_pairs():
    """The 540 ordered same-class pairs of the g = 1, 2 atlases at dmax 40."""
    return tuple(
        pair
        for g in (1, 2)
        for entry in group_by_class(g, 40).classes
        for x, y in itertools.combinations(entry.members, 2)
        for pair in ((x, y), (y, x))
    )


def test_transport_outputs_are_pinned():
    # the lookup transport equals the per-term matrix transport on every
    # pair, and each row's image is the target row its row map names
    digest = hashlib.sha256()
    pairs = _same_class_pairs()
    for a, b in pairs:
        bc = basis_change(a, b)
        curve = make_curve(a, [(1, r) for r in bc.rows])
        mapped, warnings = map_curve(curve, bc)
        assert (mapped, warnings) == map_curve_oracle(curve, bc)
        points_to = build(b).points
        assert bc.images == tuple(points_to[j] for j in bc.row_map)
        digest.update(repr((a, b, bc.matrix, bc.row_map, mapped.terms, warnings)).encode())
    assert len(pairs) == 540
    assert digest.hexdigest() == TRANSPORT_SHA256


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_map_curve_matches_the_matrix_transport_on_sub_supports(data):
    # any nonempty sub-support with nonzero rational coefficients moves as
    # the per-term matrix transport, with all its checks, moves it
    a, b = data.draw(st.sampled_from(_same_class_pairs()))
    bc = basis_change(a, b)
    support = data.draw(st.lists(st.sampled_from(bc.rows), min_size=1, unique=True))
    coefs = data.draw(st.lists(
        st.fractions(min_value=-50, max_value=50, max_denominator=30).filter(bool),
        min_size=len(support), max_size=len(support),
    ))
    curve = make_curve(a, list(zip(coefs, support)))
    mapped, warnings = map_curve(curve, bc)
    assert (mapped, warnings) == map_curve_oracle(curve, bc)
    assert len(mapped.terms) == len(support)


def test_basis_change_denominators_divide_d():
    qa, qb = Quadruple(1, 1, 2, 4), Quadruple(1, 1, 2, 4)
    bc = basis_change(qa, qb)
    for row in bc.matrix:
        for entry in row:
            assert (entry * qa.d).denominator == 1


def test_basis_change_rejects_different_classes():
    # different point counts (10 and 8), then two 5-point classes of genus 1
    for qa, qb in [
        (Quadruple(1, 1, 1, 3), Quadruple(1, 2, 3, 7)),
        (Quadruple(3, 4, 5, 19), Quadruple(2, 3, 5, 12)),
    ]:
        assert not equivalent(_projected(qa), _projected(qb))[0]
        with pytest.raises(PreconditionError, match="do not share a polygon class"):
            basis_change(qa, qb)


def test_basis_change_witness_missing_a_row_is_a_bug(monkeypatch):
    # once equivalent() has vouched for the witness, a row it sends off
    # the target polygon is an invariant violation, not bad input
    import wpoly.classify

    def shifted_witness(p1, p2):
        same, witness = equivalent(p1, p2)
        shift = UnimodularAffineMap(((1, 0), (0, 1)), (100, 0))
        return same, shift.compose(witness)

    monkeypatch.setattr(wpoly.classify, "equivalent", shifted_witness)
    with pytest.raises(InvariantViolation, match="does not carry row"):
        basis_change(Quadruple(1, 3, 2, 7), Quadruple(1, 2, 3, 7))


def test_basis_change_refuses_rows_that_are_not_hit_once(monkeypatch):
    # a witness sending the whole source triple to one point lifts it to
    # one target row r three times; as every row has weighted degree d,
    # each row then maps to r, so every row is carried but not one to one
    class Collapse:
        def apply(self, point):
            return (0, 0)

    monkeypatch.setattr(classify, "equivalent", lambda p1, p2: (True, Collapse()))
    with pytest.raises(InvariantViolation, match="does not pair the rows"):
        basis_change(Quadruple(1, 3, 2, 7), Quadruple(1, 2, 3, 7))


@pytest.mark.parametrize("corrupt, message", [
    (lambda adj, det: (((adj[0][0] + 1,) + adj[0][1:],) + adj[1:], det),
     "does not carry row"),
    (lambda adj, det: (adj, 2 * det), "denominator not dividing 7"),
    (lambda adj, det: (adj, -det), "does not carry row"),
    (lambda adj, det: (tuple(tuple(2 * x for x in row) for row in adj), det),
     "does not carry row"),
], ids=["adjugate-entry", "doubled-determinant", "negated-determinant", "doubled-adjugate"])
def test_basis_change_checks_a_corrupted_inverse(monkeypatch, corrupt, message):
    # the matrix is checked on its own: a wrong adjugate or determinant,
    # with both projections still correct, must be caught.  map_curve
    # moves terms by the images this check pairs, so a matrix that sends
    # rows to negated, doubled or fractional points is refused here
    triple_solver = wpolytope._triple_solver

    def corrupted(*args):
        return corrupt(*triple_solver(*args))

    monkeypatch.setattr(classify, "_triple_solver", corrupted)
    with pytest.raises(InvariantViolation, match=message):
        basis_change(Quadruple(1, 3, 2, 7), Quadruple(1, 2, 3, 7))


def test_make_curve_validates_terms():
    q = Quadruple(1, 3, 2, 7)
    curve = make_curve(q, [(1, (7, 0, 0)), (Fraction(1, 2), (0, 1, 2))])
    assert curve.terms == (
        (Fraction(1, 2), (0, 1, 2)),
        (Fraction(1), (7, 0, 0)),
    )
    with pytest.raises(ValueError):
        make_curve(q, [(1, (1, 1, 1))])  # degree 6 != 7
    with pytest.raises(ValueError):
        make_curve(q, [(0, (7, 0, 0))])
    with pytest.raises(ValueError):
        make_curve(q, [(1, (7, 0, 0)), (2, (7, 0, 0))])
    with pytest.raises(ValueError):
        make_curve(q, [])
    # bool is an int subclass; True must not pass for the exponent 1
    with pytest.raises(ValueError, match="bad exponent vector"):
        make_curve(q, [(1, (True, 2, 0))])


def test_basis_change_decomposes_each_row_once(monkeypatch):
    # one triple inverse, for the source triple's matrix; each projection
    # charts its triple alone, as the rows come charted from the build,
    # and the matrix checks every row without a solve
    inverses = charted = 0
    triple_solver = wpolytope._triple_solver
    chart = wpolytope._chart

    def counted_inverse(*args):
        nonlocal inverses
        inverses += 1
        return triple_solver(*args)

    def counted_chart(p, points):
        nonlocal charted
        charted += len(points)
        return chart(p, points)

    monkeypatch.setattr(classify, "_triple_solver", counted_inverse)
    monkeypatch.setattr(wpolytope, "_chart", counted_chart)
    bc = basis_change(Quadruple(1, 3, 2, 7), Quadruple(1, 2, 3, 7))
    assert len(bc.row_map) == 8
    assert inverses == 1
    assert charted == 2 * 3


def test_map_curve_permutation_pair():
    qa, qb = Quadruple(1, 3, 2, 7), Quadruple(1, 2, 3, 7)
    bc = basis_change(qa, qb)
    curve = make_curve(qa, [(1, (7, 0, 0)), (3, (0, 1, 2)), (-2, (2, 1, 1))])
    mapped, warnings = map_curve(curve, bc)
    assert mapped.quadruple == qb
    for coef, v in mapped.terms:
        assert sum(x * w for x, w in zip(v, qb.weights)) == qb.d
    assert {v for _, v in mapped.terms} == {(7, 0, 0), (0, 2, 1), (2, 1, 1)}
    # x2^2*x1 witnessed condition (i) for axis 2; its image (0,2,1) no
    # longer does, and the transport reports exactly that regression
    assert warnings == ("support condition (i) for axis 2 lost under mapping",)


def test_map_curve_full_support_has_no_warnings():
    qa, qb = Quadruple(1, 3, 2, 7), Quadruple(1, 2, 3, 7)
    bc = basis_change(qa, qb)
    full = make_curve(qa, [(1, pt) for pt in build(qa).points])
    mapped, warnings = map_curve(full, bc)
    assert len(mapped.terms) == 8
    assert warnings == ()


def test_map_curve_rejects_mismatched_basis_change():
    qa, qb = Quadruple(1, 3, 2, 7), Quadruple(1, 2, 3, 7)
    bc = basis_change(qa, qb)
    curve = make_curve(qb, [(1, (7, 0, 0))])
    with pytest.raises(PreconditionError):
        map_curve(curve, bc)


def test_map_curve_refuses_support_off_the_polytope():
    # a hand-built curve skips make_curve's checks; map_curve itself
    # refuses monomials that are not polytope points
    qa, qb = Quadruple(1, 3, 2, 7), Quadruple(1, 2, 3, 7)
    bc = basis_change(qa, qb)
    for off in [(1, 0, 0), (9, 0, -1), (7, 0)]:
        curve = WeightedCurve(qa, ((Fraction(1), (7, 0, 0)), (Fraction(1), off)))
        with pytest.raises(PreconditionError, match="^curve support contains non-polytope monomials$"):
            map_curve(curve, bc)


def test_map_curve_command_builds_two_polytopes(monkeypatch, capsys):
    # basis_change builds both polytopes; the default curve and the
    # support check read the source's rows from the basis change.  Only
    # the source curve goes through make_curve: the mapped terms are the
    # checked images of its monomials and are not validated again
    built, validated = [], []

    def counted_build(q):
        built.append(q)
        return build(q)

    def counted_curve(q, terms):
        validated.append(q)
        return make_curve(q, terms)

    monkeypatch.setattr(classify, "build", counted_build)
    monkeypatch.setattr("wpoly.cli.build", counted_build)
    monkeypatch.setattr(classify, "make_curve", counted_curve)
    monkeypatch.setattr("wpoly.cli.make_curve", counted_curve)
    assert main(["map", "curve", "1", "3", "2", "7", "1", "2", "3", "7"]) == 0
    capsys.readouterr()
    assert built == [Quadruple(1, 3, 2, 7), Quadruple(1, 2, 3, 7)]
    assert validated == [Quadruple(1, 3, 2, 7)]


def test_basis_change_rows_are_the_source_rows():
    qa, qb = Quadruple(1, 3, 2, 7), Quadruple(1, 2, 3, 7)
    bc = basis_change(qa, qb)
    assert bc.rows == build(qa).points
    assert len(bc.row_map) == len(bc.rows)


def _literal_support_conditions(support):
    # (i) for axis i: some v equals x_i^k * x_j with k >= 1 and any j;
    # (ii): some v avoids x_i
    def monomial(i, k, j):
        v = [0, 0, 0]
        v[i] += k
        v[j] += 1
        return tuple(v)

    cond_i = tuple(
        any(v == monomial(i, k, j) for v in support for k in range(1, max(v) + 1) for j in range(3))
        for i in range(3)
    )
    return cond_i, tuple(any(v[i] == 0 for v in support) for i in range(3))


@settings(max_examples=300, deadline=None)
@given(st.frozensets(st.tuples(*[st.integers(0, 3)] * 3), max_size=6))
def test_support_conditions_match_the_literal_definition(support):
    assert classify._support_conditions(support) == _literal_support_conditions(support)


def _stabilization(g, steps):
    return atlas_stabilization(group_by_class(g, steps[-1]), steps)


def test_stabilization_report():
    report = _stabilization(1, [3, 7])
    assert report.steps == ((3, 1), (7, 4))
    assert report.growing
    stable = _stabilization(1, [20, 30])
    assert not stable.growing
    with pytest.raises(PreconditionError):
        stabilization_steps([10, 10])
    with pytest.raises(PreconditionError):
        stabilization_steps([])


@pytest.mark.parametrize(
    "g, steps, counts, growing",
    [(1, [3, 7, 15, 30, 60], [1, 4, 6, 8, 8], False), (2, [10, 40, 90], [4, 13, 14], True)],
)
def test_stabilization_matches_one_atlas_per_step(g, steps, counts, growing):
    report = _stabilization(g, steps)
    assert report.steps == tuple(zip(steps, counts))
    assert report.growing is growing
    assert counts == [len(group_by_class(g, step).classes) for step in steps]


@pytest.mark.parametrize("g, d_max", [(1, 40), (2, 60)])
def test_atlas_up_to_equals_the_smaller_atlas(g, d_max):
    big = group_by_class(g, d_max)
    for d in (3, 7, d_max // 2, d_max - 1, d_max):
        assert big.up_to(d).to_json_bytes() == group_by_class(g, d).to_json_bytes()
        assert big.up_to(d).to_csv_text() == group_by_class(g, d).to_csv_text()
    with pytest.raises(PreconditionError):
        big.up_to(d_max + 1)


def test_atlas_stabilization_stays_within_the_atlas():
    atlas = group_by_class(1, 30)
    assert atlas_stabilization(atlas, [3, 7, 30]).steps == ((3, 1), (7, 4), (30, 8))
    with pytest.raises(PreconditionError):
        atlas_stabilization(atlas, [3, 31])
    with pytest.raises(PreconditionError):
        atlas_stabilization(atlas, [7, 7])


def test_stabilization_counts_monotone_and_bounded():
    report = _stabilization(1, [3, 7, 15, 30])
    counts = [c for _, c in report.steps]
    assert counts == sorted(counts)
    assert counts[-1] <= G1_CLASS_COUNT
