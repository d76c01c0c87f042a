"""Polytope construction, minors, case identities, decompositions."""
import dataclasses
import functools
import hashlib
import json
import re
from itertools import combinations, permutations, product
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wpoly import (
    Quadruple,
    build,
    enumerate_g_good,
    find_unimodular_triple,
    group_by_class,
    minor_det,
    project,
    validate,
    verify_case_identities,
)
from wpoly import classify, convex_hull, wpolytope
from wpoly.cli import main
from wpoly.errors import InvariantViolation, PreconditionError
from wpoly.classify import _class_key
from wpoly.wpolytope import _build, _chart, _frame, _rows_hull

from lattice_oracles import (
    _edge_steps,
    _listing_triple,
    chart_forms,
    chart_point,
    cramer_decompose,
    interior_count,
    listing_build,
    polytope_points_loop,
    projection_coordinates,
    row_image_list,
    row_points,
)


def integral(alphas):
    """The Cramer coefficients as integers, asserting that they are."""
    assert all(a.denominator == 1 for a in alphas), alphas
    return tuple(int(a) for a in alphas)

# one hand-checked instance per case tag
CASE_INSTANCES = {
    "a.i": (3, 4, 5, 13),
    "a.ii": (2, 3, 5, 17),
    "b.i": (4, 7, 13, 39),
    "b.ii": (1, 2, 3, 11),
    "b.iii": (1, 3, 2, 7),
    "c": (1, 2, 1, 5),
    "d": (1, 1, 1, 3),
}


def test_build_point_list_frozen():
    p = build(Quadruple(1, 3, 2, 7))
    assert p.points == (
        (0, 1, 2),
        (1, 0, 3),
        (1, 2, 0),
        (2, 1, 1),
        (3, 0, 2),
        (4, 1, 0),
        (5, 0, 1),
        (7, 0, 0),
    )
    assert p.n == 8
    assert p.genus == 1 and [pt for pt in p.points if min(pt) >= 1] == [(2, 1, 1)]
    assert not p.exceptional_bound


def test_build_rejects_non_good():
    with pytest.raises(PreconditionError):
        build(Quadruple(1, 1, 3, 5))


def test_interior_matches_genus_and_shifted_count():
    for tup in [(1, 1, 1, 3), (1, 2, 3, 7), (1, 2, 1, 5), (1, 1, 1, 4)]:
        p = build(Quadruple(*tup))
        assert p.genus == interior_count(p)


def test_exceptional_bound_only_for_cubic():
    p = build(Quadruple(1, 1, 1, 3))
    assert p.n == 10 and p.exceptional_bound
    for tup in [(1, 1, 2, 4), (1, 2, 3, 6), (1, 2, 3, 7)]:
        q = build(Quadruple(*tup))
        assert q.n <= 9 and not q.exceptional_bound


def test_minor_det_example():
    assert minor_det((4, 1, 0), (2, 1, 1), (1, 2, 0)) == -7
    assert minor_det((1, 0, 0), (0, 1, 0), (0, 0, 1)) == 1


def test_all_minors_divisible_by_d():
    for tup in CASE_INSTANCES.values():
        q = Quadruple(*tup)
        p = build(q)
        for a, b, c in combinations(p.points, 3):
            assert minor_det(a, b, c) % q.d == 0


def test_find_unimodular_triple_frozen():
    p = build(Quadruple(1, 1, 1, 3))
    t = find_unimodular_triple(p)
    assert t == ((0, 0, 3), (0, 1, 2), (1, 0, 2))
    assert abs(minor_det(*t)) == 3


def test_find_unimodular_triple_always_exists_in_small_corpus():
    for g in (1, 2):
        for q in enumerate_g_good(g, 25):
            p = build(q)
            t = find_unimodular_triple(p)
            assert abs(minor_det(*t)) == q.d


def test_case_tags_and_determinants():
    expected = {
        "a.i": (13, None, None),
        "a.ii": (102, 2, 1),
        "b.i": (117, 1, None),
        "b.ii": (165, 5, None),
        "b.iii": (42, 1, None),
        "c": (50, 5, 2),
        "d": (27, 3, None),
    }
    for tag, tup in CASE_INSTANCES.items():
        p = build(Quadruple(*tup))
        rep = verify_case_identities(p)
        assert rep.case_tag == tag, tup
        det, k, l = expected[tag]
        assert rep.actual_det == rep.predicted_det == det, tup
        assert rep.k == k and rep.l == l, tup


def test_case_genus_identities_frozen():
    # both sides of each case's genus identity, as computed before the
    # identities moved into the case formulas
    expected = {
        "a.i": (60, 60),
        "a.ii": (5, 5),
        "b.i": (2, 2),
        "b.ii": (10, 10),
        "b.iii": (2, 2),
        "c": (10, 10),
        "d": (9, 9),
    }
    for tag, tup in CASE_INSTANCES.items():
        rep = verify_case_identities(build(Quadruple(*tup)))
        assert rep.genus_identity == expected[tag], tup
        assert rep.to_dict()["genus_identity"] == list(expected[tag]), tup


def test_failing_genus_identity_is_reported_not_unmatched(monkeypatch):
    # the identity is no match condition: a case whose identity fails
    # still matches, with the same report but for the identity, and the
    # check names the identity
    true_formulas = wpolytope._case_formulas

    def broken_identity(*args):
        k, l, det, (lhs, rhs) = true_formulas(*args)
        return k, l, det, (lhs, rhs + 1)

    for tag, tup in CASE_INSTANCES.items():
        p = build(Quadruple(*tup))
        true = wpolytope._case_report(p)
        lhs, rhs = true.genus_identity
        monkeypatch.setattr(wpolytope, "_case_formulas", broken_identity)
        broken = wpolytope._case_report(p)
        assert broken == dataclasses.replace(true, genus_identity=(lhs, rhs + 1)), tup
        with pytest.raises(InvariantViolation, match=f"case {tag} genus identity fails"):
            verify_case_identities(p)
        monkeypatch.setattr(wpolytope, "_case_formulas", true_formulas)


def _relabelled(slots, sigma):
    # the map on the axes when template slot t is axis sigma[t]
    points_to = [None, None, None]
    for t in range(3):
        points_to[sigma[t]] = sigma[slots[t]]
    return tuple(points_to)


def test_case_maps_partition_the_27_maps():
    # the seven shapes up to relabelling are disjoint orbits covering every
    # map on three axes, and the lookup carries the lex-least sigma
    sigmas = list(permutations(range(3)))
    orbits = {
        tag: {_relabelled(slots, sigma) for sigma in sigmas}
        for tag, slots in wpolytope.CASE_MAPS.items()
    }
    assert list(orbits) == list(CASE_INSTANCES)
    assert [len(orbit) for orbit in orbits.values()] == [2, 6, 3, 6, 3, 6, 1]
    every_map = set(product(range(3), repeat=3))
    assert set().union(*orbits.values()) == every_map
    assert sum(len(orbit) for orbit in orbits.values()) == len(every_map) == 27
    assert set(wpolytope._CASE_OF_MAP) == every_map
    for tag, orbit in orbits.items():
        for points_to in orbit:
            slots = wpolytope.CASE_MAPS[tag]
            least = min(s for s in sigmas if _relabelled(slots, s) == points_to)
            assert wpolytope._CASE_OF_MAP[points_to] == (tag, least)


def test_case_formulas_refuse_inexact_quotients():
    # (2,3,5;17) is a.ii with slot weights (5,2,3) and exponents a, b, c =
    # 3, 7, 5: k = (b - 1)/u2 = 2 and l = a/u2 = 1
    q = Quadruple(2, 3, 5, 17)
    assert wpolytope._case_formulas(q, 2, "a.ii", (5, 2, 3), 3, 7, 5) == (2, 1, 102, (5, 5))
    for (a, b, c), message in [
        ((4, 7, 5), "case a.ii needs l = 4/3 to be a positive integer"),
        ((3, 1, 5), "case a.ii needs k = 0/3 to be a positive integer"),
    ]:
        with pytest.raises(InvariantViolation, match=f"^{re.escape(f'{q}: {message}')}$"):
            wpolytope._case_formulas(q, 2, "a.ii", (5, 2, 3), a, b, c)
    with pytest.raises(InvariantViolation, match=re.escape("case d needs k = 3/2")):
        wpolytope._case_formulas(Quadruple(1, 1, 1, 3), 1, "d", (1, 1, 2), 3, 3, 3)


# sha256 of the case reports (or error class and message) over the good
# quadruples with weights <= 12 and d <= 40, as the six-permutation
# template matcher computed them
CASE_SWEEP_SHA256 = "885e4d1569b827b01e495fa91dfeadfcd88ed26f197558ffc7aeb06449ff3f87"


def test_case_reports_golden_over_small_good_quadruples(small_good_quadruples):
    items = []
    for q, _ in small_good_quadruples:
        try:
            items.append(verify_case_identities(build(q)).to_dict())
        except (PreconditionError, InvariantViolation) as exc:
            items.append([type(exc).__name__, str(exc)])
    assert len(items) == 2685
    assert hashlib.sha256(json.dumps(items).encode()).hexdigest() == CASE_SWEEP_SHA256


def test_case_rows_frozen_for_biii():
    rep = wpolytope._case_report(build(Quadruple(1, 3, 2, 7)))
    assert rep.rows == ((7, 0, 0), (1, 2, 0), (1, 0, 3))
    assert rep.permutation == (0, 1, 2)


def test_axis_row_is_the_pure_power_else_the_validate_witness():
    # w_1 = 1 divides d = 3, so axis 1's row is x_1^3, though validate's
    # least-j witness for axis 1 is x_1^2 * x_0
    q = Quadruple(1, 1, 1, 3)
    assert validate(q).condition_i[1] == (2, 0)
    assert wpolytope._case_report(build(q)).rows[1] == (0, 3, 0)
    # 3 and 2 do not divide 7: axes 1 and 2 take validate's witnesses
    # x_1^2 * x_0 and x_2^3 * x_0
    q = Quadruple(1, 3, 2, 7)
    assert validate(q).condition_i[1:] == ((2, 0), (3, 0))
    assert wpolytope._case_report(build(q)).rows[1:] == ((1, 2, 0), (1, 0, 3))


def test_case_report_dict_shape():
    d = verify_case_identities(build(Quadruple(1, 1, 1, 3))).to_dict()
    assert d["case"] == "d"
    assert d["actual_det"] == d["predicted_det"] == 27
    assert len(d["rows"]) == 3


def test_case_identities_whole_small_corpus():
    for g in (1, 2, 3):
        for q in enumerate_g_good(g, 30):
            rep = verify_case_identities(build(q))
            assert rep.actual_det == rep.predicted_det, q


def test_decompose_frozen_values():
    p = build(Quadruple(1, 3, 2, 7))
    t = find_unimodular_triple(p)
    assert t == ((0, 1, 2), (1, 0, 3), (1, 2, 0))
    assert integral(cramer_decompose(t, (7, 0, 0))) == (-6, 4, 3)
    p3 = build(Quadruple(1, 1, 1, 3))
    t3 = find_unimodular_triple(p3)
    assert integral(cramer_decompose(t3, (2, 2, 2))) == (-2, 2, 2)


def test_decompose_over_alternative_triple():
    # any row triple with |det| = d works, not just the lex-first one
    t = ((4, 1, 0), (2, 1, 1), (1, 2, 0))
    assert abs(minor_det(*t)) == 7
    assert integral(cramer_decompose(t, (7, 0, 0))) == (2, 0, -1)


def test_decompose_alpha_sum_equals_degree_multiple():
    q = Quadruple(1, 2, 3, 11)
    p = build(q)
    t = find_unimodular_triple(p)
    for mult in (1, 2, 3):
        target = (mult * q.d, 0, 0)
        assert sum(integral(cramer_decompose(t, target))) == mult


def test_decompose_rejects_bad_inputs():
    # a triple of |det| = 2d is refused before any row is charted
    p = build(Quadruple(1, 3, 2, 7))
    message = r"^triple determinant 14 does not have \|det\| == d = 7$"
    with pytest.raises(PreconditionError, match=message):
        project(p, ((1, 2, 0), (3, 0, 2), (5, 0, 1)))


def test_every_point_decomposes_over_lex_triple():
    for g in (1, 2):
        for q in enumerate_g_good(g, 20):
            p = build(q)
            t = find_unimodular_triple(p)
            for pt in p.points:
                assert sum(integral(cramer_decompose(t, pt))) == 1, (q, pt)


@functools.cache
def _good_quadruples():
    return tuple(q for g in range(1, 9) for q in enumerate_g_good(g, 90))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_decompose_and_projection_match_cramer(data):
    # any det-d triple, in any row order: every row decomposes over it in
    # integers, the projection is the hull of the rows' Cramer images, and
    # one target of degree 2d (a sum of two rows) decomposes in integers
    # summing to 2
    q = data.draw(st.sampled_from(_good_quadruples()), label="quadruple")
    p = build(q)
    triples = [t for t in combinations(p.points, 3) if abs(minor_det(*t)) == q.d]
    triple = tuple(data.draw(st.sampled_from(triples).flatmap(st.permutations), label="triple"))
    for row in p.points:
        assert sum(integral(cramer_decompose(triple, row))) == 1, (q, triple, row)
    assert project(p, triple) == _point_oracle_polygon(p, triple)
    i = data.draw(st.integers(0, p.n - 1))
    j = data.draw(st.integers(0, p.n - 1))
    target = tuple(x + y for x, y in zip(p.points[i], p.points[j]))
    assert sum(integral(cramer_decompose(triple, target))) == 2


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8), st.integers(2, 30))
@example(1, 1, 4, 5)
def test_point_count_bound_holds_everywhere(w0, w1, w2, d):
    # n <= 3g + 7 is enforced inside build() for g >= 1 (a violation
    # raises); genus-0 polytopes have no interior points and no such bound,
    # e.g. (1,1,4;5) has n = 8
    from wpoly import validate

    q = Quadruple(w0, w1, w2, d)
    if not validate(q).is_good:
        return
    p = build(q)
    if p.genus >= 1:
        assert p.n <= 3 * p.genus + 7
    else:
        assert p.genus == interior_count(p) == 0


def test_build_checks_interior_count_against_the_genus(monkeypatch):
    # a genus off by one from the weights' report must not slip through
    # the public build
    validate = wpolytope.validate

    def off_by_one(q):
        report = validate(q)
        return dataclasses.replace(report, genus=report.genus + 1)

    monkeypatch.setattr(wpolytope, "validate", off_by_one)
    message = r"^\(\d+,\d+,\d+;\d+\): 1 interior points but genus 2$"
    for q in enumerate_g_good(1, 20):
        with pytest.raises(InvariantViolation, match=message):
            build(q)


def test_atlas_path_checks_interior_count_against_the_genus(monkeypatch, tmp_path, capsys):
    # group_by_class trusts the genus enumerate_g_good validated; a
    # quadruple of another genus handed to it is a bug that _build must
    # catch before it reaches an atlas, so the CLI exits 2
    q2 = enumerate_g_good(2, 20)[0]
    monkeypatch.setattr(classify, "enumerate_g_good", lambda g, d_max: [q2])
    message = rf"^{re.escape(str(q2))}: 2 interior points but genus 1$"
    with pytest.raises(InvariantViolation, match=message) as excinfo:
        group_by_class(1, 20)
    assert excinfo.traceback[-1].name == "_build"
    monkeypatch.chdir(tmp_path)
    assert main(["classify", "--genus", "1", "--dmax", "20"]) == 2
    assert f"{q2}: 2 interior points but genus 1" in capsys.readouterr().err
    assert not (tmp_path / "atlas").exists()


@pytest.mark.parametrize("g", range(1, 5))
def test_build_points_match_the_double_loop(g):
    # the residue-stepped loop over the heaviest axis, sorted, lists the
    # same points as trying every (a, b), in every order of the weights,
    # and its rows, charted and carried back by the chart's affine forms,
    # hold them
    quads = enumerate_g_good(g, 120)
    if g == 1:
        assert Quadruple(1, 1, 1, 3) in quads
    for q in quads:
        for w0, w1, w2 in set(permutations(q.weights)):
            permuted = Quadruple(w0, w1, w2, q.d)
            p = _build(permuted, g)
            assert p.points == polytope_points_loop(permuted), permuted
            assert build(permuted) == p
            assert all(c >= 1 for _, c in p.rows)
            assert sorted(row_points(p)) == list(p.points), permuted


def test_chart_is_the_lattice_triangle_of_every_member():
    # the chart's affine forms, written out from the weights, carry the
    # chart of every point of every member of g = 1..6 at d_max 300 back
    # to the point, and their minors det(a_(i+1), a_(i+2)) are the
    # weights w_i, all with one sign
    members = 0
    for g in range(1, 7):
        for q in enumerate_g_good(g, 300):
            p = _build(q, g)
            forms = chart_forms(q)
            points = p.points
            for point, u in zip(points, _chart(p, points)):
                assert chart_point(forms, u) == point, (q, point)
            a = [a_i for a_i, _ in forms]
            minors = [a[j][0] * a[k][1] - a[j][1] * a[k][0] for j, k in ((1, 2), (2, 0), (0, 1))]
            assert minors in ([*q.weights], [-w for w in q.weights]), q
            members += 1
    assert members == 3080


def test_every_atlas_member_has_a_det_d_triple_of_its_chart_class():
    # group_by_class projects through the chart alone; for every member of
    # the g = 1..3 atlases at d_max 240 a det-d triple still exists, and
    # the projection through it has the class key of the chart's hull
    members = 0
    for g in (1, 2, 3):
        for q in enumerate_g_good(g, 240):
            p = _build(q, g)
            triple = find_unimodular_triple(p)
            assert abs(minor_det(*triple)) == q.d
            chart_hull = _rows_hull(p, (1, 0), p.rows)
            key = _class_key(*_edge_steps(chart_hull.vertices))
            assert _class_key(*_edge_steps(project(p, triple).vertices)) == key, q
            members += 1
    assert members == 1415


def _point_oracle_polygon(p, triple):
    """The hull of every point's own Cramer decomposition, whose images
    must be pairwise distinct; the row route must give the same polygon."""
    images = projection_coordinates(p, triple)
    assert len(set(images)) == p.n, p.quadruple
    return convex_hull(images)


ANALYZE_GENUS0 = (
    (1, 1, 4, 5), (1, 1, 5, 6), (1, 1, 6, 7), (1, 2, 9, 11), (1, 2, 11, 12), (1, 2, 13, 15),
)


def test_row_route_matches_the_point_oracle():
    # every good quadruple of the analyze population (1 <= g <= 40, d <=
    # 150), its six genus-0 items, and the 101003 points at the genus cap
    quads = [q for g in range(1, 41) for q in enumerate_g_good(g, 150)]
    assert len(quads) == 3149
    quads += [Quadruple(*t) for t in ANALYZE_GENUS0] + [Quadruple(1, 4, 5, 2005)]
    for q in quads:
        p = build(q)
        triple = find_unimodular_triple(p)
        assert project(p, triple) == _point_oracle_polygon(p, triple), q


@functools.cache
def _good_degrees(weights):
    return tuple(
        d for d in range(max(weights) + 1, 601)
        if (report := validate(Quadruple(*weights, d))).is_good and report.genus <= 2000
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_row_route_matches_the_point_oracle_on_random_quadruples(data):
    # random pairwise coprime weights and a good degree up to 600 of genus
    # at most 2000, in every order of the weights, so that each axis is
    # the chart's outer one in turn
    w0 = data.draw(st.integers(1, 40), label="w0")
    w1 = data.draw(st.integers(1, 40).filter(lambda w: gcd(w, w0) == 1), label="w1")
    w2 = data.draw(st.integers(1, 40).filter(lambda w: gcd(w, w0 * w1) == 1), label="w2")
    degrees = _good_degrees(tuple(sorted((w0, w1, w2))))
    assume(degrees)
    d = data.draw(st.sampled_from(degrees), label="d")
    for weights in permutations((w0, w1, w2)):
        p = build(Quadruple(*weights, d))
        assume(p.n >= 3)
        triple = find_unimodular_triple(p)
        assert project(p, triple) == _point_oracle_polygon(p, triple), weights


def _plus(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _row_start(p):
    """The start of p's first row, carried back from its chart."""
    return chart_point(chart_forms(p.quadruple), p.rows[0][0])


# a point moved off the chart's lattice (and so off the plane), and one
# moved onto the chart's lattice at degree 2d (the first row's start plus
# the first triple row)
ROW_START_FAULTS = pytest.mark.parametrize("corrupt, message", [
    (lambda p, t: _plus(_row_start(p), (1, 0, 0)), r"\(1, 14, 0\)"),
    (lambda p, t: _plus(_row_start(p), t[0]), r"\(0, 14, 6\)"),
], ids=["inexact-start", "start-degree"])

START_MESSAGE = r"^\(2,3,7;42\): {} is no lattice point of the plane of degree 42$"


@ROW_START_FAULTS
def test_row_solve_faults_are_caught(monkeypatch, corrupt, message):
    # p's rows come charted, so project charts only its triple; a triple
    # point off the chart's lattice, or on it at degree 2d, is refused by
    # the chart even when it gets past the determinant check
    p = build(Quadruple(2, 3, 7, 42))
    triple = find_unimodular_triple(p)
    assert _row_start(p) == (0, 14, 0)
    corrupted = (corrupt(p, triple),) + triple[1:]
    monkeypatch.setattr(wpolytope, "minor_det", lambda *rows: 42)
    with pytest.raises(InvariantViolation, match=START_MESSAGE.format(message)) as excinfo:
        project(p, corrupted)
    assert excinfo.traceback[-1].name == "_chart"


# the chart's y0 moved by one, which moves the start of every row off the
# plane, and y0 taken from the plane of degree 2d, whose starts are off
# the plane of degree d where w_third does not divide d
FRAME_FAULTS = pytest.mark.parametrize("q, g, corrupt", [
    (Quadruple(2, 3, 7, 42), 16, lambda q, frame: frame[:4] + (frame[4] + 1,)),
    (Quadruple(1, 2, 3, 7), 1,
     lambda q, frame: frame[:4] + (_frame(dataclasses.replace(q, d=2 * q.d))[4],)),
], ids=["inexact-start", "start-degree"])


@FRAME_FAULTS
def test_row_start_faults_are_caught_on_the_atlas_path(monkeypatch, q, g, corrupt):
    # group_by_class reads the rows as _build charted them; _build checks
    # that each row start lies on the plane, so a chart that puts them
    # off it is caught before any hull
    assert q in enumerate_g_good(g, q.d)
    frame = _frame(q)
    assert corrupt(q, frame) != frame
    monkeypatch.setattr(wpolytope, "_frame", lambda member: (
        corrupt(member, frame) if member == q else _frame(member)
    ))
    outer = frame[0]
    message = rf"^{re.escape(str(q))}: the row of exponent 0 on axis {outer} starts off the plane of degree {q.d}$"
    with pytest.raises(InvariantViolation, match=message) as excinfo:
        group_by_class(g, q.d)
    assert excinfo.traceback[-1].name == "_build"


def _shared_line(sigma, rows, monkeypatch):
    # the second row moved onto the first row's start
    return rows[:1] + ((rows[0][0], rows[1][1]),) + rows[2:]


def _hull_moved(sigma, rows, monkeypatch):
    # the true hull one step right keeps its Pick counts
    real = wpolytope._hull_cycle
    monkeypatch.setattr(wpolytope, "_hull_cycle", lambda pts: tuple((x + 1, y) for x, y in real(pts)))
    return rows


def _count_short(sigma, rows, monkeypatch):
    # the first row whose last end is no hull vertex, one point shorter:
    # the hull stays and the rows hold one point fewer than it
    vertices = convex_hull(row_image_list(sigma, rows)).vertices
    j = next(k for k, ((x, y), c) in enumerate(rows)
             if c > 1 and (x + (c - 1) * sigma[0], y + (c - 1) * sigma[1]) not in vertices)
    return rows[:j] + ((rows[j][0], rows[j][1] - 1),) + rows[j + 1:]


@pytest.mark.parametrize("corrupt, message", [
    (_shared_line, "projection gained or lost lattice points: two rows share a line$"),
    (_hull_moved, "projection gained or lost lattice points: a row leaves the hull$"),
    (_count_short, "projected point count 28 != 27$"),
], ids=["shared-line", "end-outside", "count-off-by-one"])
def test_row_hull_faults_are_caught(monkeypatch, corrupt, message):
    # each fault is made in the polytope's charted rows, whose total is
    # its n as in _build
    p = build(Quadruple(2, 3, 7, 42))
    sigma = (1, 0)
    rows = corrupt(sigma, p.rows, monkeypatch)
    p = dataclasses.replace(p, rows=rows, n=sum(c for _, c in rows))
    with pytest.raises(InvariantViolation, match=rf"^\(2,3,7;42\): {message}"):
        _rows_hull(p, sigma, p.rows)


def test_projection_checks_the_interior_count_against_the_genus():
    # a polytope whose genus is one short of the count _build checked
    p = build(Quadruple(2, 3, 7, 42))
    triple = find_unimodular_triple(p)
    message = r"^\(2,3,7;42\): projected interior count 16 != 15$"
    with pytest.raises(InvariantViolation, match=message):
        project(dataclasses.replace(p, genus=p.genus - 1), triple)


def test_triple_search_work_is_pinned(monkeypatch):
    # a regression count, not the bound's argument: over every member of
    # the g = 1..4 atlases at d_max 300, find_unimodular_triple computes
    # at most 4 minors before the first with |det| = d
    calls = 0
    minor = wpolytope.minor_det

    def counted(*rows):
        nonlocal calls
        calls += 1
        return minor(*rows)

    monkeypatch.setattr(wpolytope, "minor_det", counted)
    most = members = 0
    for g in range(1, 5):
        for q in enumerate_g_good(g, 300):
            p = _build(q, g)
            calls = 0
            find_unimodular_triple(p)
            most, members = max(most, calls), members + 1
    assert (members, most) == (2235, 4)


@functools.cache
def _atlas_members():
    """Every member of the g <= 8 atlases: d_max 600 for g <= 4, 300 above."""
    return tuple(
        (q, g) for g in range(1, 9) for q in enumerate_g_good(g, 600 if g <= 4 else 300)
    )


def test_charted_rows_match_the_listing_build():
    # the charted rows, n, the interior count and the lex listing drawn
    # from the rows equal the build that listed, sorted and scanned every
    # point, on every member of the g <= 8 atlases
    for q, g in _atlas_members():
        p = _build(q, g)
        points, rows, n, interior = listing_build(q)
        assert (p.rows, p.n, p.genus) == (rows, n, interior), q
        assert p.points == points, q
    assert len(_atlas_members()) == 6566


def _drawn_prefixes(monkeypatch):
    """Record how many points each triple search draws from the rows."""
    drawn = []
    lex_points = wpolytope._lex_points

    def counted(p):
        drawn.append(0)
        for point in lex_points(p):
            drawn[-1] += 1
            yield point

    monkeypatch.setattr(wpolytope, "_lex_points", counted)
    return drawn


def test_lazy_triple_matches_the_listing_search(monkeypatch):
    # the triple drawn lazily from the rows is the first det-d triple of
    # combinations(range(n), 3) over the sorted listing, on every member
    # of the g <= 8 atlases and on the analyze population (1 <= g <= 40,
    # d <= 150), and each search draws exactly the prefix that order
    # reaches.  The longest prefix is pinned as a regression value, not
    # as a bound
    population = [(q, g) for g in range(1, 41) for q in enumerate_g_good(g, 150)]
    assert len(population) == 3149
    drawn = _drawn_prefixes(monkeypatch)
    longest = {}
    for name, members in (("atlases", _atlas_members()), ("analyze", population)):
        longest[name] = 0
        for q, g in members:
            p = _build(q, g)
            triple, prefix = _listing_triple(listing_build(q)[0], q.d)
            assert find_unimodular_triple(p) == triple, q
            assert drawn[-1] == prefix, q
            longest[name] = max(longest[name], prefix)
    assert longest == {"atlases": 7, "analyze": 12}


def _first_line_draw(p):
    """Check p's triple search against its argued prefix along the first
    lex line, and return its draw when that line holds P0 alone, else
    None.  The triple starts with the two lex-least points and P0 has
    a = 0; when P1 has a = 0 too, the third point is the lex-least with
    a = 1 and the search draws |{a = 0}| + 1 points."""
    with pytest.MonkeyPatch.context() as patch:
        drawn = _drawn_prefixes(patch)
        triple = find_unimodular_triple(p)
    points = p.points
    assert triple[:2] == points[:2] and points[0][0] == 0, p.quadruple
    if points[1][0]:
        return drawn[0]
    line = sum(1 for point in points if point[0] == 0)
    assert triple[2] == points[line] and points[line][0] == 1, p.quadruple
    assert drawn[0] == line + 1, p.quadruple
    return None


def test_the_first_lex_line_sets_the_triple_search_draw():
    # find_unimodular_triple's argued prefix on every member of the g <= 8
    # atlases and of the analyze population.  Where the first lex line
    # holds P0 alone, the draw of 3 points is a regression value, not an
    # argument
    population = [(q, g) for g in range(1, 41) for q in enumerate_g_good(g, 150)]
    alone = {}
    for name, members in (("atlases", _atlas_members()), ("analyze", population)):
        draws = [_first_line_draw(_build(q, g)) for q, g in members]
        draws = [draw for draw in draws if draw is not None]
        alone[name] = (len(draws), max(draws))
    assert alone == {"atlases": (6405, 3), "analyze": (2030, 3)}


def test_a_collinear_draw_reaches_the_final_raise(monkeypatch):
    # points on one line hold no triple with |det| = d; the search reads
    # the n - 2 minors through the two lex-least points, then raises
    p = build(Quadruple(2, 3, 7, 42))
    monkeypatch.setattr(
        wpolytope, "_lex_points", lambda p: ((0, 14 - 7 * t, 3 * t) for t in range(p.n))
    )
    calls = 0
    minor = wpolytope.minor_det

    def counted(*rows):
        nonlocal calls
        calls += 1
        return minor(*rows)

    monkeypatch.setattr(wpolytope, "minor_det", counted)
    with pytest.raises(InvariantViolation, match=r"^\(2,3,7;42\): no row triple with \|det\| == 42$"):
        find_unimodular_triple(p)
    assert calls == p.n - 2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_charted_rows_and_lazy_triple_on_random_quadruples(data):
    # random pairwise coprime weights and a good degree up to 600 of genus
    # at most 2000, in every order of the weights, so that each axis is
    # the heaviest in turn
    w0 = data.draw(st.integers(1, 40), label="w0")
    w1 = data.draw(st.integers(1, 40).filter(lambda w: gcd(w, w0) == 1), label="w1")
    w2 = data.draw(st.integers(1, 40).filter(lambda w: gcd(w, w0 * w1) == 1), label="w2")
    degrees = _good_degrees(tuple(sorted((w0, w1, w2))))
    assume(degrees)
    d = data.draw(st.sampled_from(degrees), label="d")
    g = validate(Quadruple(w0, w1, w2, d)).genus
    for weights in permutations((w0, w1, w2)):
        q = Quadruple(*weights, d)
        p = _build(q, g)
        points, rows, n, interior = listing_build(q)
        assert (p.rows, p.n, p.genus, p.points) == (rows, n, interior, points), q
        if n >= 3:
            assert find_unimodular_triple(p) == _listing_triple(points, d)[0], q
            _first_line_draw(p)


@pytest.mark.parametrize("fault", [
    lambda low, high, wz: (low + wz, high),
    lambda low, high, wz: (low - wz, high),
    lambda low, high, wz: (low, high + wz),
], ids=["least-dropped", "zero-kept", "top-kept"])
def test_a_shifted_interior_subrange_is_caught(monkeypatch, fault):
    # each row's interior subrange moved by one member of its class at one
    # end; the interior count goes wrong on some atlas member, and _build's
    # check against the genus catches it
    span = wpolytope._inner_span
    monkeypatch.setattr(
        wpolytope, "_inner_span", lambda y, rest, wy, wz: fault(*span(y, rest, wy, wz), wz)
    )
    message = r"^\(\d+,\d+,\d+;\d+\): \d+ interior points but genus \d+$"
    with pytest.raises(InvariantViolation, match=message) as excinfo:
        for g in (1, 2, 3):
            group_by_class(g, 120)
    assert excinfo.traceback[-1].name == "_build"
