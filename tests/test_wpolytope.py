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
from wpoly.wpolytope import _build, _row_images, _rows_hull

from lattice_oracles import (
    cramer_decompose,
    interior_count,
    polytope_points_loop,
    projection_coordinates,
    row_image_list,
    row_points,
)


def solve_over(p, triple, target):
    return wpolytope._triple_solver(p.quadruple, triple)[2](target)

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
    assert p.interior == ((2, 1, 1),)
    assert not p.exceptional_bound


def test_build_rejects_non_good():
    with pytest.raises(PreconditionError):
        build(Quadruple(1, 1, 3, 5))


def test_interior_matches_genus_and_shifted_count():
    for tup in [(1, 1, 1, 3), (1, 2, 3, 7), (1, 2, 1, 5), (1, 1, 1, 4)]:
        p = build(Quadruple(*tup))
        assert len(p.interior) == p.genus == interior_count(p)


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
    assert solve_over(p, t, (7, 0, 0)) == (-6, 4, 3)
    p3 = build(Quadruple(1, 1, 1, 3))
    t3 = find_unimodular_triple(p3)
    assert solve_over(p3, t3, (2, 2, 2)) == (-2, 2, 2)


def test_decompose_over_alternative_triple():
    # any row triple with |det| = d works, not just the lex-first one
    p = build(Quadruple(1, 3, 2, 7))
    t = ((4, 1, 0), (2, 1, 1), (1, 2, 0))
    assert solve_over(p, t, (7, 0, 0)) == (2, 0, -1)


def test_decompose_alpha_sum_equals_degree_multiple():
    q = Quadruple(1, 2, 3, 11)
    p = build(q)
    t = find_unimodular_triple(p)
    for mult in (1, 2, 3):
        target = (mult * q.d, 0, 0)
        assert sum(solve_over(p, t, target)) == mult


def test_decompose_rejects_bad_inputs():
    p = build(Quadruple(1, 3, 2, 7))
    with pytest.raises(PreconditionError):
        solve_over(p, ((1, 2, 0), (3, 0, 2), (5, 0, 1)), (7, 0, 0))  # |det| = 14


def test_triple_solver_checks_divisibility():
    # a target whose degree is not a multiple of d has no integral solution
    p = build(Quadruple(1, 3, 2, 7))
    _, det, solve = wpolytope._triple_solver(p.quadruple, find_unimodular_triple(p))
    assert abs(det) == 7
    with pytest.raises(InvariantViolation, match="non-integral decomposition"):
        solve((1, 0, 0))


def test_every_point_decomposes_over_lex_triple():
    for g in (1, 2):
        for q in enumerate_g_good(g, 20):
            p = build(q)
            t = find_unimodular_triple(p)
            for pt in p.points:
                assert sum(solve_over(p, t, pt)) == 1, (q, pt)


@functools.cache
def _good_quadruples():
    return tuple(q for g in range(1, 9) for q in enumerate_g_good(g, 90))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_decompose_and_projection_match_cramer(data):
    # any det-d triple, in any row order, against the replaced-row oracle:
    # every row, and one target of degree 2d (a sum of two rows)
    q = data.draw(st.sampled_from(_good_quadruples()), label="quadruple")
    p = build(q)
    triples = [t for t in combinations(p.points, 3) if abs(minor_det(*t)) == q.d]
    triple = tuple(data.draw(st.sampled_from(triples).flatmap(st.permutations), label="triple"))
    images = dict(zip(row_points(p), row_image_list(*_row_images(p, triple))))
    for row in p.points:
        expected = cramer_decompose(triple, row)
        assert solve_over(p, triple, row) == expected, (q, triple, row)
        assert images[row] == expected[:2]
    i = data.draw(st.integers(0, p.n - 1))
    j = data.draw(st.integers(0, p.n - 1))
    target = tuple(x + y for x, y in zip(p.points[i], p.points[j]))
    alphas = solve_over(p, triple, target)
    assert alphas == cramer_decompose(triple, target) and sum(alphas) == 2


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
        assert p.interior == ()
        assert interior_count(p) == 0


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
    # and its rows, each start + t*step for a step of degree 0, hold them
    quads = enumerate_g_good(g, 120)
    if g == 1:
        assert Quadruple(1, 1, 1, 3) in quads
    for q in quads:
        for w0, w1, w2 in set(permutations(q.weights)):
            permuted = Quadruple(w0, w1, w2, q.d)
            p = _build(permuted, g)
            assert p.points == polytope_points_loop(permuted), permuted
            assert build(permuted) == p
            assert sum(w * x for w, x in zip(permuted.weights, p.step)) == 0
            assert all(c >= 1 for _, c in p.rows)
            assert sorted(row_points(p)) == list(p.points), permuted


def _point_oracle_polygon(p, triple):
    """The hull of every point's own solve, and the images as a multiset
    against the expanded rows; the row route must give the same polygon."""
    images = projection_coordinates(p, triple)
    assert sorted(images) == sorted(row_image_list(*_row_images(p, triple))), p.quadruple
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
    # random pairwise coprime weights in any order, and a good degree up to
    # 600 of genus at most 2000
    w0 = data.draw(st.integers(1, 40), label="w0")
    w1 = data.draw(st.integers(1, 40).filter(lambda w: gcd(w, w0) == 1), label="w1")
    w2 = data.draw(st.integers(1, 40).filter(lambda w: gcd(w, w0 * w1) == 1), label="w2")
    degrees = _good_degrees((w0, w1, w2))
    assume(degrees)
    q = Quadruple(w0, w1, w2, data.draw(st.sampled_from(degrees), label="d"))
    p = build(q)
    assume(p.n >= 3)
    triple = find_unimodular_triple(p)
    assert project(p, triple) == _point_oracle_polygon(p, triple)


def _plus(u, v):
    return tuple(a + b for a, b in zip(u, v))


@pytest.mark.parametrize("corrupt, message", [
    (lambda p, t: {"rows": ((_plus(p.rows[0][0], (1, 0, 0)), p.rows[0][1]),) + p.rows[1:]},
     r"non-integral decomposition of \(1, 14, 0\)"),
    (lambda p, t: {"step": _plus(p.step, (1, 0, 0))},
     r"non-integral decomposition of \(4, -2, 0\)"),
    (lambda p, t: {"rows": ((_plus(p.rows[0][0], t[0]), p.rows[0][1]),) + p.rows[1:]},
     r"affine coefficients of \(0, 14, 6\) sum to 2$"),
    (lambda p, t: {"step": _plus(p.step, t[0])},
     r"affine coefficients of the step \(3, -2, 6\) sum to 1$"),
], ids=["inexact-start", "inexact-step", "start-sum", "step-sum"])
def test_row_solve_faults_are_caught(corrupt, message):
    p = build(Quadruple(2, 3, 7, 42))
    triple = find_unimodular_triple(p)
    with pytest.raises(InvariantViolation, match=message):
        project(dataclasses.replace(p, **corrupt(p, triple)), triple)


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
    (_shared_line, "two rows share a line$"),
    (_hull_moved, "a row leaves the hull$"),
    (_count_short, "the rows hold 27, the hull 28$"),
], ids=["shared-line", "end-outside", "count-off-by-one"])
def test_row_hull_faults_are_caught(monkeypatch, corrupt, message):
    q = Quadruple(2, 3, 7, 42)
    p = build(q)
    sigma, rows = _row_images(p, find_unimodular_triple(p))
    rows = corrupt(sigma, rows, monkeypatch)
    with pytest.raises(InvariantViolation, match=rf"^\(2,3,7;42\): projection gained or lost lattice points: {message}"):
        _rows_hull(q, sigma, rows)


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
