"""Polytope construction, minors, case identities, decompositions."""
import dataclasses
import functools
import re
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wpoly import (
    Quadruple,
    build,
    decompose,
    distinguished_triangle,
    enumerate_g_good,
    find_unimodular_triple,
    group_by_class,
    minor_det,
    projection_coordinates,
    verify_case_identities,
)
from wpoly import classify, wpolytope
from wpoly.cli import main
from wpoly.errors import InvariantViolation, PreconditionError
from wpoly.wpolytope import _build

from lattice_oracles import cramer_decompose, interior_count, polytope_points_loop

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
        assert rep.triangle.case_tag == tag, tup
        det, k, l = expected[tag]
        assert rep.actual_det == rep.predicted_det == det, tup
        assert rep.triangle.k == k and rep.triangle.l == l, tup


def test_case_genus_identities_frozen():
    # both sides of each case's genus identity, as computed before the
    # identities moved into the case templates
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
    # the identity is no match condition: a template whose identity fails
    # still matches, and the check names the identity
    import wpoly.wpolytope as wp

    true_templates = wp._try_templates

    def broken_identity(*args):
        match = true_templates(*args)
        if match is None:
            return None
        *head, (lhs, rhs) = match
        return (*head, (lhs, rhs + 1))

    for tag, tup in CASE_INSTANCES.items():
        p = build(Quadruple(*tup))
        tri = distinguished_triangle(p)
        monkeypatch.setattr(wp, "_try_templates", broken_identity)
        assert distinguished_triangle(p) == tri, tup
        with pytest.raises(InvariantViolation, match=f"case {tag} genus identity fails"):
            verify_case_identities(p)
        monkeypatch.setattr(wp, "_try_templates", true_templates)


def test_case_rows_frozen_for_biii():
    tri = distinguished_triangle(build(Quadruple(1, 3, 2, 7)))
    assert tri.rows == ((7, 0, 0), (1, 2, 0), (1, 0, 3))
    assert tri.permutation == (0, 1, 2)


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
    assert decompose(p, t, (7, 0, 0)) == (-6, 4, 3)
    p3 = build(Quadruple(1, 1, 1, 3))
    t3 = find_unimodular_triple(p3)
    assert decompose(p3, t3, (2, 2, 2)) == (-2, 2, 2)


def test_decompose_over_alternative_triple():
    # any row triple with |det| = d works, not just the lex-first one
    p = build(Quadruple(1, 3, 2, 7))
    t = ((4, 1, 0), (2, 1, 1), (1, 2, 0))
    assert decompose(p, t, (7, 0, 0)) == (2, 0, -1)


def test_decompose_alpha_sum_equals_degree_multiple():
    q = Quadruple(1, 2, 3, 11)
    p = build(q)
    t = find_unimodular_triple(p)
    for mult in (1, 2, 3):
        target = (mult * q.d, 0, 0)
        assert sum(decompose(p, t, target)) == mult


def test_decompose_rejects_bad_inputs():
    p = build(Quadruple(1, 3, 2, 7))
    t = find_unimodular_triple(p)
    with pytest.raises(PreconditionError):
        decompose(p, ((1, 2, 0), (3, 0, 2), (5, 0, 1)), (7, 0, 0))  # |det| = 14
    with pytest.raises(PreconditionError):
        decompose(p, t, (1, 0, 0))  # degree not a multiple of d
    with pytest.raises(PreconditionError):
        decompose(p, t, (-7, 0, 0))


def test_triple_solver_checks_divisibility():
    # decompose refuses a target whose degree is not a multiple of d before
    # solving; the solve itself still refuses a non-integral one
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
                assert sum(decompose(p, t, pt)) == 1, (q, pt)


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
    coords = projection_coordinates(p, triple)
    for row, image in zip(p.points, coords):
        expected = cramer_decompose(triple, row)
        assert decompose(p, triple, row) == expected, (q, triple, row)
        assert image == expected[:2]
    i = data.draw(st.integers(0, p.n - 1))
    j = data.draw(st.integers(0, p.n - 1))
    target = tuple(x + y for x, y in zip(p.points[i], p.points[j]))
    alphas = decompose(p, triple, target)
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
    monkeypatch.setattr(classify, "enumerate_g_good", lambda g, d_max, jobs=1: [q2])
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
    # same points as trying every (a, b), in every order of the weights
    quads = enumerate_g_good(g, 120)
    if g == 1:
        assert Quadruple(1, 1, 1, 3) in quads
    for q in quads:
        for w0, w1, w2 in set(permutations(q.weights)):
            permuted = Quadruple(w0, w1, w2, q.d)
            p = _build(permuted, g)
            assert p.points == polytope_points_loop(permuted), permuted
            assert build(permuted) == p
