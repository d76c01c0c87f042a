"""Quadruple validity, genus, and enumeration."""
import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpoly import (
    D_MAX_CAP,
    Quadruple,
    enumerate_g_good,
    family_quadruple,
    raw_genus,
    validate,
)
from wpoly import quadruples
from wpoly.errors import PreconditionError
from wpoly.quadruples import _case_candidates, _condition_i_witness, _condition_ii_witness
from wpoly.wpolytope import _case_report, build

from lattice_oracles import condition_ii_witness_loop


@functools.lru_cache(maxsize=None)
def _brute_scan(d):
    """Oracle: every (w0 <= w1 <= w2 < d) tested, as {genus: (quadruples)}.

    Each triple is validated once by the goodness tests, whatever its
    genus, so one sweep over a degree serves every g.
    """
    found = {}
    for w0 in range(1, d):
        for w1 in range(w0, d):
            if math.gcd(w0, w1) != 1:
                continue
            for w2 in range(w1, d):
                if math.gcd(w0, w2) != 1 or math.gcd(w1, w2) != 1:
                    continue
                weights = (w0, w1, w2)
                if any(_condition_i_witness(weights, d, i) is None for i in range(3)):
                    continue
                if any(condition_ii_witness_loop(weights, d, i) is None for i in range(3)):
                    continue
                q = Quadruple(w0, w1, w2, d)
                value = raw_genus(q)
                if value.denominator == 1:
                    found.setdefault(int(value), []).append(q)
    return {g: tuple(qs) for g, qs in found.items()}


def _scan_degree(g, d):
    """Oracle for large d: all good quadruples of degree d and genus g,
    weights ascending.

    Two exact prunes decide which w2 are tried for each (w0, w1):

    - Genus window.  Each gcd(w_i, d)/w_i lies in (0, 1], so the genus
      formula gives 2g - 2 <= d(d - w0 - w1 - w2)/(w0 w1 w2) < 2g + 1.
      With a = d(d - w0 - w1) and b = w0 w1 that is
      a // ((2g+1)b + d) < w2 <= a // ((2g-2)b + d).
      The upper end is at most a // d = d - w0 - w1, so w2 < d holds.  It
      falls as w1 grows (a falls, b grows), so once it is below w1, or
      a <= 0, no larger w1 leaves a w2 >= w1.  The window at w1 = w0
      bounds the window of every larger w1 and falls as w0 grows, so once
      it is empty there no larger w0 leaves one either.  It is computed
      before the gcd test, because w1 = w0 is coprime only for w0 = 1.
    - Condition (i) on the axis of w2 needs k*w2 + w_j = d with k >= 1, so
      w2 divides d, d - w0 or d - w1 (j = 2, 0, 1).  The window's
      divisors of such an m are m // k for the k in
      [ceil(m / hi), m // lo] that divide m.

    Each w2 left, in ascending order, then passes the goodness tests:
    pairwise coprimality, conditions (i) and (ii) on all three axes, and
    an exact genus that must be integral and equal g.
    """
    found = []
    c_hi, c_lo = 2 * g - 2, 2 * g + 1
    for w0 in range(1, d):
        a = d * (d - 2 * w0)
        if a <= 0 or a // (c_hi * w0 * w0 + d) < w0:
            break
        for w1 in range(w0, d):
            a = d * (d - w0 - w1)
            if a <= 0:
                break
            b = w0 * w1
            hi = a // (c_hi * b + d)
            if hi < w1:
                break
            if math.gcd(w0, w1) != 1:
                continue
            lo = max(w1, a // (c_lo * b + d) + 1)
            window = {
                m // k
                for m in (d, d - w0, d - w1)
                for k in range(-(-m // hi), m // lo + 1)
                if m % k == 0
            }
            for w2 in sorted(window):
                if math.gcd(w0, w2) != 1 or math.gcd(w1, w2) != 1:
                    continue
                weights = (w0, w1, w2)
                if any(_condition_i_witness(weights, d, i) is None for i in range(3)):
                    continue
                if any(condition_ii_witness_loop(weights, d, i) is None for i in range(3)):
                    continue
                q = Quadruple(w0, w1, w2, d)
                value = raw_genus(q)
                if value.denominator == 1 and int(value) == g:
                    found.append(q)
    return found


def test_quadruple_rejects_nonpositive_entries():
    with pytest.raises(ValueError):
        Quadruple(0, 1, 1, 3)
    with pytest.raises(ValueError):
        Quadruple(1, -2, 1, 3)
    with pytest.raises(ValueError):
        Quadruple(1, 1, 1, 0)


def test_quadruple_rejects_degree_over_cap():
    with pytest.raises(ValueError):
        Quadruple(1, 1, 1, D_MAX_CAP + 1)


def test_str():
    assert str(Quadruple(2, 3, 5, 17)) == "(2,3,5;17)"


def test_validate_good_instance():
    report = validate(Quadruple(1, 3, 2, 7))
    assert report.pairwise_coprime
    assert report.degree_dominates
    assert all(w is not None for w in report.condition_i)
    assert all(w is not None for w in report.condition_ii)
    assert report.is_good
    assert report.genus == 1


def test_validate_condition_i_failure():
    # no monomial of the form x2^k * xj has degree 8 when w2 = 5
    report = validate(Quadruple(1, 2, 5, 8))
    assert report.condition_i[2] is None
    assert not report.is_good
    assert report.genus is None


def test_validate_not_coprime():
    report = validate(Quadruple(2, 4, 3, 13))
    assert not report.pairwise_coprime
    assert not report.is_good


def test_validate_degree_too_small():
    report = validate(Quadruple(1, 3, 5, 4))
    assert not report.degree_dominates
    assert not report.is_good


@settings(max_examples=500, deadline=None)
@given(
    st.tuples(st.integers(1, 60), st.integers(1, 60), st.integers(1, 60)),
    st.integers(1, 3000),
    st.integers(0, 2),
)
def test_condition_ii_witness_matches_the_loop(weights, d, axis):
    # the direct formula finds the loop's smallest-e_j witness, or none,
    # for any weights, coprime or not
    assert _condition_ii_witness(weights, d, axis) == condition_ii_witness_loop(weights, d, axis)


def test_raw_genus_fractional_for_non_good():
    assert raw_genus(Quadruple(1, 1, 3, 5)) == Fraction(2, 3)


def test_raw_genus_degenerate_quadruple():
    assert raw_genus(Quadruple(1, 1, 1, 1)) == 0


def test_raw_genus_integral_for_good():
    assert raw_genus(Quadruple(1, 3, 2, 7)) == 1
    assert raw_genus(Quadruple(1, 1, 1, 3)) == 1


def test_genus_values():
    assert validate(Quadruple(1, 1, 1, 3)).genus == 1
    assert validate(Quadruple(1, 1, 2, 4)).genus == 1
    assert validate(Quadruple(1, 2, 3, 6)).genus == 1
    assert validate(Quadruple(1, 2, 3, 7)).genus == 1
    assert validate(Quadruple(1, 2, 1, 5)).genus == 2
    assert validate(Quadruple(1, 1, 1, 4)).genus == 3


def test_genus_requires_good():
    assert validate(Quadruple(1, 1, 3, 5)).genus is None


def test_validity_report_to_dict_shape():
    d = validate(Quadruple(1, 3, 2, 7)).to_dict()
    assert d["quadruple"] == [1, 3, 2, 7]
    assert d["is_good"] is True
    assert d["genus"] == 1
    assert len(d["condition_i"]) == 3
    assert all("k" in w and "j" in w for w in d["condition_i"])
    assert all("axes" in w and "exponents" in w for w in d["condition_ii"])


def test_enumerate_g1_small_degrees():
    quads = enumerate_g_good(1, 7)
    assert [(*q.weights, q.d) for q in quads] == [
        (1, 1, 1, 3),
        (1, 1, 2, 4),
        (1, 2, 3, 6),
        (1, 2, 3, 7),
    ]


def test_enumerate_empty_below_first_degree():
    assert enumerate_g_good(1, 2) == []


def test_enumerate_sorted_and_weights_ascending():
    quads = enumerate_g_good(2, 40)
    assert quads == sorted(quads, key=lambda q: (q.d, *q.weights))
    assert all(q.w0 <= q.w1 <= q.w2 for q in quads)


@pytest.mark.parametrize("g, count", [(1, 82), (2, 71), (3, 76), (4, 48), (5, 36)])
def test_enumerate_matches_brute_scan(g, count):
    expected = [q for d in range(3, 61) for q in _brute_scan(d).get(g, ())]
    assert enumerate_g_good(g, 60) == expected
    assert len(expected) == count


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(1, 90))
def test_scan_degree_matches_brute_scan(g, d):
    assert _scan_degree(g, d) == list(_brute_scan(d).get(g, ()))


@pytest.mark.parametrize("g", range(1, 9))
def test_enumerate_matches_scan_oracle(g):
    expected = [q for d in range(3, 241) for q in _scan_degree(g, d)]
    assert enumerate_g_good(g, 240) == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(1, 400))
def test_enumerate_degree_slice_matches_scan_oracle(g, d):
    assert [q for q in enumerate_g_good(g, d) if q.d == d] == _scan_degree(g, d)


@pytest.mark.parametrize("g", range(1, 9))
def test_each_case_walk_lists_the_quadruples_of_its_case(g):
    # the walks overlap, so equal lists alone would not catch a walk that
    # misses part of its own case: each quadruple must come from the walk
    # of the case its distinguished rows match
    walked = {}
    for tag, *u, d in _case_candidates(g, 240):
        walked.setdefault(tag, set()).add((*sorted(u), d))
    for q in enumerate_g_good(g, 240):
        tag = _case_report(build(q)).case_tag
        assert (*q.weights, q.d) in walked.get(tag, ()), (q, tag)


# Counts the degree scan (now the oracle _scan_degree) gave at large d
@pytest.mark.parametrize(
    "g, d_max, count",
    [(2, 600, 1391), (2, 1200, 3221), (3, 1200, 3475), (5, 1200, 1904), (1, 800, 2020)],
)
def test_enumerate_large_degree_counts(g, d_max, count):
    quads = enumerate_g_good(g, d_max)
    assert len(quads) == count
    assert quads == sorted(quads, key=lambda q: (q.d, *q.weights))
    listed = set(quads)
    m = 1
    while family_quadruple(g, m).d <= d_max:
        q = family_quadruple(g, m)
        assert Quadruple(*sorted(q.weights), q.d) in listed, q
        m += 1


def test_enumerate_validates_every_coprime_candidate_and_only_those(monkeypatch):
    # the gcd pre-test drops candidates validate would reject as not
    # coprime; every other candidate, each kept one among them, is validated
    validated = []

    def recording(q):
        validated.append(q)
        return validate(q)

    monkeypatch.setattr(quadruples, "validate", recording)
    found = enumerate_g_good(1, 400)
    candidates = {(d, *sorted(u)) for _, *u, d in _case_candidates(1, 400)}
    coprime = [
        Quadruple(w0, w1, w2, d)
        for d, w0, w1, w2 in sorted(candidates)
        if math.gcd(w0, w1) == math.gcd(w0, w2) == math.gcd(w1, w2) == 1
    ]
    assert validated == coprime
    assert set(found) <= set(validated)
    assert len(coprime) < len(candidates)


def test_enumerate_rejects_bad_args():
    with pytest.raises(PreconditionError):
        enumerate_g_good(0, 10)
    with pytest.raises(PreconditionError):
        enumerate_g_good(1, 0)


def test_family_quadruples_are_good_with_right_genus():
    for g in range(1, 6):
        for m in range(1, 4):
            q = family_quadruple(g, m)
            report = validate(q)
            assert report.is_good, q
            assert report.genus == g, q


def test_family_frozen_members():
    assert (*family_quadruple(1, 1).weights, family_quadruple(1, 1).d) == (1, 1, 1, 3)
    assert (*family_quadruple(1, 2).weights, family_quadruple(1, 2).d) == (1, 3, 2, 7)
    assert (*family_quadruple(2, 1).weights, family_quadruple(2, 1).d) == (1, 2, 1, 5)


def test_family_valid_across_window():
    # the two-parameter family stays good with the right genus on 1<=g<=10, 1<=m<=50
    for g in range(1, 11):
        for m in range(1, 51):
            report = validate(family_quadruple(g, m))
            assert report.is_good and report.genus == g, (g, m)


def test_good_weights_divide_or_are_coprime_to_degree():
    # each weight of a good quadruple either divides d or is coprime to it
    for g in (1, 2, 3):
        for q in enumerate_g_good(g, 30):
            for w in q.weights:
                assert q.d % w == 0 or math.gcd(w, q.d) == 1, (q, w)


def test_genus_invariant_under_weight_permutation():
    for q in enumerate_g_good(2, 25):
        for perm in itertools.permutations(q.weights):
            report = validate(Quadruple(*perm, q.d))
            assert report.is_good and report.genus == 2, (q, perm)


@given(st.integers(1, 6), st.integers(1, 5))
def test_family_quadruple_degree_formula(g, m):
    q = family_quadruple(g, m)
    assert q.d == (2 * g + 2) * m - 1


@settings(max_examples=200)
@given(
    st.integers(1, 12), st.integers(1, 12), st.integers(1, 12), st.integers(1, 40)
)
def test_genus_integrality_iff_good_never_crashes(w0, w1, w2, d):
    # validate() must classify every quadruple without raising; when good,
    # the (possibly fractional) genus must come out a nonnegative integer
    q = Quadruple(w0, w1, w2, d)
    report = validate(q)
    if report.is_good:
        assert report.genus is not None and report.genus >= 0
        assert raw_genus(q) == report.genus
