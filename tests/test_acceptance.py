"""Acceptance suite: nine verifiable criteria over the full working corpus.

Each test emits one PASS/FAIL line (collected into the terminal summary)
and fails loudly with the offending instances when a criterion breaks.
"""
import hashlib
import time
from itertools import combinations

import pytest

from wpoly import (
    Quadruple,
    basis_change,
    build,
    canonical_form,
    convex_hull,
    enumerate_classes,
    enumerate_g_good,
    find_unimodular_triple,
    group_by_class,
    make_curve,
    map_curve,
    minor_det,
    project,
    render_polygon_svg,
    verify_case_identities,
)
from wpoly import classify, wpolytope
from wpoly.cli import main
from wpoly.errors import DegenerateInputError, PreconditionError
from wpoly.polygon2d import _pick_counts

from lattice_oracles import (
    apply_map,
    canonical_cycles,
    interior_count,
    random_unimodular_map,
    tiling_faults,
    triangulate,
)

D_CORPUS = 60
GENERA = (1, 2, 3, 4, 5)

SVG_113_SHA256 = "07933763e03935440a170e60d2e3268ae15e9f8655dd59030f4fbeb541b0b8fc"


@pytest.fixture(scope="module")
def corpus():
    """All g-good quadruples with d <= 60 for g in 1..5, with polytopes."""
    out = {}
    for g in GENERA:
        out[g] = [(q, build(q)) for q in enumerate_g_good(g, D_CORPUS)]
    return out


@pytest.fixture(scope="module")
def g1_classes():
    return enumerate_classes(1, "inductive")


@pytest.fixture(scope="module")
def g2_classes():
    return enumerate_classes(2, "inductive")


def test_criterion_1_polytope_identity_suite(record_criterion):
    # enumeration and construction are timed too: the stated target is
    # the whole suite under 60 s
    t0 = time.time()
    violations = []
    total = 0
    case_tags = set()
    for g in GENERA:
        for q in enumerate_g_good(g, D_CORPUS):
            p = build(q)
            total += 1
            if not (len(p.interior) == g == interior_count(p)):
                violations.append(f"{q}: interior {len(p.interior)} != {g}")
            for a, b, c in combinations(p.points, 3):
                if minor_det(a, b, c) % q.d != 0:
                    violations.append(f"{q}: minor {a},{b},{c} not divisible")
                    break
            triple = find_unimodular_triple(p)
            if abs(minor_det(*triple)) != q.d:
                violations.append(f"{q}: triple determinant mismatch")
            rep = verify_case_identities(p)
            case_tags.add(rep.case_tag)
            if rep.actual_det != rep.predicted_det:
                violations.append(f"{q}: case {rep.case_tag} det mismatch")
    elapsed = time.time() - t0
    ok = not violations and elapsed < 60 and total > 0
    record_criterion(
        1,
        ok,
        f"identity suite on {total} quadruples (g 1..5, d <= {D_CORPUS}): "
        f"interior counts, minor divisibility, det-d triples, case identities; "
        f"cases seen {sorted(case_tags)}; {elapsed:.1f}s",
    )
    assert ok, violations[:5]


def test_criterion_2_projection_suite(corpus, record_criterion):
    violations = []
    total = 0
    for g, pairs in corpus.items():
        for q, p in pairs:
            total += 1
            triple = find_unimodular_triple(p)
            poly = project(p, triple)  # integral Cramer + point-set match inside
            if poly.n != p.n or poly.i != g:
                violations.append(f"{q}: projection changed counts")
    multiples_checked = 0
    for tup in [(1, 1, 1, 3), (1, 3, 2, 7), (1, 2, 3, 11)]:
        q = Quadruple(*tup)
        p = build(q)
        solve = wpolytope._triple_solver(q, find_unimodular_triple(p))[2]
        for mult in (2, 3):
            target_degree = mult * q.d
            for a in range(target_degree // q.w0 + 1):
                for b in range((target_degree - a * q.w0) // q.w1 + 1):
                    rem = target_degree - a * q.w0 - b * q.w1
                    if rem % q.w2 != 0:
                        continue
                    if sum(solve((a, b, rem // q.w2))) != mult:
                        violations.append(f"{q}: alpha sum for degree {mult}d")
                    multiples_checked += 1
    ok = not violations
    record_criterion(
        2,
        ok,
        f"projections preserve n and interior on {total} quadruples; "
        f"{multiples_checked} degree-2d/3d monomials decompose integrally",
    )
    assert ok, violations[:5]


def test_criterion_3_bound_stress(corpus, record_criterion):
    violations = []
    cubic = build(Quadruple(1, 1, 1, 3))
    if not (cubic.n == 10 and cubic.exceptional_bound):
        violations.append("(1,1,1,3) not flagged with n=10")
    for q, p in corpus[1]:
        if (q.w0, q.w1, q.w2, q.d) == (1, 1, 1, 3):
            continue
        if p.n > 9 or p.exceptional_bound:
            violations.append(f"{q}: n={p.n} above soft bound")
    for g, pairs in corpus.items():
        for q, p in pairs:
            if p.n > 3 * g + 7:
                violations.append(f"{q}: n={p.n} above hard bound")
    ok = not violations
    record_criterion(
        3,
        ok,
        "(1,1,1,3) alone exceeds 3g+6 (n=10, flagged); all others within "
        "3g+6; hard bound 3g+7 holds corpus-wide",
    )
    assert ok, violations[:5]


def test_criterion_4_classification_finiteness(g1_classes, record_criterion):
    a7 = group_by_class(1, 7)
    a30 = group_by_class(1, 30)
    a60 = group_by_class(1, D_CORPUS)
    k30 = {e.canonical.vertices for e in a30.classes}
    k60 = {e.canonical.vertices for e in a60.classes}
    all_classes = {p.vertices for p in g1_classes}
    ok = (
        len(a7.classes) == 4
        and len(a30.classes) == len(a60.classes)
        and k30 == k60
        and k60 <= all_classes
    )
    record_criterion(
        4,
        ok,
        f"g=1 classes: {len(a7.classes)} at d<=7, {len(a30.classes)} at d<=30 "
        f"= {len(a60.classes)} at d<=60 (same sets), all among the "
        f"{len(all_classes)} enumerated classes",
    )
    assert ok


def test_criterion_5_cross_validation(g1_classes, g2_classes, record_criterion):
    ind1 = {p.vertices for p in g1_classes}
    box1 = {p.vertices for p in enumerate_classes(1, "box")}
    # independent oracle at bound 3: hulls of every subset of the 4x4 grid
    grid = [(x, y) for x in range(4) for y in range(4)]
    oracle3 = set()
    for size in range(3, 9):
        for subset in combinations(grid, size):
            try:
                hull = convex_hull(list(subset))
            except DegenerateInputError:
                continue
            if hull.i == 1:
                oracle3.add(canonical_form(hull).vertices)
    box3 = canonical_cycles(classify._box_cycles(1, 3, 10))
    ind2 = {p.vertices for p in g2_classes}
    box2 = {p.vertices for p in enumerate_classes(2, "box")}
    ok = (
        ind1 == box1
        and len(ind1) == 16
        and box3 == oracle3
        and len(box3) == 15
        and ind2 == box2
        and len(ind2) == 45
    )
    record_criterion(
        5,
        ok,
        f"g=1: inductive = box(4) = {len(ind1)} classes, box(3) = "
        f"{len(box3)} = literal subset-hull oracle (the width-4 class needs "
        f"bound 4); g=2: inductive = box(6) = {len(ind2)} classes",
    )
    assert ok


def _sample_polygons(g1_classes, g2_classes, count):
    reps = list(g1_classes) + list(g2_classes)
    samples = []
    seed = 0
    while len(samples) < count:
        poly = reps[len(samples) % len(reps)]
        m = random_unimodular_map(seed, size=1 + seed % 4)
        samples.append(apply_map(poly, m))
        seed += 1
    return samples


def test_criterion_6_pick_triangulation_fuzz(g1_classes, g2_classes, record_criterion):
    violations = []
    samples = _sample_polygons(g1_classes, g2_classes, 500)
    for poly in samples:
        i, b = poly.i, poly.b
        poly_area2 = _pick_counts(poly.vertices)[0]
        if poly_area2 != 2 * i + b - 2:
            violations.append(f"{poly.vertices}: area vs Pick")
        tris = triangulate(poly)
        if len(tris) != 2 * i + b - 2:
            violations.append(f"{poly.vertices}: piece count {len(tris)}")
        total = 0
        for a, b_, c in tris:
            area2 = (b_[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b_[1] - a[1])
            if area2 != 1:
                violations.append(f"{poly.vertices}: non-primitive piece")
                break
            total += area2
        else:
            if total != poly_area2:
                violations.append(f"{poly.vertices}: piece areas do not sum")
    ok = not violations
    record_criterion(
        6,
        ok,
        f"{len(samples)} fuzzed polygons: 2*area = 2i+b-2 and triangulations "
        f"have exactly 2i+b-2 primitive pieces summing to the area",
    )
    assert ok, violations[:5]


def test_fuzzed_triangulations_tile_the_polygons(g1_classes, g2_classes):
    # piece count, primitivity and total area allow overlapping pieces;
    # the edge pairing does not
    faults = []
    for poly in _sample_polygons(g1_classes, g2_classes, 500):
        faults.extend(f"{poly.vertices}: {f}" for f in tiling_faults(poly, triangulate(poly)))
    assert not faults, faults[:5]


def test_criterion_7_canonical_fuzz(g1_classes, g2_classes, record_criterion):
    violations = []
    reps = [g1_classes[0], g1_classes[8], g1_classes[15], g2_classes[0], g2_classes[44]]
    maps_per_polygon = 1000
    for poly in reps:
        base = canonical_form(poly)
        if canonical_form(base).vertices != base.vertices:
            violations.append(f"{poly.vertices}: canonical not idempotent")
        for seed in range(maps_per_polygon):
            m = random_unimodular_map(seed, size=1 + seed % 4)
            moved = apply_map(poly, m)
            if canonical_form(moved).vertices != base.vertices:
                violations.append(f"{poly.vertices}: seed {seed} changed class")
                break
    for poly in list(g1_classes) + list(g2_classes):
        if canonical_form(poly).vertices != poly.vertices:
            violations.append(f"{poly.vertices}: class rep not canonical")
    ok = not violations
    record_criterion(
        7,
        ok,
        f"{maps_per_polygon} unimodular maps on each of {len(reps)} polygons "
        f"leave the canonical form fixed; idempotent on all 61 class reps",
    )
    assert ok, violations[:5]


def test_criterion_8_basis_change_suite(record_criterion):
    violations = []
    atlas = group_by_class(1, 30)
    pairs = 0
    for entry in atlas.classes:
        for qa, qb in combinations(entry.members, 2):
            # basis_change checks that both projections are equivalent,
            # verifies M(P) T = M(P') row-exactly and that d*T is
            # integral; reaching the return means all three held
            try:
                bc = basis_change(qa, qb)
            except PreconditionError:
                violations.append(f"{qa} vs {qb}: same class but not equivalent")
                continue
            curve = make_curve(qa, [(1, pt) for pt in build(qa).points])
            mapped, _ = map_curve(curve, bc)
            for _, v in mapped.terms:
                if sum(x * w for x, w in zip(v, qb.weights)) != qb.d:
                    violations.append(f"{qa}->{qb}: term {v} off degree")
            pairs += 1
    ok = not violations and pairs > 0
    record_criterion(
        8,
        ok,
        f"all {pairs} same-class pairs in the g=1 d<=30 atlas admit verified "
        f"basis changes; transported curves stay weighted-homogeneous",
    )
    assert ok, violations[:5]


def test_criterion_9_determinism(tmp_path, monkeypatch, capsys, record_criterion):
    violations = []
    library = group_by_class(1, 15).to_json_bytes()
    if library != group_by_class(1, 15).to_json_bytes():
        violations.append("atlas bytes differ between runs")
    monkeypatch.chdir(tmp_path)
    for flags, name in (([], "plain"), (["--jobs", "8"], "j8")):
        code = main(["classify", "--genus", "1", "--dmax", "15", *flags, "--atlas-dir", name])
        capsys.readouterr()
        if code != 0:
            violations.append(f"classify failed with {flags}")
        elif (tmp_path / name / "atlas_g1_d15.json").read_bytes() != library:
            violations.append(f"CLI atlas with {flags} differs from group_by_class")
    p = build(Quadruple(1, 1, 1, 3))
    poly = project(p, find_unimodular_triple(p))
    svg = render_polygon_svg(poly)
    if svg != render_polygon_svg(poly):
        violations.append("SVG differs between renders")
    if hashlib.sha256(svg.encode()).hexdigest() != SVG_113_SHA256:
        violations.append("SVG bytes drifted from the golden hash")
    ok = not violations
    record_criterion(
        9,
        ok,
        "atlas bytes identical across library reruns, and classify with no "
        "flag and with --jobs 8 writes the library's bytes; SVG output "
        "matches its golden hash",
    )
    assert ok, violations
