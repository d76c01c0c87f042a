"""Exit codes, output formats, output paths, golden files."""
import ast
import hashlib
import json
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wpoly
from wpoly import LatticePolygon, classify, enumerate_classes, group_by_class, wpolytope
from wpoly.classify import atlas_stabilization
from wpoly.cli import main
from wpoly.render import json_text

from lattice_oracles import row_image_list, vertex_dropped


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_quad_check_good(capsys):
    code, out, _ = run(capsys, "quad", "check", "1", "3", "2", "7")
    assert code == 0
    assert "good             True" in out
    assert "genus            1" in out


def test_quad_check_bad_but_wellformed(capsys):
    code, out, _ = run(capsys, "quad", "check", "1", "2", "5", "8")
    assert code == 0
    assert "good             False" in out


def test_quad_check_json(capsys):
    code, out, _ = run(capsys, "quad", "check", "1", "3", "2", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_good"] is True
    assert payload["genus"] == 1


# sha256 of every (argv, exit code, stdout) of the sweep below; the report
# bytes, nulls and bools included, are part of the contract
QUAD_CHECK_JSON_SHA256 = "ec61f7cf3c0e3278c5d041aff77423222b1afaad5c42942a09b1b34b3657c201"


def test_quad_check_json_bytes_are_pinned(capsys):
    digest = hashlib.sha256()
    for w0, w1, w2, d in product(range(1, 7), range(1, 7), range(1, 7), range(1, 25)):
        argv = ["quad", "check", str(w0), str(w1), str(w2), str(d), "--json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        digest.update(repr((argv, code, out)).encode())
    assert digest.hexdigest() == QUAD_CHECK_JSON_SHA256


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_json_text_is_the_indented_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [Fraction(1, 3), [1, Fraction(1, 3)], {"coef": Fraction(1, 3)}])
def test_json_text_refuses_a_fraction_as_json_dumps_does(value):
    with pytest.raises(TypeError):
        json_text(value)
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)


def test_quad_check_rejects_zero_weight(capsys):
    code, _, err = run(capsys, "quad", "check", "0", "1", "1", "3")
    assert code == 1
    assert "w0" in err


def test_quad_check_rejects_garbage(capsys):
    code, _, err = run(capsys, "quad", "check", "x", "1", "1", "3")
    assert code == 1


def test_poly_analyze_exceptional(capsys):
    code, out, _ = run(capsys, "poly", "analyze", "1", "1", "1", "3")
    assert code == 0
    assert "points      10" in out
    assert "exceeds soft bound" in out
    assert "case        d" in out
    assert "determinant 27 (predicted 27)" in out


def test_poly_analyze_json(capsys):
    code, out, _ = run(capsys, "poly", "analyze", "1", "3", "2", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 8
    assert payload["case"]["case"] == "b.iii"
    assert payload["case"]["actual_det"] == 42
    assert payload["genus"] == 1


def test_poly_analyze_rejects_non_good(capsys):
    code, _, err = run(capsys, "poly", "analyze", "1", "1", "3", "5")
    assert code == 1
    assert "not a good quadruple" in err


def _words(q):
    return [str(x) for x in (*q.weights, q.d)]


# sha256 of every (argv, exit code, stdout) of the sweep below, plain and
# --json; the output bytes of `poly analyze` are part of the contract
ANALYZE_SWEEP_SHA256 = "6ed25162e515349ef6c07af2af137c0b9bb01ef506a4a3cc01b61544d6bfbac6"


def test_poly_analyze_never_exits_2_on_good_quadruples(capsys, small_good_quadruples):
    # exit 2 is reserved for broken invariants, so no good quadruple may
    # reach it; genus-0 ones may exit 1 when their distinguished points
    # coincide, and (1,1,4;5) (n = 8 > 3*0 + 7) must pass
    bad = []
    digest = hashlib.sha256()
    for q, genus in small_good_quadruples:
        words = _words(q)
        for argv in (["poly", "analyze", *words], ["poly", "analyze", *words, "--json"]):
            code, out, err = run(capsys, *argv)
            digest.update(repr((argv, code, out)).encode())
            if code == 2 or (code == 1 and (genus >= 1 or "distinguished points coincide" not in err)):
                bad.append((argv, code, err.strip()))
    assert bad == []
    assert digest.hexdigest() == ANALYZE_SWEEP_SHA256
    assert run(capsys, "poly", "analyze", "1", "1", "4", "5")[0] == 0


def test_map_curve_never_exits_2_on_good_quadruples(capsys, small_good_quadruples):
    # a quadruple mapped onto itself; genus-0 polytopes of two points hold
    # no row triple to project through, which is exit 1
    bad = []
    for q, genus in small_good_quadruples:
        words = _words(q)
        code, _, err = run(capsys, "map", "curve", *words, *words)
        if code == 2 or (code == 1 and (genus >= 1 or "only 2 polytope points" not in err)):
            bad.append((words, code, err.strip()))
    assert bad == []
    code, out, err = run(capsys, "map", "curve", "3", "4", "5", "8", "3", "4", "5", "8")
    assert (code, out) == (1, "")
    assert err == "error: (3,4,5;8): only 2 polytope points, no row triple to project through\n"


def test_poly_analyze_svg_byte_stable(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run(capsys, "poly", "analyze", "1", "2", "3", "6", "--svg", str(f1))[0] == 0
    assert run(capsys, "poly", "analyze", "1", "2", "3", "6", "--svg", str(f2))[0] == 0
    data = f1.read_bytes()
    assert data == f2.read_bytes()
    assert data.startswith(b"<svg ")


def test_classify_counts_and_idempotence(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "classify", "--genus", "1", "--dmax", "7")
    assert code == 0
    assert out.startswith("4 classes (4 quadruples)")
    atlas = tmp_path / "atlas" / "atlas_g1_d7.json"
    first = atlas.read_bytes()
    assert run(capsys, "classify", "--genus", "1", "--dmax", "7")[0] == 0
    assert atlas.read_bytes() == first


def test_classify_jobs_flag_changes_nothing(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(capsys, "classify", "--genus", "1", "--dmax", "15", "--atlas-dir", "a1")
    run(capsys, "classify", "--genus", "1", "--dmax", "15", "--atlas-dir", "a8", "--jobs", "8")
    one = (tmp_path / "a1" / "atlas_g1_d15.json").read_bytes()
    eight = (tmp_path / "a8" / "atlas_g1_d15.json").read_bytes()
    assert one == eight


def test_classify_csv_and_figures(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "classify", "--genus", "1", "--dmax", "7", "--csv", "--figures")
    assert code == 0
    csv_path = tmp_path / "atlas" / "atlas_g1_d7.csv"
    assert csv_path.read_text().splitlines()[0] == "w0,w1,w2,d,n,class_index"
    figures = sorted((tmp_path / "atlas").glob("class_g1_d7_*.svg"))
    assert len(figures) == 4


def test_classify_stabilize(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "classify", "--genus", "1", "--dmax", "7",
                       "--stabilize", "3,7")
    assert code == 0
    assert "d<=3: 1 classes" in out
    assert "d<=7: 4 classes" in out
    assert "still growing at last step: True" in out


def test_classify_rejects_bad_jobs(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "classify", "--genus", "1", "--dmax", "7", "--jobs", "0")
    assert code == 1


@pytest.mark.parametrize("flags, named", [
    (["--dmax", "0", "--stabilize", "5"], "--dmax"),
    (["--dmax", "-5", "--stabilize", "5,10"], "--dmax"),
    (["--dmax", "10", "--stabilize", "-3,5"], "stabilize"),
    (["--dmax", "0"], "--dmax"),
])
def test_classify_rejects_nonpositive_degree_bounds(capsys, tmp_path, monkeypatch, flags, named):
    # refused before any atlas is built, with or without --stabilize
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "classify", "--genus", "1", *flags)
    assert (code, out) == (1, "")
    assert named in err and ">= 1" in err, err
    assert not (tmp_path / "atlas").exists()


def test_polygons_enum_g0(capsys):
    code, out, _ = run(capsys, "polygons", "enum", "--genus", "0", "--nmax", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "total: 3 classes (n=3: 1, n=4: 2)"
    assert json.loads(lines[0]) == {"n": 3, "vertices": [[0, 0], [1, 0], [0, 1]]}


# sha256 of every (argv, exit code, stdout) of the `polygons enum` runs
# below, recorded at c1087fd, before the splice walk was rewritten; the
# listing bytes are part of the contract
ENUM_SHA256 = "99c02ffcd57da3a663da42c79938bf030806dfe476c3cad4803a853b8d0796ea"


def test_polygons_enum_bytes_are_pinned(capsys):
    argvs = (
        [["polygons", "enum", "--genus", str(g)] for g in range(7)]
        + [["polygons", "enum", "--genus", str(g), "--method", "box"] for g in range(3)]
        + [["polygons", "enum", "--genus", "0", "--nmax", "9"]]
    )
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        digest.update(repr((argv, code, out)).encode())
    assert digest.hexdigest() == ENUM_SHA256


def test_polygons_enum_cross_check_ok(capsys):
    code, out, _ = run(capsys, "polygons", "enum", "--genus", "1", "--cross-check")
    assert code == 0
    assert "cross-check ok: both methods give 16 classes" in out


def test_polygons_enum_g0_cross_check_ok(capsys):
    code, out, _ = run(capsys, "polygons", "enum", "--genus", "0", "--cross-check")
    assert code == 0
    assert "cross-check ok: both methods give 12 classes" in out
    assert out.strip().splitlines()[-1] == (
        "total: 12 classes (n=3: 1, n=4: 2, n=5: 2, n=6: 4, n=7: 3)"
    )


def test_polygons_enum_box3_count(capsys):
    # the box method always uses the smallest grid that holds every class;
    # criterion 5 checks box(3) = 15 through the library
    code, out, err = run(capsys, "polygons", "enum", "--genus", "1",
                         "--method", "box", "--box", "3")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --box 3" in err, err


def test_polygons_enum_cross_check_disagreement_exits_2(capsys, monkeypatch):
    # a box method that loses one class is a real disagreement
    import wpoly.cli

    def drop_one(g, method="inductive", **kwargs):
        classes = enumerate_classes(g, method, **kwargs)
        return classes[:-1] if method == "box" else classes

    monkeypatch.setattr(wpoly.cli, "enumerate_classes", drop_one)
    code, _, err = run(capsys, "polygons", "enum", "--genus", "1", "--cross-check")
    assert code == 2
    assert "invariant violation: methods disagree: 1 inductive-only, 0 box-only" in err


def test_polygons_enum_class_with_wrong_interior_count_exits_2(capsys, monkeypatch):
    import wpoly.classify

    box_cycles = wpoly.classify._box_cycles
    # the canonical listing of conv{(0,0),(5,0),(0,2)}
    wrong = LatticePolygon(((0, 0), (1, 0), (5, 10)))
    key = wpoly.classify._class_key(wrong.lengths, wrong.dirs)
    monkeypatch.setattr(
        wpoly.classify, "_box_cycles", lambda *args: {**box_cycles(*args), key: wrong},
    )
    code, out, err = run(capsys, "polygons", "enum", "--genus", "1", "--method", "box")
    assert (code, out) == (2, "")
    assert err == (
        "invariant violation: class ((0, 0), (1, 0), (5, 10)) has 2 interior points, not 1\n"
    )


@pytest.mark.parametrize("argv, message", [
    (("poly", "analyze", "1", "4", "5", "2009"), "(1,4,5;2009): genus=100400"),
    (("map", "curve", "1", "1", "2", "635", "1", "2", "1", "635"), "(1,1,2;635): genus=100172"),
    (("classify", "--genus", "100001", "--dmax", "10"), "g=100001"),
], ids=["poly-analyze", "map-curve", "classify"])
def test_genus_above_the_cap_exits_1_at_once(capsys, tmp_path, monkeypatch, argv, message):
    # refused before any polytope point is listed or any file is written
    monkeypatch.chdir(tmp_path)
    built = []
    checked_build = wpolytope._build

    def counted(q, g):
        built.append(q)
        return checked_build(q, g)

    monkeypatch.setattr(wpolytope, "_build", counted)
    monkeypatch.setattr(classify, "_build", counted)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert built == []
    assert (code, out) == (1, "")
    assert err == f"error: {message} exceeds the genus cap 100000\n"
    assert list(tmp_path.iterdir()) == []


def test_poly_analyze_projection_that_loses_a_point_exits_2(capsys, monkeypatch):
    build_checked = wpolytope._build
    monkeypatch.setattr(wpolytope, "_build", lambda q, g: vertex_dropped(build_checked(q, g)))
    code, out, err = run(capsys, "poly", "analyze", "1", "1", "1", "3")
    assert (code, out) == (2, "")
    assert err == "invariant violation: (1,1,1;3): projected point count 9 != 10\n"


def test_poly_analyze_projection_that_repeats_an_image_exits_2(capsys, monkeypatch):
    # the row through an interior point is moved onto its neighbour's start:
    # its images repeat some of the neighbour's, so the two rows share a line
    real = wpolytope._build
    distinct = []

    def repeated(q, g):
        p = real(q, g)
        rows = p.rows
        inner = next(point for point in p.points if min(point) >= 1)
        (_, x), = wpolytope._chart(p, [inner])
        j = next(k for k, ((_, row_x), _) in enumerate(rows) if row_x == x)
        rows = rows[:j] + ((rows[j - 1][0], rows[j][1]),) + rows[j + 1:]
        distinct.append((len(set(row_image_list((1, 0), rows))), p.n))
        return replace(p, rows=rows)

    monkeypatch.setattr(wpolytope, "_build", repeated)
    code, out, err = run(capsys, "poly", "analyze", "2", "3", "7", "42", "--json")
    assert distinct == [(25, 28)]
    assert (code, out) == (2, "")
    assert err == (
        "invariant violation: (2,3,7;42): projection gained or lost lattice points: "
        "two rows share a line\n"
    )


def test_poly_analyze_hull_off_its_points_exits_2(capsys, monkeypatch):
    # the true hull of the row ends moved one step right keeps its Pick
    # counts, so only the check that each end lies in the hull fails
    real = wpolytope._hull_cycle
    counts = []

    def shifted(points):
        cycle = tuple((x + 1, y) for x, y in real(points))
        counts.append((LatticePolygon(cycle).n, len(set(points))))
        return cycle

    monkeypatch.setattr(wpolytope, "_hull_cycle", shifted)
    code, out, err = run(capsys, "poly", "analyze", "2", "3", "7", "42", "--json")
    assert counts == [(28, 12)]
    assert (code, out) == (2, "")
    assert err == (
        "invariant violation: (2,3,7;42): projection gained or lost lattice points: "
        "a row leaves the hull\n"
    )


def test_genus_at_the_cap_is_analyzed_as_before(capsys):
    # (1,4,5;2005) has genus exactly 100000; the digest is of the output
    # before the cap existed
    code, out, _ = run(capsys, "poly", "analyze", "1", "4", "5", "2005", "--json")
    assert code == 0
    assert json.loads(out)["genus"] == 100000
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9c79da432a65e68dc792be1a7e7cffca33ba6f6e452aa9432603fb66a60cc798"
    )


def test_map_curve_permutation(capsys):
    code, out, _ = run(capsys, "map", "curve", "1", "3", "2", "7", "1", "2", "3", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]]
    assert payload["warnings"] == []
    assert len(payload["terms"]) == 8


def test_map_curve_identity(capsys):
    code, out, _ = run(capsys, "map", "curve", "1", "2", "3", "6", "1", "2", "3", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def test_map_curve_inequivalent_pair(capsys):
    code, _, err = run(capsys, "map", "curve", "1", "1", "1", "3", "1", "2", "3", "7")
    assert code == 1
    assert "do not share a polygon class" in err


def test_map_curve_from_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(json.dumps({
        "terms": [
            {"coef": "1", "exponents": [7, 0, 0]},
            {"coef": "-3/2", "exponents": [0, 1, 2]},
            {"coef": 0.5, "exponents": [2, 1, 1]},
            {"coef": 2, "exponents": [1, 0, 3]},
        ]
    }))
    code, out, _ = run(capsys, "map", "curve", "1", "3", "2", "7", "1", "2", "3", "7",
                       "--curve", str(curve_file))
    assert code == 0
    payload = json.loads(out)
    coefs = {tuple(t["exponents"]): t["coef"] for t in payload["terms"]}
    assert coefs[(7, 0, 0)] == "1"
    assert coefs[(0, 2, 1)] == "-3/2"
    assert coefs[(2, 1, 1)] == "1/2"
    assert coefs[(1, 3, 0)] == "2"


# map curve 3 4 5 15 3 7 8 24 and back: the class conv{(0,0),(1,0),(2,3)}
# has 6 lattice automorphisms, so these outputs also pin which witness
# the transport uses
MAP_GOLDEN = {
    ("3", "4", "5", "15", "3", "7", "8", "24"): {
        "source": [3, 4, 5, 15],
        "target": [3, 7, 8, 24],
        "matrix": [["8/5", "0", "0"], ["-1/5", "1", "0"], ["0", "0", "1"]],
        "row_map": [0, 1, 2, 3],
        "terms": [
            {"coef": "1", "exponents": [0, 0, 3]},
            {"coef": "1", "exponents": [1, 3, 0]},
            {"coef": "1", "exponents": [3, 1, 1]},
            {"coef": "1", "exponents": [8, 0, 0]},
        ],
        "warnings": [],
    },
    ("3", "7", "8", "24", "3", "4", "5", "15"): {
        "source": [3, 7, 8, 24],
        "target": [3, 4, 5, 15],
        "matrix": [["5/8", "0", "0"], ["1/8", "1", "0"], ["0", "0", "1"]],
        "row_map": [0, 1, 2, 3],
        "terms": [
            {"coef": "1", "exponents": [0, 0, 3]},
            {"coef": "1", "exponents": [1, 3, 0]},
            {"coef": "1", "exponents": [2, 1, 1]},
            {"coef": "1", "exponents": [5, 0, 0]},
        ],
        "warnings": [],
    },
}


@pytest.mark.parametrize("argv", sorted(MAP_GOLDEN))
def test_map_curve_golden_on_symmetric_class(capsys, argv):
    code, out, err = run(capsys, "map", "curve", *argv)
    assert code == 0 and err == ""
    assert out == json.dumps(MAP_GOLDEN[argv], indent=2) + "\n"


@pytest.mark.parametrize("body, where", [
    ({"terms": [{"coef": "1", "exponents": [7, 0, 0]}, {"coef": "1"}]}, "term 1 "),
    ({"terms": [{"coef": "1", "exponents": 7}]}, "term 0 "),
    ({"terms": {"coef": "1", "exponents": [7, 0, 0]}}, "'terms' list"),
    ({"terms": [["1", [7, 0, 0]]]}, "term 0 "),
    ({"terms": [{"coef": "1", "exponents": [7, 0]}]}, "term 0 "),
    ({"terms": [{"coef": "1", "exponents": [True, 2, 0]}]}, "term 0 "),
    ({"terms": [{"coef": "1/0", "exponents": [7, 0, 0]}]}, "term 0 "),
    ({"terms": [{"coef": "abc", "exponents": [7, 0, 0]}]}, "term 0 "),
    ({"terms": [{"coef": None, "exponents": [7, 0, 0]}]}, "term 0 "),
    ({"terms": [{"coef": True, "exponents": [7, 0, 0]}]}, "term 0 "),
    ({"terms": [{"coef": "1", "exponents": [7, 0, 0]}, {"coef": [1], "exponents": [0, 1, 2]}]},
     "term 1 "),
    # exponent notation is refused before Fraction would build 10**exponent
    ({"terms": [{"coef": "1e3", "exponents": [7, 0, 0]}]}, "term 0 "),
    ({"terms": [{"coef": "1e5000", "exponents": [7, 0, 0]}]}, "term 0 "),
    ({"terms": [{"coef": "1e999999999", "exponents": [7, 0, 0]}]}, "term 0 "),
    ('{"terms": [{"coef": 1E3, "exponents": [7, 0, 0]}]}', "term 0 "),
    ({"terms": [{"coef": "1" * 5000, "exponents": [7, 0, 0]}]}, "term 0 "),
    # past Python's digit limit json.loads itself raises ValueError
    ('{"terms": [{"coef": %s, "exponents": [7, 0, 0]}]}' % ("1" * 5000), "not a UTF-8 JSON file"),
], ids=["no-exponents", "scalar-exponents", "terms-object", "list-term", "two-exponents",
        "bool-exponent", "zero-denominator-coef", "word-coef", "null-coef", "bool-coef",
        "list-coef", "exponent-coef", "huge-exponent-coef", "giant-exponent-coef",
        "json-exponent-coef", "long-string-coef", "long-json-int-coef"])
def test_map_curve_malformed_file_exits_1(capsys, tmp_path, body, where):
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(body if isinstance(body, str) else json.dumps(body))
    code, out, err = run(capsys, "map", "curve", "1", "3", "2", "7", "1", "2", "3", "7",
                         "--curve", str(curve_file))
    assert code == 1 and out == ""
    assert err.startswith("error: ")
    assert str(curve_file) in err and where in err
    assert len(err) < 400  # a long coef is not echoed in full


@pytest.mark.parametrize("raw, why", [
    (b'{"terms": [\n', "Expecting value"),
    (b'{"terms": []}\xff', "can't decode byte 0xff"),
], ids=["truncated-json", "not-utf8"])
def test_map_curve_unparsable_file_names_it(capsys, tmp_path, raw, why):
    curve_file = tmp_path / "curve.json"
    curve_file.write_bytes(raw)
    code, out, err = run(capsys, "map", "curve", "1", "3", "2", "7", "1", "2", "3", "7",
                         "--curve", str(curve_file))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {curve_file}: not a UTF-8 JSON file: ")
    assert why in err


def test_unwritable_svg_path_exits_1_naming_it(capsys, tmp_path):
    target = tmp_path / "missing" / "x.svg"
    code, _, err = run(capsys, "poly", "analyze", "1", "3", "2", "7", "--svg", str(target))
    assert code == 1
    assert err.startswith("error: ") and str(target) in err


def test_atlas_dir_under_a_file_exits_1_naming_it(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("afile").write_text("")
    code, _, err = run(capsys, "classify", "--genus", "1", "--dmax", "10",
                       "--atlas-dir", "afile/sub")
    assert code == 1
    assert err.startswith("error: ") and "afile/sub" in err


def test_classify_respects_the_cap(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "classify", "--genus", "1", "--dmax", "200001")
    assert code == 1
    assert "--dmax 200001 exceeds the cap 200000" in err
    assert not (tmp_path / "atlas").exists()


def test_classify_empty_atlas_dir_writes_to_the_default(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "classify", "--genus", "1", "--dmax", "10", "--atlas-dir", "")
    assert code == 0
    assert out.endswith(" -> atlas/atlas_g1_d10.json\n"), out
    assert (tmp_path / "atlas" / "atlas_g1_d10.json").is_file()


def test_wpoly_json_is_not_read(capsys, tmp_path, monkeypatch):
    # a wpoly.json in the working directory sets nothing: quad check keeps
    # its text report and classify its cap of 200000
    monkeypatch.chdir(tmp_path)
    Path("wpoly.json").write_text(json.dumps({"format": "json", "d_max_cap": 10}))
    code, out, _ = run(capsys, "quad", "check", "1", "3", "2", "7")
    assert code == 0
    assert out.startswith("quadruple        (1,3,2;7)\n"), out
    code, _, _ = run(capsys, "classify", "--genus", "1", "--dmax", "20")
    assert code == 0
    assert (tmp_path / "atlas" / "atlas_g1_d20.json").is_file()


@pytest.mark.parametrize("dmax, steps", [(15, "3,7,30"), (30, "3,7,15"), (30, "10,30")])
def test_classify_stabilize_builds_one_atlas_with_the_same_bytes(
    capsys, tmp_path, monkeypatch, dmax, steps
):
    # the atlas files and stdout lines are those of the plain run, whether
    # --dmax lies below or above the last step, from one group_by_class call
    import wpoly.classify
    import wpoly.cli

    monkeypatch.chdir(tmp_path)
    flags = ["classify", "--genus", "1", "--dmax", str(dmax), "--csv", "--figures"]
    code, plain, _ = run(capsys, *flags, "--atlas-dir", "plain")
    assert code == 0
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return group_by_class(*args, **kwargs)

    monkeypatch.setattr(wpoly.cli, "group_by_class", counted)
    monkeypatch.setattr(wpoly.classify, "group_by_class", counted)
    code, out, _ = run(capsys, *flags, "--atlas-dir", "stab", "--stabilize", steps)
    assert code == 0
    assert calls == [(1, max(dmax, int(steps.split(",")[-1])))]
    out = out.replace("stab", "plain")
    assert out.startswith(plain)
    step_list = [int(s) for s in steps.split(",")]
    report = atlas_stabilization(group_by_class(1, step_list[-1]), step_list)
    assert out[len(plain):].splitlines() == [
        *(f"d<={d}: {c} classes" for d, c in report.steps),
        f"still growing at last step: {report.growing}",
    ]
    plain_files = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert plain_files == sorted(p.name for p in (tmp_path / "stab").iterdir())
    assert len(plain_files) > 2
    for name in plain_files:
        assert (tmp_path / "stab" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


@pytest.mark.parametrize("steps, message", [
    ("10,200001", "--stabilize step 200001 exceeds the cap 200000"),
    ("abc", "--stabilize expects integers, got 'abc'"),
    ("7,3", "stabilize steps must be strictly increasing, got [7, 3]"),
    ("", "stabilize steps must be nonempty"),
    (",", "stabilize steps must be nonempty"),
], ids=["10,200001", "abc", "7,3", "", ","])
def test_classify_stabilize_checked_before_any_atlas(
    capsys, tmp_path, monkeypatch, steps, message
):
    # a step above the cap, a non-integer, a decreasing and an empty list
    # all exit 1 without leaving an atlas behind
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "classify", "--genus", "1", "--dmax", "30",
                       "--stabilize", steps)
    assert code == 1
    assert err == f"error: {message}\n", err
    assert not (tmp_path / "atlas").exists()


def test_usage_error_exits_1(capsys):
    code, _, err = run(capsys, "polygons", "enum")  # missing --genus
    assert code == 1


@pytest.mark.parametrize("argv, named", [
    ([], None),
    (["bogus"], "bogus"),
    (["polygons", "enum", "--genus", "1", "--box", "3"], "--box"),
    (["classify", "--gen", "1", "--dmax", "5"], None),
    (["quad", "check", "1", "3", "2"], "D"),
    (["quad", "check", "1", "3", "2", "7", "8"], "8"),
    (["poly", "analyze", "1", "x", "2", "7"], "x"),
    (["classify", "--genus", "one", "--dmax", "5"], "one"),
    (["polygons", "enum", "--genus", "1", "--method", "grid"], "grid"),
    (["classify", "--genus", "1", "--dmax"], "--dmax"),
    (["map", "curve", "1", "3", "2", "7", "1", "2", "3", "7", "--curve", "missing.json"],
     "missing.json"),
    (["map", "curve", "1", "3", "2", "7", "1", "2", "3", "7", "--curve", "adir"], "adir"),
    (["classify", "--genus", "1", "--dmax", "5", "--atlas-dir", "afile"], "afile"),
    (["poly", "analyze", "1", "3", "2", "7", "--svg", "adir"], "adir"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_usage_errors_exit_1_with_a_message(capsys, tmp_path, monkeypatch, argv, named):
    # a path is refused before the basis change or the grouping runs
    import wpoly.cli

    def never(*args, **kwargs):
        raise AssertionError("called on a usage error")

    monkeypatch.setattr(wpoly.cli, "basis_change", never)
    monkeypatch.setattr(wpoly.cli, "group_by_class", never)
    monkeypatch.chdir(tmp_path)
    Path("afile").write_text("")
    Path("adir").mkdir()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.strip(), argv
    if named is not None:
        assert named in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]


def test_cli_imports_only_the_standard_library():
    # a fresh interpreter without site-packages, which sitecustomize and
    # .pth files could fill with modules of their own
    src = str(Path(wpoly.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import wpoly.cli; "
            "print(sorted({m.partition('.')[0] for m in sys.modules}))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60)
    # a third-party import fails here, as site-packages is not on the path
    assert done.returncode == 0, done.stderr
    names = set(ast.literal_eval(done.stdout))
    assert "wpoly" in names
    assert names - set(sys.stdlib_module_names) <= {"wpoly", "__main__"}


@pytest.mark.parametrize("argv, named", [
    ([], ["quad", "poly", "classify", "polygons", "map"]),
    (["quad"], ["check"]),
    (["poly"], ["analyze"]),
    (["polygons"], ["enum"]),
    (["map"], ["curve"]),
    (["quad", "check"], ["W0", "W1", "W2", "D", "--json"]),
    (["poly", "analyze"], ["W0", "W1", "W2", "D", "--json", "--svg"]),
    (["classify"], ["--genus", "--dmax", "--jobs", "--atlas-dir", "--csv", "--figures",
                    "--stabilize"]),
    (["polygons", "enum"], ["--genus", "--method", "--nmax", "--cross-check"]),
    (["map", "curve"], ["W0", "W1", "W2", "D", "V0", "V1", "V2", "E", "--curve"]),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_help_of_each_command_names_its_arguments(capsys, argv, named):
    code, out, err = run(capsys, *argv, "--help")
    assert (code, err) == (0, "")
    words = set(out.replace("[", " ").replace("]", " ").split())
    assert set(named) <= words, out


def test_an_option_value_may_start_with_one_dash(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "classify", "--genus", "1", "--dmax", "5", "--atlas-dir", "-out")
    assert (code, err) == (0, "")
    assert out.endswith(" -> -out/atlas_g1_d5.json\n"), out
    assert Path("-out/atlas_g1_d5.json").is_file()


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "quad" in out and "classify" in out


def test_interrupt_inside_a_command_exits_1(capsys, monkeypatch):
    import wpoly.cli

    def interrupted(q):
        raise KeyboardInterrupt

    monkeypatch.setattr(wpoly.cli, "validate", interrupted)
    code, out, err = run(capsys, "quad", "check", "1", "3", "2", "7")
    # main ends the interrupted line on stderr and reports the abort
    assert (code, out) == (1, "")
    assert err == "\naborted\n"


def test_a_closed_stdout_exits_1_quietly(capsys, monkeypatch):
    # as when the reader of a pipe, such as head, exits before the writer
    import wpoly.cli

    def closed(q):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(wpoly.cli, "validate", closed)
    code, out, err = run(capsys, "quad", "check", "1", "3", "2", "7")
    assert (code, out, err) == (1, "", "")
