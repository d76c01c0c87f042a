"""Exit codes, output formats, config handling, golden files."""
import functools
import json
from itertools import product
from pathlib import Path

import pytest

from wpoly import (
    Quadruple,
    enumerate_classes,
    group_by_class,
    validate,
)
from wpoly.classify import atlas_stabilization
from wpoly.cli import main


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


@functools.cache
def _small_good_quadruples():
    """(argv words, genus) of every good quadruple with weights <= 12 and d <= 40."""
    found = []
    for w0, w1, w2, d in product(range(1, 13), range(1, 13), range(1, 13), range(1, 41)):
        report = validate(Quadruple(w0, w1, w2, d))
        if report.is_good:
            found.append(([str(w0), str(w1), str(w2), str(d)], report.genus))
    return found


def test_poly_analyze_never_exits_2_on_good_quadruples(capsys):
    # exit 2 is reserved for broken invariants, so no good quadruple may
    # reach it; genus-0 ones may exit 1 when their distinguished points
    # coincide, and (1,1,4;5) (n = 8 > 3*0 + 7) must pass
    bad = []
    for words, genus in _small_good_quadruples():
        code, _, err = run(capsys, "poly", "analyze", *words)
        if code == 2 or (code == 1 and (genus >= 1 or "distinguished points coincide" not in err)):
            bad.append((words, code, err.strip()))
    assert bad == []
    assert run(capsys, "poly", "analyze", "1", "1", "4", "5")[0] == 0


def test_map_curve_never_exits_2_on_good_quadruples(capsys):
    # a quadruple mapped onto itself; genus-0 polytopes of two points hold
    # no row triple to project through, which is exit 1
    bad = []
    for words, genus in _small_good_quadruples():
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


def test_classify_parallel_identical_bytes(capsys, tmp_path, monkeypatch):
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


def test_polygons_enum_g0(capsys):
    code, out, _ = run(capsys, "polygons", "enum", "--genus", "0", "--nmax", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "total: 3 classes (n=3: 1, n=4: 2)"
    assert json.loads(lines[0]) == {"n": 3, "vertices": [[0, 0], [1, 0], [0, 1]]}


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
    code, out, _ = run(capsys, "polygons", "enum", "--genus", "1",
                       "--method", "box", "--box", "3")
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("total: 15 classes")


def test_polygons_enum_cross_check_small_box_exits_1(capsys):
    # a 3x3 grid cannot hold the width-4 triangle class: the methods would
    # differ because of the chosen bound, which is user error, not a bug
    code, out, err = run(capsys, "polygons", "enum", "--genus", "1",
                         "--cross-check", "--box", "3")
    assert code == 1
    assert "box bound 4" in err and "--box 3" in err
    assert out == ""
    # at the default bound or above the cross-check runs
    code, out, _ = run(capsys, "polygons", "enum", "--genus", "1",
                       "--cross-check", "--box", "5")
    assert code == 0
    assert "cross-check ok: both methods give 16 classes" in out


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


def test_config_file_sets_format(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("wpoly.json").write_text(json.dumps({"format": "json"}))
    code, out, _ = run(capsys, "quad", "check", "1", "3", "2", "7")
    assert code == 0
    assert json.loads(out)["is_good"] is True


def test_config_env_overrides_atlas_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("WPOLY_ATLAS_DIR", str(tmp_path / "env_atlas"))
    run(capsys, "classify", "--genus", "1", "--dmax", "3")
    assert (tmp_path / "env_atlas" / "atlas_g1_d3.json").is_file()


def test_config_flag_overrides_env(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("WPOLY_ATLAS_DIR", str(tmp_path / "env_atlas"))
    run(capsys, "classify", "--genus", "1", "--dmax", "3", "--atlas-dir", "flag_atlas")
    assert (tmp_path / "flag_atlas" / "atlas_g1_d3.json").is_file()
    assert not (tmp_path / "env_atlas").exists()


def test_config_rejects_unknown_keys(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("wpoly.json").write_text(json.dumps({"threads": 4}))
    code, _, err = run(capsys, "quad", "check", "1", "3", "2", "7")
    assert code == 1
    assert "unknown keys" in err


def test_config_rejects_bad_values(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("wpoly.json").write_text(json.dumps({"jobs": 0}))
    code, _, err = run(capsys, "quad", "check", "1", "3", "2", "7")
    assert code == 1
    # values of the wrong type are refused before any command runs,
    # naming the file and the key
    for key, value in [("atlas_dir", 3), ("atlas_dir", ["x"]), ("format", 1),
                       ("d_max_cap", 40.5), ("jobs", True), ("jobs", "2")]:
        Path("wpoly.json").write_text(json.dumps({key: value}))
        code, _, err = run(capsys, "classify", "--genus", "1", "--dmax", "10")
        assert code == 1, (key, value)
        assert "wpoly.json" in err and key in err, err
    assert not Path("atlas").exists()
    Path("wpoly.json").write_bytes(b'{"jobs": "\xff"}')
    code, _, err = run(capsys, "quad", "check", "1", "3", "2", "7")
    assert code == 1
    assert "wpoly.json" in err and "UTF-8" in err
    # an int past Python's digit limit for string conversion
    Path("wpoly.json").write_text('{"jobs": ' + "9" * 5000 + "}")
    code, out, err = run(capsys, "quad", "check", "1", "3", "2", "7")
    assert (code, out) == (1, "")
    assert "wpoly.json" in err and "not a UTF-8 JSON file" in err, err


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


def test_classify_respects_config_cap(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("wpoly.json").write_text(json.dumps({"d_max_cap": 10}))
    code, _, err = run(capsys, "classify", "--genus", "1", "--dmax", "20")
    assert code == 1
    assert "exceeds the configured cap" in err


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


@pytest.mark.parametrize("steps", ["10,90", "abc", "7,3", ""])
def test_classify_stabilize_checked_before_any_atlas(capsys, tmp_path, monkeypatch, steps):
    # a step above the cap, a non-integer, a decreasing and an empty list
    # all exit 1 without leaving an atlas behind
    monkeypatch.chdir(tmp_path)
    Path("wpoly.json").write_text(json.dumps({"d_max_cap": 40}))
    code, _, err = run(capsys, "classify", "--genus", "1", "--dmax", "30",
                       "--stabilize", steps)
    assert code == 1
    if steps == "10,90":
        assert "--stabilize step 90 exceeds the configured cap 40" in err
    assert not (tmp_path / "atlas").exists()


def test_usage_error_exits_1(capsys):
    code, _, err = run(capsys, "polygons", "enum")  # missing --genus
    assert code == 1


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "quad" in out and "classify" in out
