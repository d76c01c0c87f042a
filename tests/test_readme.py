"""README's library example and shell transcripts do what README states."""
import ast
import inspect
import re
from pathlib import Path

import wpoly
from wpoly.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _stated_value(comment: str):
    """The Python literal a comment opens with, as a 1-tuple, or None."""
    words = comment.split()
    for k in range(len(words), 0, -1):
        try:
            return (ast.literal_eval(" ".join(words[:k])),)
        except (ValueError, SyntaxError):
            continue
    return None


def test_readme_library_example_states_its_values():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        comment = lines[stmt.end_lineno - 1].partition("#")[2]
        stated = _stated_value(comment) if isinstance(stmt, ast.Expr) else None
        if stated is None:
            exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
            continue
        assert eval(source, namespace) == stated[0], source
        checked.append(source)
    assert checked == [
        "validate(q).genus",
        "canonical_form(poly).vertices",
        "[len(s) for s in lattice_inventory(poly)]",
        'len(enumerate_classes(1, "inductive"))',
        "bc.matrix",
        "mapped.terms",
    ]


def test_public_surface_is_pinned():
    # README's Library section: every exported name has a caller in the
    # CLI or the library, except convex_hull, the checked hull of a
    # caller's points, family_quadruple, the paper's witness, and
    # raw_genus, the exact genus formula for any quadruple, good or not
    assert sorted(wpoly.__all__) == [
        "BasisChange", "CaseReport", "ClassAtlas", "ClassEntry", "D_MAX_CAP",
        "DegenerateInputError", "InvariantViolation", "LatticePolygon",
        "PreconditionError", "Quadruple", "StabilizationReport",
        "UnimodularAffineMap", "ValidityReport", "WPolyError", "WeightedCurve",
        "WeightedPolytope", "basis_change", "build", "canonical_form",
        "convex_hull", "enumerate_classes", "enumerate_g_good", "equivalent",
        "family_quadruple", "find_unimodular_triple", "group_by_class",
        "lattice_inventory", "make_curve", "map_curve", "minor_det", "project",
        "raw_genus", "render_polygon_svg", "validate", "verify_case_identities",
    ]
    assert all(hasattr(wpoly, name) for name in wpoly.__all__)
    assert "box_bound" not in inspect.signature(wpoly.enumerate_classes).parameters
    assert not hasattr(wpoly.LatticePolygon, "area2")
    assert not hasattr(wpoly.LatticePolygon, "lattice_points")
    assert not hasattr(wpoly.StabilizationReport, "to_dict")


def test_readme_shell_transcripts_match_the_cli(capsys, tmp_path, monkeypatch):
    # each block opening with `$ wpoly` runs through the CLI entry point in
    # an empty directory; a `| tail -N` keeps the last N lines
    monkeypatch.chdir(tmp_path)
    transcripts = re.findall(
        r"```\n\$ wpoly (.*?)\n(.*?)```", README.read_text(encoding="utf-8"), re.S
    )
    assert [command for command, _ in transcripts] == [
        "quad check 1 3 2 7",
        "poly analyze 1 3 2 7",
        "classify --genus 1 --dmax 30",
        "polygons enum --genus 0 | tail -2",
    ]
    for command, expected in transcripts:
        argv, _, pipe = command.partition(" | ")
        assert main(argv.split()) == 0, command
        out = capsys.readouterr().out
        if pipe:
            out = "".join(out.splitlines(keepends=True)[-int(pipe.removeprefix("tail -")):])
        assert out == expected, command
