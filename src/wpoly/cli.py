"""Command-line front end.

Subcommands
-----------
quad check W0 W1 W2 D      validity/genus report for a quadruple
poly analyze W0 W1 W2 D    polytope, case identities, projection
classify                   group g-good quadruples into an atlas file
polygons enum              enumerate polygon classes for a genus
map curve <8 ints>         transport a curve between equivalent quadruples

Exit codes: 0 success; 1 bad input, precondition failure or an
unwritable output path; 2 is reserved for violations of derived
invariants (never for user error).

Curve files are JSON: {"terms": [{"coef": "5" or "3/2", "exponents":
[a, b, c]}, ...]} with each monomial of full weighted degree; a coef in
exponent notation, such as "1e3", is refused.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import click

from .classify import (
    atlas_stabilization,
    basis_change,
    enumerate_classes,
    group_by_class,
    make_curve,
    map_curve,
    stabilization_steps,
)
from .errors import DegenerateInputError, InvariantViolation, PreconditionError
from .polygon2d import canonical_form, project
from .quadruples import D_MAX_CAP, Quadruple, validate
from .render import render_polygon_svg
from .wpolytope import build, find_unimodular_triple, verify_case_identities


@click.group()
def cli() -> None:
    """Exact lattice-polytope toolkit for weighted plane curves."""


@cli.group()
def quad() -> None:
    """Quadruple-level checks."""


@quad.command("check")
@click.argument("w0", type=int)
@click.argument("w1", type=int)
@click.argument("w2", type=int)
@click.argument("d", type=int)
@click.option("--json", "as_json", is_flag=True, help="emit the report as JSON")
def quad_check(w0: int, w1: int, w2: int, d: int, as_json: bool) -> None:
    """Report pairwise coprimality, degree conditions, and genus."""
    q = Quadruple(w0, w1, w2, d)
    report = validate(q)
    if as_json:
        click.echo(json.dumps(report.to_dict(), indent=2))
        return
    click.echo(f"quadruple        {q}")
    click.echo(f"pairwise coprime {report.pairwise_coprime}")
    click.echo(f"degree dominates {report.degree_dominates}")
    click.echo(f"condition (i)    {[w is not None for w in report.condition_i]}")
    click.echo(f"condition (ii)   {[w is not None for w in report.condition_ii]}")
    click.echo(f"good             {report.is_good}")
    if report.genus is not None:
        click.echo(f"genus            {report.genus}")


@cli.group()
def poly() -> None:
    """Polytope-level analysis."""


@poly.command("analyze")
@click.argument("w0", type=int)
@click.argument("w1", type=int)
@click.argument("w2", type=int)
@click.argument("d", type=int)
@click.option("--json", "as_json", is_flag=True, help="emit the report as JSON")
@click.option("--svg", "svg_path", type=click.Path(dir_okay=False), default=None,
              help="write an SVG of the projected polygon")
def poly_analyze(w0: int, w1: int, w2: int, d: int, as_json: bool, svg_path: str | None) -> None:
    """Build the polytope of a good quadruple and verify its case identities."""
    q = Quadruple(w0, w1, w2, d)
    p = build(q)
    case = verify_case_identities(p)
    triple = find_unimodular_triple(p)
    polygon = project(p, triple)
    canon = canonical_form(polygon)
    payload = {
        "quadruple": [*q.weights, q.d],
        "genus": p.genus,
        "n": p.n,
        "interior": len(p.interior),
        "exceptional_bound": p.exceptional_bound,
        "case": case.to_dict(),
        "triple": [list(row) for row in triple],
        "projected": polygon.to_json_dict()["vertices"],
        "canonical": canon.to_json_dict()["vertices"],
    }
    if svg_path is not None:
        Path(svg_path).write_text(render_polygon_svg(polygon), encoding="utf-8")
    if as_json:
        click.echo(json.dumps(payload, indent=2))
        return
    click.echo(f"quadruple   {q}")
    click.echo(f"genus       {p.genus}")
    click.echo(f"points      {p.n}" + ("  (exceeds soft bound 3g+6)" if p.exceptional_bound else ""))
    click.echo(f"interior    {len(p.interior)}")
    click.echo(f"case        {case.case_tag}")
    click.echo(f"determinant {case.actual_det} (predicted {case.predicted_det})")
    click.echo(f"triple      {[list(row) for row in triple]}")
    click.echo(f"canonical   {canon.to_json_dict()['vertices']}")
    if svg_path is not None:
        click.echo(f"figure      {svg_path}")


@cli.command("classify")
@click.option("--genus", "g", type=int, required=True)
@click.option("--dmax", type=int, required=True)
@click.option("--jobs", type=int, default=1,
              help="accepted for compatibility (>= 1); changes nothing")
@click.option("--atlas-dir", "atlas_dir", type=click.Path(file_okay=False), default=None)
@click.option("--csv", "write_csv", is_flag=True, help="also write the member table as CSV")
@click.option("--figures", is_flag=True, help="also write one SVG per class")
@click.option("--stabilize", default=None,
              help="comma-separated increasing degree bounds to report class counts for")
def classify_cmd(g: int, dmax: int, jobs: int, atlas_dir: str | None,
                 write_csv: bool, figures: bool, stabilize: str | None) -> None:
    """Group all g-good quadruples with d <= dmax into an atlas file."""
    if jobs < 1:
        raise PreconditionError(f"--jobs must be >= 1, got {jobs}")
    if dmax < 1:
        raise PreconditionError(f"--dmax must be >= 1, got {dmax}")
    steps: list[int] = []
    if stabilize is not None:
        try:
            steps = [int(s) for s in stabilize.split(",") if s.strip()]
        except ValueError as exc:
            raise PreconditionError(f"--stabilize expects integers, got {stabilize!r}") from exc
    for flag, bound in (("--dmax", dmax), ("--stabilize step", max(steps, default=0))):
        if bound > D_MAX_CAP:
            raise PreconditionError(f"{flag} {bound} exceeds the cap {D_MAX_CAP}")
    if stabilize is not None:
        steps = stabilization_steps(steps)
    # one atlas serves both: the report reads it up to the last step, and
    # the atlas file keeps the members up to --dmax
    atlas = group_by_class(g, max([dmax, *steps]))
    report = None if stabilize is None else atlas_stabilization(atlas, steps)
    atlas = atlas.up_to(dmax)
    out_dir = Path(atlas_dir or "atlas")
    out_dir.mkdir(parents=True, exist_ok=True)
    atlas_path = out_dir / f"atlas_g{g}_d{dmax}.json"
    atlas_path.write_bytes(atlas.to_json_bytes())
    members = sum(len(entry.members) for entry in atlas.classes)
    click.echo(f"{len(atlas.classes)} classes ({members} quadruples) -> {atlas_path}")
    if write_csv:
        csv_path = out_dir / f"atlas_g{g}_d{dmax}.csv"
        csv_path.write_text(atlas.to_csv_text(), encoding="utf-8")
        click.echo(f"csv -> {csv_path}")
    if figures:
        for index, entry in enumerate(atlas.classes):
            fig_path = out_dir / f"class_g{g}_d{dmax}_{index:03d}.svg"
            fig_path.write_text(render_polygon_svg(entry.canonical), encoding="utf-8")
        click.echo(f"{len(atlas.classes)} figures -> {out_dir}")
    if report is not None:
        for d_step, count in report.steps:
            click.echo(f"d<={d_step}: {count} classes")
        click.echo(f"still growing at last step: {report.growing}")


@cli.group()
def polygons() -> None:
    """Polygon-class enumeration."""


@polygons.command("enum")
@click.option("--genus", "g", type=int, required=True)
@click.option("--method", type=click.Choice(["inductive", "box"]), default="inductive")
@click.option("--nmax", type=int, default=None,
              help="largest lattice point count to reach (default 3g+7)")
@click.option("--cross-check", is_flag=True,
              help="run both methods and fail (exit 2) on disagreement")
def polygons_enum(g: int, method: str, nmax: int | None, cross_check: bool) -> None:
    """List canonical forms of all polygon classes with g interior points."""
    if cross_check:
        inductive = enumerate_classes(g, "inductive", n_max=nmax)
        box = enumerate_classes(g, "box", n_max=nmax)
        a = {p.vertices for p in inductive}
        b = {p.vertices for p in box}
        if a != b:
            raise InvariantViolation(
                f"methods disagree: {len(a - b)} inductive-only, {len(b - a)} box-only"
            )
        classes = inductive
        click.echo(f"cross-check ok: both methods give {len(classes)} classes")
    else:
        classes = enumerate_classes(g, method, n_max=nmax)
    by_n: dict[int, int] = {}
    for p in classes:
        by_n[p.n] = by_n.get(p.n, 0) + 1
        click.echo(json.dumps({"n": p.n, "vertices": [[x, y] for x, y in p.vertices]}))
    summary = ", ".join(f"n={n}: {by_n[n]}" for n in sorted(by_n))
    click.echo(f"total: {len(classes)} classes ({summary})")


@cli.group("map")
def map_group() -> None:
    """Coordinate transport between equivalent quadruples."""


def _read_curve_terms(path: str) -> list[tuple[Fraction, tuple[int, ...]]]:
    """(coef, exponents) pairs of a curve file; a malformed file or item
    is a precondition failure naming the file and the item's index."""
    try:
        # a JSON float stays its own text, so that a coef reads exactly
        raw = json.loads(Path(path).read_text(encoding="utf-8"), parse_float=str)
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError, or an int past Python's
        # digit limit for string conversion
        raise PreconditionError(f"{path}: not a UTF-8 JSON file: {exc}") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("terms"), list):
        raise PreconditionError(f"{path}: expected an object with a 'terms' list")
    terms = []
    for index, item in enumerate(raw["terms"]):
        expo = item.get("exponents") if isinstance(item, dict) else None
        if (
            not isinstance(expo, list)
            or "coef" not in item
            or len(expo) != 3
            or any(not isinstance(x, int) or isinstance(x, bool) for x in expo)
        ):
            raise PreconditionError(
                f"{path}: term {index} must be an object with 'coef' and "
                f"'exponents' as a list of three ints"
            )
        text = str(item["coef"])
        try:
            # exponent notation is refused before Fraction builds 10**exponent
            coef = None if "e" in text.lower() else Fraction(text)
        except (ValueError, ZeroDivisionError):
            coef = None
        if coef is None:
            shown = repr(item["coef"])
            if len(shown) > 40:
                shown = f"{shown[:30]}... ({len(text)} characters)"
            raise PreconditionError(
                f"{path}: term {index} has coef {shown}, not a rational number "
                f"such as 3/2, -1 or 0.5 (exponent notation is refused)"
            )
        terms.append((coef, tuple(expo)))
    return terms


@map_group.command("curve")
@click.argument("w0", type=int)
@click.argument("w1", type=int)
@click.argument("w2", type=int)
@click.argument("d", type=int)
@click.argument("v0", type=int)
@click.argument("v1", type=int)
@click.argument("v2", type=int)
@click.argument("e", type=int)
@click.option("--curve", "curve_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON file with curve terms (default: all monomials)")
def map_curve_cmd(w0: int, w1: int, w2: int, d: int, v0: int, v1: int, v2: int, e: int,
                  curve_path: str | None) -> None:
    """Map a curve on (W0,W1,W2;D) to one on (V0,V1,V2;E)."""
    q_from = Quadruple(w0, w1, w2, d)
    q_to = Quadruple(v0, v1, v2, e)
    bc = basis_change(q_from, q_to)
    if curve_path is not None:
        terms = _read_curve_terms(curve_path)
    else:
        terms = [(Fraction(1), pt) for pt in bc.rows]
    curve = make_curve(q_from, terms)
    mapped, warnings = map_curve(curve, bc)
    payload = {
        "source": [*q_from.weights, q_from.d],
        "target": [*q_to.weights, q_to.d],
        "matrix": [[str(x) for x in row] for row in bc.matrix],
        "row_map": list(bc.row_map),
        "terms": [
            {"coef": str(c), "exponents": list(v)} for c, v in mapped.terms
        ],
        "warnings": list(warnings),
    }
    click.echo(json.dumps(payload, indent=2))


def main(argv: list[str] | None = None) -> int:
    """Entry point mapping failures to the documented exit codes."""
    try:
        cli.main(args=argv, prog_name="wpoly", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except (PreconditionError, DegenerateInputError, ValueError, OSError) as exc:
        # an OSError from pathlib names the path it failed on
        click.echo(f"error: {exc}", err=True)
        return 1
    except InvariantViolation as exc:
        click.echo(f"invariant violation: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
