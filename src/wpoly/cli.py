"""Command-line front end, parsed with the standard library's argparse.

Subcommands
-----------
quad check W0 W1 W2 D      validity/genus report for a quadruple
poly analyze W0 W1 W2 D    polytope, case identities, projection
classify                   group g-good quadruples into an atlas file
polygons enum              enumerate polygon classes for a genus
map curve <8 ints>         transport a curve between equivalent quadruples

Exit codes: 0 success, and after --help; 1 bad input (a usage error
included), precondition failure or an unwritable output path; 2 is
reserved for violations of derived invariants (never for user error).

Curve files are JSON: {"terms": [{"coef": "5" or "3/2", "exponents":
[a, b, c]}, ...]} with each monomial of full weighted degree; a coef in
exponent notation, such as "1e3", is refused.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, NoReturn

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
from .polygon2d import canonical_form
from .quadruples import D_MAX_CAP, Quadruple, validate
from .render import json_text, render_polygon_svg
from .wpolytope import build, find_unimodular_triple, project, verify_case_identities


def quad_check(w0: int, w1: int, w2: int, d: int, as_json: bool) -> None:
    """Report pairwise coprimality, degree conditions, and genus."""
    q = Quadruple(w0, w1, w2, d)
    report = validate(q)
    if as_json:
        print(json_text(report.to_dict()))
        return
    print(f"quadruple        {q}")
    print(f"pairwise coprime {report.pairwise_coprime}")
    print(f"degree dominates {report.degree_dominates}")
    print(f"condition (i)    {[w is not None for w in report.condition_i]}")
    print(f"condition (ii)   {[w is not None for w in report.condition_ii]}")
    print(f"good             {report.is_good}")
    if report.genus is not None:
        print(f"genus            {report.genus}")


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
        "interior": p.genus,
        "exceptional_bound": p.exceptional_bound,
        "case": case.to_dict(),
        "triple": [list(row) for row in triple],
        "projected": [list(v) for v in polygon.vertices],
        "canonical": [list(v) for v in canon.vertices],
    }
    if svg_path is not None:
        Path(svg_path).write_text(render_polygon_svg(polygon), encoding="utf-8")
    if as_json:
        print(json_text(payload))
        return
    print(f"quadruple   {q}")
    print(f"genus       {p.genus}")
    print(f"points      {p.n}" + ("  (exceeds soft bound 3g+6)" if p.exceptional_bound else ""))
    print(f"interior    {p.genus}")
    print(f"case        {case.case_tag}")
    print(f"determinant {case.actual_det} (predicted {case.predicted_det})")
    print(f"triple      {[list(row) for row in triple]}")
    print(f"canonical   {[list(v) for v in canon.vertices]}")
    if svg_path is not None:
        print(f"figure      {svg_path}")


def classify_cmd(g: int, dmax: int, jobs: int, atlas_dir: str | None,
                 write_csv: bool, figures: bool, stabilize: str | None) -> None:
    """Group all g-good quadruples with d <= dmax into an atlas file."""
    if atlas_dir and Path(atlas_dir).is_file():
        # refused before the work; mkdir would refuse it only after
        raise PreconditionError(f"--atlas-dir {atlas_dir} is a file, not a directory")
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
    print(f"{len(atlas.classes)} classes ({members} quadruples) -> {atlas_path}")
    if write_csv:
        csv_path = out_dir / f"atlas_g{g}_d{dmax}.csv"
        csv_path.write_text(atlas.to_csv_text(), encoding="utf-8")
        print(f"csv -> {csv_path}")
    if figures:
        for index, entry in enumerate(atlas.classes):
            fig_path = out_dir / f"class_g{g}_d{dmax}_{index:03d}.svg"
            fig_path.write_text(render_polygon_svg(entry.canonical), encoding="utf-8")
        print(f"{len(atlas.classes)} figures -> {out_dir}")
    if report is not None:
        for d_step, count in report.steps:
            print(f"d<={d_step}: {count} classes")
        print(f"still growing at last step: {report.growing}")


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
        print(f"cross-check ok: both methods give {len(classes)} classes")
    else:
        classes = enumerate_classes(g, method, n_max=nmax)
    by_n: dict[int, int] = {}
    for p in classes:
        by_n[p.n] = by_n.get(p.n, 0) + 1
        print(json.dumps({"n": p.n, "vertices": [[x, y] for x, y in p.vertices]}))
    summary = ", ".join(f"n={n}: {by_n[n]}" for n in sorted(by_n))
    print(f"total: {len(classes)} classes ({summary})")


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


def map_curve_cmd(w0: int, w1: int, w2: int, d: int, v0: int, v1: int, v2: int, e: int,
                  curve_path: str | None) -> None:
    """Map a curve on (W0,W1,W2;D) to one on (V0,V1,V2;E)."""
    # a missing, unreadable or malformed file is refused before the work
    terms = None if curve_path is None else _read_curve_terms(curve_path)
    q_from = Quadruple(w0, w1, w2, d)
    q_to = Quadruple(v0, v1, v2, e)
    bc = basis_change(q_from, q_to)
    curve = make_curve(q_from, [(Fraction(1), pt) for pt in bc.rows] if terms is None else terms)
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
    print(json_text(payload))


class _Parser(argparse.ArgumentParser):
    """argparse with exit 1 on a usage error, as exit 2 means a bug; with no
    abbreviated option (--gen is not --genus); and with a word that starts
    with one dash, such as -3,5 or -out, read as a value unless it starts -h."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[^-]")

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def commands(self) -> argparse._SubParsersAction:
        # the metavar names a missing command in the error; without it
        # Python 3.10 fails to format that error (bpo-29298)
        return self.add_subparsers(metavar="COMMAND", required=True)


def _command(commands: argparse._SubParsersAction, name: str, run: Callable[..., None],
             *ints: str) -> _Parser:
    """The parser of a command that calls run; ints name its int positionals."""
    parser = commands.add_parser(name, help=run.__doc__, description=run.__doc__)
    parser.set_defaults(run=run)
    for dest in ints:
        parser.add_argument(dest, type=int, metavar=dest.upper())
    return parser


_PARSER = _Parser(prog="wpoly", description="Exact lattice-polytope toolkit for weighted plane curves.")
_commands = _PARSER.commands()
_check = _command(_commands.add_parser("quad", help="Quadruple-level checks.").commands(),
                  "check", quad_check, "w0", "w1", "w2", "d")
_analyze = _command(_commands.add_parser("poly", help="Polytope-level analysis.").commands(),
                    "analyze", poly_analyze, "w0", "w1", "w2", "d")
for _parser in _check, _analyze:
    _parser.add_argument("--json", dest="as_json", action="store_true", help="emit the report as JSON")
_analyze.add_argument("--svg", dest="svg_path", metavar="FILE", help="write an SVG of the projected polygon")
_atlas = _command(_commands, "classify", classify_cmd)
_atlas.add_argument("--genus", dest="g", type=int, required=True)
_atlas.add_argument("--dmax", type=int, required=True)
_atlas.add_argument("--jobs", type=int, default=1, help="accepted for compatibility (>= 1); changes nothing")
_atlas.add_argument("--atlas-dir", metavar="DIR")
_atlas.add_argument("--csv", dest="write_csv", action="store_true", help="also write the member table as CSV")
_atlas.add_argument("--figures", action="store_true", help="also write one SVG per class")
_atlas.add_argument("--stabilize", metavar="STEPS",
                    help="comma-separated increasing degree bounds to report class counts for")
_enum = _command(_commands.add_parser("polygons", help="Polygon-class enumeration.").commands(),
                 "enum", polygons_enum)
_enum.add_argument("--genus", dest="g", type=int, required=True)
_enum.add_argument("--method", choices=["inductive", "box"], default="inductive")
_enum.add_argument("--nmax", type=int, help="largest lattice point count to reach (default 3g+7)")
_enum.add_argument("--cross-check", action="store_true",
                   help="run both methods and fail (exit 2) on disagreement")
_curve = _command(
    _commands.add_parser("map", help="Coordinate transport between equivalent quadruples.").commands(),
    "curve", map_curve_cmd, "w0", "w1", "w2", "d", "v0", "v1", "v2", "e")
_curve.add_argument("--curve", dest="curve_path", metavar="FILE",
                    help="JSON file with curve terms (default: all monomials)")


def main(argv: list[str] | None = None) -> int:
    """Entry point mapping failures to the documented exit codes."""
    try:
        args = vars(_PARSER.parse_args(argv))
    except SystemExit as exc:
        # argparse exits 0 after --help and 1 after a usage error
        return exc.code
    try:
        args.pop("run")(**args)
    except KeyboardInterrupt:
        sys.stderr.write("\naborted\n")
        return 1
    except BrokenPipeError:  # stdout's reader left early, as under | head: exit quietly
        return 1
    except (PreconditionError, DegenerateInputError, ValueError, OSError) as exc:
        # an OSError from pathlib names the path it failed on
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
