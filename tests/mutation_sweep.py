"""Mutation sweep over chosen functions of the package.

    python tests/mutation_sweep.py WORKDIR TARGET [TARGET ...] \
        --tests tests/test_polygon2d.py tests/test_classify.py [--timeout 180]

A TARGET is FILE:QUALNAME, a function of a source file of this checkout,
for example src/wpoly/polygon2d.py:_cycle_steps or
src/wpoly/polygon2d.py:LatticePolygon.__post_init__.  Each mutant changes
one node of the target's body, found with `ast`:

- a comparison operator is flipped to its negation (< and >=, > and <=,
  == and !=, in and not in, is and is not), one operator of a chained
  comparison at a time;
- an integer constant 0, 1 or 2 is increased by 1.

Nodes inside f-strings are left alone.  The unmutated checkout is copied
under WORKDIR and the tests run there first, and must pass.  Then each
mutant is written into its own fresh copy, where the given test files run
under pytest with -x, a fixed Hypothesis seed and the per-mutant timeout
in seconds.  A mutant is killed when the tests fail, and timed out when
they do not end in time; either way the mutant is caught.  Survivors are
listed with their line, so each can be shown equivalent or given a test.
The file is not collected by pytest (its name does not start with test_).
"""
from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLIP = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
        ast.Is: ast.IsNot, ast.IsNot: ast.Is}
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "out",
                                "*.egg-info")


def find_function(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    node: ast.AST = tree
    for name in qualname.split("."):
        node = next(n for n in ast.iter_child_nodes(node)
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name)
    return node


def mutants(source: str, qualname: str):
    """(line, description, mutated source) of every mutant of the target."""
    lines = source.splitlines(keepends=True)
    function = find_function(ast.parse(source), qualname)
    skip = {id(n) for f in ast.walk(function) if isinstance(f, ast.JoinedStr) for n in ast.walk(f)}

    offsets = [0]
    for line in lines:
        offsets.append(offsets[-1] + len(line.encode()))

    def splice(node: ast.AST, text: str) -> str:
        start = offsets[node.lineno - 1] + node.col_offset
        end = offsets[node.end_lineno - 1] + node.end_col_offset
        data = source.encode()
        return (data[:start] + text.encode() + data[end:]).decode()

    for node in ast.walk(function):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in FLIP:
                    ops = node.ops[:k] + [FLIP[type(op)]()] + node.ops[k + 1:]
                    new = ast.unparse(ast.Compare(node.left, ops, node.comparators))
                    yield node.lineno, f"{ast.unparse(node)}  ->  {new}", splice(node, new)
        elif isinstance(node, ast.Constant) and type(node.value) is int and 0 <= node.value <= 2:
            yield node.lineno, f"constant {node.value}  ->  {node.value + 1}", splice(node, str(node.value + 1))


def run_tests(copy: Path, tests: list[str], timeout: float) -> str:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", *tests]
    try:
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir", type=Path)
    parser.add_argument("targets", nargs="+", metavar="TARGET")
    parser.add_argument("--tests", nargs="+", required=True)
    parser.add_argument("--timeout", type=float, default=180.0)
    args = parser.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    baseline = args.workdir / "baseline"
    shutil.rmtree(baseline, ignore_errors=True)
    shutil.copytree(ROOT, baseline, ignore=IGNORE)
    if run_tests(baseline, args.tests, args.timeout) != "survived":
        print("the tests fail on the unmutated checkout", file=sys.stderr)
        return 1
    shutil.rmtree(baseline)
    totals = {}
    for target in args.targets:
        path, _, qualname = target.partition(":")
        source = (ROOT / path).read_text(encoding="utf-8")
        counts = totals[target] = {"killed": 0, "timeout": 0, "survived": 0}
        for index, (line, description, mutated) in enumerate(mutants(source, qualname)):
            copy = args.workdir / f"mutant-{qualname}-{index}"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(ROOT, copy, ignore=IGNORE)
            (copy / path).write_text(mutated, encoding="utf-8")
            status = run_tests(copy, args.tests, args.timeout)
            shutil.rmtree(copy)
            counts[status] += 1
            print(f"{status:8} {path}:{line} {qualname}: {description}", flush=True)
    for target, counts in totals.items():
        caught = counts["killed"] + counts["timeout"]
        print(f"{target}: {caught} of {sum(counts.values())} caught "
              f"({counts['killed']} killed, {counts['timeout']} timed out, {counts['survived']} survived)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
