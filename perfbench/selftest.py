"""Self-test of the benchmark's reference code and output checks.

    python3 perfbench/selftest.py

1. The reference generator equals wpoly's brute-force scan
   (enumerate_g_good) for g = 1..5 and d <= 60.
2. Each workload's check accepts the program's output at a tiny size and
   rejects a corrupted copy: a dropped atlas member, a wrong class count,
   a canonical form that changes under a unimodular map.
Exits 1 on the first failure.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))

from wpoly.cli import main as wpoly_main  # noqa: E402
from wpoly.quadruples import enumerate_g_good  # noqa: E402

import refgen  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, OpResult  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = wpoly_main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_generator() -> None:
    counts = []
    for g in range(1, 6):
        ref = [q[:4] for q in refgen.good_quadruples(g, g, 60)]
        prog = [(q.w0, q.w1, q.w2, q.d) for q in enumerate_g_good(g, 60)]
        expect(ref == prog, f"reference generator equals enumerate_g_good at g={g}, d<=60 ({len(ref)})")
        counts.append(len(ref))
    expect(counts == [82, 71, 76, 48, 36], f"per-genus counts {counts}")


def test_atlas_check() -> None:
    reference = {q[:4] for q in refgen.good_quadruples(1, 1, 24)}
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        rc, _, _ = cli(["classify", "--genus", "1", "--dmax", "24", "--atlas-dir", tmp])
        atlas = json.loads((Path(tmp) / "atlas_g1_d24.json").read_text())
    expect(rc == 0 and not workloads.check_atlas(1, 24, atlas, reference), "atlas g=1 d<=24 passes")
    dropped = json.loads(json.dumps(atlas))
    dropped["classes"][-1]["members"].pop()
    expect(bool(workloads.check_atlas(1, 24, dropped, reference)), "a dropped atlas member is caught")
    moved = json.loads(json.dumps(atlas))
    moved["classes"][0]["members"].append(moved["classes"][-1]["members"].pop())
    expect(bool(workloads.check_atlas(1, 24, moved, reference)), "a member in the wrong class is caught")


def test_classes_check() -> None:
    classes = workloads.Classes(seed=0)
    op = Op(key=("inductive", 1), argv=["polygons", "enum", "--genus", "1"])
    rc, out, err = cli(op.argv)
    good = classes.check(OpResult(op, rc, out, err, 0.0, 0.0))
    expect(good.fault is None and not good.problems, "enum g=1 passes")
    lines = out.splitlines()
    short = "\n".join(lines[1:-1] + [f"total: {len(lines) - 2} classes"])
    bad = classes.check(OpResult(op, rc, short, err, 0.0, 0.0))
    expect(bad.fault is None and bool(bad.problems), "a wrong class count is caught")
    item = json.loads(lines[0])
    item["vertices"][0][0] -= 1
    skewed = "\n".join([json.dumps(item)] + lines[1:])
    bad = classes.check(OpResult(op, rc, skewed, err, 0.0, 0.0))
    expect(bool(bad.problems), "a class with the wrong interior count is caught")
    box = Op(key=("box", 1), argv=["polygons", "enum", "--genus", "1", "--method", "box"])
    results = [OpResult(op, rc, out, err, 0.0, 0.0), OpResult(box, rc, short, err, 0.0, 0.0)]
    expect(bool(classes.check_pass(results)), "box differing from inductive is caught")


def test_analyze_check() -> None:
    analyze = workloads.Analyze(0, [(1, 3, 2, 7), (2, 3, 5, 17), (1, 1, 4, 5)])
    for op in analyze.ops:
        quad = op.key
        rc, out, err = cli(op.argv)
        verdict = analyze.check(OpResult(op, rc, out, err, 0.0, 0.0))
        if quad in workloads.GENUS0_BOUND_ITEMS and verdict.fault is not None:
            expect(verdict.fault == "genus0-bound", f"{quad} counts as the named genus-0 fault")
            continue
        expect(not verdict.problems, f"analyze {quad} passes")
        payload = json.loads(out)
        shifted = dict(payload, canonical=[[x + 1, y] for x, y in payload["canonical"]])
        expect(bool(workloads.check_analyze(quad, shifted, analyze.rng)),
               f"{quad}: a canonical form that changes under a unimodular map is caught")
        wrong_n = dict(payload, n=payload["n"] + 1)
        expect(bool(workloads.check_analyze(quad, wrong_n, analyze.rng)), f"{quad}: a wrong n is caught")
        rows = payload["triple"]
        swapped = dict(payload, triple=[rows[0], rows[0], rows[2]])
        expect(bool(workloads.check_analyze(quad, swapped, analyze.rng)),
               f"{quad}: a triple without |det| = d is caught")


if __name__ == "__main__":
    test_generator()
    test_atlas_check()
    test_classes_check()
    test_analyze_check()
    print("selftest passed")
