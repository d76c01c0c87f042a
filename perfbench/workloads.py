"""The four benchmark workloads: their operations and output checks.

Each operation is one `wpoly` command line run in-process through
`wpoly.cli.main`.  Every check compares the program's output with
computations in `refgen` (made apart from the program) or with a property
the method must have; none compares with stored output.  An operation
counts as *failed* only when it shows one of the named faults in
KNOWN_FAULTS; any other deviation makes the run incorrect.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from wpoly.polygon2d import canonical_form, convex_hull

import refgen

ATLAS_GENERA = (1, 2, 3)
ATLAS_DMAX = 120
INDUCTIVE_GENERA = (1, 2, 3, 4, 5, 6)
BOX_GENERA = (1, 2)
ANALYZE_G_MAX = 40
ANALYZE_D_MAX = 150
ANALYZE_SAMPLE = 2000
# Good genus-0 quadruples whose polytopes have more than 7 points.
GENUS0_BOUND_ITEMS = (
    (1, 1, 4, 5), (1, 1, 5, 6), (1, 1, 6, 7),
    (1, 2, 9, 11), (1, 2, 11, 12), (1, 2, 13, 15),
)

KNOWN_FAULTS = {
    "genus0-bound": "wpolytope.build applies n <= 3g+7 at genus 0, so these "
                    "good quadruples exit 2",
    "inductive-margin": "classify._inductive_cycles searches a bounding-box "
                        "margin of 2 and misses conv{(0,0),(1,0),(4,13)} at g = 6",
}


@dataclass
class Op:
    """One command line, with what its check needs to know."""

    key: tuple
    argv: list[str]
    atlas_path: Path | None = None


@dataclass
class OpResult:
    op: Op
    rc: int
    out: str
    err: str
    start: float
    end: float
    atlas_bytes: bytes | None = None


@dataclass
class Verdict:
    """Outcome of checking one operation: ok, a named fault, or problems."""

    fault: str | None = None
    problems: list[str] = field(default_factory=list)


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


# ---------------------------------------------------------------------------
# atlas


def check_atlas(g: int, d_max: int, atlas: dict, reference: set[tuple]) -> list[str]:
    """Atlas file against the reference generator, the genus formula,
    Pick on each class polygon and each member's polytope size."""
    problems = []
    if atlas.get("g") != g or atlas.get("d_max") != d_max:
        problems.append(f"atlas header g={atlas.get('g')} d_max={atlas.get('d_max')}")
    members = [tuple(m) for entry in atlas.get("classes", []) for m in entry["members"]]
    if len(members) != len(set(members)):
        problems.append(f"g={g}: duplicate atlas members")
    if set(members) != reference:
        missing = sorted(reference - set(members))[:3]
        extra = sorted(set(members) - reference)[:3]
        problems.append(f"g={g}: members differ from reference (missing {missing}, extra {extra})")
    for entry in atlas.get("classes", []):
        vertices = [tuple(v) for v in entry["canonical"]]
        interior, boundary = refgen.pick(vertices)
        if interior != g or interior + boundary != entry["n"]:
            problems.append(f"g={g}: class {vertices} has i={interior}, b={boundary}, n={entry['n']}")
        for w0, w1, w2, d in entry["members"]:
            if refgen.genus_value((w0, w1, w2), d) != g:
                problems.append(f"member {(w0, w1, w2, d)} does not have genus {g}")
            if refgen.polytope_size((w0, w1, w2), d) != entry["n"]:
                problems.append(f"member {(w0, w1, w2, d)} polytope size differs from class n={entry['n']}")
    return problems


class Atlas:
    """`wpoly classify --genus g --dmax 120 --jobs J` for g = 1, 2, 3."""

    min_passes = 1  # one pass is about 20 s

    def __init__(self, seed: int, jobs: int, out_dir: Path):
        self.jobs = jobs
        self.out_dir = out_dir
        self.reference: dict[int, set[tuple]] = {g: set() for g in ATLAS_GENERA}
        for w0, w1, w2, d, g in refgen.good_quadruples(min(ATLAS_GENERA), max(ATLAS_GENERA), ATLAS_DMAX):
            self.reference[g].add((w0, w1, w2, d))
        genera = list(ATLAS_GENERA)
        random.Random(seed).shuffle(genera)
        self.ops = [
            Op(
                key=("classify", g, jobs),
                argv=["classify", "--genus", str(g), "--dmax", str(ATLAS_DMAX),
                      "--jobs", str(jobs), "--atlas-dir", str(out_dir)],
                atlas_path=out_dir / f"atlas_g{g}_d{ATLAS_DMAX}.json",
            )
            for g in genera
        ]

    def check(self, r: OpResult) -> Verdict:
        g = r.op.key[1]
        if r.rc != 0:
            return Verdict(problems=[f"classify g={g} exited {r.rc}: {r.err.strip()[:200]}"])
        atlas = _parse_json(r.atlas_bytes.decode("utf-8"))
        if atlas is None:
            return Verdict(problems=[f"classify g={g}: atlas file is not JSON"])
        problems = check_atlas(g, ATLAS_DMAX, atlas, self.reference[g])
        members = sum(len(e["members"]) for e in atlas["classes"])
        if f"{len(atlas['classes'])} classes ({members} quadruples)" not in r.out:
            problems.append(f"classify g={g}: summary line disagrees with the atlas file")
        return Verdict(problems=problems)

    def check_pass(self, results: list[OpResult]) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# classes


def parse_classes(out: str) -> list[tuple[int, tuple]]:
    """(n, vertices) for each JSON line of `polygons enum` output."""
    classes = []
    for line in out.splitlines():
        if line.startswith("{"):
            item = json.loads(line)
            classes.append((item["n"], tuple(tuple(v) for v in item["vertices"])))
    return classes


def check_classes(g: int, classes: list[tuple[int, tuple]], rng: random.Random) -> list[str]:
    """Each class has g interior points (Pick, benchmark code), is a fixed
    point of canonical_form, and is recovered from a seeded unimodular
    image of itself."""
    problems = []
    if len({v for _, v in classes}) != len(classes):
        problems.append(f"g={g}: duplicate classes")
    for n, vertices in classes:
        interior, boundary = refgen.pick(vertices)
        if interior != g or interior + boundary != n:
            problems.append(f"g={g}: class {vertices} has i={interior}, b={boundary}, n={n}")
            continue
        if canonical_form(convex_hull(list(vertices))).vertices != vertices:
            problems.append(f"g={g}: class {vertices} is not a fixed point of canonical_form")
        m = refgen.unimodular_map(rng)
        if canonical_form(convex_hull([m(p) for p in vertices])).vertices != vertices:
            problems.append(f"g={g}: class {vertices} is not invariant under a unimodular map")
    return problems


class Classes:
    """`wpoly polygons enum` by the inductive method for g = 1..6 and the
    box method for g = 1..2."""

    # A pass is about 12 s, and a burst of host noise can slow one by a
    # tenth; the median of three passes drops it.
    min_passes = 3

    def __init__(self, seed: int):
        # The seed draws only the checks' unimodular maps: the operations
        # keep one order, so that no run's timings depend on which large
        # enumeration ran just before a small one.
        self.rng = random.Random(seed)
        ops = [("inductive", g) for g in INDUCTIVE_GENERA] + [("box", g) for g in BOX_GENERA]
        self.ops = [
            Op(key=(method, g), argv=["polygons", "enum", "--genus", str(g), "--method", method])
            for method, g in ops
        ]

    def check(self, r: OpResult) -> Verdict:
        method, g = r.op.key
        if r.rc != 0:
            return Verdict(problems=[f"enum {method} g={g} exited {r.rc}: {r.err.strip()[:200]}"])
        classes = parse_classes(r.out)
        if f"total: {len(classes)} classes" not in r.out:
            return Verdict(problems=[f"enum {method} g={g}: summary disagrees with the listing"])
        problems = check_classes(g, classes, self.rng)
        if len(classes) != refgen.CASTRYCK_COUNTS[g]:
            if (method, g) == ("inductive", 6) and not problems and len(classes) < refgen.CASTRYCK_COUNTS[g]:
                return Verdict(fault="inductive-margin")
            problems.append(f"enum {method} g={g}: {len(classes)} classes, Castryck has {refgen.CASTRYCK_COUNTS[g]}")
        return Verdict(problems=problems)

    def check_pass(self, results: list[OpResult]) -> list[str]:
        """The box method equals the inductive method where both run."""
        found = {r.op.key: {v for _, v in parse_classes(r.out)} for r in results if r.rc == 0}
        return [
            f"g={g}: box and inductive classes differ"
            for g in BOX_GENERA
            if found.get(("box", g)) != found.get(("inductive", g))
        ]


# ---------------------------------------------------------------------------
# analyze


def analyze_corpus(seed: int) -> list[tuple[int, int, int, int]]:
    """ANALYZE_SAMPLE good quadruples with 1 <= g <= 40 and d <= 150, drawn
    by the seed, plus the fixed genus-0 items; in seeded order."""
    population = [q[:4] for q in refgen.good_quadruples(1, ANALYZE_G_MAX, ANALYZE_D_MAX)]
    rng = random.Random(seed)
    corpus = rng.sample(population, ANALYZE_SAMPLE) + list(GENUS0_BOUND_ITEMS)
    rng.shuffle(corpus)
    return corpus


def check_analyze(quad: tuple[int, int, int, int], payload: dict, rng: random.Random) -> list[str]:
    """Report of one quadruple against the benchmark's own counts, the
    triple determinant and canonical-form invariance."""
    w, d = quad[:3], quad[3]
    g = refgen.genus_value(w, d)
    problems = []
    if payload.get("quadruple") != list(quad):
        problems.append(f"{quad}: report is for {payload.get('quadruple')}")
    if payload.get("genus") != g or payload.get("interior") != refgen.interior_size(w, d):
        problems.append(f"{quad}: genus {payload.get('genus')}, interior {payload.get('interior')}, expected {g}")
    if payload.get("n") != refgen.polytope_size(w, d):
        problems.append(f"{quad}: n={payload.get('n')}, expected {refgen.polytope_size(w, d)}")
    triple = payload.get("triple", [])
    if (
        len(triple) != 3
        or any(min(row) < 0 or sum(a * b for a, b in zip(row, w)) != d for row in triple)
        or abs(refgen.det3(*triple)) != d
    ):
        problems.append(f"{quad}: triple {triple} is not three polytope points with |det| = d")
    canon = tuple(tuple(v) for v in payload.get("canonical", []))
    if len(canon) < 3 or refgen.pick(canon)[0] != g:
        problems.append(f"{quad}: canonical polygon {canon} does not have {g} interior points")
    else:
        m = refgen.unimodular_map(rng)
        if canonical_form(convex_hull([m(p) for p in canon])).vertices != canon:
            problems.append(f"{quad}: canonical polygon {canon} changes under a unimodular map")
    return problems


class Analyze:
    """`wpoly poly analyze W0 W1 W2 D --json` over a seeded corpus."""

    min_passes = 3

    def __init__(self, seed: int, corpus: list[tuple[int, int, int, int]]):
        self.rng = random.Random(seed)
        self.ops = [Op(key=q, argv=["poly", "analyze", *map(str, q), "--json"]) for q in corpus]

    def check(self, r: OpResult) -> Verdict:
        quad = r.op.key
        if r.rc == 2 and quad in GENUS0_BOUND_ITEMS and "exceeds the hard bound" in r.err:
            return Verdict(fault="genus0-bound")
        if r.rc != 0:
            return Verdict(problems=[f"{quad}: exit {r.rc}: {r.err.strip()[:200]}"])
        payload = _parse_json(r.out)
        if not isinstance(payload, dict):
            return Verdict(problems=[f"{quad}: output is not a JSON object"])
        return Verdict(problems=check_analyze(quad, payload, self.rng))

    def check_pass(self, results: list[OpResult]) -> list[str]:
        return []


WORKLOADS = ("atlas", "classes", "analyze")


def make_workload(name: str, seed: int, out_dir: Path):
    if name == "atlas":
        return Atlas(seed, 1, out_dir)
    if name == "classes":
        return Classes(seed)
    if name == "analyze":
        return Analyze(seed, analyze_corpus(seed))
    raise ValueError(f"unknown workload {name!r}")
