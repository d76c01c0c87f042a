"""wpoly benchmark: one workload per run, result as JSON on the last line.

    python3 perfbench/run.py --workload atlas --seed 1 --seconds 20 --trace 0

Workloads: atlas, classes, analyze (see README.md).  A run
builds its inputs from --seed, runs the workload's minimum of whole
passes over its operations, and more while they fit in --seconds, checks
every output, and prints one line per metric followed by
{"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced passes and reports the per-layer metrics, writing spans and
self times to perfbench/out/.  Runs from the root of a source checkout
and imports wpoly from its src/ directory.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from bisect import bisect_left
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 11
# Wall time on a shared host swings by a third within seconds, as other
# tenants slow the CPU.  So a SIGALRM handler runs a fixed calibration
# computation every CAL_PERIOD_S in the thread doing the work, and each
# interval is reported in nominal seconds: its wall time less the
# calibration's own time, times CAL_NOMINAL_S over the mean calibration
# time measured inside it.
CAL_PERIOD_S = 0.02
CAL_NOMINAL_S = 0.0006
CAL_EVERY_S = 0.1

if not (SRC / "wpoly" / "cli.py").is_file():
    sys.exit(f"error: no wpoly sources under {SRC}")
sys.path.insert(0, str(SRC))

from wpoly.cli import main as wpoly_main  # noqa: E402

import refgen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import OpResult  # noqa: E402


def machine() -> dict:
    model = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"cores": os.cpu_count(), "cpu": model, "python": platform.python_version()}


class Speedometer:
    """Calibration samples taken by a timer signal while work runs."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        refgen.good_quadruples(1, 3, 7)
        self.starts.append(start)
        self.durations.append(perf_counter() - start)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy(self, start: float, end: float) -> float:
        """Calibration time spent inside the wall interval [start, end)."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        return sum(self.durations[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """Nominal seconds per wall second over [start, end); an interval
        too short to hold a sample uses the last five samples."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        inside = self.durations[lo:hi] or self.durations[-5:]
        return CAL_NOMINAL_S * len(inside) / sum(inside)

    def nominal(self, start: float, end: float) -> float:
        return (end - start - self.busy(start, end)) * self.scale(start, end)


def setup_seconds(speed: Speedometer) -> float:
    """Median time for a fresh interpreter to import wpoly.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import wpoly.cli"], env=env, check=True)
        times.append(speed.nominal(start, perf_counter()))
    return statistics.median(times)


class Tally:
    """Attempted and failed operations, and the problems checks found.
    An output identical to one already checked reuses its verdict."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.faults: dict[str, int] = {}
        self.problems: list[str] = []
        self._verdicts: dict[tuple, workloads.Verdict] = {}

    def check(self, workload, results: list[OpResult]) -> None:
        for r in results:
            key = (r.op.key, r.rc, hash(r.out), hash(r.err), hash(r.atlas_bytes))
            verdict = self._verdicts.get(key)
            if verdict is None:
                verdict = self._verdicts[key] = workload.check(r)
            self.attempted += 1
            if verdict.fault is not None:
                self.failed += 1
                self.faults[verdict.fault] = self.faults.get(verdict.fault, 0) + 1
            self.problems.extend(verdict.problems)
        self.problems.extend(workload.check_pass(results))


class Runner:
    """Runs passes of operations in this process and tallies their checks."""

    def __init__(self, speed: Speedometer, tally: Tally) -> None:
        self.speed = speed
        self.tally = tally
        # One pair of buffers for the whole run: click caches a wrapper per
        # stdout object it sees, so a fresh buffer per call would pile up.
        self.out = io.StringIO()
        self.err = io.StringIO()

    def run_op(self, op, tracer: spans.Tracer | None) -> OpResult:
        for buf in (self.out, self.err):
            buf.seek(0)
            buf.truncate()
        with contextlib.redirect_stdout(self.out), contextlib.redirect_stderr(self.err):
            if tracer is None:
                start = perf_counter()
                rc = wpoly_main(op.argv)
                end = perf_counter()
            else:
                frame = tracer.enter("cli")
                rc = wpoly_main(op.argv)
                tracer.root_self.append(tracer.exit(frame))
                tracer.op_id += 1
                start, end = frame[2], perf_counter()
        atlas_bytes = op.atlas_path.read_bytes() if op.atlas_path and rc == 0 else None
        return OpResult(op, rc, self.out.getvalue(), self.err.getvalue(), start, end, atlas_bytes)

    def run_pass(self, workload, tracer=None) -> tuple[float, list[float], float]:
        """One pass over the operations; returns its time and each
        operation's latency in nominal seconds, and its wall time.  The
        calibration scale is taken over stretches of at least CAL_EVERY_S;
        outputs are checked after the pass."""
        results, latencies, total = [], [], 0.0
        begin = chunk_start = perf_counter()
        chunk_from = 0
        for k, op in enumerate(workload.ops):
            results.append(self.run_op(op, tracer))
            now = perf_counter()
            if now - chunk_start >= CAL_EVERY_S or k == len(workload.ops) - 1:
                scale = self.speed.scale(chunk_start, now)
                total += (now - chunk_start - self.speed.busy(chunk_start, now)) * scale
                latencies.extend(
                    (r.end - r.start - self.speed.busy(r.start, r.end)) * scale
                    for r in results[chunk_from:]
                )
                chunk_start, chunk_from = now, k + 1
        raw = perf_counter() - begin
        self.tally.check(workload, results)
        return total, latencies, raw


def p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def measure(runner: Runner, workload, seconds: float) -> dict:
    """At least the workload's minimum of untraced passes, then more while
    the next would end within `seconds`."""
    times, p50s, p99s, samples = [], [], [], 0
    begin, last = perf_counter(), 0.0
    while len(times) < workload.min_passes or perf_counter() - begin + last <= seconds:
        start = perf_counter()
        nominal, latencies, _ = runner.run_pass(workload)
        last = perf_counter() - start
        times.append(nominal)
        p50s.append(statistics.median(latencies))
        p99s.append(p99(latencies))
        samples += len(latencies)
    print(f"passes: {len(times)}, operation samples: {samples}")
    return {
        "pass_s": statistics.median(times),
        "op_p50_ms": statistics.median(p50s) * 1e3,
        "op_p99_ms": statistics.median(p99s) * 1e3,
    }


def measure_traced(runner: Runner, name: str, workload, seconds: float, seed: int) -> dict:
    """Alternate untraced and traced passes; per-layer metrics per pass.
    Span times are scaled to nominal seconds by the traced passes' ratio
    of nominal to wall time."""
    tracer = spans.Tracer()
    plain, plain_raw, traced, traced_raw = [], [], [], []
    begin, last = perf_counter(), 0.0
    while not traced or perf_counter() - begin + last <= seconds:
        start = perf_counter()
        nominal, _, raw = runner.run_pass(workload)
        plain.append(nominal)
        plain_raw.append(raw)
        with spans.instrument(tracer) as absent:
            nominal, _, raw = runner.run_pass(workload, tracer)
        traced.append(nominal)
        traced_raw.append(raw)
        last = perf_counter() - start
    scale = sum(traced) / sum(traced_raw)
    metrics = tracer.per_layer(len(traced), scale)
    metrics["cli.overhead_ms"] = statistics.median(tracer.root_self) * scale * 1e3
    metrics["classify.pool_s"] = 0.0
    if isinstance(workload, workloads.Atlas):
        # The same commands with --jobs 2, once, minus the untraced pass, in
        # wall seconds: calibration in this process cannot see the workers.
        pooled = workloads.Atlas(seed, 2, workload.out_dir)
        metrics["classify.pool_s"] = runner.run_pass(pooled)[2] - statistics.median(plain_raw)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    side = OUT / f"trace-{name}-seed{seed}.json"
    side.write_text(json.dumps({
        "workload": name,
        "seed": seed,
        "machine": machine(),
        "untraced_pass_s": plain,
        "traced_pass_s": traced,
        "nominal_per_wall_second": scale,
        "self_time_wall_s": dict(tracer.self_time),
        "calls": dict(tracer.calls),
        "counts": dict(tracer.counts),
        "absent": absent,
        "metrics": metrics,
        "span_fields": ["id", "name", "start_wall_s", "end_wall_s", "parent", "op"],
        "spans": tracer.spans,
        "spans_dropped": tracer.dropped,
    }) + "\n", encoding="utf-8")
    print(f"trace: {side.relative_to(ROOT)} ({len(tracer.spans)} spans kept, "
          f"{tracer.dropped} dropped, absent: {absent or 'none'})")
    return metrics


def unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mib"):
        return "MiB"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    info = machine()
    print(f"machine: {info['cores']} cores, {info['cpu']}, Python {info['python']}")
    OUT.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    with Speedometer() as speed, tempfile.TemporaryDirectory(dir=OUT) as tmp:
        runner = Runner(speed, tally)
        workload = workloads.make_workload(args.workload, args.seed, Path(tmp))
        if args.trace:
            values = measure_traced(runner, args.workload, workload, args.seconds, args.seed)
        else:
            values = {"setup_s": setup_seconds(speed)}
            values.update(measure(runner, workload, args.seconds))
            values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"calibration: {len(speed.durations)} samples, mean "
              f"{statistics.mean(speed.durations) * 1e3:.4f} ms, nominal {CAL_NOMINAL_S * 1e3} ms")
    for problem in tally.problems[:20]:
        print(f"problem: {problem}")
    for fault, count in sorted(tally.faults.items()):
        print(f"failed ({fault}): {count} -- {workloads.KNOWN_FAULTS[fault]}")
    for key in sorted(values):
        print(f"{key}: {values[key]} {unit(key)}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": unit(k)} for k in sorted(values)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
