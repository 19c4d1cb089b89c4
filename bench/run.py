"""Benchmark of bnspecht: one client, closed loop, three query workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload groebner-sweep --seed 1 --seconds 20 --trace 0

The run imports `bnspecht` from the checkout's `src/`, builds the workload's
queries from the seed, and repeats whole passes over them, one query at a
time and each pass in a new order drawn from the seed, until `--seconds`
have gone by (at least two passes). Every output is checked. Each query's
time is its best over the passes; `wall_s` is their sum and the latency
percentiles are taken over them. `setup_s` is the median cold start of
`python -m bnspecht.cli orbit-type --point 0`.

The last line of stdout is the result: `correct`, `attempted`, `failed` and
the metrics, end to end with `--trace 0` and per layer with `--trace 1`. The
line before it records where the numbers come from (commit, Python, CPUs,
seed, query count). Details, and the spans of a traced pass, go to
`bench/results/`.

`--trace 1` times untraced passes for half the time, then runs one pass with
every public function of the layer modules wrapped in a span (`tracing.py`).
`--quick` runs two queries of each group once, for the self-test.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_ARGV = ["-m", "bnspecht.cli", "orbit-type", "--point", "0"]
SETUP_STARTS = 21
MIN_PASSES = 2
QUICK_SETUP_STARTS = 3
MAX_REPORTED_FAILURES = 10


def import_package():
    """Import bnspecht from this checkout's src/; exit non-zero without a result if absent."""
    if not (SRC / "bnspecht" / "__init__.py").is_file():
        sys.exit(f"bench: no bnspecht package under {SRC}")
    sys.path.insert(0, str(SRC))
    import bnspecht

    if Path(bnspecht.__file__).resolve().parent != SRC / "bnspecht":
        sys.exit(f"bench: imported bnspecht from {bnspecht.__file__}, not from {SRC}")


def cold_start() -> tuple[float, subprocess.CompletedProcess]:
    """Seconds for a fresh interpreter to import bnspecht and answer one CLI query."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *SETUP_ARGV], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    return time.perf_counter() - t0, proc


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


class Runner:
    """Runs passes over the queries, timing each query and checking its output."""

    def __init__(self, queries, expected, is_correct, seed: int):
        self.queries = queries
        self.expected = expected
        self.is_correct = is_correct
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, detail: str):
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"bench: FAILED {what}: {detail}", file=sys.stderr)

    def run_pass(self) -> list[float]:
        """Seconds per query, in the queries' order; they run in a fresh seeded order.

        A new order each pass keeps a query's best time from depending on which
        queries happened to run just before it.
        """
        gc.collect()
        latencies = [0.0] * len(self.queries)
        for i in self.rng.sample(range(len(self.queries)), len(self.queries)):
            q = self.queries[i]
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = q.run()
            except Exception:  # a failing query is counted, and the run goes on
                latencies[i] = time.perf_counter() - t0
                self.fail(q.id, traceback.format_exc())
                continue
            latencies[i] = time.perf_counter() - t0
            if not self.is_correct(q, out, self.expected):
                self.fail(q.id, "wrong output")
        return latencies

    def run_for(self, seconds: float, min_passes: int) -> list[list[float]]:
        """Whole passes until `seconds` have gone by and at least `min_passes` are done."""
        passes = []
        start = time.perf_counter()
        while len(passes) < min_passes or time.perf_counter() - start < seconds:
            passes.append(self.run_pass())
        return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="two queries per group, one pass")
    args = parser.parse_args(argv)

    import_package()
    import tracing
    import workloads as wl

    expected = wl.load_expected()
    queries = wl.build(args.workload, args.seed, args.quick, expected)
    runner = Runner(queries, expected, wl.is_correct, args.seed)
    metrics: dict[str, tuple[float, str]] = {}

    if not args.trace:
        starts = []
        for _ in range(QUICK_SETUP_STARTS if args.quick else SETUP_STARTS):
            seconds, proc = cold_start()
            starts.append(seconds)
            runner.attempted += 1
            if proc.returncode != 0 or expected.get("setup/orbit-type") != wl.digest(proc.stdout):
                runner.fail("setup/orbit-type", proc.stderr or proc.stdout)
        metrics["setup_s"] = (statistics.median(starts), "s")

    if tracing.traced_names():
        sys.exit("bench: bnspecht is patched before the untraced passes")
    if args.quick:
        passes = [runner.run_pass()]
    elif args.trace:
        passes = runner.run_for(args.seconds / 2, 1)
    else:
        passes = runner.run_for(args.seconds, MIN_PASSES)
    # a query's time is its best over the passes: what it costs when nothing
    # else on the machine gets in its way; a pass is the sum of those
    best = [min(times) for times in zip(*passes)]
    wall_s = sum(best)

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_wall_s = sum(runner.run_pass())
        finally:
            tracer.uninstall()
        if tracing.traced_names():
            sys.exit("bench: tracer wrappers left installed")
        metrics.update(tracer.metrics())
        metrics["trace.overhead_s"] = (traced_wall_s - wall_s, "s")
    else:
        latencies = sorted(best)
        metrics["wall_s"] = (wall_s, "s")
        metrics["latency_p50_ms"] = (statistics.median(latencies) * 1e3, "ms")
        metrics["latency_p90_ms"] = (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    provenance = {
        "commit": git_commit(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "queries_per_pass": len(runner.queries),
        "passes": len(passes),
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    details = dict(result, provenance=provenance, error_rate=runner.failed / runner.attempted,
                   pass_seconds=[sum(p) for p in passes])
    (RESULTS / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(details, indent=2))
    if args.trace:
        tracer.write_spans(RESULTS / f"{args.workload}.spans.json")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
