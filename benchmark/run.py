"""pcomod benchmark: time to a correct ``verify`` verdict.

    python3 benchmark/run.py --workload exact-formal --seed 1 --seconds 15 --trace 0
    python3 benchmark/run.py --workload all        # every workload, one table

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Each timed pass runs the
workload's suites once in a fresh interpreter, because every ``pcomod verify``
call starts cold; passes run one after another, so the benchmark uses one core
at a time (plus whatever numpy's BLAS starts).  A new pass starts while it
is expected to end within ``--seconds`` (default: ``run_seconds`` of
BENCHMARK.json).

``--trace 0`` reports the end-to-end metrics: the mean over the passes of a
run for wall_s and cpu_s, the median for the others.  ``--trace 1`` runs one untraced pass, then one pass under the profiler
and span recorder, and reports the per-layer metrics; its spans go to
``.bench_out/``.

Every pass goes through the correctness gate in workloads.py before a timing
is reported.  The exit code is 1 when a check record differs from the
reference or a verdict from the known answer, 2 when the benchmark cannot
run at all (then no result line is printed), else 0.  Suites that raise at the
seed commit too (``exact-q3``: strong-connection and reduction-theorem) are
counted as failed but do not fail the run.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; ``attempted`` and ``failed`` count suite runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import COUNTS, SELF_TIME_LAYERS, SPANS  # noqa: E402
from workloads import ALL_SUITES, REFERENCE_SEED, WORKLOADS, Workload, check_outcome, load_reference  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Import-only interpreters started before each pass, for the set-up median.
SETUPS_PER_PASS = 2
PASS_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "suite_ok_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS}
    units.update({m: "s" for m in SPANS})
    units.update({m: "count" for m in COUNTS})
    units.update({f"suites.{s}_s": "s" for s in ALL_SUITES})
    units["trace.overhead_ratio"] = "ratio"
    return units


class BenchError(RuntimeError):
    """The benchmark cannot run: no package to import, or a pass crashed."""


def run_pass(mode: str, workload: Workload, seed: int) -> dict:
    spec = {"src": str(SRC), "mode": mode, "suites": list(workload.suites), "q": workload.q, "seed": seed}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "fresh_pass.py"), json.dumps(spec)],
            capture_output=True,
            text=True,
            timeout=PASS_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload.name} ran over {PASS_TIMEOUT_S} s")
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{mode} pass of {workload.name} exited {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibration_s() -> float:
    """A fixed pure-Python Fraction loop, like the scalar layer's work."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 5001):
        acc = acc * Fraction(k, k + 1) + Fraction(1, k)
    return time.perf_counter() - t0


def machine_record() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def summary(values: list[float]) -> dict:
    """Mean, median and the top sample, with the sample count.  Runs hold too
    few passes for a percentile with ten samples beyond it, so the upper
    figure is the maximum."""
    return {
        "mean": statistics.fmean(values),
        "median": statistics.median(values),
        "max": max(values),
        "n": len(values),
    }


class Gate:
    """Checks every suite outcome of every pass; counts suite runs."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.reference = load_reference(workload)
        self.first: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.known_failures: dict[str, str] = {}

    def check(self, outcomes: dict) -> None:
        for suite in self.workload.suites:
            outcome = outcomes[suite]
            self.attempted += 1
            problems = check_outcome(self.workload, suite, outcome, self.reference, self.seed)
            # Same seed, same bytes: every pass must repeat the first one.
            if self.first.setdefault(suite, outcome) != outcome:
                problems.append(f"{suite}: outcome differs from the first pass of this run")
            if problems or "error" in outcome:
                self.failed += 1
            if "error" in outcome and not problems:
                self.known_failures[suite] = ": ".join(outcome["error"])
            self.problems += [p for p in problems if p not in self.problems]


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, log=print) -> dict:
    """Run one workload and return the result object of the last output line.
    Logs a table and one ``detail`` line: sample counts, per-suite times,
    failures and the machine record."""
    if not (SRC / "pcomod" / "__init__.py").is_file():
        raise BenchError(f"no pcomod package under {SRC}")
    machine = machine_record()
    machine["calibration_before_s"] = calibration_s()
    gate = Gate(workload, seed)

    # Start another pass only while it is expected to end within the window.
    # Import-only interpreters between passes spread the set-up samples over
    # the whole window, so that they see the same host as the passes.  A
    # traced run takes one untraced pass only: the profiled pass is 3-4 times
    # slower and already dominates its time.
    window = 0 if trace else seconds
    setups, passes, durations = [], [], []
    start = time.monotonic()
    while not passes or time.monotonic() - start + statistics.median(durations) <= window:
        t0 = time.monotonic()
        setups += [run_pass("setup", workload, seed)["setup_s"] for _ in range(SETUPS_PER_PASS)]
        p = run_pass("timed", workload, seed)
        durations.append(time.monotonic() - t0)
        gate.check(p["outcomes"])
        passes.append(p)
    setups += [p["setup_s"] for p in passes]
    suite_s = {s: statistics.median(p["suite_s"][s] for p in passes) for s in workload.suites}

    if trace:
        traced = run_pass("traced", workload, seed)
        gate.check(traced["outcomes"])
        units = per_layer_units()
        values = dict(traced["layers"])
        for s in ALL_SUITES:
            values[f"suites.{s}_s"] = suite_s.get(s, 0.0)
        values["trace.overhead_ratio"] = traced["wall_s"] / statistics.median(p["wall_s"] for p in passes)
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{workload.name}-seed{seed}.json"
        with open(trace_file, "w") as fh:
            json.dump({"workload": workload.name, "seed": seed, "spans": traced["spans"]}, fh)
        detail = {"trace_file": str(trace_file.relative_to(ROOT)), "traced_wall_s": traced["wall_s"]}
    else:
        units = END_TO_END
        samples = {m: [p[m] for p in passes] for m in ("wall_s", "cpu_s", "peak_rss_mb")}
        samples["setup_s"] = setups
        values = {m: statistics.median(v) for m, v in samples.items()}
        # Host speed here flips between two levels for seconds to minutes at a
        # time.  The median of a few short passes then jumps with the level
        # (exact-q3 runs spread 22 % between runs), while the mean weighs the
        # time spent at each level (15 %).  Pass times are therefore averaged;
        # the run-to-run median is taken over runs.
        for m in ("wall_s", "cpu_s"):
            values[m] = statistics.fmean(samples[m])
        values["suite_ok_ratio"] = (gate.attempted - gate.failed) / gate.attempted
        detail = {m: summary(v) for m, v in samples.items()}
    machine["calibration_after_s"] = calibration_s()

    detail.update(
        {
            "workload": workload.name,
            "seed": seed,
            "q": workload.q,
            "passes": len(passes),
            "pass_wall_s": [p["wall_s"] for p in passes],
            "suite_s": suite_s,
            "suite_fail_ratio": f"{gate.failed}/{gate.attempted}",
            "known_failures": gate.known_failures,
            "problems": gate.problems,
            "machine": machine,
        }
    )
    log(f"workload {workload.name}  seed {seed}  q {workload.q}  passes {len(passes)}")
    for m, v in values.items():
        extra = ""
        if m in detail and isinstance(detail[m], dict):
            extra = f"  median {detail[m]['median']:.4f}  max {detail[m]['max']:.4f}  n {detail[m]['n']}"
        shown = f"{v:14d}" if units[m] == "count" else f"{v:14.4f}"
        log(f"  {m:36s} {shown} {units[m]:6s}{extra}")
    log(f"  suite runs failed {gate.failed}/{gate.attempted}")
    for suite, err in gate.known_failures.items():
        log(f"  known failure  {suite}: {err}")
    for p in gate.problems:
        log(f"  MISMATCH  {p}")
    log("detail " + json.dumps(detail))
    return {
        "correct": not gate.problems,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED, help="grid seed (GridConfig.seed)")
    ap.add_argument("--seconds", type=float, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace)) for n in names}
    except BenchError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
