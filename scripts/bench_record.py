#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as BENCH_<n>.json, or check
the files already recorded.

    python3 scripts/bench_record.py 18        write BENCH_18.json at the repo root
    python3 scripts/bench_record.py --check   check the keys of every BENCH_*.json

Writing runs the benchmark as it stands, ``benchmark/run.py --workload all``,
then times one Tier-1 run (``python -m pytest -q --continue-on-collection-errors``
with ``src`` on PYTHONPATH).  The file holds the benchmark's result line, its
``detail`` record for each workload (sample counts, per-suite times and the
machine record), the Tier-1 wall time and the Tier-1 summary line.  Exit
status 1 when the benchmark gate or the Tier-1 run fails; then no file is
written.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
FILE_KEYS = {"n", "benchmark_argv", "result", "detail", "tier1_wall_s", "tier1_summary"}


def run_benchmark():
    argv = [sys.executable, "benchmark/run.py", "--workload", "all"]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"benchmark failed (exit {out.returncode}):\n{out.stdout}{out.stderr}")
    details = [json.loads(line[len("detail "):]) for line in lines if line.startswith("detail ")]
    return argv[1:], json.loads(lines[-1]), {d["workload"]: d for d in details}


def run_tier1():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    wall = time.perf_counter() - t0
    summary = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    if out.returncode != 0:
        sys.exit(f"Tier-1 run failed (exit {out.returncode}): {summary}")
    return wall, summary


def problems(path: Path) -> list[str]:
    """What a recorded file lacks: its keys, the result line's keys, and a
    machine record in every workload's detail."""
    rec = json.loads(path.read_text())
    found = [f"missing key {k!r}" for k in sorted(FILE_KEYS - rec.keys())]
    found += [f"result lacks {k!r}" for k in sorted(RESULT_KEYS - rec.get("result", {}).keys())]
    if not rec.get("detail"):
        found.append("no workload detail")
    found += [f"detail {w!r} lacks 'machine'" for w, d in rec.get("detail", {}).items() if "machine" not in d]
    if f"BENCH_{rec.get('n')}.json" != path.name:
        found.append(f"n = {rec.get('n')!r} does not match the file name")
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("n", nargs="?", type=int, help="trajectory index: writes BENCH_<n>.json")
    ap.add_argument("--check", action="store_true", help="check every committed BENCH_*.json instead")
    args = ap.parse_args(argv)
    if args.check:
        files = sorted(ROOT.glob("BENCH_*.json"))
        bad = {f.name: p for f in files if (p := problems(f))}
        for name, found in bad.items():
            print(f"{name}: {'; '.join(found)}")
        print(f"{len(files) - len(bad)} of {len(files)} BENCH_*.json files complete")
        return 1 if bad else 0
    if args.n is None:
        ap.error("give the trajectory index n, or --check")
    bench_argv, result, detail = run_benchmark()
    if not result["correct"] or result["failed"]:
        sys.exit(f"benchmark gate: correct {result['correct']}, {result['failed']} suite runs failed")
    wall, summary = run_tier1()
    rec = {
        "n": args.n,
        "benchmark_argv": bench_argv,
        "result": result,
        "detail": detail,
        "tier1_wall_s": wall,
        "tier1_summary": summary,
    }
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(rec, indent=1) + "\n")
    print(f"wrote {path.name}: tier1_wall_s {wall:.1f}, {summary}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
