"""Measure a baseline: every workload on seeds 1..N through the benchmark's
own command, plus traced runs, summarised into one JSON file.

    python3 benchmark/baseline.py --runs 10 --out benchmark/baseline.json

Each end-to-end metric gets the median of the per-run values, the first and
third quartiles (``statistics.quantiles(n=4)``), their distance as a share of
the median, and the number of runs.  Takes about 10 minutes per workload
at 10 runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def invoke(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    return json.loads(lines[-1]), detail


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main() -> None:
    sys.path.insert(0, str(HERE))
    from workloads import REFERENCE_SEED, WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    doc = {"run_seconds": seconds, "seeds": list(range(1, args.runs + 1)), "workloads": {}}
    for w in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        suite_s: dict[str, list[float]] = {}
        calibration = []
        for seed in doc["seeds"]:
            result, detail = invoke(w, seed, seconds, 0)
            for m, v in result["metrics"].items():
                values.setdefault(m, []).append(v["value"])
            for s, v in detail["suite_s"].items():
                suite_s.setdefault(s, []).append(v)
            calibration.append([detail["machine"]["calibration_before_s"], detail["machine"]["calibration_after_s"]])
            print(w, seed, {m: round(v[-1], 4) for m, v in values.items()}, flush=True)
        # Per-layer numbers at the reference seed, where the gate compares
        # every record field; a seeded workload also at a second seed.
        trace_seeds = [REFERENCE_SEED] + ([doc["seeds"][0]] if WORKLOADS[w].seeded else [])
        doc["workloads"][w] = {
            "end_to_end": {m: spread(v) for m, v in values.items()},
            "suite_s_median": {s: statistics.median(v) for s, v in suite_s.items()},
            "suite_fail_ratio": f"{result['failed']}/{result['attempted']}",
            "known_failures": detail["known_failures"],
            "calibration_s_before_after": calibration,
            "machine": {k: v for k, v in detail["machine"].items() if not k.startswith("calibration")},
            "per_layer": {
                str(seed): {m: v["value"] for m, v in invoke(w, seed, seconds, 1)[0]["metrics"].items()}
                for seed in trace_seeds
            },
        }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
