#!/usr/bin/env python3
"""Alternating pairs of benchmark passes: a parent tree against this one.

    python3 scripts/bench_pairs.py --parent ../parent --workload numeric --pairs 10 --seed 20130915

Each pair runs this tree's ``benchmark/fresh_pass.py`` (the timed pass of
``benchmark/run.py``) once on ``<parent>/src`` and once on this tree's
``src``, each in a fresh interpreter; which side goes first alternates from
pair to pair.  Both ``src`` trees are first copied into sibling temporary
directories whose paths have the same length, since ``peak_rss_mb`` moves
with the length of the path the package is imported from.  Every suite
outcome goes through the benchmark's correctness gate
(``benchmark/workloads.py``).

For each end-to-end metric of a pass it prints each side's median and
quartiles, the median and quartiles of the per-pair ratio change/parent, the
number of pairs the change won (lower wins; ties count for neither) and
whether a gain may be claimed: the change won at least nine tenths of the
pairs and its median is below the parent's by more than the parent's
interquartile range.  The ratio is read within each pair, so it is the figure
to trust on a host whose speed drifts between passes; the claim rule reads
the side medians and the wins.  It also prints whether the change's median
is within the metric's ``bound`` in BENCHMARK.json of the parent's median,
the figure a change that claims no gain must keep.  The last line of stdout
is one JSON object with the same figures and every run.  Exit status 1 when
a pass fails the gate.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmark"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, check_outcome, load_reference  # noqa: E402

METRICS = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")
# metric -> its entry under "end_to_end" in BENCHMARK.json: "bound", "better"
END_TO_END = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
PASS_TIMEOUT_S = 170


def run_pass(src: Path, workload, seed: int) -> dict:
    spec = {"src": str(src), "mode": "timed", "suites": list(workload.suites), "q": workload.q, "seed": seed}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "fresh_pass.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=PASS_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.exit(f"pass on {src} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one run is its own quartiles)."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def compare(parent: list[float], change: list[float], bound: float) -> dict:
    """The side spreads, the per-pair ratio, the wins and the claim rule of a
    lower-is-better metric, and whether the change's median exceeds the
    parent's by at most the fraction ``bound``."""
    p, c = spread(parent), spread(change)
    ratio = spread([b / a for a, b in zip(parent, change)])
    wins = sum(b < a for a, b in zip(parent, change))
    gain = wins >= 0.9 * len(parent) and p["median"] - c["median"] > p["q3"] - p["q1"]
    within = c["median"] <= p["median"] * (1 + bound)
    return {"parent": p, "change": c, "ratio": ratio, "wins": wins, "gain": gain, "within_bound": within}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit (holds src/pcomod)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=20130915)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve() / "src", "change": ROOT / "src"}
    for side, src in trees.items():
        if not (src / "pcomod" / "__init__.py").is_file():
            ap.error(f"no pcomod package under {src} ({side})")
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        # "parent" and "change" have the same length
        sides = {side: Path(tmp) / side / "src" for side in trees}
        for side, src in trees.items():
            shutil.copytree(src, sides[side], ignore=shutil.ignore_patterns("__pycache__"))
        return run_pairs(args, trees, sides)


def run_pairs(args, trees: dict, sides: dict) -> int:
    workload = WORKLOADS[args.workload]
    reference = load_reference(workload)
    runs = {side: {m: [] for m in METRICS} for side in sides}
    failed = dict.fromkeys(sides, 0)
    problems: list[str] = []
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = run_pass(sides[side], workload, args.seed)
            for m in METRICS:
                runs[side][m].append(result[m])
            for suite, outcome in result["outcomes"].items():
                found = check_outcome(workload, suite, outcome, reference, args.seed)
                failed[side] += bool(found or "error" in outcome)
                problems += [f"{side}: {p}" for p in found if f"{side}: {p}" not in problems]
    metrics = {m: compare(runs["parent"][m], runs["change"][m], END_TO_END[m]["bound"]) for m in METRICS}
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs; parent {trees['parent']}")
    print(
        f"{'metric':<12} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30}"
        f" {'change/parent [q1, q3]':>24} {'wins':>6}  gain  within bound"
    )
    for m, r in metrics.items():
        cols = [f"{r[s]['median']:.4f} [{r[s]['q1']:.4f}, {r[s]['q3']:.4f}]" for s in ("parent", "change")]
        ratio = f"{r['ratio']['median']:.3f} [{r['ratio']['q1']:.3f}, {r['ratio']['q3']:.3f}]"
        print(
            f"{m:<12} {cols[0]:>30} {cols[1]:>30} {ratio:>24}"
            f" {r['wins']:>3}/{args.pairs:<2}  {'yes' if r['gain'] else 'no':<4}"
            f"  {'yes' if r['within_bound'] else 'NO'} (+{END_TO_END[m]['bound']:.0%})"
        )
    for p in problems:
        print(p)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "pairs": args.pairs,
        "correct": not problems,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
