#!/usr/bin/env python3
"""Run every verification suite and write one JSON report per suite.

Usage: python scripts/verify_all.py [outdir]
"""

import argparse
import time
from pathlib import Path

from pcomod.numgeom import GridConfig
from pcomod.suites import SUITES, SuiteConfig, run_suite


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "outdir", nargs="?", type=Path, default=Path("reports"),
        help="directory for the <suite>.json reports (default: reports)",
    )
    outdir = ap.parse_args(argv).outdir
    outdir.mkdir(parents=True, exist_ok=True)
    worst = 0
    for name in SUITES:
        t0 = time.monotonic()
        cfg = SuiteConfig(suite=name, grid=GridConfig())
        report = run_suite(cfg)
        report.write(str(outdir / f"{name}.json"))
        dt = time.monotonic() - t0
        status = "pass" if report.passed else f"FAIL({report.n_fail})"
        print(f"{name:20s} {status:10s} {len(report.records):3d} checks  {dt:6.1f}s")
        worst = max(worst, report.exit_code)
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
