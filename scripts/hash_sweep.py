#!/usr/bin/env python3
"""Hash the canonical form of every report over a sweep of settings, and
write or check the manifest of those hashes.

    python3 scripts/hash_sweep.py            write scripts/report_hashes.json
    python3 scripts/hash_sweep.py --check    compare against it; exit 1 on a mismatch

The sweep covers every suite at q = formal, 1, 2, 3 and -1, and the one
suite that takes q = cbrt1, frame-obstruction, there; the covering and
transition suites on scripts/example_covering.json; and the
numeric suites at two grids and two seeds.  Each report is hashed as the
sha256 of SuiteReport.canonical_json(), and each of its records on its own,
so that a mismatch names the report and the first record that differs.  A change that
claims to keep every report byte-identical must pass --check unchanged.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "scripts" / "report_hashes.json"
sys.path.insert(0, str(ROOT / "src"))

from pcomod.numgeom import GridConfig  # noqa: E402
from pcomod.suites import SUITES, SuiteConfig, run_suite  # noqa: E402

QS = ("formal", "cbrt1", 1, 2, 3, -1)
COVERING = "scripts/example_covering.json"  # relative: reports name the file as given
NUMERIC_SUITES = ("quantum-rp2", "sphere-gluing", "mattprop", "disc-decomposition", "parity-probe", "peter-weyl")
GRIDS = ((720, 257), (64, 33))
SEEDS = (20130915, 1)


def sweep():
    """(name, SuiteConfig) for every report of the sweep."""
    for q in QS:
        for suite in ["frame-obstruction"] if q == "cbrt1" else SUITES:
            yield f"{suite} q={q}", SuiteConfig(suite=suite, q=q)
    for suite in ("covering", "transition"):
        yield f"{suite} covering={COVERING}", SuiteConfig(suite=suite, covering=COVERING)
    for n, m in GRIDS:
        for seed in SEEDS:
            for suite in NUMERIC_SUITES:
                grid = GridConfig(n_circle=n, m_interval=m, seed=seed)
                yield f"{suite} grid={n}x{m} seed={seed}", SuiteConfig(suite=suite, grid=grid)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_hashes(cfg: SuiteConfig) -> dict:
    """The sha256 of the report's canonical JSON, and the hash of each record
    by id, cut to 16 hex digits: enough to name the record that differs."""
    canonical = run_suite(cfg).canonical_json()
    records = json.loads(canonical)["records"]
    return {
        "sha256": _sha(canonical),
        "records": {r["id"]: _sha(json.dumps(r, sort_keys=True))[:16] for r in records},
    }


def first_difference(want: dict, got: dict) -> str:
    """Where two entries of the manifest first differ."""
    for (wid, wsha), (gid, gsha) in zip(want["records"].items(), got["records"].items()):
        if wid != gid:
            return f"record {wid} is now {gid}"
        if wsha != gsha:
            return f"record {wid} differs"
    if len(want["records"]) != len(got["records"]):
        return f"{len(want['records'])} records, now {len(got['records'])}"
    return "params or pass differ"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help=f"compare with {MANIFEST.name} instead of writing it")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    t0 = time.monotonic()
    got = {name: report_hashes(cfg) for name, cfg in sweep()}
    dt = time.monotonic() - t0
    if not args.check:
        MANIFEST.write_text(json.dumps(got, indent=1) + "\n")
        print(f"wrote {len(got)} report hashes to {MANIFEST.relative_to(ROOT)} in {dt:.1f}s")
        return 0
    want = json.loads(MANIFEST.read_text())
    bad = [f"{name}: not in the sweep any more" for name in want if name not in got]
    bad += [f"{name}: not in the manifest" for name in got if name not in want]
    bad += [
        f"{name}: {first_difference(want[name], got[name])}"
        for name in got
        if name in want and want[name]["sha256"] != got[name]["sha256"]
    ]
    for line in bad:
        print(f"MISMATCH {line}")
    print(f"{len(got) - len(bad)} of {len(got)} reports match {MANIFEST.relative_to(ROOT)} ({dt:.1f}s)")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
