"""Batch driver: run named verification suites, list them, export presentations.

Exit codes: 0 all-pass, 1 any fail, 2 configuration error, 3 undecided-only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .builtin import UnknownNameError
from .numgeom import GridConfig
from .suites import ConfigError, SuiteConfig, list_suites, run_suite, write_atomic


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pcomod", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    # the defaults are SuiteConfig's and GridConfig's own
    d = SuiteConfig(suite="all")
    v.add_argument("--suite", required=True, help="suite name (see list-suites) or 'all'")
    v.add_argument("--algebra", help="restrict an axiom suite to one builtin")
    v.add_argument("--covering", help="covering JSON file for the covering/transition suites")
    v.add_argument("--degree", type=int, default=d.degree, help="symbolic degree bound")
    v.add_argument("--q", default=str(d.q), help="'formal', 'cbrt1', or an integer")
    v.add_argument("--grid-circle", type=int, default=d.grid.n_circle)
    v.add_argument("--grid-interval", type=int, default=d.grid.m_interval)
    v.add_argument("--tol", type=float, default=d.grid.tol)
    v.add_argument("--seed", type=int, default=d.grid.seed)
    v.add_argument("--trials", type=int, default=d.trials)
    v.add_argument("--samples", type=int, default=d.mc_samples, help="Monte-Carlo sample count")
    v.add_argument("--format", choices=("json", "md"), default="json")
    v.add_argument("--out", help="write the report to this path (atomic)")

    ls = sub.add_parser("list-suites", help="print the suite catalog")
    ls.add_argument("--format", choices=("text", "json"), default="text")

    ex = sub.add_parser("export", help="export a builtin presentation as JSON")
    ex.add_argument("--algebra", required=True)
    ex.add_argument("--out", help="output path (stdout when omitted)")
    return p


def _parse_q(q: str):
    if q in ("formal", "cbrt1"):
        return q
    try:
        return int(q)
    except ValueError:
        raise ConfigError(f"--q must be 'formal', 'cbrt1' or an integer, got {q!r}")


def _check_out(path: str):
    """Reject a directory or a path under a missing one before any suite runs."""
    if os.path.isdir(path):
        raise ConfigError(f"--out {path}: Is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ConfigError(f"--out {path}: No such file or directory")


def _write_out(path: str, text: str):
    """An --out path that cannot be written is bad input, not a failed run."""
    try:
        write_atomic(path, text)
    except OSError as e:
        raise ConfigError(f"--out {path}: {e.strerror or e}")


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.command == "list-suites":
            print(list_suites(machine=args.format == "json"))
            return 0
        if args.out:
            _check_out(args.out)
        if args.command == "export":
            from .builtin import export_presentation

            doc = export_presentation(args.algebra)
            text = json.dumps(doc, indent=2)
            if args.out:
                _write_out(args.out, text)
            else:
                print(text)
            return 0
        cfg = SuiteConfig(
            suite=args.suite,
            algebra=args.algebra,
            covering=args.covering,
            degree=args.degree,
            q=_parse_q(args.q),
            grid=GridConfig(
                n_circle=args.grid_circle,
                m_interval=args.grid_interval,
                tol=args.tol,
                seed=args.seed,
            ),
            trials=args.trials,
            mc_samples=args.samples,
        )
        report = run_suite(cfg)
        text = report.to_markdown() if args.format == "md" else report.to_json()
        if args.out:
            _write_out(args.out, text)
        print(text)
        return report.exit_code
    except (ConfigError, UnknownNameError) as e:
        print(f"CONFIG_ERROR: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
