"""One benchmark pass in a fresh interpreter, started by run.py.

    python3 fresh_pass.py '<spec json>'

spec keys: ``src`` (directory that holds the ``pcomod`` package), ``mode``
(``setup``, ``timed`` or ``traced``), ``suites``, ``q`` and ``seed``.
Prints one JSON object on stdout.

Every ``pcomod verify`` call starts cold, so each pass does too: the import
is timed as set-up, and nothing the package memoises survives into the next
pass.  Only ``sys`` and ``time`` are imported before the timed import, so that
set-up includes everything the package pulls in.
"""

import sys
import time


def _import_package(src: str) -> float:
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import pcomod  # noqa: F401
    import pcomod.numgeom  # noqa: F401
    import pcomod.suites  # noqa: F401

    setup_s = time.perf_counter() - t0
    if not pcomod.__file__.startswith(src):
        raise SystemExit(f"imported pcomod from {pcomod.__file__}, not from {src}")
    return setup_s


def _run_suites(spec: dict, suite_times: dict, outcomes: dict) -> None:
    from pcomod.numgeom import GridConfig
    from pcomod.suites import SuiteConfig, run_suite

    for name in spec["suites"]:
        cfg = SuiteConfig(suite=name, q=spec["q"], grid=GridConfig(seed=spec["seed"]))
        t0 = time.perf_counter()
        try:
            report = run_suite(cfg)
        except Exception as e:  # a raising suite is a measured outcome, not a benchmark failure
            outcomes[name] = {"error": [type(e).__name__, str(e).splitlines()[0][:300] if str(e) else ""]}
        else:
            outcomes[name] = {"canonical": report.canonical_json()}
        suite_times[name] = time.perf_counter() - t0


def main(spec: dict) -> dict:
    setup_s = _import_package(spec["src"])
    if spec["mode"] == "setup":
        return {"setup_s": setup_s}

    import resource

    def cpu() -> float:
        s = resource.getrusage(resource.RUSAGE_SELF)
        c = resource.getrusage(resource.RUSAGE_CHILDREN)
        return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime

    suite_times: dict = {}
    outcomes: dict = {}
    tracer = None
    if spec["mode"] == "traced":
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = cpu()
    t0 = time.perf_counter()
    if tracer is None:
        _run_suites(spec, suite_times, outcomes)
    else:
        with tracer:
            _run_suites(spec, suite_times, outcomes)
    wall_s = time.perf_counter() - t0
    cpu_s = cpu() - cpu0
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "suite_s": suite_times,
        "outcomes": outcomes,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    import json

    print(json.dumps(main(json.loads(sys.argv[1]))))
