"""Record the correctness reference: the ``canonical_json()`` of every
(workload, suite) at REFERENCE_SEED, or the exception a suite raised.

    python3 benchmark/make_reference.py

Run it only on the commit whose behaviour is the reference (the commit that
added the benchmark); a later commit that regenerates it would hide the very
changes the gate is there to catch.
"""

import json

from run import run_pass
from workloads import REFERENCE_DIR, REFERENCE_SEED, WORKLOADS


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for w in WORKLOADS.values():
        outcomes = run_pass("timed", w, REFERENCE_SEED)["outcomes"]
        suites = {}
        for name in w.suites:
            o = outcomes[name]
            suites[name] = {"error": o["error"][0]} if "error" in o else {"canonical": json.loads(o["canonical"])}
        with open(REFERENCE_DIR / f"{w.name}.json", "w") as fh:
            json.dump({"workload": w.name, "q": w.q, "seed": REFERENCE_SEED, "suites": suites}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(w.name, {n: ("raises " + s["error"]) if "error" in s else "ok" for n, s in suites.items()})


if __name__ == "__main__":
    main()
