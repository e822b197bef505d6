#!/usr/bin/env python3
"""Ledger of failing seeds: the check battery at its defaults over a fixed seed range.

Runs ``run_suite("all")`` at the default configuration for every seed in
20000-20199 and for the six documented seeds of ROADMAP item 3, in one
process (about 25 s), and writes a JSON ledger: per seed that does not pass,
each check that failed or was inconclusive, with its residual and tolerance.
The documented seeds are listed whether or not they fail, with the checks
that they fail (none for a mended seed), so that CI can require each one's
exit code and failing checks.

    PYTHONPATH=src python scripts/seed_ledger.py --out SEEDS.json
"""

import argparse
import json
import math

from qkzconn.checks import run_suite
from qkzconn.params import RunConfig

RANGE = (20000, 20199)
DOCUMENTED = (1010, 1067, 1089, 500000030, 900000147, 300000087)


def not_passed(seed: int) -> list[dict]:
    report = run_suite("all", RunConfig(seed=seed))
    return [
        {
            "check": r.check,
            "status": "failed" if r.status == "ran" else r.status,
            # a NaN residual is null, as in reports
            "residual": r.residual if r.residual is not None and math.isfinite(r.residual) else None,
            "tol": r.tol,
        }
        for r in report.results
        if r.status != "skipped" and not (r.status == "ran" and r.passed)
    ]


def ledger() -> dict:
    seeds = [*range(RANGE[0], RANGE[1] + 1), *DOCUMENTED]
    failing = {}
    for seed in seeds:
        bad = not_passed(seed)
        if bad or seed in DOCUMENTED:
            failing[str(seed)] = bad
    in_range = [s for s in failing if RANGE[0] <= int(s) <= RANGE[1] and failing[s]]
    return {
        "config": "qkzconn verify all at the defaults, --seed varied",
        "range": list(RANGE),
        "documented": list(DOCUMENTED),
        "failing_in_range": len(in_range),
        "seeds": failing,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="SEEDS.json")
    args = parser.parse_args()
    data = ledger()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True, allow_nan=False)
        handle.write("\n")
    bad = {seed: [c["check"] for c in checks] for seed, checks in data["seeds"].items() if checks}
    print(f"{data['failing_in_range']} of {RANGE[1] - RANGE[0] + 1} seeds in range fail; not passing: {bad}")


if __name__ == "__main__":
    main()
