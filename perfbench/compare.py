#!/usr/bin/env python3
"""Compares two sets of benchmark results (run.py --save DIR).

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Runs pair by workload and --seed. For every workload and end-to-end
metric it prints each side's median and quartiles, the share of pairs
the change won and a verdict (bench.verdict); a last row per workload
compares the cell runs that failed, summed over the paired runs. When
the change fails more of them than the parent, that row is worse and
no timing row of the workload reads improved. Results whose provenance
differs in anything but the commit and source digest are refused: a
change in compiler, flags, core count, threads or simulated seed would
be measured instead of the program. Exits 1 when any row is worse.
"""

import json
import sys
from pathlib import Path

import bench


def load(directory):
    """(workload, seed) -> saved untraced result."""
    results = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        result = json.loads(path.read_text())
        results[(result["provenance"]["workload"], result["seed"])] = result
    return results


def fmt(values):
    q1, q2, q3 = (bench.quartiles(values) if len(values) > 1
                  else (values[0],) * 3)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(parent, change, out=sys.stdout):
    """Prints the comparison table; returns the number of worse rows, or
    raises ValueError on unpaired or mismatched provenance."""
    pairs = sorted(set(parent) & set(change))
    if not pairs:
        raise ValueError("no (workload, seed) appears on both sides")
    for key in pairs:
        field = bench.provenance_mismatch(parent[key]["provenance"],
                                          change[key]["provenance"])
        if field is not None:
            raise ValueError(f"{key[0]} seed {key[1]}: provenance differs in "
                             f"{field}; refusing to compare")
    worse = 0
    print(f"{'workload':12s} {'metric':14s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'won':>5s}  verdict", file=out)
    for workload in sorted({w for w, _ in pairs}):
        keys = [k for k in pairs if k[0] == workload]
        # A failure in even one run of the change counts: a seed-dependent
        # bug fails cells only on some of the fresh inputs.
        failed = [sum(r[k]["failed"] for k in keys) for r in (parent, change)]
        attempted = [sum(r[k]["attempted"] for k in keys)
                     for r in (parent, change)]
        failing = failed[1] > failed[0]
        for metric in bench.SPEC["end_to_end"]:
            name = metric["name"]
            p = [parent[k]["metrics"][name]["value"] for k in keys]
            c = [change[k]["metrics"][name]["value"] for k in keys]
            if len(keys) < 2:
                verdict, won = "unresolved", 0.0
            else:
                verdict, won = bench.verdict(p, c, metric["bound"],
                                             metric["better"])
            if failing and verdict == "improved":
                verdict = "unresolved"
            worse += verdict == "worse"
            print(f"{workload:12s} {name:14s} {fmt(p):34s} {fmt(c):34s} "
                  f"{won:5.0%}  {verdict}", file=out)
        worse += failing
        sides = [f"{f} of {a} failed" for f, a in zip(failed, attempted)]
        print(f"{workload:12s} {'cells_failed':14s} {sides[0]:34s} "
              f"{sides[1]:34s} {'':5s}  {'worse' if failing else 'unchanged'}",
              file=out)
    return worse


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    try:
        worse = compare(load(sys.argv[1]), load(sys.argv[2]))
    except ValueError as e:
        sys.exit(f"error: {e}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
