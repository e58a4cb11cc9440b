#!/usr/bin/env python3
"""Quick-size test of the benchmark, run from the repository root:

    python3 perfbench/test_run.py

Checks that every metric BENCHMARK.json names is printed, with its unit,
by every workload in the mode it belongs to; that each result is correct
and reports its counts; and that changing the seed changes the generated
inputs (every seeded outcome-set digest differs between two seeds, while
the canonical Table II campaign stays the same).
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return out, json.loads(out.strip().splitlines()[-1])


def digests(out):
    return {m.group(1): m.group(2)
            for m in re.finditer(r"^digest \d+ (\w+) ([0-9a-f]{32}) ", out, re.M)}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out, r = run(w["name"], 1, trace)
            assert sorted(r) == ["attempted", "correct", "failed", "metrics"], r
            assert r["correct"] is True, (w["name"], trace, out)
            assert r["attempted"] >= 1 and 0 <= r["failed"] <= r["attempted"]
            assert len(r["metrics"]) == len(bench[key]), (w["name"], trace)
            for m in bench[key]:
                got = r["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (w["name"], m["name"], got)
                assert isinstance(got["value"], (int, float)), got
                assert re.search(r"^%s +\S+ %s$" % (re.escape(m["name"]),
                                                   re.escape(m["unit"])),
                                 out, re.M), (w["name"], m["name"])
            print("ok %s --trace %d: %d metrics" % (w["name"], trace, len(bench[key])))
    a = digests(run("campaign", 1, 0)[0])
    b = digests(run("campaign", 2, 0)[0])
    assert sorted(a) == ["campaign", "dst", "table2", "web"], a
    for unit in ("campaign", "dst", "web"):
        assert a[unit] != b[unit], "seed does not change the %s inputs" % unit
    assert a["table2"] == b["table2"], "the Table II campaign depends on the seed"
    print("ok seeds 1 and 2 generate different inputs for every unit")


if __name__ == "__main__":
    main()
