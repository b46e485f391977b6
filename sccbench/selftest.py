#!/usr/bin/env python3
"""Self-test of the sccpipe benchmark at reduced size (about a minute).

    python3 sccbench/selftest.py

1. Every workload, traced and untraced, prints each metric BENCHMARK.json
   names, with its unit, and no failed operation.
2. Golden digests recorded for the reduced size are accepted on a rerun,
   and a tampered golden digest is reported as a failed operation, so the
   output check is shown able to fail.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REDUCED = ["--frames", "12", "--size", "120"]
# One run of each workload whose golden digest the tamper check perturbs.
TAMPER = {"figure_grid": "mcpc-ordered-k4", "functional_frames": "functional",
          "chaos_mix": "resume"}


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seconds", "1", "--trace", str(trace)] + REDUCED + \
        list(extra)
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n"
                           f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    golden = os.path.join(ROOT, ".bench_out", "selftest-golden.txt")
    os.makedirs(os.path.dirname(golden), exist_ok=True)
    if os.path.exists(golden):
        os.remove(golden)
    problems = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            extra = ["--write-golden", golden] if trace == 0 else []
            res = run(name, trace, *extra)
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace {trace}: result has exactly the four keys")
            expect(res["correct"] and res["failed"] == 0 and
                   res["attempted"] >= 1,
                   f"{name} trace {trace}: no failed operation")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want,
                   f"{name} trace {trace}: prints every {group} metric "
                   f"with its unit")

        res = run(name, 0, "--golden", golden)
        expect(res["correct"] and res["failed"] == 0,
               f"{name}: recorded golden digests are accepted")
        res = run(name, 0, "--golden", golden, "--tamper", TAMPER[name])
        expect(not res["correct"] and res["failed"] >= 1,
               f"{name}: a tampered golden digest counts as a failed "
               f"operation")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
