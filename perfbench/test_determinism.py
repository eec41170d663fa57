#!/usr/bin/env python3
"""The benchmark's own test: determinism of the simulated clock.

    python3 perfbench/test_determinism.py

Asserts that
  1. two runs of each workload at one seed report identical simulated
     metrics (every sim_* value) and identical per-layer counts, and
  2. a second seed changes the serve_rw arrival stream (and so its results).

Each run's report (written by navbench next to its trace) holds the
fingerprint of its first pass: every simulated end-to-end value and every
per-layer count. Exits non-zero if any assertion fails.
"""
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's build step)

WORKLOADS = ("paper_plans", "batch_overlap", "serve_rw")
SEED, OTHER_SEED = 1, 2


def report(workload, seed, tag):
    out = os.path.join(run.BUILD, "test", tag)
    subprocess.run([run.BINARY, "--workload", workload, "--seed", str(seed),
                    "--seconds", "0", "--trace", "1", "--out", out],
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   check=True, timeout=run.RUN_TIMEOUT_S)
    with open(os.path.join(out, workload + ".report.json")) as f:
        return json.load(f)


def main():
    run.build()
    failures = []
    for workload in WORKLOADS:
        before = len(failures)
        a = report(workload, SEED, "a")
        b = report(workload, SEED, "b")
        if a["fingerprint"] != b["fingerprint"]:
            diff = sorted(k for k in a["fingerprint"]
                          if a["fingerprint"][k] != b["fingerprint"].get(k))
            failures.append("%s: seed %d runs differ in %s" %
                            (workload, SEED, diff))
        if workload == "serve_rw":
            c = report(workload, OTHER_SEED, "c")
            if not a["arrival_digests"] or \
                    a["arrival_digests"] == c["arrival_digests"]:
                failures.append("serve_rw: seed %d did not change the "
                                "arrival stream" % OTHER_SEED)
            if a["fingerprint"] == c["fingerprint"]:
                failures.append("serve_rw: seed %d did not change the "
                                "results" % OTHER_SEED)
        print("%s: %s" % (workload, "ok" if len(failures) == before else "FAILED"))
    for failure in failures:
        print("FAIL: " + failure, file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
