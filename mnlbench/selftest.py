#!/usr/bin/env python3
"""Self-test of the benchmark's bookkeeping: a deliberately wrong known
answer must be counted as a failed verdict, and a right one must not.

    PYTHONPATH=src python3 mnlbench/selftest.py

Exits 0 when the bookkeeping holds, 1 otherwise.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from mnl import loops  # noqa: E402

from mnlbench import oracle, workloads  # noqa: E402


def main():
    problems = []

    tally = workloads.Tally()
    oct_loop = loops.octonion_unit_loop()
    # wrong on purpose: the octonion loop is not associative
    tally.expect("octonion-loop:associative", loops.is_associative(oct_loop).passed)
    tally.expect("octonion-loop:moufang", loops.is_moufang(oct_loop).passed)
    if (tally.attempted, tally.failed) != (2, ["octonion-loop:associative"]):
        problems.append(f"direct verdicts: {tally.attempted} attempted, failed {tally.failed}")

    # the same through a workload's report checks: a tolerance no finite
    # difference meets turns the README's tangent command into a failure
    tally = workloads.Tally()
    saved = oracle.TANGENT_TOL
    oracle.TANGENT_TOL = 1e-12
    try:
        argv = ("tangent",)
        code, text = workloads.run_cli(argv)
        workloads.expect_report(tally, argv, code, text)
    finally:
        oracle.TANGENT_TOL = saved
    if tally.failed != ["tangent:error"]:
        problems.append(f"tangent report: failed {tally.failed}, wanted ['tangent:error']")

    for p in problems:
        print(f"self-test FAILED: {p}")
    if not problems:
        print("self-test passed: wrong known answers are counted as failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
