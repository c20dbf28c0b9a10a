#!/usr/bin/env python3
"""Compares two saved benchmark results of one workload.

    python3 perfbench/compare.py BASE.json HEAD.json

The files are the records perfbench/run.py saves under
<build dir>/results/.  Refuses (exit 3) to compare results whose build
type, compiler flags or kernel ISA differ, or that ran different
workloads, trace modes or run lengths: such numbers measure different
programs.  Otherwise prints each metric of both runs and the change.
"""

import json
import sys

BUILD_IDENTITY = ("build_type", "flags", "simd")
RUN_IDENTITY = ("workload", "trace", "seconds")


def identity_problems(base, head):
    problems = []
    for key in BUILD_IDENTITY:
        if base["build"].get(key) != head["build"].get(key):
            problems.append("build %s differs: %r vs %r" % (
                key, base["build"].get(key), head["build"].get(key)))
    for key in RUN_IDENTITY:
        if base.get(key) != head.get(key):
            problems.append("%s differs: %r vs %r" % (
                key, base.get(key), head.get(key)))
    return problems


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        base = json.load(f)
    with open(argv[2]) as f:
        head = json.load(f)
    problems = identity_problems(base, head)
    if problems:
        for problem in problems:
            print("refusing to compare:", problem, file=sys.stderr)
        return 3
    if base["machine"]["nproc"] != head["machine"]["nproc"]:
        print("warning: nproc differs", file=sys.stderr)
    print("%-36s %14s %14s %9s" % ("metric", "base", "head", "change"))
    for name, entry in base["result"]["metrics"].items():
        a = entry["value"]
        b = head["result"]["metrics"].get(name, {}).get("value")
        change = "" if b is None or not a else "%+8.1f%%" % (
            100.0 * (b - a) / a)
        print("%-36s %14.6g %14s %9s %s" % (
            name, a, "missing" if b is None else "%.6g" % b, change,
            entry["unit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
