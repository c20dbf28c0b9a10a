#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of opindyn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the library, the CLI and the
workload runner from source (perfbench/CMakeLists.txt, Release) into
$CARGO_TARGET_DIR or .bench_build, runs one workload with inputs made
from --seed, checks its outputs, and prints as the last stdout line one
JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  The line before it carries the full
detail (build identity, machine, seed, sample series); the same record
is saved under .bench_build/results/ (or $CARGO_TARGET_DIR/results/)
for perfbench/compare.py.

Workloads: spectral_sweep (perfbench_runner) and serve_mixed
(perfbench/serve_workload.py); --workload all runs each in turn and
ends with their union.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import serve_workload  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("spectral_sweep", "serve_mixed")
DIGESTS = os.path.join(HERE, "digests.json")
# Per-layer metrics a workload cannot observe are reported as 0: the run
# workloads start no server, and the serve protocol exposes no kernel,
# scheduler or build timings (its split comes from its own records).
SERVE_ONLY_PREFIX = "serve."
RUN_ONLY_LAYERS = {
    "graph.build_ms", "spectral.solve_ms", "core.steps", "core.kernel_ms",
    "core.kernel_steps_per_s", "core.bytes_per_step.computed", "core.checks",
    "core.check_ms", "core.check_share", "scheduler.units",
    "scheduler.queue_wait_ms", "scheduler.busy_ms", "scheduler.utilization",
    "scheduler.tail_ms", "engine.sink_ms", "trace.overhead_share"}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark package; returns the
    runner and CLI paths."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], check=True,
                   stdout=sys.stderr)
    return (os.path.join(build_dir, "perfbench_runner"),
            os.path.join(build_dir, "opindyn", "src", "opindyn"))


def llc_bytes():
    """Size of the highest-level CPU cache, from sysfs (0 if unknown)."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, 0)
    names = os.listdir(base) if os.path.isdir(base) else []
    for index in (name for name in names if name.startswith("index")):
        try:
            with open(os.path.join(base, index, "level")) as f:
                level = int(f.read())
            with open(os.path.join(base, index, "size")) as f:
                text = f.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
        best = max(best, (level, int(text.rstrip("KM")) * scale))
    return best[1]


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def run_engine_workload(runner, workload, args, work_dir):
    argv = [runner, "run", "--workload=" + workload,
            "--seed=%d" % args.seed, "--seconds=%s" % args.seconds,
            "--trace=%d" % args.trace, "--out-dir=" + work_dir]
    out = subprocess.run(argv, check=True, stdout=subprocess.PIPE).stdout
    return json.loads(out)


def check_digests(workload, seed, files, record):
    """Compares the CSV digests with the ones recorded for this seed
    (none recorded: nothing to compare); returns the problems."""
    with open(DIGESTS) as f:
        digests = json.load(f)
    got = {os.path.basename(path): sha256(path) for path in files}
    if record:
        digests.setdefault(workload, {})[str(seed)] = got
        with open(DIGESTS, "w") as f:
            json.dump(digests, f, indent=1, sort_keys=True)
            f.write("\n")
        return []
    want = digests.get(workload, {}).get(str(seed))
    if want is None or want == got:
        return []
    return ["CSV digests differ from the ones recorded at seed %d" % seed]


def run_workload(workload, args, runner, opindyn, work_dir):
    """Returns (end-to-end metrics, per-layer metrics, detail)."""
    if workload == "serve_mixed":
        detail = serve_workload.run(opindyn, runner, args.seed, args.seconds,
                                    work_dir, args.trace)
        end_to_end = {
            "setup_s": stats.median(detail["setup_s"]),
            "time_to_solution_s": detail["time_to_solution_s"],
            "cpu_s": detail["cpu_s"],
            "peak_rss_mb": detail["peak_rss_bytes"] / 2**20,
        }
        layers = {k: v for k, v in detail.items()
                  if k.startswith(("serve.", "graph.", "spectral.",
                                   "engine."))}
        return end_to_end, layers, detail

    detail = run_engine_workload(runner, workload, args, work_dir)
    if args.trace:
        return {}, detail["layers"], detail
    detail["problems"] += check_digests(workload, args.seed,
                                        detail["files"], args.record_digest)
    if detail["problems"] and not detail["failed"]:
        detail["failed"] = 1
    end_to_end = {
        "setup_s": stats.median(detail["setup_s"]),
        "time_to_solution_s": stats.median(detail["wall_s"]),
        "cpu_s": stats.median(detail["cpu_s"]),
        "peak_rss_mb": detail["peak_rss_bytes"] / 2**20,
    }
    for series in ("setup_s", "wall_s", "cpu_s"):
        detail[series + ".summary"] = stats.summary(detail[series])
    return end_to_end, {}, detail


def select_metrics(spec, section, measured, workload):
    """The BENCHMARK.json `section` metrics, in its order, with units."""
    metrics = {}
    for entry in spec[section]:
        name = entry["name"]
        if name in measured:
            value = measured[name]
        elif section == "per_layer" and (
                (workload == "serve_mixed" and name in RUN_ONLY_LAYERS) or
                (workload != "serve_mixed" and
                 name.startswith(SERVE_ONLY_PREFIX))):
            value = 0
        else:
            raise RuntimeError("workload %s did not measure %s" %
                               (workload, name))
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics


def measure(workload, args, spec, runner, opindyn, root):
    """Runs one workload, prints its detail line, saves its record and
    returns its result object."""
    build_info = json.loads(subprocess.run(
        [runner, "build-info"], check=True, stdout=subprocess.PIPE).stdout)
    load_before = os.getloadavg()
    end_to_end, layers, detail = run_workload(
        workload, args, runner, opindyn, os.path.join(root, "work"))
    machine = {"nproc": len(os.sched_getaffinity(0)),
               "llc_bytes": llc_bytes(), "loadavg_before": load_before,
               "loadavg_after": os.getloadavg()}
    section = "per_layer" if args.trace else "end_to_end"
    metrics = select_metrics(spec, section,
                             layers if args.trace else end_to_end, workload)
    for problem in detail["problems"]:
        log("perfbench: %s: FAILED CHECK: %s" % (workload, problem))
    result = {"correct": not detail["problems"],
              "attempted": int(detail["attempted"]),
              "failed": int(detail["failed"]), "metrics": metrics}
    record = {"workload": workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "build": build_info, "machine": machine, "result": result,
              "detail": detail}
    results_dir = os.path.join(root, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json" % (
            workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({k: record[k] for k in
                      ("workload", "seed", "build", "machine", "detail")}))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true",
                        help="store this seed's CSV digests in "
                        "perfbench/digests.json instead of checking them")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    os.makedirs(os.path.join(root, "work"), exist_ok=True)
    # Compiler and library temporaries stay inside the build directory.
    os.makedirs(os.path.join(root, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.abspath(os.path.join(root, "tmp"))
    try:
        runner, opindyn = build(os.path.join(root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as error:
        log("perfbench: build failed:", error)
        return 2

    if args.workload != "all":
        print(json.dumps(measure(args.workload, args, spec, runner, opindyn,
                                 root)))
        return 0
    # Every workload in turn: one result line each, then their union
    # with metrics named <workload>/<metric>.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = measure(workload, args, spec, runner, opindyn, root)
        print(json.dumps(dict(workload=workload, **result)))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "/" + name] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
