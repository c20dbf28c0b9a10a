"""The serve_mixed workload: a seeded job stream driven through
`opindyn serve --job-workers=1 --threads=1` over stdin/stdout pipes.

A session warms one server with WARMUP_JOBS jobs, then runs:

* untraced: closed-loop rounds of ROUND_JOBS jobs, each with QUEUE_DEPTH
  jobs outstanding, for the whole --seconds budget.  The median round's
  wall time is the workload's time to solution, the median round's
  server CPU time its cpu_s.
* traced: open loops at two fixed rates, ``low`` and ``high`` (LOW_RATE,
  HIGH_RATE jobs/s, about 40% and 80% of the saturation rate measured
  on the reference machine), each for OPEN_PHASE_SHARE of the budget,
  then closed-loop rounds for CLOSED_PHASE_SHARE of it, whose rate is
  the saturation rate.  Each open-loop job's latency runs from its
  scheduled send time to its record; the generator's own lateness is
  reported too.  The server drains between phases.

A server of one job worker on one thread leaves cores of the 4-vCPU
machine free: with two job workers on four threads the closed loop ran
2.6x slower beside three busy threads, with one worker 1.2x.

Set-up is spawn -> ready of a fresh server, sampled SETUP_SPAWNS times in
three groups (before the warm-up, half way and at the end) so its
median sees the whole run, not one moment of a shared machine.

Most jobs are small node / edge / cross_model runs (n in {64, 256})
whose graphs come from a Zipf-skewed pool of GRAPH_POOL keys -- more
than the server's 64-entry graph cache, so the stream both hits and
evicts.  About 5% are thm22_convergence jobs at n=128 that hit the
spectrum cache after their graph's first eigensolve, about 1% are
invalid lines whose expected record is `error`, and half the lines are
JSON while the other half use the spec grammar.  The server receives
only the lines; every record is checked against the status the
generator expects, and every CSV_EVERY-th valid job writes a CSV that is
compared with a one-shot run_experiment of the same spec.
"""

import json
import os
import random
import subprocess
import threading
import time

import stats

LOW_RATE = 70.0
HIGH_RATE = 140.0
SLO_P99_MS = 100.0
QUEUE_DEPTH = 16
JOB_WORKERS = 1
THREADS = 1
GRAPH_POOL = 96
ZIPF_S = 1.1
ROUND_JOBS = 96
MIN_ROUNDS = 5
OPEN_PHASE_SHARE = 0.3
CLOSED_PHASE_SHARE = 0.3
CSV_EVERY = 25
SETUP_SPAWNS = 21
RECORD_TIMEOUT_S = 60.0

SMALL_REPLICAS = 32
SMALL_EPS = 1e-10
# One thm22 graph per session: its spectrum record stays resident in
# the server's LRU cache, so only the warm-up pays its eigensolve.
THM22_JOB = {"scenario": "thm22_convergence", "graph": "random_regular",
             "degree": 4, "n": 128, "replicas": 8, "eps": 1e-6}
WARMUP_JOBS = 64

# Invalid lines and the stage that refuses them: "admit" lines fail to
# parse, so their error record comes at once; "run" lines parse but name
# no scenario, so under overload the queue may refuse them first.
INVALID_LINES = [
    ("scenario=no_such_scenario n=64 replicas=8", "run"),
    ('{"scenario": "node", "n": "many"}', "admit"),
    ('{"scenario": "edge", "graph": "cycle"', "admit"),
    ("scenario=node n=64 replicas=8 no-such-key=1", "admit"),
]


class Job:
    def __init__(self, line, expected, kv=None, csv=None, queued=True):
        self.line = line
        self.expected = expected  # "ok" or "error"
        self.kv = kv              # spec keys of a valid job
        self.csv = csv            # CSV path the job writes, if any
        self.queued = queued      # reaches the admission queue


class JobStream:
    """Seeded generator of job lines; the same seed gives the same lines."""

    def __init__(self, seed, csv_dir):
        self.rng = random.Random(seed)
        self.seed = seed
        self.csv_dir = csv_dir
        # Ranks alternate n=64 / n=256, so every seed puts the same share
        # of its traffic on each size; the graph seeds differ per seed.
        self.pool = [(64 if rank % 2 == 0 else 256, seed * 1000 + rank)
                     for rank in range(GRAPH_POOL)]
        self.weights = [1.0 / (rank + 1) ** ZIPF_S
                        for rank in range(GRAPH_POOL)]
        self.count = 0

    def warmup(self):
        """WARMUP_JOBS jobs led by the thm22 job that solves the spectrum."""
        jobs = [self.next(THM22_JOB)]
        return jobs + [self.next() for _ in range(WARMUP_JOBS - 1)]

    def next(self, forced=None):
        self.count += 1
        draw = self.rng.random()
        if draw < 0.01 and not forced:
            line, stage = self.rng.choice(INVALID_LINES)
            return Job(line, "error", queued=stage == "run")
        if forced or draw < 0.06:
            kv = THM22_JOB.copy()
            kv["graph-seed"] = self.seed
        else:
            n, graph_seed = self.rng.choices(self.pool, self.weights)[0]
            kv = {"scenario": self.rng.choice(["node", "edge", "cross_model"]),
                  "graph": "random_regular", "degree": 4, "n": n,
                  "graph-seed": graph_seed, "replicas": SMALL_REPLICAS,
                  "eps": SMALL_EPS}
            if kv["scenario"] == "cross_model":
                kv["model"] = self.rng.choice(["node", "edge"])
        kv["seed"] = self.rng.randrange(1, 1 << 30)
        csv = None
        if self.count % CSV_EVERY == 0:
            csv = os.path.join(self.csv_dir, "job%d.csv" % self.count)
            kv["csv"] = csv
        if self.rng.random() < 0.5:
            line = json.dumps(kv)
        else:
            line = " ".join("%s=%s" % item for item in kv.items())
        return Job(line, "ok", kv, csv)


def proc_cpu_s(pid):
    """User+sys seconds of a live process, from /proc/<pid>/stat."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_bytes(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    return 0


class ServeSession:
    """One server process; a reader thread timestamps every record."""

    def __init__(self, argv, cwd):
        self.cond = threading.Condition()
        self.records = {}     # job id -> [(receive time, record)]
        self.answered = 0
        self.ready_at = None
        self.summary = None
        self.garbage = []
        self.next_id = 0
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for raw in self.proc.stdout:
            now = time.perf_counter()
            try:
                record = json.loads(raw)
            except ValueError:
                record = None
            with self.cond:
                if not isinstance(record, dict):
                    self.garbage.append(raw[:200])
                elif "job" in record:
                    self.records.setdefault(record["job"], []).append(
                        (now, record))
                    self.answered += 1
                elif record.get("event") == "ready":
                    self.ready_at = now
                elif record.get("event") == "shutdown":
                    self.summary = record
                else:
                    self.garbage.append(raw[:200])
                self.cond.notify_all()

    def wait_ready(self):
        with self.cond:
            if not self.cond.wait_for(lambda: self.ready_at is not None,
                                      RECORD_TIMEOUT_S):
                raise RuntimeError("server never sent its ready event")
        return self.ready_at - self.spawned_at

    def send(self, line):
        """Sends one job line; returns (job id, send time)."""
        self.next_id += 1
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()
        return self.next_id, time.perf_counter()

    def wait_answered(self, count):
        with self.cond:
            return self.cond.wait_for(lambda: self.answered >= count,
                                      RECORD_TIMEOUT_S)

    def close(self):
        """EOF -> drain -> shutdown summary -> exit; always reaps."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=RECORD_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.reader.join()
            self.proc.stdout.close()
        return self.proc.returncode


def open_loop(session, jobs, rate):
    """Sends `jobs` at a fixed rate regardless of answers; returns the
    {id: job}, {id: due time} and {id: send time} maps."""
    by_id, due, sent = {}, {}, {}
    start = time.perf_counter() + 0.005
    for index, job in enumerate(jobs):
        when = start + index / rate
        delay = when - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        job_id, sent_at = session.send(job.line)
        by_id[job_id] = job
        due[job_id] = when
        sent[job_id] = sent_at
    session.wait_answered(session.next_id)
    return by_id, due, sent


def closed_loop(session, jobs, outstanding):
    """Keeps `outstanding` jobs in flight until all are answered; returns
    ({id: job}, wall seconds, server cpu seconds)."""
    by_id = {}
    base = session.answered
    cpu_before = proc_cpu_s(session.proc.pid)
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        with session.cond:
            session.cond.wait_for(
                lambda: index - (session.answered - base) < outstanding,
                RECORD_TIMEOUT_S)
        job_id, _ = session.send(job.line)
        by_id[job_id] = job
    session.wait_answered(base + len(jobs))
    with session.cond:
        last = max(session.records[i][0][0] for i in by_id
                   if i in session.records)
    cpu = proc_cpu_s(session.proc.pid) - cpu_before
    return by_id, last - start, cpu


def check_records(session, phases, expect_rejections):
    """Compares every record with its job's expected status; returns
    {job id: problem} for the jobs that fail."""
    problems = {}
    for phase, by_id in phases.items():
        for job_id, job in by_id.items():
            got = session.records.get(job_id, [])
            if len(got) != 1:
                problems[job_id] = "%d records" % len(got)
                continue
            record = got[0][1]
            status = record.get("status")
            if status == "rejected" and job.queued and \
                    phase in expect_rejections:
                continue
            if status != job.expected:
                problems[job_id] = "status %s, expected %s %s" % (
                    status, job.expected, record.get("error", ""))
            elif status == "ok" and (record.get("rows") != 1 or
                                     record.get("replica_rows") != 0):
                problems[job_id] = "unexpected row counts"
    return problems


def check_summary(session, summary):
    """The shutdown summary must account for every line sent."""
    if not summary:
        return ["no shutdown summary"]
    counted = sum(summary.get(key, 0)
                  for key in ("ok", "errors", "cancelled", "rejected"))
    if counted != session.next_id:
        return ["shutdown summary counts %d jobs, %d were sent" % (
            counted, session.next_id)]
    return []


def closed_rounds(session, stream, budget_s):
    """Closed-loop rounds of ROUND_JOBS jobs until `budget_s` is spent
    (MIN_ROUNDS at least); returns ({id: job}, round walls, round cpus)."""
    by_id, walls, cpus = {}, [], []
    start = time.perf_counter()
    while len(walls) < MIN_ROUNDS or time.perf_counter() - start < budget_s:
        jobs, wall, cpu = closed_loop(
            session, [stream.next() for _ in range(ROUND_JOBS)], QUEUE_DEPTH)
        by_id.update(jobs)
        walls.append(wall)
        cpus.append(cpu)
    return by_id, walls, cpus


def run(opindyn, runner, seed, seconds, work_dir, trace):
    """Runs one serve_mixed session; returns the detail dict."""
    csv_dir = os.path.join(work_dir, "serve")
    os.makedirs(csv_dir, exist_ok=True)
    for name in os.listdir(csv_dir):
        os.remove(os.path.join(csv_dir, name))
    argv = [opindyn, "serve", "--job-workers=%d" % JOB_WORKERS,
            "--threads=%d" % THREADS, "--queue=%d" % QUEUE_DEPTH]

    setup_s = []

    def spawn_probes(count):
        for _ in range(count):
            probe = ServeSession(argv, os.getcwd())
            try:
                setup_s.append(probe.wait_ready())
            finally:
                probe.close()

    group = SETUP_SPAWNS // 3
    spawn_probes(SETUP_SPAWNS - 2 * group - 1)
    session = ServeSession(argv, os.getcwd())
    open_phases = {}
    try:
        setup_s.append(session.wait_ready())
        stream = JobStream(seed, csv_dir)
        phases = {"warmup": closed_loop(session, stream.warmup(),
                                        QUEUE_DEPTH)[0]}
        if trace:
            for name, rate in (("low", LOW_RATE), ("high", HIGH_RATE)):
                jobs = max(1, int(OPEN_PHASE_SHARE * seconds * rate))
                open_phases[name] = open_loop(
                    session, [stream.next() for _ in range(jobs)], rate)
                phases[name] = open_phases[name][0]
            spawn_probes(group)
            closed, round_wall, round_cpu = closed_rounds(
                session, stream, CLOSED_PHASE_SHARE * seconds)
        else:
            closed, round_wall, round_cpu = closed_rounds(
                session, stream, seconds / 2)
            spawn_probes(group)
            second = closed_rounds(session, stream, seconds / 2)
            closed.update(second[0])
            round_wall += second[1]
            round_cpu += second[2]
        phases["closed"] = closed
        peak_rss = proc_peak_rss_bytes(session.proc.pid)
        spawn_probes(group)
    finally:
        exit_code = session.close()

    job_problems = check_records(session, phases, ("low", "high"))
    job_problems.update(compare_csvs(runner, phases, work_dir))
    summary = session.summary or {}
    problems = ["job %d: %s" % item for item in sorted(job_problems.items())]
    problems += ["protocol: unparsable line %r" % g for g in session.garbage]
    problems += check_summary(session, summary)
    if exit_code != 0:
        problems.append("server exited with %d" % exit_code)

    detail = {"setup_s": setup_s, "round_wall_s": round_wall,
              "round_cpu_s": round_cpu,
              "time_to_solution_s": stats.median(round_wall),
              "cpu_s": stats.median(round_cpu), "peak_rss_bytes": peak_rss,
              "closed_jobs": len(closed),
              "serve.saturation_jobs_per_s": len(closed) / sum(round_wall),
              "rates_jobs_per_s": {"low": LOW_RATE, "high": HIGH_RATE},
              "slo_p99_ms": SLO_P99_MS, "problems": problems,
              "attempted": session.next_id,
              "failed": len(problems)}
    for name, (by_id, due, sent) in open_phases.items():
        detail.update(phase_metrics(session, name, by_id, due, sent))
    detail.update(layer_metrics(session, phases, summary))
    return detail


def phase_metrics(session, name, by_id, due, sent):
    """Latency, queueing and SLO figures of one open-loop phase."""
    received, queue_ms, misses = {}, [], 0
    for job_id, job in by_id.items():
        if job.expected != "ok":
            continue
        got = session.records.get(job_id)
        record = got[0][1] if got else {}
        if record.get("status") != "ok":
            misses += 1
            continue
        received[job_id] = got[0][0]
    latency_ms = [1e3 * v for v in
                  stats.open_loop_latencies(due, received).values()]
    for job_id in received:
        record = session.records[job_id][0][1]
        queue_ms.append(1e3 * (received[job_id] - due[job_id]) -
                        record["wall_ms"])
    lag = stats.generator_lag(due, sent)
    latency = stats.summary(latency_ms)
    queue = stats.summary(queue_ms)
    misses += sum(1 for v in latency_ms if v > SLO_P99_MS)
    valid = sum(1 for j in by_id.values() if j.expected == "ok")
    return {
        "serve.latency_p50_ms." + name: latency["median"],
        "serve.latency_p99_ms." + name: latency["tail"],
        "serve.latency_tail_percentile." + name: latency["tail_percentile"],
        "serve.latency_samples." + name: latency["samples"],
        "serve.queue_ms.p50." + name: queue["median"],
        "serve.queue_ms.p99." + name: queue["tail"],
        "serve.slo_miss_ratio." + name: misses / max(1, valid),
        "serve.gen_lag_ms." + name: 1e3 * lag["max"],
    }


def layer_metrics(session, phases, summary):
    """The split the protocol's own fields give: records and summary."""
    run_ms, graph_hits, graph_builds, solves, rows = [], 0, 0, 0, 0
    rejected = cancelled = 0
    for by_id in phases.values():
        for job_id in by_id:
            for _, record in session.records.get(job_id, []):
                status = record.get("status")
                rejected += status == "rejected"
                cancelled += status == "cancelled"
                if status != "ok":
                    continue
                run_ms.append(record["wall_ms"])
                cache = record.get("cache", {})
                graph_hits += cache.get("graph_hits", 0)
                graph_builds += cache.get("graph_builds", 0)
                solves += cache.get("eigensolves", 0)
                rows += record.get("rows", 0) + record.get("replica_rows", 0)
    caches = summary.get("caches", {})
    graph = caches.get("graph", {})
    spectrum = caches.get("spectrum", {})
    spectrum_hits = spectrum.get("spectrum_hits", 0)
    run = stats.summary(run_ms)
    return {
        "graph.builds": graph_builds,
        "graph.hit_ratio": graph_hits / max(1, graph_hits + graph_builds),
        "graph.bytes": graph.get("resident_bytes", 0),
        "spectral.solves": solves,
        "spectral.hit_ratio": spectrum_hits / max(1, spectrum_hits + solves),
        "engine.rows": rows,
        "serve.run_ms.p50": run["median"],
        "serve.run_ms.p99": run["tail"],
        "serve.rejected": rejected,
        "serve.cancelled": cancelled,
        "serve.evictions": graph.get("evictions", 0) +
        spectrum.get("evictions", 0),
    }


def compare_csvs(runner, phases, work_dir):
    """Reruns every CSV-writing job one-shot and compares the bytes;
    returns {job id: problem}."""
    jobs = {job_id: job for by_id in phases.values()
            for job_id, job in by_id.items()
            if job.csv and os.path.exists(job.csv)}
    if not jobs:
        return {}
    listing = os.path.join(work_dir, "serve", "oneshot.txt")
    with open(listing, "w") as f:
        for job in jobs.values():
            spec = {k: ("%r" % v if isinstance(v, float) else str(v))
                    for k, v in job.kv.items() if k != "csv"}
            f.write("%s.oneshot\t%s\n" % (job.csv, json.dumps(spec)))
    subprocess.run([runner, "oneshot", "--jobs=" + listing], check=True,
                   stdout=subprocess.DEVNULL)
    problems = {}
    for job_id, job in jobs.items():
        with open(job.csv, "rb") as a, open(job.csv + ".oneshot", "rb") as b:
            if a.read() != b.read():
                problems[job_id] = "CSV differs from the one-shot run"
    return problems
