#!/usr/bin/env python3
"""Pipes the README's ready-made job stream through `opindyn serve`.

    serve_jobs_stream.py <opindyn> <jobs.jsonl> <work_dir>

The stream holds five jobs: three that succeed, one with a 1 ms
deadline and one naming an unknown scenario.  The session must print
`ready` first, exactly one record per job line, and a final `shutdown`
record with ok=3, errors=1 and cancelled=1.  The jobs' csv= outputs
land in <work_dir>.
"""
import json
import os
import shutil
import subprocess
import sys


def main():
    opindyn, jobs_path, work_dir = sys.argv[1:4]
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    with open(jobs_path) as jobs:
        job_lines = sum(1 for line in jobs
                        if line.strip() and not line.lstrip().startswith("#"))
    with open(jobs_path) as jobs:
        proc = subprocess.run([opindyn, "serve", "--job-workers=2"],
                              stdin=jobs, capture_output=True, text=True,
                              cwd=work_dir, timeout=120)
    if proc.returncode != 0:
        sys.exit("serve exited %d\nstderr:\n%s" % (proc.returncode,
                                                   proc.stderr))
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert records, "serve printed nothing"
    assert records[0].get("event") == "ready", records[0]
    assert records[-1].get("event") == "shutdown", records[-1]
    job_ids = sorted(record["job"] for record in records[1:-1])
    assert job_ids == list(range(1, job_lines + 1)), (job_lines, job_ids)
    shutdown = records[-1]
    counts = {key: shutdown[key] for key in ("ok", "errors", "cancelled")}
    assert counts == {"ok": 3, "errors": 1, "cancelled": 1}, shutdown
    print("serve: %d job records, shutdown %s" % (len(job_ids), counts))


if __name__ == "__main__":
    main()
