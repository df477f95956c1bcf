"""Every benchmark job once at seed 0, traced, checked against its recorded
digest, and every traced layer called at least once; exits 1 on any
problem. Run from the repository root:

    PYTHONPATH=src:perfbench python ci/bench_digests.py
"""

import sys
import tempfile
from pathlib import Path

from jobs import execute, load_digests, workload_jobs
from tracing import Tracer, layer_table


def main() -> int:
    digests = load_digests()
    jobs = [job for w in ("recursion-full", "rate-sweep", "sampling") for job in workload_jobs(w, 0)]
    problems = [f"recorded digest without a job: {key}"
                for key in sorted(set(digests) - {job.key for job in jobs})]
    tracer = Tracer()
    tracer.install()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for job in jobs:
                found = execute(job, Path(tmp) / "report", digests, tracer).problems
                if job.key not in digests:
                    found.append("no recorded digest")
                problems += [f"{job.key}: {p}" for p in found]
    finally:
        tracer.uninstall()
    calls = {layer: row["calls"] for layer, row in layer_table(tracer).items()}
    problems += [f"layer {layer} recorded no call" for layer, n in calls.items() if not n]
    print(*problems, f"calls per layer: {calls}", f"{len(jobs)} jobs, {len(problems)} problems",
          sep="\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
