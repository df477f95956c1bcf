"""Record the report digests that the benchmark's output checks compare to.

    python3 perfbench/record_digests.py

Runs one pass of every workload at the default seed and writes
digests.json. Run it only at a commit whose outputs are known good: the
checks then hold every later commit to those exact bytes.
"""

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    J = run._import_program()
    digests = {}
    (run.BENCH / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.BENCH / ".work") as tmp:
        out = Path(tmp) / "report.out"
        for workload in run.WORKLOADS:
            for job in J.workload_jobs(workload, J.DEFAULT_SEED):
                result = J.execute(job, out, {})
                if result.failed:
                    print(f"FAILED {job.key}: {result.problems}", file=sys.stderr)
                    return 1
                digests[job.key] = J.digest_entry(job, out.read_bytes())
    J.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {J.DIGESTS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
