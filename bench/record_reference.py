"""Record bench/reference.json: the report numbers of every job on the default seed.

    python3 bench/record_reference.py

Runs each workload's job list once and refuses to record when a job fails
its invariant checks (known defects are run but never recorded, since
their output is the wrong one).  Recording belongs in a change that edits
the benchmark, not in one that claims a gain.
"""

import json
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))
from workloads import DEFAULT_SEED, KNOWN_DEFECTS, WORKLOADS, check, jobs_for, numbers  # noqa: E402


def main() -> int:
    reference = {}
    for workload in WORKLOADS:
        reference[workload] = {}
        for job in jobs_for(workload, DEFAULT_SEED):
            outcome = run.run_job(job)
            problems = check(job, outcome["result"])
            if job.id in KNOWN_DEFECTS:
                print(f"{workload}/{job.id}: known defect, not recorded")
                continue
            if problems:
                print(f"{workload}/{job.id}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            reference[workload][job.id] = numbers(json.loads(outcome["result"]["report"]))
            print(f"{workload}/{job.id}: {len(reference[workload][job.id])} numbers")
    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
