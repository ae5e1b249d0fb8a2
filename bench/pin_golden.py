"""Pin the output digests of the first pass of each workload at the default seed.

    python3 bench/pin_golden.py

Writes bench/golden.json, which run.py checks on every run with the
default seed.  Run it only at a commit whose outputs are known good: the
pinned digests are the byte contract later changes must keep.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    pinned = {}
    for workload in workloads.WORKLOADS:
        corpus = workloads.Corpus(workload, run.DEFAULT_SEED)
        jobs = corpus.next_pass()
        pinned[workload] = {
            "0.%d %s" % (i, job.name): workloads.digest(
                workloads.render_result(job, workloads.run_job(job, workloads.prepare(job)))
            )
            for i, job in enumerate(jobs)
        }
    run.GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
