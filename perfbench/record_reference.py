"""Write reference.json: each workload's row names and results.csv digests.

    python3 perfbench/record_reference.py [SEED ...]    (default: 20070845 13)

Run from the root of the source checkout whose output is the reference.
Every job runs on 1 worker, so a match of a 2-worker run against the
digest also shows that the results do not depend on the worker count.
The row set is taken from the first seed; every other seed must give the
same names.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, parse_results, run_job
from job import DEFAULT_SEED, WORKLOADS


def main(argv) -> int:
    seeds = [int(s) for s in argv] or [DEFAULT_SEED, 13]
    root = Path.cwd().resolve()
    (root / ".perfbench_tmp").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root / ".perfbench_tmp"))
    ref = {"rows": {}, "digests": {}}
    try:
        for workload in WORKLOADS:
            ref["digests"][workload] = {}
            for seed in seeds:
                rep = run_job(root, work, workload, seed, "run", timeout=900.0, workers=1)
                if not rep["ok"] or rep["results_csv"] is None:
                    print(f"{workload} seed={seed}: job failed", file=sys.stderr)
                    return 1
                names = [r["experiment"] for r in parse_results(rep["results_csv"])]
                ref["rows"].setdefault(workload, names)
                if names != ref["rows"][workload]:
                    print(f"{workload} seed={seed}: row names differ from seed {seeds[0]}",
                          file=sys.stderr)
                    return 1
                digest = hashlib.sha256(rep["results_csv"].encode("utf-8")).hexdigest()
                ref["digests"][workload][str(seed)] = digest
                print(f"{workload} seed={seed}: {len(names)} rows, wall_s={rep['wall_s']:.2f},"
                      f" exit_code={rep['exit_code']}, sha256 {digest}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
