"""Write reference.json: the output digest of every request of every workload.

    python3 bench/record_reference.py

Run it only at a commit whose outputs are known to be right; the benchmark
counts every later difference from these digests as a failed request.
"""

import json

import run
import workloads


def main():
    digests = {}
    for workload in workloads.WORKLOADS:
        ids = list(workloads.REQUESTS[workload])
        for r in run.run_rounds(workload, ids, 0, 0, 0, False)["samples"]:
            if r["error"] or r["failed_reports"]:
                raise SystemExit("%s %s failed: %s" % (workload, r["id"], r["error"]))
            digests[r["id"]] = r["digest"]
    with open(run.BENCH / "reference.json", "w") as f:
        json.dump({"digests": dict(sorted(digests.items()))}, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
