"""Helper processes started by run.py; each prints one JSON line.

``child.py setup <workload> <seed>`` imports so21, builds the workload's
inputs and prints ``{"ready": true}``; the parent times it from process
start to that line.  ``child.py accuracy`` computes the accuracy
metrics in a process of their own, so their memory stays out of the
workload's peak RSS.
"""

import json
import sys

import env


def main(argv):
    env.bootstrap()
    env.import_so21()
    if argv[0] == "setup":
        import workloads

        workloads.WORKLOADS[argv[1]](int(argv[2]))
        print(json.dumps({"ready": True}), flush=True)
        return 0
    if argv[0] == "accuracy":
        import probes
        import workloads

        checks = workloads.Checks()
        values = probes.accuracy(checks)
        print(json.dumps({"values": values, "attempted": checks.attempted,
                          "failed": checks.failed, "failures": checks.failures}),
              flush=True)
        return 0
    raise SystemExit(f"unknown child mode {argv[0]!r}")


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except env.BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(3)
