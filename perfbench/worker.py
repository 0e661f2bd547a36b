"""One workload in a fresh interpreter: set-up, timed rounds, checks.

Started by ``run.py``; not meant to be run by hand.  It prints ``ready`` on
standard output once set-up is done (the parent times set-up up to that
line), then writes its figures to ``<work dir>/result.json``.
"""

import argparse
import contextlib
import json
import logging
import os
import resource
import shutil
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from risopt import cli  # noqa: E402  (set-up: numpy, scipy and risopt imports)
from workloads import WORKLOADS, Checks  # noqa: E402


class Records(logging.Handler):
    """Keeps the program's log records (skipped combinations, failures)."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


def snapshot(out):
    files = {}
    for base, _, names in os.walk(out):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, out)] = handle.read()
    return files


def run_round(workload, out):
    """Runs one round's CLI calls; returns (wall s, cpu s, exit codes)."""
    shutil.rmtree(out, ignore_errors=True)
    calls = workload.calls(out)
    codes = []
    wall, cpu = time.perf_counter(), time.process_time()
    for argv in calls:
        codes.append(cli.main(argv))
    return time.perf_counter() - wall, time.process_time() - cpu, codes


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.work_dir)
    workload.prepare()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    records = Records()
    logging.getLogger("risopt").addHandler(records)
    checks = Checks()
    rounds = []
    first = None
    attempted = failed = 0
    out = os.path.join(args.work_dir, "out")
    start = time.perf_counter()
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        # whole rounds only; another starts while it should end within the run
        while not rounds or time.perf_counter() - start + rounds[-1][0] <= args.seconds:
            records.records.clear()
            wall, cpu, codes = run_round(workload, out)
            rounds.append((wall, cpu))
            attempted += workload.ops_per_round
            if not checks.that(codes == [0] * len(codes), f"exit codes {codes}"):
                break
            failed += workload.failed(out, records.records)
            files = snapshot(out)
            if first is None:
                first = files
            checks.that(files == first, "a round's files differ from the first round's")

        # before the traced round and the checks, which hold more memory
        result = {"rounds": rounds, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if args.trace and not checks.problems:
            from tracing import Tracer

            tracer = Tracer()
            traced_out = os.path.join(args.work_dir, "traced")
            tracer.install()
            try:
                wall, _, codes = run_round(workload, traced_out)
            finally:
                tracer.uninstall()
            tracer.write(os.path.join(args.work_dir, "spans.json"))
            attempted += workload.ops_per_round
            failed += workload.failed(traced_out, records.records)
            checks.that(codes == [0] * len(codes), f"traced exit codes {codes}")
            checks.that(snapshot(traced_out) == first, "the traced round's files differ")
            untraced = float(np.median([r[0] for r in rounds]))
            result["per_layer"] = {
                **tracer.metrics(),
                "trace.run_s": wall,
                "trace.overhead": wall / untraced - 1.0,
            }
        if not checks.problems:
            rng = np.random.default_rng(args.seed)
            result["min_rate"] = workload.check(out, records.records, rng, checks)

    result.update(
        attempted=attempted,
        failed=failed,
        problems=checks.problems,
    )
    with open(os.path.join(args.work_dir, "result.json"), "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
