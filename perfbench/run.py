"""risopt benchmark: time the CLI's four paper computations and check them.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh interpreter (``worker.py``), one at a time, as
a closed loop with a single client: whole rounds of in-process
``risopt.cli.main([...])`` calls, the next call only after the previous one
returned.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a separate traced round
with ``--trace 1``.  See README.md for the metrics and the workloads.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("exhaustive", "perturb", "gainmap", "optimize")
SETUP_SAMPLES = 5  # fresh interpreters timed up to their first timed call
DEADLINE_S = 170.0  # the whole run, set-up samples included

def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def spawn(args, work_dir, deadline, setup_only):
    """Starts a worker; returns (process, seconds until it was ready)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--work-dir", work_dir, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--setup-only"] if setup_only else [])
    os.makedirs(work_dir, exist_ok=True)
    with open(os.path.join(work_dir, "stderr.txt"), "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc, work_dir, deadline)
        fail(f"{args.workload} worker failed during set-up; see {work_dir}/stderr.txt")
    return proc, ready


def finish(proc, work_dir, deadline):
    try:
        proc.stdout.read()
        proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"worker did not finish before the deadline; see {work_dir}")
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        fail(f"worker exited {proc.returncode}; see {work_dir}/stderr.txt")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "risopt", "cli.py")):
        fail(f"no risopt sources under {os.path.join(ROOT, 'src')}; run from a full checkout")

    base = os.path.join(ROOT, ".perfbench-out", args.workload)
    shutil.rmtree(base, ignore_errors=True)
    setups = []
    if not args.trace:
        for i in range(SETUP_SAMPLES - 1):
            work_dir = os.path.join(base, f"setup{i}")
            proc, ready = spawn(args, work_dir, deadline, setup_only=True)
            finish(proc, work_dir, deadline)
            setups.append(ready)
    work_dir = os.path.join(base, "run")
    proc, ready = spawn(args, work_dir, deadline, setup_only=False)
    setups.append(ready)
    finish(proc, work_dir, deadline)
    with open(os.path.join(work_dir, "result.json")) as handle:
        result = json.load(handle)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    problems = result["problems"]
    walls = [r[0] for r in result["rounds"]]
    print(f"{args.workload}: {len(walls)} untraced rounds, run_s per round {[round(w, 3) for w in walls]}")
    if args.trace:
        values = result.get("per_layer", {})
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(walls),
            "cpu_s": statistics.median(r[1] for r in result["rounds"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        if "min_rate" in result:
            values["min_rate_bps_hz"] = result["min_rate"]
    if not problems and set(values) != set(units):
        problems.append(f"metrics {sorted(values)} are not the declared {sorted(units)}")
    metrics = {k: {"value": v, "unit": units.get(k, "?")} for k, v in values.items()}
    correct = not problems
    for problem in problems:
        print(f"CHECK FAILED: {args.workload}: {problem}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
