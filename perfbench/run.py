"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload ad2_oneshot --seed 0 --seconds 25 --trace 0

Runs from the root of a source checkout and imports ``qcap`` from its
``src`` directory.  It starts the program in fresh processes whose
environment lacks OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS,
so numpy gets the BLAS threading it has by default.  Set-up is timed in
SETUP_PROBES processes that stop before the first row, and in the process
that then runs the rows; ``setup_s`` is the median of these.

The last line of standard output is one JSON object: ``correct``,
``attempted`` (sweep rows), ``failed`` (rows not ``optimal``) and
``metrics``, the end-to-end metrics or, with ``--trace 1``, the per-layer
ones.  The line before it records the run: BLAS threads, the rate of each
CLI call, the checks.  Both lines are also written to perfbench/out/.
Exit code 0 only for a complete run whose checks all passed.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("ad2_oneshot", "nr_rates", "depol_lp")
SETUP_PROBES = 4
DEADLINE_S = 170.0


def _worker(args, extra: list[str], env, deadline: float):
    """Start one worker; return (seconds from start to its ready mark, result)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed), *extra]
    t_start = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - t_start))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(lines[-1])
    return result["ready"] - t_start, result


def main(argv=None) -> int:
    par = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    par.add_argument("--workload", required=True, choices=WORKLOADS)
    par.add_argument("--seed", type=int, default=0)
    par.add_argument("--seconds", type=float, default=25.0)
    par.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = par.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "qcap" / "cli.py").is_file():
        print(f"error: no qcap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    try:
        setups = [_worker(args, ["--probe"], env, deadline)[0] for _ in range(SETUP_PROBES)]
        setup, res = _worker(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                             env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)

    if args.trace:
        values = res["per_layer"]
    else:
        values = dict(res["end_to_end"], setup_s=statistics.median(setups))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "blas_threads": res["blas_threads"],
        "nproc": os.cpu_count(),
        "call_rows_per_s": res["call_rows_per_s"],
        "setup_samples_s": setups,
        "checks_passed": res["checks_passed"],
        "checks_failed": res["checks_failed"],
    }
    result = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    with open(BENCH / "out" / f"run-{args.workload}-s{args.seed}-t{args.trace}.json", "w") as fh:
        json.dump({"run": record, "result": result}, fh, indent=1)
    print(json.dumps({"run": record}))
    for msg in res["checks_failed"]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
