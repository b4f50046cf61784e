"""Alternating benchmark pairs of two source checkouts, summarised as a
``BENCH_*.json``.

    python tools/pairs.py --parent DIR --parent-commit SHA --change DIR \\
        --change-commit SHA --pairs 10 --seed0 401 --out BENCH_x.json \\
        [--workloads ad2_oneshot nr_rates] [--traced 1] [--layers 10]

For each workload and pair i it runs ``perfbench/run.py --workload W --seed
seed0 + i --seconds S --trace 0`` once in each checkout, the parent first in
even pairs and the change first in odd ones, so that a drift of the host
weighs on both sides alike.  Each run gets a fresh process, as in the
benchmark.  For every end-to-end metric of BENCHMARK.json the output records
both sides' runs, medians and quartiles, the relative change of the medians,
and in how many pairs the change was better.  Each run also records the
host's load averages (``os.getloadavg``) as it started, so that drift can be
read beside the medians.  ``--traced N`` adds N traced runs per side, in
alternating order as the pairs, and records the medians of their per-layer
metrics.  A traced run covers as many rows as fit in its time, so a faster
side covers more of them; the per-layer medians, ``conic.iters_per_solve``
among them, compare two commits only when both sides' runs cover the same
rows.  The checkouts are plain source trees (``git archive``), so their
commits are given as arguments.

``--layers N`` adds the in-process A/B mode: for each workload, N runs per
side of ``tools/layers.py`` in alternating order, each in a fresh process
that imports its tree's ``qcap``.  A run times every bound column's build,
assembly and ``solve_all`` (on ``depol_lp``: ``x_coeffs`` and ``linprog``)
by ``process_time`` over ``layers.REPS`` warm repetitions and reports their
medians; the output
records, per layer, both sides' runs, medians and quartiles, the relative
change of the medians and in how many runs the change was faster.  These
layers stay readable where the traced metrics of a batched sweep do not.
``--pairs 0`` runs the layers alone.

Every ``conic.solve`` runs on one OpenBLAS thread, whatever the process
default; ``blas_threads`` records that, and ``default_blas_threads`` the
default the runs reported.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from layers import WORKLOADS as LAYER_WORKLOADS  # tools/ is the script's directory

ROOT = Path(__file__).resolve().parent.parent


def one_run(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    load = list(os.getloadavg())
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return {**json.loads(lines[-1]), "run": json.loads(lines[-2])["run"], "loadavg": load}


def layers_run(checkout: Path, workload: str) -> dict:
    """The median seconds of each layer over the repetitions of
    ``tools/layers.py`` with ``checkout``'s ``qcap``."""
    cmd = [sys.executable, str(ROOT / "tools" / "layers.py"), "--workload", workload]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    load = list(os.getloadavg())
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    medians = {k: statistics.median(v) for k, v in res["layers"].items()}
    return {"layers": medians, "default_blas_threads": res["default_blas_threads"],
            "loadavg": load}


def compared(parent: list[float], change: list[float], better) -> dict:
    """Both sides' summaries, the relative change of the medians, and in how
    many pairs the change was better."""
    par_sum, chg_sum = summary(parent), summary(change)
    return {
        "parent": par_sum,
        "change": chg_sum,
        "change_vs_parent": chg_sum["median"] / par_sum["median"] - 1.0,
        "change_better_pairs": sum(better(c, p) for p, c in zip(parent, change)),
    }


def alternating(sides: dict[str, Path], n: int, run) -> dict[str, list[dict]]:
    """n runs per side, ``run(side, i)``, the parent first in even rounds and
    the change first in odd ones."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(n):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run(side, i))
    return runs


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    par = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    par.add_argument("--parent", type=Path, required=True)
    par.add_argument("--change", type=Path, required=True)
    par.add_argument("--parent-commit", required=True)
    par.add_argument("--change-commit", required=True)
    par.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    par.add_argument("--pairs", type=int, default=10)
    par.add_argument("--seed0", type=int, default=401)
    par.add_argument("--seconds", type=int, default=spec["run_seconds"])
    par.add_argument("--traced", type=int, default=0)
    par.add_argument("--layers", type=int, default=0)
    par.add_argument("--out", type=Path, required=True)
    args = par.parse_args(argv)
    if min(args.pairs, args.traced, args.layers) < 0 or 1 in (args.pairs, args.layers):
        par.error("need --traced >= 0, and --pairs and --layers of 0 or >= 2 for quartiles")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    report = {
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds} --trace 0",
        "parent_commit": args.parent_commit,
        "change_commit": args.change_commit,
        "blas_threads": 1,
        "workloads": {},
    }
    for wl in args.workloads if args.pairs else ():
        seeds = [args.seed0 + i for i in range(args.pairs)]

        def pair_run(side: str, i: int, wl=wl, seeds=seeds) -> dict:
            res = one_run(sides[side], wl, seeds[i], args.seconds, 0)
            print(wl, seeds[i], side, json.dumps(res["metrics"]), res["loadavg"], file=sys.stderr)
            return res

        runs = alternating(sides, args.pairs, pair_run)
        entry = {
            "pairs": args.pairs,
            "seeds": seeds,
            "default_blas_threads": sorted({r["run"]["blas_threads"] for r in runs["parent"]}),
            "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
            "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
            "loadavg": {s: [r["loadavg"] for r in runs[s]] for s in runs},
            "metrics": {},
        }
        for m in spec["end_to_end"]:
            vals = {s: [r["metrics"][m["name"]]["value"] for r in runs[s]] for s in runs}
            better = (lambda c, p: c > p) if m["better"] == "higher" else (lambda c, p: c < p)
            entry["metrics"][m["name"]] = {
                "unit": m["unit"],
                "better": m["better"],
                "bound": m["bound"],
                **compared(vals["parent"], vals["change"], better),
            }
        if args.traced:
            def traced_run(side: str, i: int, wl=wl) -> dict:
                return one_run(sides[side], wl, args.seed0, args.seconds, 1)

            traced = alternating(sides, args.traced, traced_run)
            entry["traced_loadavg"] = {s: [r["loadavg"] for r in traced[s]] for s in traced}
            entry["per_layer_medians"] = {
                s: {m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r in traced[s])
                    for m in spec["per_layer"]}
                for s in sides
            }
        report["workloads"][wl] = entry
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    for wl in [w for w in args.workloads if w in LAYER_WORKLOADS] if args.layers else ():
        runs = alternating(sides, args.layers,
                           lambda side, i, wl=wl: layers_run(sides[side], wl))
        names = runs["parent"][0]["layers"]
        report.setdefault("layers", {})[wl] = {
            "command": f"python3 tools/layers.py --workload {wl}",
            "runs": args.layers,
            "unit": "s of CPU (process_time), median of the reps in each run",
            "default_blas_threads": sorted({t for r in runs["parent"]
                                            for t in r["default_blas_threads"]}),
            "loadavg": {s: [r["loadavg"] for r in runs[s]] for s in runs},
            "metrics": {
                name: compared([r["layers"][name] for r in runs["parent"]],
                               [r["layers"][name] for r in runs["change"]],
                               lambda c, p: c < p)
                for name in names
            },
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
