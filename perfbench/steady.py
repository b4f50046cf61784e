"""Steadiness check and tracing overhead.

    python3 perfbench/steady.py [--runs 10] [--traced 5] [--workloads ad2_oneshot ...]

For each workload it makes two sets of ``--runs`` untraced runs of the same
code, alternating between the sets, with seeds 1..N in set A and 101..100+N
in set B.  For every end-to-end metric it prints both medians, their
difference, the bound from BENCHMARK.json and each set's spread (the
distance between the first and third quartile, as a share of the median).
A difference within the bound means two sets of identical code agree; a
spread under a third of the bound is the margin this benchmark aims for.
The share of failed rows must be the same in both sets.

It also makes ``--traced`` traced runs per workload, between the first
untraced ones, and prints the median of each per-layer metric and the
tracing overhead: one minus the traced rows_per_s over that of the
untraced runs made in the same rounds.
Raw results go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    par = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    par.add_argument("--runs", type=int, default=10)
    par.add_argument("--traced", type=int, default=5)
    par.add_argument("--seconds", type=int, default=spec["run_seconds"])
    par.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = par.parse_args(argv)
    if args.runs < 2 or args.traced > args.runs:
        par.error("need --runs >= 2 for quartiles and --traced <= --runs")

    raw: dict = {}
    ok = True
    for wl in args.workloads:
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        traced: list[dict] = []
        for i in range(args.runs):
            sets["A"].append(one_run(wl, 1 + i, args.seconds, 0))
            sets["B"].append(one_run(wl, 101 + i, args.seconds, 0))
            if i < args.traced:
                traced.append(one_run(wl, 1 + i, args.seconds, 1))
        raw[wl] = {"sets": sets, "traced": traced}

        print(f"\n== {wl}: {args.runs} + {args.runs} runs of {args.seconds} s")
        print(f"{'metric':<16} {'median A':>12} {'median B':>12} {'B vs A':>8} {'bound':>6}"
              f" {'spread A':>9} {'spread B':>9}")
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in sets["A"]]
            b = [r["metrics"][m["name"]]["value"] for r in sets["B"]]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            sa, sb = spread(a), spread(b)
            verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
            if m["name"] != "setup_s" and max(sa, sb) > m["bound"]:
                verdict = "SPREAD OVER BOUND"
            ok &= verdict == "ok"
            print(f"{m['name']:<16} {ma:>12.6g} {mb:>12.6g} {(mb - ma) / ma:>+8.2%} {m['bound']:>6.0%}"
                  f" {sa:>9.2%} {sb:>9.2%}  {verdict} ({m['unit']}, {m['better']} is better)")
        shares = {k: sum(r["failed"] for r in v) / sum(r["attempted"] for r in v) for k, v in sets.items()}
        attempted = {k: [r["attempted"] for r in v] for k, v in sets.items()}
        print(f"failed share A {shares['A']:.6f}, B {shares['B']:.6f}; rows per run A {attempted['A']},"
              f" B {attempted['B']}")
        ok &= shares["A"] == shares["B"]

        if traced:
            k = len(traced)  # compare with the untraced runs made around them
            untraced = statistics.median(r["metrics"]["rows_per_s"]["value"]
                                         for r in sets["A"][:k] + sets["B"][:k])
            traced_rate = statistics.median(r["metrics"]["trace.rows_per_s"]["value"] for r in traced)
            print(f"-- {len(traced)} traced runs; tracing overhead on rows_per_s:"
                  f" {1.0 - traced_rate / untraced:+.2%} (traced {traced_rate:.6g}, untraced {untraced:.6g})")
            for m in spec["per_layer"]:
                vals = [r["metrics"][m["name"]]["value"] for r in traced]
                print(f"   {m['name']:<30} {statistics.median(vals):>12.6g} {m['unit']}")

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json").write_text(json.dumps(raw, indent=1))
    print("\nall within bounds" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
