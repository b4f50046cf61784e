"""One benchmark process: build a workload's inputs, run its sweep rows
through ``qcap.cli.main`` for a given time, check them, print one JSON line.

Started by ``run.py`` with the BLAS thread variables removed from its
environment.  With ``--probe`` it stops once the first row could start and
prints that moment, so ``run.py`` can time set-up in fresh processes.
"""
from __future__ import annotations

import argparse
import csv
import ctypes
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

FIG1_GRID = [round(0.05 + 0.005 * k, 3) for k in range(11)]
FIG1_CHECK = (0.085, 0.09)  # -log2 g_tilde < 1 < -log2 f at both (Fig. 1)
FIG1_EPS = 0.01
FIG2_P, FIG2_EPS, FIG2_NMAX, FIG2_ROUNDS, FIG2_CROSS = 0.2, 0.004, 30, 5, 17
FIG3_STEPS = 26
FIG3_DEGENERATE = (0.22, 0.38)


def _arg(x: float) -> str:
    return repr(float(x))


class Ad2Oneshot:
    """f, g and g_tilde on AD (x) AD over the Fig. 1 grid, two rows per call.

    The first call is the exact pair r = 0.085, 0.09 that the crossing check
    needs.  Later calls take the nine other grid points in order, two at a
    time and round again.  A seed s > 0 moves each of those nine points by
    its own offset, uniform in +-0.001 (a fifth of the grid spacing).
    """

    experiment = "fig1_ad"
    floor = False

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        others = [r for r in FIG1_GRID if r not in FIG1_CHECK]
        self.points = [r + (rng.uniform(-1e-3, 1e-3) if seed else 0.0) for r in others]

    def argv(self, i: int) -> list[str]:
        if i == 0:
            lo, hi = FIG1_CHECK
        else:
            k = 2 * (i - 1)
            pair = self.points[k % 9], self.points[(k + 1) % 9]
            lo, hi = min(pair), max(pair)
        return ["--experiment", self.experiment, "--r-min", _arg(lo), "--r-max", _arg(hi),
                "--steps", "2", "--eps", _arg(FIG1_EPS)]

    def check(self, rows, ck) -> None:
        from checks import MATCH_TOL, TOL, ad_kraus, check_f_certificate, check_g_certificate, choi
        import numpy as np
        from qcap.channels import amplitude_damping, tensor
        from qcap.oneshot import bound_f, bound_g

        for r, nf, ng, ngt, status in rows:
            if status == "optimal":
                ck.expect(nf >= ng - TOL and ng >= ngt - TOL, f"chain_f_g_gtilde@r={r}",
                          f"-log2 f, g, g_tilde = {nf!r}, {ng!r}, {ngt!r}")
        by_r = {row[0]: row for row in rows if row[-1] == "optimal"}
        for r in FIG1_CHECK:
            if r not in by_r:
                continue  # a failed row is counted in `failed`, not checked
            _, nf, _, ngt, _ = by_r[r]
            ck.expect(ngt < 1.0 < nf, f"crossing@r={r}", f"-log2 g_tilde = {ngt!r}, -log2 f = {nf!r}")
        # certificates of one row, re-solved through the library
        r = FIG1_CHECK[0]
        ch = tensor(amplitude_damping(r), amplitude_damping(r))
        k1 = ad_kraus(r)
        j = choi([np.kron(a, b) for a in k1 for b in k1])
        for bound, col, check in ((bound_g, 2, check_g_certificate), (bound_f, 1, check_f_certificate)):
            res = bound(ch, FIG1_EPS)
            tag = f"cert_{res.name}@r={r}"
            ck.expect(res.status == "optimal" and res.certificate is not None, f"{tag}.status", res.status)
            if res.certificate is None or r not in by_r:
                continue
            ck.expect(abs(res.log_value - by_r[r][col]) <= MATCH_TOL, f"{tag}.matches_row",
                      f"{res.log_value!r} vs {by_r[r][col]!r}")
            check(ck, tag, res.certificate, j, 4, 4, FIG1_EPS, res.value)


class NrRates:
    """q_gamma and q_theta over the 26 Fig. 3 points of channel_nr, one
    whole sweep per call.  ``fig3_nr`` has no grid parameter besides its
    step count, so the seed does not change these inputs."""

    experiment = "fig3_nr"
    floor = False

    def __init__(self, seed: int) -> None:
        pass

    def argv(self, i: int) -> list[str]:
        return ["--experiment", self.experiment, "--steps", str(FIG3_STEPS)]

    def check(self, rows, ck) -> None:
        from checks import MATCH_TOL, check_gamma_certificate, choi, nr_kraus
        from qcap.asymptotic import q_gamma
        from qcap.channels import channel_nr

        gap = -math.inf
        for r, qg, qt, status in rows:
            if status == "optimal":
                ck.expect(qg <= qt + 1e-6, f"gamma_below_theta@r={r}", f"Q_Gamma {qg!r} > Q_Theta {qt!r}")
                gap = max(gap, qt - qg)
        ck.expect(gap > 0.01, "theta_strictly_above", f"largest Q_Theta - Q_Gamma = {gap!r}")
        by_r = {round(row[0], 12): row for row in rows if row[-1] == "optimal"}
        for r in FIG3_DEGENERATE:
            res = q_gamma(channel_nr(r))
            tag = f"cert_q_gamma@r={r}"
            ck.expect(res.status == "optimal" and res.certificate is not None, f"{tag}.status", res.status)
            if res.certificate is None or r not in by_r:
                continue
            ck.expect(abs(res.log_value - by_r[r][1]) <= MATCH_TOL, f"{tag}.matches_row",
                      f"{res.log_value!r} vs {by_r[r][1]!r}")
            check_gamma_certificate(ck, tag, res.certificate, choi(nr_kraus(r)), 3, 2, res.value)


class DepolLp:
    """lp_f and five rounds of lp_g_hat for n = 1..30 uses of depolarizing(p),
    eps = 0.004, one whole sweep per call.  Seed 0 runs p = 0.2; a seed s > 0
    moves p by an offset uniform in +-0.001."""

    experiment = "fig2_depol"
    # About 20 calls of 1.3 s, single-threaded.  On the shared host their rate
    # swings between x1.0 and x1.8 within seconds, and the share of fast time
    # drifts over minutes; the slowest call marks the floor every run reaches.
    floor = True

    def __init__(self, seed: int) -> None:
        self.p = FIG2_P + (random.Random(seed).uniform(-1e-3, 1e-3) if seed else 0.0)

    def argv(self, i: int) -> list[str]:
        return ["--experiment", self.experiment, "--n-max", str(FIG2_NMAX), "--p", _arg(self.p),
                "--eps", _arg(FIG2_EPS), "--rounds", str(FIG2_ROUNDS)]

    def check(self, rows, ck) -> None:
        from checks import MATCH_TOL, dense_x_coeffs
        import numpy as np
        from qcap.channels import depolarizing
        from qcap.depolarizing_lp import lp_g, x_coeffs
        from qcap.oneshot import bound_f, bound_g

        for n, nf, ngh, status in rows:
            if status == "optimal":
                ck.expect(ngh <= nf, f"ghat_below_f@n={n}", f"-log2 g_hat {ngh!r} > -log2 f {nf!r}")
        by_n = {row[0]: row for row in rows if row[-1] == "optimal"}
        if FIG2_CROSS in by_n:
            _, nf, ngh, _ = by_n[FIG2_CROSS]
            ck.expect(ngh < 1.0 < nf, f"crossing@n={FIG2_CROSS}",
                      f"-log2 g_hat = {ngh!r}, -log2 f = {nf!r}")
        ch = depolarizing(self.p)
        sdp_g, sdp_f = bound_g(ch, FIG2_EPS), bound_f(ch, FIG2_EPS)
        lpg = lp_g(1, self.p, FIG2_EPS)
        ck.expect(abs(lpg.log_value - sdp_g.log_value) <= MATCH_TOL, "lp_g_equals_bound_g@n=1",
                  f"{lpg.log_value!r} vs {sdp_g.log_value!r}")
        if 1 in by_n:
            ck.expect(abs(by_n[1][1] - sdp_f.log_value) <= MATCH_TOL, "lp_f_equals_bound_f@n=1",
                      f"{by_n[1][1]!r} vs {sdp_f.log_value!r}")
        for n in (1, 2, 3):
            err = float(np.max(np.abs(x_coeffs(n) - dense_x_coeffs(n))))
            ck.expect(err <= 1e-12, f"x_coeffs_dense@n={n}", f"max deviation {err!r}")


WORKLOADS = {"ad2_oneshot": Ad2Oneshot, "nr_rates": NrRates, "depol_lp": DepolLp}


def _parse(path: Path) -> list[tuple]:
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    key = int if table[0][0] == "n" else float
    return [(key(r[0]), *map(float, r[1:-1]), r[-1]) for r in table[1:]]


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked from the library."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    par = argparse.ArgumentParser()
    par.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    par.add_argument("--seed", type=int, default=0)
    par.add_argument("--seconds", type=float, default=25.0)
    par.add_argument("--trace", type=int, choices=(0, 1), default=0)
    par.add_argument("--probe", action="store_true")
    args = par.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qcap
    import qcap.cli as cli

    if Path(qcap.__file__).resolve().parent != src / "qcap":
        print(f"qcap imported from {qcap.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    csv_path = OUT / f"rows-{args.workload}-{os.getpid()}.csv"
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
    rows: list[tuple] = []
    rates, cpu_costs = [], []  # per call: rows per wall second, CPU seconds per row
    t_end = time.perf_counter() + args.seconds
    while True:
        call = workload.argv(len(rates)) + ["--jobs", "1", "--out", str(csv_path)]
        cpu0, t0 = time.process_time(), time.perf_counter()
        rc = tracer.span("cli.main", cli.main, call) if tracer else cli.main(call)
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        if rc not in (0, 1):
            print(f"qcap {' '.join(call)} exited with {rc}", file=sys.stderr)
            return 2
        got = _parse(csv_path)
        rows.extend(got)
        rates.append(len(got) / wall)
        cpu_costs.append(cpu / len(got))
        if time.perf_counter() >= t_end:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    csv_path.unlink()

    from checks import Checks

    ck = Checks()
    failed = sum(1 for row in rows if row[-1] != "optimal")
    workload.check(rows, ck)
    result = {
        "ready": ready,
        "correct": not ck.failed,
        "attempted": len(rows),
        "failed": failed,
        "call_rows_per_s": rates,
        "blas_threads": blas_threads(),
        "checks_passed": len(ck.passed),
        "checks_failed": ck.failed,
    }
    if workload.floor:
        slowest = rates.index(min(rates))
        rate, cpu_per_row = rates[slowest], cpu_costs[slowest]
    else:
        rate, cpu_per_row = statistics.median(rates), statistics.median(cpu_costs)
    if tracer:
        tracer.write(OUT / f"trace-{args.workload}-s{args.seed}.jsonl")
        metrics = tracer.layer_metrics(len(rows))
        metrics["trace.rows_per_s"] = rate
        result["per_layer"] = metrics
    else:
        result["end_to_end"] = {
            "rows_per_s": rate,
            "cpu_s_per_row": cpu_per_row,
            "peak_rss_mb": peak_rss_mb,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
