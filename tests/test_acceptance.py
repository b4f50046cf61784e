"""End-to-end acceptance battery.

Each test covers one numbered acceptance criterion, does all of its solving
inside a timed block, and prints a single verdict line; run with

    pytest tests/test_acceptance.py -v -s

to see the verdicts as they land.  Budgets are wall-clock seconds on one
CPU core.
"""
import math
import time

import numpy as np
import pytest

from qcap.asymptotic import e_w, purified_output, q_gamma, q_theta
from qcap.channels import (
    amplitude_damping,
    depolarizing,
    identity_channel,
    random_channel,
    tensor,
)
from qcap.cli import run_fig3
from qcap.depolarizing_lp import lp_f, lp_g, lp_g_hat_iterate
from qcap.oneshot import (
    bound_f,
    bound_g,
    bound_g_tilde,
    g_hat_iterate,
    oneshot_capacity,
)

CHAIN_SEEDS = tuple(range(2000, 2020))


def chain_channels():
    return [random_channel(2, 2, d_env=2, seed=s) for s in CHAIN_SEEDS]


def report(num, ok, elapsed, budget=None, detail=""):
    verdict = "PASS" if ok else "FAIL"
    clock = f"{elapsed:.1f}s" + (f" / {budget:.0f}s" if budget else "")
    print(f"criterion {num}: {verdict} ({clock}){detail}")
    assert ok, f"criterion {num} failed{detail}"


def test_criterion_01_identity_rates():
    t0 = time.perf_counter()
    errs = []
    for d in (2, 3, 4):
        res = q_gamma(identity_channel(d))
        errs.append(abs(res.log_value - math.log2(d)))
        errs.append(0.0 if res.status == "optimal" else 1.0)
    elapsed = time.perf_counter() - t0
    ok = max(errs) < 1e-6 and elapsed < 5.0
    report(1, ok, elapsed, 5.0, f" max_err={max(errs):.2e}")


def test_criterion_02_primal_dual_agreement():
    t0 = time.perf_counter()
    dims = [(2, 2), (2, 3), (3, 2), (3, 3)]
    worst = 0.0
    for seed in range(20):
        d_in, d_out = dims[seed % 4]
        ch = random_channel(d_in, d_out, d_env=2, seed=seed)
        p = q_gamma(ch, form="primal")
        d = q_gamma(ch, form="dual")
        assert p.status == "optimal" and d.status == "optimal"
        worst = max(worst, abs(p.value - d.value))
    elapsed = time.perf_counter() - t0
    ok = worst < 2e-8 and elapsed < 60.0
    report(2, ok, elapsed, 60.0, f" max_gap={worst:.2e}")


def test_criterion_03_additivity():
    t0 = time.perf_counter()
    worst = 0.0
    failed = []
    for i in range(10):
        s1, s2 = 1000 + 2 * i, 1001 + 2 * i
        n1 = random_channel(2, 2, d_env=2, seed=s1)
        n2 = random_channel(2, 2, d_env=2, seed=s2)
        runs = {
            f"seed {s1}": q_gamma(n1),
            f"seed {s2}": q_gamma(n2),
            f"seeds {s1}x{s2}": q_gamma(tensor(n1, n2)),
        }
        failed += [f"{key}: {res.status}" for key, res in runs.items() if res.status != "optimal"]
        a, b, ab = (res.log_value for res in runs.values())
        worst = max(worst, abs(ab - a - b))
    elapsed = time.perf_counter() - t0
    assert not failed, f"criterion 3: q_gamma not optimal for {failed}"
    ok = worst <= 1e-5 and elapsed < 300.0
    report(3, ok, elapsed, 300.0, f" max_defect={worst:.2e}")


def test_criterion_04_one_shot_chain_and_capacity():
    t0 = time.perf_counter()
    worst_step = -1.0
    worst_cap = -math.inf
    for seed, ch in zip(CHAIN_SEEDS, chain_channels()):
        for eps in (0.01, 0.05):
            f = bound_f(ch, eps)
            g = bound_g(ch, eps)
            gt = bound_g_tilde(ch, eps)
            gh1, gh2 = g_hat_iterate(ch, eps, rounds=2)
            vals = [f.value, g.value, gt.value, gh1.value, gh2.value]
            for res in (f, g, gt, gh1, gh2):
                assert res.status == "optimal", (
                    f"seed {seed}, eps {eps}: bound {res.name} ended with {res.status}"
                )
            worst_step = max(
                worst_step, max(a - b for a, b in zip(vals, vals[1:]))
            )
            cap = oneshot_capacity(ch, eps, code_class="ns_ppt")
            worst_cap = max(worst_cap, cap - gh2.log_value)
    elapsed = time.perf_counter() - t0
    ok = worst_step < 1e-7 and worst_cap <= 0.0 and elapsed < 600.0
    report(
        4, ok, elapsed, 600.0,
        f" max_chain_violation={worst_step:.2e} max_cap_excess={worst_cap:.2e}",
    )


def test_criterion_05_damping_rate_separation():
    t0 = time.perf_counter()
    margins = []
    for r in (0.085, 0.09):
        ch = tensor(amplitude_damping(r), amplitude_damping(r))
        gt = bound_g_tilde(ch, 0.01)
        f = bound_f(ch, 0.01)
        assert gt.status == "optimal" and f.status == "optimal"
        margins.append(1.0 - gt.log_value)
        margins.append(f.log_value - 1.0)
    elapsed = time.perf_counter() - t0
    ok = min(margins) > 1e-4 and elapsed < 120.0
    report(5, ok, elapsed, 120.0, f" min_margin={min(margins):.2e}")


def test_criterion_06_depolarizing_sweep_crossing():
    t0 = time.perf_counter()
    ordered = True
    crossing = None
    for n in range(1, 31):
        f = lp_f(n, 0.2, 0.004)
        gh = lp_g_hat_iterate(n, 0.2, 0.004, rounds=5)[-1]
        assert f.status == "optimal" and gh.status == "optimal"
        ordered = ordered and gh.log_value <= f.log_value
        if n == 17:
            crossing = gh.log_value < 1.0 < f.log_value
    elapsed = time.perf_counter() - t0
    ok = ordered and bool(crossing) and elapsed < 30.0
    report(6, ok, elapsed, 30.0, f" ordered={ordered} crossing_at_17={crossing}")


def test_criterion_07_lp_matches_sdp():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2):
        for p in (0.0, 0.1, 0.2):
            ch = depolarizing(p)
            for _ in range(n - 1):
                ch = tensor(ch, depolarizing(p))
            for eps in (0.004, 0.05):
                worst = max(worst, abs(lp_g(n, p, eps).value - bound_g(ch, eps).value))
                worst = max(worst, abs(lp_f(n, p, eps).value - bound_f(ch, eps).value))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 300.0
    report(7, ok, elapsed, 300.0, f" max_diff={worst:.2e}")


def test_criterion_08_diamond_norm_dominates_rate():
    t0 = time.perf_counter()
    rows = run_fig3(steps=26, jobs=1)
    statuses_ok = all(row[3] == "optimal" for row in rows)
    dominated = all(row[1] <= row[2] + 1e-6 for row in rows)
    max_gap = max(row[2] - row[1] for row in rows)
    elapsed = time.perf_counter() - t0
    ok = statuses_ok and dominated and max_gap > 0.01 and elapsed < 180.0
    report(8, ok, elapsed, 180.0, f" max_gap={max_gap:.3f}")


def test_criterion_09_input_optimized_witness():
    t0 = time.perf_counter()
    worst_excess = -math.inf
    worst_cert = 0.0
    for idx in range(10):
        ch = random_channel(2, 2, d_env=2, seed=3000 + idx)
        res = q_gamma(ch, form="primal")
        rng = np.random.default_rng(4000 + idx)
        best = -math.inf
        for _ in range(50):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = g @ g.conj().T + 0.05 * np.eye(2)
            rho /= np.trace(rho).real
            best = max(best, e_w(purified_output(ch, rho)))
        worst_excess = max(worst_excess, best - res.log_value)
        at_cert = e_w(purified_output(ch, res.certificate.rho))
        worst_cert = max(worst_cert, abs(at_cert - res.log_value))
    elapsed = time.perf_counter() - t0
    ok = worst_excess <= 1e-5 and worst_cert < 1e-4 and elapsed < 600.0
    report(
        9, ok, elapsed, 600.0,
        f" max_excess={worst_excess:.2e} max_cert_gap={worst_cert:.2e}",
    )


def test_criterion_10_capacity_below_rate_bound():
    t0 = time.perf_counter()
    worst = -math.inf
    for ch in chain_channels():
        qg = q_gamma(ch).log_value
        for eps in (0.01, 0.05):
            cap = oneshot_capacity(ch, eps, code_class="ppt")
            worst = max(worst, cap - (qg - math.log2(1.0 - eps)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.0
    report(10, ok, elapsed, detail=f" max_excess={worst:.2e}")
