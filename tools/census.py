"""Solve census: every conic solve of a fixed set of bound programs, and a
comparison of two census runs.

    PYTHONPATH=src python tools/census.py run OUT.json
    python tools/census.py compare BEFORE.json AFTER.json

``run`` solves, one after another in this process:

- ``random``: 24 random channels (seeds 0..23; 2->2, 2->3 and 3->2 in turn)
  with f, g and g_tilde at eps 0.01, 0.05 and 0.2, q_gamma in both forms,
  q_theta, the code-fidelity SDP for k = 2 in both code classes, and for
  k = 3 too on the eight 3->2 channels (``fidelity_*_k3``), so that the 1/k
  coefficients are seen, and e_w in both forms on the channel's normalized
  Choi state;
- ``product``: 8 products of two random qubit channels (seeds 1000 + 2i and
  1001 + 2i) with f, g, g_tilde at eps 0.01, q_gamma in both forms and
  q_theta;
- ``nr``: channel_nr at r = 0, 0.02, ..., 0.48 (25 points, 0.22 and 0.38
  among them) with q_gamma in both forms and q_theta;
- ``fig1``: the Fig. 1 grid, f, g and g_tilde at eps 0.01 on two uses of
  amplitude damping for r = 0.05, 0.055, ..., 0.1;
- ``ad3``: f, g and g_tilde at eps 0.01 on three uses of amplitude damping
  for r = 0.05 and 0.09, so that a change that only shows above two uses
  is seen;
- ``ad2``: on two uses of amplitude damping at the Fig. 1 points r = 0.05
  and 0.09, the bounds the ``fig1`` group leaves out, each stated on the
  phase sectors: the code-fidelity SDP for k = 2 in both code classes,
  g_hat by one round of ``g_hat_iterate`` at eps 0.01 (its seed g, recorded
  as ``g_hat_seed``, then the round), q_gamma in both forms and q_theta.

Each solve is recorded with its status, termination reason, the form it
was solved in (``eq`` or ``lmi``), iteration count, objective value, gap and
final residuals, the size of what it solved: its PSD cone count, their
largest side and the rows of the Schur complement it factored, and a digest
of the program it solved: a SHA-256 of its block names, kinds and sizes,
its rows, every block's coefficient triples and its objective, hashed from
the array bytes; under a key
naming the group, the channel, the bound called and the solve's index
within the call.  ``run`` prints per-bound status, reason and form counts, the
median cone count, largest side and Schur rows, and iteration quartiles.
``compare`` prints both summaries, and per bound the median iterations, the
number of solves whose iteration count changed, the number that changed
form and the largest value move, per group and bound the sizes on both
sides, and how many programs' digests changed (a report, not part of the
gate);
it checks the gate for a change to the solver or to a program builder: every
solve optimal on both sides, no bound's median iteration count higher, and
no value moved by more than 1e-7 relative.  It exits 1 if the gate fails.
Both censuses of a ``compare`` are meant to be written by the same tool.

The census is not part of the test suite: a run takes about 22 s (22.3 and
23.2 s for 576 solves on a 2-core x86-64 host with Python 3.11.7, the
``ad3`` group 1.3 s of it, the 16 fidelity solves at k = 3 0.4 s and the
14 ``ad2`` solves 0.5 to 0.8 s).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from collections import defaultdict

import numpy as np

GATE_RTOL = 1e-7
EPS_GRID = (0.01, 0.05, 0.2)
# bound calls whose first solve is another program, recorded under this name
FIRST_SOLVE = {"g_hat": "g_hat_seed"}
RANDOM_DIMS = ((2, 2), (2, 3), (3, 2))


def _cases():
    """Yield (group, channel label, bound name, call) for every census entry;
    each call is meant to run before the next entry is drawn."""
    from qcap import asymptotic, oneshot
    from qcap.channels import amplitude_damping, channel_nr, random_channel, tensor

    def rates(ch):
        yield "q_gamma_primal", lambda: asymptotic.q_gamma(ch)
        yield "q_gamma_dual", lambda: asymptotic.q_gamma(ch, "dual")
        yield "q_theta", lambda: asymptotic.q_theta(ch)

    def one_shot(ch, eps):
        yield "f", lambda: oneshot.bound_f(ch, eps)
        yield "g", lambda: oneshot.bound_g(ch, eps)
        yield "g_tilde", lambda: oneshot.bound_g_tilde(ch, eps)

    for seed in range(24):
        d_in, d_out = RANDOM_DIMS[seed % len(RANDOM_DIMS)]
        ch = random_channel(d_in, d_out, seed=seed)
        label = f"seed={seed} {d_in}x{d_out}"
        for eps in EPS_GRID:
            for bound, call in one_shot(ch, eps):
                yield "random", f"{label} eps={eps}", bound, call
        for bound, call in rates(ch):
            yield "random", label, bound, call
        for cls in (oneshot.PPT, oneshot.NS_PPT):
            yield "random", label, f"fidelity_{cls}", lambda: oneshot.fidelity_sdp(ch, 2, cls)
            if d_in == 3:
                yield "random", label, f"fidelity_{cls}_k3", lambda: oneshot.fidelity_sdp(
                    ch, 3, cls
                )
        state = asymptotic.purified_output(ch, np.eye(d_in) / d_in)
        for form in ("primal", "dual"):
            yield "random", label, f"e_w_{form}", lambda: asymptotic.e_w(state, form)
    for i in range(8):
        seeds = (1000 + 2 * i, 1001 + 2 * i)
        ch = tensor(*(random_channel(2, 2, seed=s) for s in seeds))
        label = f"seeds={seeds[0]},{seeds[1]}"
        for bound, call in one_shot(ch, 0.01):
            yield "product", label, bound, call
        for bound, call in rates(ch):
            yield "product", label, bound, call
    for r in np.linspace(0.0, 0.48, 25).tolist():
        for bound, call in rates(channel_nr(r)):
            yield "nr", f"r={r:.2f}", bound, call
    for r in np.linspace(0.05, 0.1, 11).tolist():
        ch = tensor(amplitude_damping(r), amplitude_damping(r))
        for bound, call in one_shot(ch, 0.01):
            yield "fig1", f"r={r:.3f}", bound, call
    for r in (0.05, 0.09):
        ad = amplitude_damping(r)
        ch = tensor(tensor(ad, ad), ad)
        for bound, call in one_shot(ch, 0.01):
            yield "ad3", f"r={r:.2f}", bound, call
    for r in (0.05, 0.09):
        ad = amplitude_damping(r)
        ch = tensor(ad, ad)
        for cls in (oneshot.PPT, oneshot.NS_PPT):
            yield "ad2", f"r={r:.2f}", f"fidelity_{cls}", lambda: oneshot.fidelity_sdp(ch, 2, cls)
        yield "ad2", f"r={r:.2f}", "g_hat", lambda: oneshot.g_hat_iterate(ch, 0.01, 1)
        for bound, call in rates(ch):
            yield "ad2", f"r={r:.2f}", bound, call


def _digest(prog) -> str:
    """SHA-256 of a program's blocks, rows, coefficient triples and objective."""
    h = hashlib.sha256(prog.sense.encode())
    for blk in prog.blocks:
        h.update(f"|{blk.name}|{blk.kind}|{blk.size}|".encode())
        arrays = [*prog.coefficients(blk.name)]
        if blk.name in prog.objective:
            arrays.append(prog.objective[blk.name])
        for a in arrays:
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
    h.update(np.asarray(prog.rows, dtype=np.float64).tobytes())
    return h.hexdigest()


def run(out: str) -> None:
    import qcap.asymptotic
    import qcap.oneshot
    from qcap.conic import SolverError
    from qcap.conic.lmi import row_counts
    from qcap.conic.program import HERM_PSD

    records = []
    current = {}

    def recording(real):
        def solve(prog, **kwargs):
            sol = real(prog, **kwargs)
            where = (current["group"], current["label"], current["bound"], str(current["solves"]))
            bound = current["bound"]
            if current["solves"] == 0:
                bound = FIRST_SOLVE.get(bound, bound)
            current["solves"] += 1
            sides = [blk.size for blk in prog.blocks if blk.kind == HERM_PSD]
            records.append(
                {
                    "key": " | ".join(where),
                    "group": current["group"],
                    "bound": bound,
                    "status": sol.status,
                    "reason": sol.reason,
                    "form": sol.form,
                    "iterations": sol.iterations,
                    "value": sol.primal_value,
                    "gap": sol.gap,
                    "primal_residual": sol.primal_residual,
                    "dual_residual": sol.dual_residual,
                    "psd_cones": len(sides),
                    "max_side": max(sides, default=0),
                    "schur_rows": row_counts(prog)[sol.form == "lmi"],
                    "digest": _digest(prog),
                }
            )
            return sol

        return solve

    for module in (qcap.oneshot, qcap.asymptotic):
        module.solve = recording(module.solve)
    t0 = time.perf_counter()
    for group, label, bound, call in _cases():
        current.update(group=group, label=label, bound=bound, solves=0)
        try:
            call()
        except SolverError:
            pass  # the failing solve is recorded with its status
    meta = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "wall_s": round(time.perf_counter() - t0, 1),
    }
    with open(out, "w") as fh:
        json.dump({"meta": meta, "solves": records}, fh, indent=1)
    print(f"{len(records)} solves in {meta['wall_s']} s -> {out}")
    print(_summary(records))


def _load(path: str) -> list[dict]:
    with open(path) as fh:
        return json.load(fh)["solves"]


def _by_bound(records) -> dict[str, list[dict]]:
    out = defaultdict(list)
    for rec in records:
        out[rec["bound"]].append(rec)
    return dict(sorted(out.items()))


def _counts(recs, field: str) -> str:
    counts = defaultdict(int)
    for rec in recs:
        counts[rec[field]] += 1
    return ", ".join(f"{k} {v}" for k, v in sorted(counts.items()))


def _sizes(recs) -> str:
    """Median PSD cone count, largest side and Schur rows."""
    return "/".join(
        f"{np.median([rec[f] for rec in recs]):g}" for f in ("psd_cones", "max_side", "schur_rows")
    )


def _summary(records) -> str:
    head = (
        f"{'bound':18s} {'solves':>6s}  {'status counts':24s} {'reason counts':24s} "
        f"{'form counts':16s} {'cones/side/rows':16s} iterations min/q1/median/q3/max"
    )
    lines = [head]
    for bound, recs in _by_bound(records).items():
        q = np.percentile([rec["iterations"] for rec in recs], [0, 25, 50, 75, 100])
        iters = "/".join(f"{v:g}" for v in q)
        status, reason, form = (_counts(recs, f) for f in ("status", "reason", "form"))
        lines.append(
            f"{bound:18s} {len(recs):6d}  {status:24s} {reason:24s} {form:16s} "
            f"{_sizes(recs):16s} {iters}"
        )
    return "\n".join(lines)


def _rel(a, b) -> float:
    if a is None or b is None:
        return float("inf")
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _digest_changes(old: dict, new: dict) -> str:
    """How many solves of both censuses solved another program."""
    keys = old.keys() & new.keys()
    return f"{sum(old[k]['digest'] != new[k]['digest'] for k in keys)} of {len(keys)}"


def compare(before_path: str, after_path: str) -> int:
    before, after = _load(before_path), _load(after_path)
    print(f"== {before_path}\n{_summary(before)}\n\n== {after_path}\n{_summary(after)}\n")
    failures = []
    old = {rec["key"]: rec for rec in before}
    new = {rec["key"]: rec for rec in after}
    if old.keys() != new.keys():
        failures.append(
            f"solve keys differ: {len(old.keys() - new.keys())} only before, "
            f"{len(new.keys() - old.keys())} only after"
        )
    bad = [rec["key"] for rec in before + after if rec["status"] != "optimal"]
    if bad:
        failures.append(f"{len(bad)} solves not optimal, e.g. {bad[0]}")
    print(
        f"{'bound':18s} median iterations   iterations changed   form changed    "
        "max relative value change"
    )
    for bound, recs in _by_bound(after).items():
        pairs = [(old[rec["key"]], rec) for rec in recs if rec["key"] in old]
        if not pairs:
            continue
        med_old = float(np.median([o["iterations"] for o, _ in pairs]))
        med_new = float(np.median([n["iterations"] for _, n in pairs]))
        changed = sum(o["iterations"] != n["iterations"] for o, n in pairs)
        reformed = sum(o["form"] != n["form"] for o, n in pairs)
        worst = max(_rel(o["value"], n["value"]) for o, n in pairs)
        moved = f"{med_old:g} -> {med_new:g}"
        print(
            f"{bound:18s} {moved:20s} {f'{changed} of {len(pairs)}':20s} "
            f"{f'{reformed} of {len(pairs)}':15s} {worst:.2e}"
        )
        if med_new > med_old:
            failures.append(f"{bound}: median iterations rose from {med_old:g} to {med_new:g}")
        if worst > GATE_RTOL:
            failures.append(f"{bound}: a value moved by {worst:.2e} relative")
    print(f"\n{'group':8s} {'bound':18s} median cones/side/rows, before -> after")
    groups = defaultdict(list)
    for rec in after:
        groups[(rec["group"], rec["bound"])].append(rec)
    for (group, bound), recs in sorted(groups.items()):
        olds = [old[rec["key"]] for rec in recs if rec["key"] in old]
        print(f"{group:8s} {bound:18s} {_sizes(olds)} -> {_sizes(recs)}")
    print(f"\nprograms whose digest changed: {_digest_changes(old, new)}")
    print("\ngate: " + ("pass" if not failures else "FAIL\n  " + "\n  ".join(failures)))
    return 1 if failures else 0


def main(argv=None) -> int:
    par = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = par.add_subparsers(dest="command", required=True)
    sub.add_parser("run", help="run the census").add_argument("out", help="JSON output file")
    cmp = sub.add_parser("compare", help="compare two census runs and check the gate")
    cmp.add_argument("before")
    cmp.add_argument("after")
    args = par.parse_args(argv)
    if args.command == "run":
        run(args.out)
        return 0
    return compare(args.before, args.after)


if __name__ == "__main__":
    sys.exit(main())
