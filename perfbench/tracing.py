"""Spans around the public names each ``qcap`` layer exposes.

The tracer replaces module attributes with timing wrappers for the length of
the measured loop and puts the originals back afterwards.  It patches the
names where their callers look them up (``qcap.oneshot.solve``,
``qcap.cli.bound_f``, ...), so no code inside ``qcap`` changes.  Spans stay
in memory until the run ends; counts are read from public return values.
"""
from __future__ import annotations

import json
import time

from qcap.conic.program import HERM_PSD


def _solve_counts(args, kwargs, sol) -> dict:
    prog = args[0]
    return {
        "iterations": sol.iterations,
        "status": sol.status,
        "rows": len(prog.rows),
        "psd_entries": sum(b.size * b.size for b in prog.blocks if b.kind == HERM_PSD),
    }


def _linprog_counts(args, kwargs, res) -> dict:
    return {"status": int(res.status)}


class Tracer:
    """Records (name, parent, start, end, counts) for every wrapped call."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, counts=None, **kwargs):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
        if counts is not None:
            rec.update(counts(args, kwargs, out))
        return out

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self.span(name, orig, *args, counts=counts, **kwargs)

        self._patches.append((module, attr, orig))
        setattr(module, attr, wrapper)

    def install(self) -> "Tracer":
        import qcap.asymptotic as asym
        import qcap.cli as cli
        import qcap.depolarizing_lp as dlp
        import qcap.oneshot as oneshot

        self.wrap(oneshot, "solve", "conic.solve", _solve_counts)
        self.wrap(asym, "solve", "conic.solve", _solve_counts)
        for attr in ("bound_f", "bound_g", "bound_g_tilde"):
            self.wrap(cli, attr, f"oneshot.{attr}")
        for attr in ("q_gamma", "q_theta"):
            self.wrap(cli, attr, f"asymptotic.{attr}")
        for attr in ("lp_f", "lp_g_hat_iterate"):
            self.wrap(cli, attr, f"lp.{attr}")
        self.wrap(dlp, "x_coeffs", "lp.x_coeffs")
        self.wrap(dlp, "linprog", "lp.linprog", _linprog_counts)
        for attr in ("run_fig1", "run_fig2", "run_fig3"):
            self.wrap(cli, attr, f"cli.{attr}")
        return self

    def uninstall(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self, rows: int) -> dict[str, float]:
        """Per-layer figures over all spans, normalized by sweep rows.

        A ratio whose layer did not run reads 0.  Self time is a span's
        duration minus that of its direct children.
        """
        dur = {s["id"]: s["end"] - s["start"] for s in self.spans}
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + dur[s["id"]]

        def named(prefix):
            return [s for s in self.spans if s["name"].startswith(prefix)]

        def ratio(num, den):
            return num / den if den else 0.0

        def self_ms(spans):
            return 1e3 * sum(dur[s["id"]] - child_time.get(s["id"], 0.0) for s in spans)

        solves = named("conic.solve")
        iters = sum(s["iterations"] for s in solves)
        solve_s = sum(dur[s["id"]] for s in solves)
        oneshot_b = named("oneshot.")
        asym_b = named("asymptotic.")
        reduce_ = named("lp.x_coeffs")
        lps = named("lp.linprog")
        # cli self time: the benchmark's call of cli.main minus the bound calls
        bounds = oneshot_b + asym_b + named("lp.lp_")
        mains = named("cli.main")
        cli_self = 1e3 * (sum(dur[s["id"]] for s in mains) - sum(dur[s["id"]] for s in bounds))
        return {
            "conic.solves_per_row": ratio(len(solves), rows),
            "conic.iters_per_solve": ratio(iters, len(solves)),
            "conic.nonoptimal": float(sum(s["status"] != "optimal" for s in solves)),
            "conic.solve_ms_per_row": ratio(1e3 * solve_s, rows),
            "conic.ms_per_iter": ratio(1e3 * solve_s, iters),
            "conic.rows_per_solve": ratio(sum(s["rows"] for s in solves), len(solves)),
            "conic.psd_entries_per_solve": ratio(sum(s["psd_entries"] for s in solves), len(solves)),
            "oneshot.build_ms_per_bound": ratio(self_ms(oneshot_b), len(oneshot_b)),
            "asymptotic.build_ms_per_bound": ratio(self_ms(asym_b), len(asym_b)),
            "lp.reduce_calls_per_row": ratio(len(reduce_), rows),
            "lp.reduce_ms_per_row": ratio(1e3 * sum(dur[s["id"]] for s in reduce_), rows),
            "lp.linprog_calls_per_row": ratio(len(lps), rows),
            "lp.linprog_ms_per_row": ratio(1e3 * sum(dur[s["id"]] for s in lps), rows),
            "lp.nonoptimal": float(sum(s["status"] != 0 for s in lps)),
            "cli.self_ms_per_row": ratio(cli_self, rows),
        }
