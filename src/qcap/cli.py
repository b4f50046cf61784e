"""Batch front end: named sweep experiments and single-bound evaluation.

Four experiments are built in.  ``fig1_ad`` sweeps two uses of the
amplitude damping channel and tabulates the one-shot bounds f, g and the
NS-augmented g; ``fig2_depol`` sweeps channel uses of the qubit
depolarizing channel through the symmetric LP reductions; ``fig3_nr``
compares the strong-converse rate bound against the transpose diamond-norm
bound on the qutrit-to-qubit family; ``custom`` evaluates a chosen bound
list over a parameter grid of a named channel family.  Single evaluations
on serialized channels emit one JSON result.

Sweep rows are dispatched to a process pool and written in grid order, so
output is deterministic for a fixed spec.  Numeric cells are emitted at
full precision; rounding is the plot consumer's job.

Exit codes: 0 success, 1 a solver failed on some row (rows still emitted,
marked by the status column), 2 input error.  A row that raised is marked
``error``; its exception type and message go to stderr through the
``qcap.cli`` logger, with the row key as written in the CSV.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .asymptotic import q_gamma, q_theta
from .channels import Channel, amplitude_damping, channel_nr, depolarizing, load_channel, tensor
from .depolarizing_lp import lp_f, lp_g_hat_iterate
from .oneshot import bound_f, bound_g, bound_g_tilde, g_hat_iterate
from .results import BoundResult

EXPERIMENTS = ("fig1_ad", "fig2_depol", "fig3_nr", "custom")
FAMILIES = ("ad", "depol", "nr")
BOUNDS = ("f", "g", "g_tilde", "g_hat", "q_gamma", "q_theta")

_ONESHOT = {"f": bound_f, "g": bound_g, "g_tilde": bound_g_tilde}

_log = logging.getLogger("qcap.cli")


@dataclass
class SweepSpec:
    """Resolved run description; flag > config-file > default per field."""

    experiment: str = "fig1_ad"
    r_min: float | None = None
    r_max: float | None = None
    steps: int | None = None
    n_max: int = 30
    p: float = 0.2
    eps: float | None = None
    rounds: int = 5
    family: str | None = None
    bounds: list[str] | None = None
    out: str | None = None
    jobs: int | None = None
    feas_tol: float = 1e-8
    gap_tol: float = 1e-8
    seed: int | None = None


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _status(*results: BoundResult) -> str:
    for res in results:
        if res.status != "optimal":
            return res.status
    return "optimal"


def _row_failed(key: str, exc: Exception) -> None:
    _log.error("row %s failed: %s: %s", key, type(exc).__name__, exc)


def _fig1_task(args):
    r, eps, feas_tol, gap_tol = args
    try:
        ch = tensor(amplitude_damping(r), amplitude_damping(r))
        f = bound_f(ch, eps, feas_tol=feas_tol, gap_tol=gap_tol)
        g = bound_g(ch, eps, feas_tol=feas_tol, gap_tol=gap_tol)
        gt = bound_g_tilde(ch, eps, feas_tol=feas_tol, gap_tol=gap_tol)
        return (r, f.log_value, g.log_value, gt.log_value, _status(f, g, gt))
    except Exception as exc:
        _row_failed(f"fig1_ad r={_fmt(r)}", exc)
        nan = float("nan")
        return (r, nan, nan, nan, "error")


def _fig2_task(args):
    n, p, eps, rounds = args
    try:
        f = lp_f(n, p, eps)
        gh = lp_g_hat_iterate(n, p, eps, rounds)[-1]
        return (n, f.log_value, gh.log_value, _status(f, gh))
    except Exception as exc:
        _row_failed(f"fig2_depol n={n}", exc)
        nan = float("nan")
        return (n, nan, nan, "error")


def _fig3_task(args):
    r, feas_tol, gap_tol = args
    try:
        ch = channel_nr(r)
        qg = q_gamma(ch, feas_tol=feas_tol, gap_tol=gap_tol)
        qt = q_theta(ch, feas_tol=feas_tol, gap_tol=gap_tol)
        return (r, qg.log_value, qt.log_value, _status(qg, qt))
    except Exception as exc:
        _row_failed(f"fig3_nr r={_fmt(r)}", exc)
        nan = float("nan")
        return (r, nan, nan, "error")


def _eval_bound(ch: Channel, name: str, eps, rounds, feas_tol, gap_tol) -> BoundResult:
    if name in _ONESHOT:
        return _ONESHOT[name](ch, eps, feas_tol=feas_tol, gap_tol=gap_tol)
    if name == "g_hat":
        return g_hat_iterate(ch, eps, rounds, feas_tol=feas_tol, gap_tol=gap_tol)[-1]
    if name == "q_gamma":
        return q_gamma(ch, feas_tol=feas_tol, gap_tol=gap_tol)
    if name == "q_theta":
        return q_theta(ch, feas_tol=feas_tol, gap_tol=gap_tol)
    raise ValueError(f"unknown bound {name!r}")


def _custom_task(args):
    family, r, bounds, eps, rounds, feas_tol, gap_tol = args
    try:
        ch = {"ad": amplitude_damping, "depol": depolarizing, "nr": channel_nr}[family](r)
        results = [_eval_bound(ch, b, eps, rounds, feas_tol, gap_tol) for b in bounds]
        return (r, *(res.log_value for res in results), _status(*results))
    except Exception as exc:
        _row_failed(f"custom {family} r={_fmt(r)}", exc)
        nan = float("nan")
        return (r, *([nan] * len(bounds)), "error")


def _pool_map(task, items, jobs):
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs == 1 or len(items) <= 1:
        return [task(it) for it in items]
    workers = min(jobs or os.cpu_count() or 1, len(items))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, items))


def run_fig1(
    r_min: float = 0.05,
    r_max: float = 0.1,
    steps: int = 11,
    eps: float = 0.01,
    jobs: int | None = None,
    feas_tol: float = 1e-8,
    gap_tol: float = 1e-8,
) -> list[tuple]:
    """Rows (r, -log2 f, -log2 g, -log2 g_tilde, status) for two uses of
    amplitude damping across a damping-rate grid."""
    if not (0.0 <= r_min < r_max <= 1.0):
        raise ValueError(f"need 0 <= r_min < r_max <= 1, got [{r_min}, {r_max}]")
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    grid = np.linspace(r_min, r_max, steps)
    return _pool_map(_fig1_task, [(float(r), eps, feas_tol, gap_tol) for r in grid], jobs)


def run_fig2(
    n_max: int = 30,
    p: float = 0.2,
    eps: float = 0.004,
    rounds: int = 5,
    jobs: int | None = None,
) -> list[tuple]:
    """Rows (n, -log2 f, -log2 g_hat after the given rounds, status) for
    n = 1..n_max uses of the qubit depolarizing channel, via the LPs."""
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    return _pool_map(_fig2_task, [(n, p, eps, rounds) for n in range(1, n_max + 1)], jobs)


def run_fig3(
    steps: int = 26,
    jobs: int | None = None,
    feas_tol: float = 1e-8,
    gap_tol: float = 1e-8,
) -> list[tuple]:
    """Rows (r, rate bound, transpose diamond-norm bound, status) for the
    qutrit-to-qubit family over r in [0, 0.5]."""
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    grid = np.linspace(0.0, 0.5, steps)
    return _pool_map(_fig3_task, [(float(r), feas_tol, gap_tol) for r in grid], jobs)


def run_custom(
    family: str,
    bounds: list[str],
    r_min: float,
    r_max: float,
    steps: int,
    eps: float = 0.01,
    rounds: int = 5,
    jobs: int | None = None,
    feas_tol: float = 1e-8,
    gap_tol: float = 1e-8,
) -> list[tuple]:
    """Rows (r, one -log2/log2 column per requested bound, status) over a
    parameter grid of a named single-parameter channel family."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    bad = [b for b in bounds if b not in BOUNDS]
    if bad:
        raise ValueError(f"unknown bound names {bad}; choose from {BOUNDS}")
    if not bounds:
        raise ValueError("at least one bound is required")
    if steps < 1 or not (r_min <= r_max):
        raise ValueError(f"bad grid [{r_min}, {r_max}] x {steps}")
    grid = np.linspace(r_min, r_max, steps) if steps > 1 else np.array([r_min])
    items = [(family, float(r), tuple(bounds), eps, rounds, feas_tol, gap_tol) for r in grid]
    return _pool_map(_custom_task, items, jobs)


_HEADERS = {
    "fig1_ad": ("r", "neg_log_f", "neg_log_g", "neg_log_g_tilde", "status"),
    "fig2_depol": ("n", "neg_log_f", "neg_log_g_hat", "status"),
    "fig3_nr": ("r", "q_gamma", "q_theta", "status"),
}


def _emit_csv(header, rows, out: str | None) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _build_parser() -> argparse.ArgumentParser:
    par = argparse.ArgumentParser(
        prog="qcap",
        description="Converse bounds on quantum channel capacity: sweep "
        "experiments (CSV) and single-channel evaluation (JSON).",
    )
    par.add_argument("--experiment", choices=EXPERIMENTS, help="named sweep to run")
    par.add_argument("--channel", metavar="FILE", help="channel JSON; evaluates --bound instead of a sweep")
    par.add_argument("--bound", action="append", choices=BOUNDS, help="bound name (repeatable for custom sweeps)")
    par.add_argument("--config", metavar="FILE", help="JSON file with sweep-spec fields; flags override it")
    par.add_argument("--eps", type=float, help="error tolerance for one-shot bounds")
    par.add_argument("--p", type=float, help="depolarizing probability (fig2_depol)")
    par.add_argument("--r-min", type=float, help="grid start")
    par.add_argument("--r-max", type=float, help="grid end")
    par.add_argument("--steps", type=int, help="grid size")
    par.add_argument("--n-max", type=int, help="largest channel-use count (fig2_depol)")
    par.add_argument("--rounds", type=int, help="refinement rounds for g_hat")
    par.add_argument("--family", choices=FAMILIES, help="channel family for custom sweeps")
    par.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
    par.add_argument("--jobs", type=int, help="worker processes (default: logical cores)")
    par.add_argument("--feas-tol", type=float, help="solver feasibility tolerance")
    par.add_argument("--gap-tol", type=float, help="solver gap tolerance")
    par.add_argument("--seed", type=int, help="recorded for reproducibility bookkeeping")
    return par


_FIELDS = {f.name for f in fields(SweepSpec)}


def _resolve_spec(args: argparse.Namespace) -> SweepSpec:
    spec = SweepSpec()
    if args.config is not None:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object of sweep-spec fields")
        unknown = sorted(set(raw) - _FIELDS)
        if unknown:
            raise ValueError(f"unknown config fields {unknown}")
        for key, val in raw.items():
            setattr(spec, key, val)
    overrides = {
        "experiment": args.experiment,
        "r_min": args.r_min,
        "r_max": args.r_max,
        "steps": args.steps,
        "n_max": args.n_max,
        "p": args.p,
        "eps": args.eps,
        "rounds": args.rounds,
        "family": args.family,
        "bounds": args.bound,
        "out": args.out,
        "jobs": args.jobs,
        "feas_tol": args.feas_tol,
        "gap_tol": args.gap_tol,
        "seed": args.seed,
    }
    for key, val in overrides.items():
        if val is not None:
            setattr(spec, key, val)
    if spec.experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {spec.experiment!r}")
    return spec


def _run_eval(args: argparse.Namespace) -> int:
    if not args.bound or len(args.bound) != 1:
        print("error: --channel needs exactly one --bound", file=sys.stderr)
        return 2
    try:
        ch = load_channel(args.channel)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    eps = 0.01 if args.eps is None else args.eps
    rounds = 5 if args.rounds is None else args.rounds
    feas_tol = 1e-8 if args.feas_tol is None else args.feas_tol
    gap_tol = 1e-8 if args.gap_tol is None else args.gap_tol
    try:
        res = _eval_bound(ch, args.bound[0], eps, rounds, feas_tol, gap_tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(res.to_json_dict(), indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0 if res.status == "optimal" else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.channel is not None:
        return _run_eval(args)
    if args.experiment is None and args.config is None:
        print("error: choose --experiment, --config, or --channel", file=sys.stderr)
        return 2
    try:
        spec = _resolve_spec(args)
        if spec.experiment == "fig1_ad":
            rows = run_fig1(
                r_min=0.05 if spec.r_min is None else spec.r_min,
                r_max=0.1 if spec.r_max is None else spec.r_max,
                steps=11 if spec.steps is None else spec.steps,
                eps=0.01 if spec.eps is None else spec.eps,
                jobs=spec.jobs,
                feas_tol=spec.feas_tol,
                gap_tol=spec.gap_tol,
            )
            header = _HEADERS["fig1_ad"]
        elif spec.experiment == "fig2_depol":
            rows = run_fig2(
                n_max=spec.n_max,
                p=spec.p,
                eps=0.004 if spec.eps is None else spec.eps,
                rounds=spec.rounds,
                jobs=spec.jobs,
            )
            header = _HEADERS["fig2_depol"]
        elif spec.experiment == "fig3_nr":
            rows = run_fig3(
                steps=26 if spec.steps is None else spec.steps,
                jobs=spec.jobs,
                feas_tol=spec.feas_tol,
                gap_tol=spec.gap_tol,
            )
            header = _HEADERS["fig3_nr"]
        else:
            if spec.family is None or not spec.bounds:
                raise ValueError("custom sweeps need --family and at least one --bound")
            if spec.r_min is None or spec.r_max is None or spec.steps is None:
                raise ValueError("custom sweeps need --r-min, --r-max, and --steps")
            rows = run_custom(
                family=spec.family,
                bounds=list(spec.bounds),
                r_min=spec.r_min,
                r_max=spec.r_max,
                steps=spec.steps,
                eps=0.01 if spec.eps is None else spec.eps,
                rounds=spec.rounds,
                jobs=spec.jobs,
                feas_tol=spec.feas_tol,
                gap_tol=spec.gap_tol,
            )
            header = ("r", *spec.bounds, "status")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit_csv(header, rows, spec.out)
    return 0 if all(row[-1] == "optimal" for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
