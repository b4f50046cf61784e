"""Batch front end: named sweep experiments and single-bound evaluation.

Four experiments are built in.  ``fig1_ad`` sweeps two uses of the
amplitude damping channel and tabulates the one-shot bounds f, g and the
NS-augmented g; ``fig2_depol`` sweeps channel uses of the qubit
depolarizing channel through the symmetric LP reductions; ``fig3_nr``
compares the strong-converse rate bound against the transpose diamond-norm
bound on the qutrit-to-qubit family; ``custom`` evaluates a chosen bound
list over a parameter grid of a named channel family.  Single evaluations
on serialized channels emit one JSON result.

Each experiment is data for one sweep runner: a grid of keys, a channel
builder and a bound list.  The keys are split into contiguous chunks, one
per worker process (a single chunk with ``--jobs 1``), and each chunk is
computed bound by bound: a bound that is one conic program (f, g, g_tilde,
q_gamma, q_theta) has every row's program built and then solved together
by one ``conic.solve_all``, which iterates the programs of one shape in
lockstep; each value is the one a solve of that row alone gives, to the
bit.  The rows of one phase grading share the program's frame (the program
at J = 0, ``conic.frame``, keyed by its builder and the builder's
arguments): it is built once, each row copies it and adds its Choi matrix,
and the frames live only while the column is built, so that no frame
outlives one call.  ``g_hat`` and the LP bounds are
evaluated row by row.  Rows are written in grid order, so output is
deterministic for a fixed spec.  Numeric cells are emitted at full
precision; rounding is the plot consumer's job.

Exit codes: 0 success, 1 a solver failed on some row (rows still emitted,
marked by the status column), 2 input error.  A row that raised is marked
``error``; its exception type and message go to stderr through the
``qcap.cli`` logger, with the row key as written in the CSV.
"""
from __future__ import annotations

import argparse
import inspect
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .asymptotic import q_gamma, q_gamma_program, q_theta, q_theta_program
from .channels import Channel, amplitude_damping, channel_nr, depolarizing, load_channel, tensor
from .conic import shared_frames, solve_all
from .depolarizing_lp import lp_f, lp_g_hat_iterate
from .oneshot import (
    bound_f, bound_g, bound_g_tilde, f_program, g_hat_iterate, g_program, g_tilde_program,
)
from .results import BoundResult

_FAMILIES = {"ad": amplitude_damping, "depol": depolarizing, "nr": channel_nr}
FAMILIES = tuple(_FAMILIES)
BOUNDS = ("f", "g", "g_tilde", "g_hat", "q_gamma", "q_theta")

_log = logging.getLogger("qcap.cli")


@dataclass
class SweepSpec:
    """Resolved run description; flag > config file > the runner's default.

    Each field is also the ``dest`` of the flag that sets it."""

    experiment: str = "fig1_ad"
    r_min: float | None = None
    r_max: float | None = None
    steps: int | None = None
    n_max: int | None = None
    p: float | None = None
    eps: float | None = None
    rounds: int | None = None
    family: str | None = None
    bounds: list[str] | None = None
    out: str | None = None
    jobs: int | None = None
    feas_tol: float | None = None
    gap_tol: float | None = None


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _status(*results: BoundResult) -> str:
    for res in results:
        if res.status != "optimal":
            return res.status
    return "optimal"


def _eval_bound(ch, name, eps=0.01, rounds=5, feas_tol=1e-8, gap_tol=1e-8) -> BoundResult:
    """One named bound on a channel, or on ``(n, p)``: n uses of the qubit
    depolarizing channel, through the LP reductions.

    The bound functions are looked up in this module at call time, so a
    patched name is the one that runs.
    """
    tol = {"feas_tol": feas_tol, "gap_tol": gap_tol}
    if isinstance(ch, tuple):
        if name == "f":
            return lp_f(*ch, eps)
        if name == "g_hat":
            return lp_g_hat_iterate(*ch, eps, rounds)[-1]
    elif name == "f":
        return bound_f(ch, eps, **tol)
    elif name == "g":
        return bound_g(ch, eps, **tol)
    elif name == "g_tilde":
        return bound_g_tilde(ch, eps, **tol)
    elif name == "g_hat":
        return g_hat_iterate(ch, eps, rounds, **tol)[-1]
    elif name == "q_gamma":
        return q_gamma(ch, **tol)
    elif name == "q_theta":
        return q_theta(ch, **tol)
    raise ValueError(f"unknown bound {name!r}")


def _program(ch, name, eps=0.01):
    """The program of bound ``name`` on ``ch`` and its reader, or None when
    the bound is not one conic program.  As in ``_eval_bound``, the builders
    are looked up in this module at call time."""
    if isinstance(ch, tuple):
        return None
    if name == "f":
        return f_program(ch, eps)
    if name == "g":
        return g_program(ch, eps)
    if name == "g_tilde":
        return g_tilde_program(ch, eps)
    if name == "q_gamma":
        return q_gamma_program(ch)
    if name == "q_theta":
        return q_theta_program(ch)
    return None


def _attempt(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return exc


def _column(name, chans, eps=0.01, rounds=5, feas_tol=1e-8, gap_tol=1e-8) -> list:
    """Bound ``name`` on each of ``chans``, as a BoundResult or the exception
    that its row raised.  Every program is built first, each as a copy of
    its frame, which is built once per phase grading and dropped before the
    solve, and all of them are solved by one ``solve_all``; should that
    raise, each program is solved alone, so that the exception falls on its
    own row.  A bound that is not one program is evaluated channel by
    channel."""
    with shared_frames():
        built = [_attempt(_program, ch, name, eps) for ch in chans]
    if any(b is None for b in built):
        opts = {"eps": eps, "rounds": rounds, "feas_tol": feas_tol, "gap_tol": gap_tol}
        return [_attempt(_eval_bound, ch, name, **opts) for ch in chans]
    progs = [b[0] for b in built if not isinstance(b, Exception)]
    try:
        sols = solve_all(progs, feas_tol, gap_tol)
    except Exception:
        sols = [_attempt(solve_all, [prog], feas_tol, gap_tol) for prog in progs]
        sols = [sol if isinstance(sol, Exception) else sol[0] for sol in sols]
    out, sols = [], iter(sols)
    for b in built:
        sol = b if isinstance(b, Exception) else next(sols)
        out.append(sol if isinstance(sol, Exception) else _attempt(b[1], sol))
    return out


def _ad_pair(r: float) -> Channel:
    return tensor(amplitude_damping(r), amplitude_damping(r))


def _depol_uses(p: float, n: int) -> tuple[int, float]:
    return n, p


def _rows(task) -> list[tuple]:
    """Sweep rows of a chunk of keys, bound column by bound column: (key,
    the log-domain value of each bound, status).  A row that raised, in its
    channel build or in any bound, is ``error``; the others are unaffected."""
    label, keys, build, bounds, opts = task
    got = [_attempt(build, key) for key in keys]  # each row's channel, or its exception
    cols = []
    for name in bounds:
        live = [i for i, ch in enumerate(got) if not isinstance(ch, Exception)]
        col = dict(zip(live, _column(name, [got[i] for i in live], **opts)))
        for i, res in col.items():
            if isinstance(res, Exception):
                got[i] = res
        cols.append(col)
    rows = []
    for i, key in enumerate(keys):
        if isinstance(got[i], Exception):
            exc = got[i]
            _log.error("row %s=%s failed: %s: %s", label, _fmt(key), type(exc).__name__, exc)
            rows.append((key, *([float("nan")] * len(bounds)), "error"))
        else:
            results = [col[i] for col in cols]
            rows.append((key, *(res.log_value for res in results), _status(*results)))
    return rows


def _sweep(label: str, keys, build, bounds, jobs: int | None, **opts) -> list[tuple]:
    """Evaluate ``bounds`` on ``build(key)`` for each key, one row per key in
    key order, serially or in contiguous chunks of keys on a process pool of
    ``jobs`` workers.

    ``label`` names the row key in failure logs, e.g. ``"fig2_depol n"``;
    ``build`` must pickle, and ``opts`` go to every bound.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    keys = list(keys)
    workers = 1 if jobs == 1 else min(jobs or os.cpu_count() or 1, len(keys))
    size = -(-len(keys) // max(workers, 1))
    tasks = [(label, keys[i : i + size], build, tuple(bounds), opts) for i in range(0, len(keys), size)]
    if len(tasks) <= 1:
        return [row for task in tasks for row in _rows(task)]
    with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
        return [row for rows in pool.map(_rows, tasks) for row in rows]


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
    grid = np.linspace(r_min, r_max, steps).tolist()
    opts = {"eps": eps, "feas_tol": feas_tol, "gap_tol": gap_tol}
    return _sweep("fig1_ad r", grid, _ad_pair, ("f", "g", "g_tilde"), jobs, **opts)


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
    keys, build = range(1, n_max + 1), partial(_depol_uses, p)
    return _sweep("fig2_depol n", keys, build, ("f", "g_hat"), jobs, eps=eps, rounds=rounds)


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
    grid = np.linspace(0.0, 0.5, steps).tolist()
    opts = {"feas_tol": feas_tol, "gap_tol": gap_tol}
    return _sweep("fig3_nr r", grid, channel_nr, ("q_gamma", "q_theta"), jobs, **opts)


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
    grid = np.linspace(r_min, r_max, steps).tolist()
    opts = {"eps": eps, "rounds": rounds, "feas_tol": feas_tol, "gap_tol": gap_tol}
    return _sweep(f"custom {family} r", grid, _FAMILIES[family], bounds, jobs, **opts)


# Each experiment as main runs it: the name of its run_* function (looked up
# at call time, so a patched runner is the one that runs), that function's
# parameters, which are all SweepSpec fields, and the CSV columns before
# "status" (a custom sweep has "r" and its bound names).
_EXPERIMENTS = {
    name: (fn.__name__, tuple(inspect.signature(fn).parameters), columns)
    for name, fn, columns in (
        ("fig1_ad", run_fig1, ("r", "neg_log_f", "neg_log_g", "neg_log_g_tilde")),
        ("fig2_depol", run_fig2, ("n", "neg_log_f", "neg_log_g_hat")),
        ("fig3_nr", run_fig3, ("r", "q_gamma", "q_theta")),
        ("custom", run_custom, None),
    )
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def _write(text: str, out: str | None) -> None:
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
    par.add_argument(
        "--bound", dest="bounds", action="append", choices=BOUNDS,
        help="bound name (repeatable for custom sweeps)",
    )
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
    return par


_FIELDS = {f.name for f in fields(SweepSpec)}
_HINTS = get_type_hints(SweepSpec)


def _config_value(key: str, val):
    """``val`` if it has the type of SweepSpec field ``key``; a JSON integer
    passes for a float."""
    kinds = get_args(_HINTS[key]) or (_HINTS[key],)
    want = kinds[0]
    if get_origin(want) is list:
        ok = isinstance(val, list) and all(isinstance(v, get_args(want)[0]) for v in val)
    else:
        ok = isinstance(val, (int, float) if want is float else want) and not isinstance(val, bool)
    if not ok and not (val is None and type(None) in kinds):
        hint = SweepSpec.__annotations__[key]
        raise ValueError(f"config field {key!r} must be {hint}, got {val!r}")
    return val


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
            setattr(spec, key, _config_value(key, val))
    for key in _FIELDS:
        if getattr(args, key) is not None:
            setattr(spec, key, getattr(args, key))
    if spec.experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {spec.experiment!r}")
    if spec.experiment == "custom":
        if spec.family is None or not spec.bounds:
            raise ValueError("custom sweeps need --family and at least one --bound")
        if spec.r_min is None or spec.r_max is None or spec.steps is None:
            raise ValueError("custom sweeps need --r-min, --r-max, and --steps")
    return spec


def _run_eval(args: argparse.Namespace) -> int:
    if not args.bounds or len(args.bounds) != 1:
        print("error: --channel needs exactly one --bound", file=sys.stderr)
        return 2
    try:
        ch = load_channel(args.channel)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = ("eps", "rounds", "feas_tol", "gap_tol")
    opts = {k: getattr(args, k) for k in names if getattr(args, k) is not None}
    try:
        res = _eval_bound(ch, args.bounds[0], **opts)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    _write(json.dumps(res.to_json_dict(), indent=2) + "\n", args.out)
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
        runner, names, columns = _EXPERIMENTS[spec.experiment]
        kwargs = {k: getattr(spec, k) for k in names if getattr(spec, k) is not None}
        rows = globals()[runner](**kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    header = (*(columns or ("r", *spec.bounds)), "status")
    lines = [",".join(header), *(",".join(_fmt(cell) for cell in row) for row in rows)]
    _write("\n".join(lines) + "\n", spec.out)
    return 0 if all(row[-1] == "optimal" for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
