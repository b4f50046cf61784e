"""One-shot coding fidelity SDPs and the derived converse-bound family.

The central object is the optimal code fidelity of a channel for a code of
size k, restricted to codes whose bipartite operator respects positivity of
the partial transpose (class ``ppt``), optionally intersected with the
no-signalling codes (class ``ns_ppt``).  Everything else is a relaxation of
that program: the bounds ``f``, ``g``, ``g_tilde`` and ``g_hat`` trade the
code-size search for a single SDP whose optimum, in -log2 domain, upper
bounds the one-shot capacity.

Each operator (in)equality, such as W <= rho (x) I, is one call of
``ConicProgram.add_operator_constraint`` on sparse matrices of block maps.
Every program is stated on the sectors of the channel's phase symmetry
(``symmetry.phase_sectors``): each variable and each inequality is zero off
the sectors of its grading, so a phase-covariant channel, such as amplitude
damping, gives many small blocks, and any other channel the full ones.

Every channel bound, here and in ``asymptotic``, is built by ``stated``: it
starts the clock, takes the Choi matrix J and the grading, and returns a
copy of the bound's frame (``conic.frame``: the program at J = 0), J and the
reader of the result; the builder adds J.  ``refine`` is the self-improving
loop of ``g_hat_iterate`` and of its LP reduction.
"""
from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .channels import Channel, choi
from .conic import ConicProgram, SolverError, frame, solve
from .matops import bipartite_maps
from .results import BoundResult
from .symmetry import PhaseSectors, phase_sectors

PPT = "ppt"
NS_PPT = "ns_ppt"

# fidelity slack when deciding whether a code size k is achievable
K_SEARCH_TOL = 1e-9

EPS_FLOOR = 1e-12


@dataclass
class FidelityResult:
    """Optimal code fidelity for one code size."""

    k: int
    fidelity: float
    code_class: str


@dataclass
class OneShotCertificate:
    """Primal variables backing a one-shot bound value."""

    W: np.ndarray
    rho: np.ndarray
    S: np.ndarray | None = None
    Theta: np.ndarray | None = None
    t: float | None = None
    value: float | None = None


def check_eps(eps: float) -> float:
    """Validate an error tolerance; eps == 0 is nudged to 1e-12 with a warning."""
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"error tolerance must lie in [0, 1), got {eps}")
    if eps == 0.0:
        warnings.warn(
            f"eps = 0 replaced by {EPS_FLOOR:g} to keep the programs strictly feasible",
            stacklevel=3,
        )
        return EPS_FLOOR
    return float(eps)


def _check_class(code_class: str) -> str:
    if code_class not in (PPT, NS_PPT):
        raise ValueError(f"code class must be {PPT!r} or {NS_PPT!r}, got {code_class!r}")
    return code_class


def fidelity_sdp(
    ch: Channel,
    k: int,
    code_class: str = PPT,
    feas_tol: float = 1e-8,
    gap_tol: float = 1e-8,
) -> FidelityResult:
    """Best fidelity of a size-k code on ``ch`` within the given code class.

    Raises :class:`SolverError` if the solver does not reach an optimal
    certificate at the requested tolerances.
    """
    if k < 1:
        raise ValueError(f"code size must be a positive integer, got {k}")
    _check_class(code_class)
    prog, j, read = stated("fidelity", ch, -1, None, _fidelity_frame, k, code_class)
    prog.set_objective({"W": j.data})
    res = read(solve(prog, feas_tol=feas_tol, gap_tol=gap_tol))
    if res.status != "optimal":
        raise SolverError(f"fidelity program for k={k} ended with {res.status}", res.status)
    return FidelityResult(k=k, fidelity=res.value, code_class=code_class)


def _fidelity_frame(
    dims: tuple[int, int], sec: PhaseSectors, k: int, code_class: str
) -> ConicProgram:
    """``fidelity_sdp``'s frame: its program at J = 0."""
    lift, pt, tr_a, _ = bipartite_maps(dims)
    d_in, d = dims[0], dims[0] * dims[1]
    scale = 1.0 / k
    eye = sp.identity(d * d)
    prog = ConicProgram("max")
    prog.herm_block("W", d, sec.joint)
    prog.herm_block("rho", d_in, sec.inputs)
    prog.add_constraint({"rho": np.eye(d_in)}, "==", 1.0)
    prog.add_operator_constraint({"W": eye, "rho": -lift}, "<=", 0, sec.joint)
    # -rho (x) I / k <= W^TB <= rho (x) I / k
    prog.add_operator_constraint({"W": pt, "rho": -scale * lift}, "<=", 0, sec.transposed)
    prog.add_operator_constraint({"W": pt, "rho": scale * lift}, ">=", 0, sec.transposed)
    if code_class == NS_PPT:
        prog.add_operator_constraint({"W": tr_a}, "==", np.eye(dims[1]) / k**2, sec.outputs)
    return prog


def oneshot_capacity(
    ch: Channel,
    eps: float,
    code_class: str = PPT,
    exhaustive: bool = False,
    feas_tol: float = 1e-8,
    gap_tol: float = 1e-8,
) -> float:
    """log2 of the largest code size with fidelity at least 1 - eps.

    The search ascends k = 1, 2, ... up to d_in and normally stops at the
    first failing size; ``exhaustive`` evaluates every size instead (the
    fidelity is expected, and empirically observed, to be non-increasing
    in k, so the two agree).
    """
    eps = check_eps(eps)
    best = 1
    for k in range(2, ch.d_in + 1):
        res = fidelity_sdp(ch, k, code_class, feas_tol=feas_tol, gap_tol=gap_tol)
        if res.fidelity >= 1.0 - eps - K_SEARCH_TOL:
            best = k
        elif not exhaustive:
            break
    return math.log2(best)


def stated(name: str, ch: Channel, log_sign: int, certificate, build, *args):
    """A channel bound's program, before its Choi matrix J is added: a copy of
    the frame ``build(dims, sectors, *args)``; and J, and the reader of the
    result from a solution, with log2 of the value times ``log_sign`` and
    ``certificate(sol)`` when given and the solution has blocks.  The clock
    starts before J and the grading are taken."""
    t0 = time.perf_counter()
    j = choi(ch).mat
    sec = phase_sectors(ch)
    prog = frame(build, (ch.d_in, ch.d_out), sec, *args)

    def read(sol) -> BoundResult:
        cert = certificate(sol) if certificate is not None and sol.blocks else None
        return BoundResult.from_optimum(
            name, sol.primal_value, sol.status, sol.gap, t0, log_sign=log_sign,
            certificate=cert, iterations=sol.iterations, reason=sol.reason, form=sol.form,
        )

    return prog, j, read


def _certificate(sol) -> OneShotCertificate:
    blk = sol.blocks
    return OneShotCertificate(
        W=blk["W"],
        rho=blk["rho"],
        S=blk.get("S"),
        Theta=blk.get("Theta"),
        t=float(blk["t"][0]) if "t" in blk else None,
        value=sol.primal_value,
    )


def _solved(built, feas_tol: float, gap_tol: float) -> BoundResult:
    """Solve a builder's program and read its result."""
    prog, read = built
    return read(solve(prog, feas_tol=feas_tol, gap_tol=gap_tol))


def _one_shot(name: str, ch: Channel, build, *args):
    """A one-shot bound's program, its frame ``build`` with J in the
    fidelity row tr(JW) >= 1 - eps, and its reader."""
    prog, j, read = stated(name, ch, -1, _certificate, build, *args)
    prog.add_terms(0, {"W": j.data})
    return prog, read


def f_program(ch: Channel, eps: float):
    """``bound_f``'s program on ``ch``, and the reader of its result from
    the program's solution."""
    return _one_shot("f", ch, _f_frame, check_eps(eps))


def _f_frame(dims: tuple[int, int], sec: PhaseSectors, eps: float) -> ConicProgram:
    """``f_program``'s frame: its program at J = 0."""
    lift, pt, _, _ = bipartite_maps(dims)
    d_in, d = dims[0], dims[0] * dims[1]
    eye = sp.identity(d * d)
    prog = ConicProgram("min")
    prog.herm_block("W", d, sec.joint)
    prog.herm_block("rho", d_in, sec.inputs)
    prog.herm_block("S", d_in, sec.inputs)
    prog.herm_block("Theta", d, sec.transposed)
    prog.set_objective({"S": np.eye(d_in)})
    prog.add_constraint({"W": np.zeros((d, d))}, ">=", 1.0 - eps)
    prog.add_constraint({"rho": np.eye(d_in)}, "==", 1.0)
    prog.add_operator_constraint({"W": eye, "rho": -lift}, "<=", 0, sec.joint)
    prog.add_operator_constraint({"W": eye, "Theta": pt, "S": -lift}, "<=", 0, sec.joint)
    return prog


def bound_f(
    ch: Channel, eps: float, feas_tol: float = 1e-8, gap_tol: float = 1e-8
) -> BoundResult:
    """Converse bound without any partial-transpose box on the code operator.

    Minimizes tr S over 0 <= W <= rho (x) I meeting the fidelity target,
    with S (x) I >= W + Theta^TB for some PSD witness Theta.  -log2 of the
    optimum upper bounds the one-shot capacity.
    """
    return _solved(f_program(ch, eps), feas_tol, gap_tol)


def _g_frame(
    dims: tuple[int, int], sec: PhaseSectors, eps: float, with_t: bool, m_hat: float | None
) -> ConicProgram:
    """The g-family frame, the program at J = 0: W^TB boxed by +-S (x) I,
    plus the marginal rows tr_A W = t I_B when ``with_t``, plus
    t >= m_hat**2 when ``m_hat`` is given."""
    lift, pt, tr_a, _ = bipartite_maps(dims)
    d_in, d = dims[0], dims[0] * dims[1]
    eye = sp.identity(d * d)
    prog = ConicProgram("min")
    prog.herm_block("W", d, sec.joint)
    prog.herm_block("rho", d_in, sec.inputs)
    prog.herm_block("S", d_in, sec.inputs)
    if with_t:
        prog.free_block("t", 1)
    prog.set_objective({"S": np.eye(d_in)})
    prog.add_constraint({"W": np.zeros((d, d))}, ">=", 1.0 - eps)
    prog.add_constraint({"rho": np.eye(d_in)}, "==", 1.0)
    prog.add_operator_constraint({"W": eye, "rho": -lift}, "<=", 0, sec.joint)
    prog.add_operator_constraint({"W": pt, "S": -lift}, "<=", 0, sec.transposed)
    prog.add_operator_constraint({"W": pt, "S": lift}, ">=", 0, sec.transposed)
    if with_t:  # t's column is -vec(I_B)
        minus_eye_b = -sp.identity(dims[1]).reshape(dims[1] ** 2, 1)
        prog.add_operator_constraint({"W": tr_a, "t": minus_eye_b}, "==", 0, sec.outputs)
    if m_hat is not None:
        prog.add_constraint({"t": [1.0]}, ">=", m_hat**2)
    return prog


def g_program(ch: Channel, eps: float):
    """``bound_g``'s program and its reader."""
    return _one_shot("g", ch, _g_frame, check_eps(eps), False, None)


def g_tilde_program(ch: Channel, eps: float):
    """``bound_g_tilde``'s program and its reader."""
    return _one_shot("g_tilde", ch, _g_frame, check_eps(eps), True, None)


def bound_g(ch: Channel, eps: float, feas_tol: float = 1e-8, gap_tol: float = 1e-8) -> BoundResult:
    """Converse bound boxing W^TB by +-S (x) I; tighter than ``f``."""
    return _solved(g_program(ch, eps), feas_tol, gap_tol)


def bound_g_tilde(
    ch: Channel, eps: float, feas_tol: float = 1e-8, gap_tol: float = 1e-8
) -> BoundResult:
    """``g`` plus the no-signalling marginal relaxation tr_A W = t I_B."""
    return _solved(g_tilde_program(ch, eps), feas_tol, gap_tol)


def bound_g_hat(
    ch: Channel,
    eps: float,
    m_hat: float,
    feas_tol: float = 1e-8,
    gap_tol: float = 1e-8,
) -> BoundResult:
    """``g_tilde`` plus the self-improving floor t >= m_hat**2.

    ``m_hat`` must be positive; values above 1 make the program infeasible,
    which is reported through the result status.
    """
    eps = check_eps(eps)
    if m_hat <= 0.0:
        raise ValueError(f"m_hat must be positive, got {m_hat}")
    return _solved(_one_shot("g_hat", ch, _g_frame, eps, True, m_hat), feas_tol, gap_tol)


def g_hat_iterate(
    ch: Channel,
    eps: float,
    rounds: int,
    feas_tol: float = 1e-8,
    gap_tol: float = 1e-8,
) -> list[BoundResult]:
    """Iterate the self-improving bound: the floor of each round is the
    previous round's optimum, seeded by the plain ``g`` value.

    Returns one result per round; the value sequence is non-decreasing.
    Raises :class:`SolverError` (annotated with the failing round) if any
    round does not solve to optimality.
    """
    return refine(
        rounds,
        lambda: bound_g(ch, eps, feas_tol=feas_tol, gap_tol=gap_tol),
        lambda m_hat: bound_g_hat(ch, eps, m_hat, feas_tol=feas_tol, gap_tol=gap_tol),
    )


def refine(
    rounds: int, seed: Callable[[], BoundResult], step: Callable[[float], BoundResult]
) -> list[BoundResult]:
    """The self-improving loop: ``step(m_hat)`` for ``rounds`` rounds, the
    floor m_hat of each the previous round's value, seeded by ``seed()``'s.

    Returns one result per round.  Raises :class:`SolverError` (annotated
    with the failing round) if the seed or any round is not optimal.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds}")
    out = [seed()]
    for rnd in range(rounds + 1):
        res = out[-1]
        if res.status != "optimal":
            what = f"round {rnd}" if rnd else "seed"
            raise SolverError(f"{what} ended with status {res.status}", res.status)
        if rnd < rounds:
            out.append(step(res.value))
    return out[1:]
