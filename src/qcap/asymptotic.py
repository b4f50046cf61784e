"""Strong-converse rate bounds and the entanglement quantities behind them.

``q_gamma`` is an SDP-computable rate that upper bounds quantum capacity
with the strong-converse property; it is additive under tensor products and
equals log2 d on the d-dimensional identity.  ``q_theta`` bounds it from
above by the completely bounded trace norm of the channel composed with
transposition.  ``e_w`` is the entanglement witness maximum underpinning the
max-relative-entropy characterization checked through ``d_max``.

The rate programs are stated on the sectors of the channel's phase symmetry
(``symmetry.phase_sectors``), as the one-shot programs are: each variable and
each operator (in)equality is zero off the sectors of its grading.

- ``q_gamma`` primal: R on ``joint``, rho on ``inputs``, and the box
  -rho (x) I <= R^TB <= rho (x) I on ``transposed``;
- ``q_gamma`` dual: V and Y on ``transposed``, (V - Y)^TB >= J on ``joint``,
  and tr_B(V + Y) <= mu I on ``inputs``;
- ``q_theta``: G's sector k is ``transposed`` sector k of its top half
  joined with the same sector of its bottom half, rho0 and rho1 are on
  ``inputs``, and the equalities of G's diagonal blocks on ``transposed``.

A phase-covariant channel, such as ``channel_nr``, so gives small blocks,
and any other channel the full ones.  ``e_w`` takes a state, not a channel,
and stays dense.  The rate programs are built as the one-shot ones are, by
``oneshot.stated``: each is a copy of its frame, to which the builder adds
the Choi matrix, and ``q_gamma`` and ``q_theta`` solve it here.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .channels import Channel, choi
from .conic import ConicProgram, SolverError, solve
from .matops import HermMat, bipartite_maps, partial_transpose
from .oneshot import stated
from .results import BoundResult
from .symmetry import PhaseSectors

SUPPORT_RTOL = 1e-10


@dataclass
class GammaCertificate:
    """Optimal variables of the rate SDP, primal and/or dual form."""

    value: float
    R: np.ndarray | None = None
    rho: np.ndarray | None = None
    V: np.ndarray | None = None
    Y: np.ndarray | None = None
    mu: float | None = None


def q_gamma_program(ch: Channel, form: str = "primal"):
    """``q_gamma``'s program on ``ch`` in ``form``, and the reader of its
    result from the program's solution.

    The primal puts R on the joint grading, rho on the inputs and the box on
    the transposed grading; the dual puts V and Y on the transposed grading,
    (V - Y)^TB >= J on the joint one and tr_B(V + Y) <= mu I on the inputs.
    """
    if form not in ("primal", "dual"):
        raise ValueError(f"form must be 'primal' or 'dual', got {form!r}")
    prog, j, read = stated("q_gamma", ch, 1, _gamma_certificate, _q_gamma_frame, form)
    if form == "primal":
        prog.set_objective({"R": j.data})
    else:
        prog.set_rhs(0, j.data)  # (V - Y)^TB >= J, the first rows
    return prog, read


def _gamma_certificate(sol) -> GammaCertificate:
    """The primal certificate when the solution has R, else the dual one."""
    value = float("nan") if sol.primal_value is None else float(sol.primal_value)
    blk = sol.blocks
    if "R" in blk:
        return GammaCertificate(value, R=blk["R"], rho=blk["rho"])
    return GammaCertificate(value, V=blk["V"], Y=blk["Y"], mu=float(blk["mu"][0]))


def _q_gamma_frame(dims: tuple[int, int], sec: PhaseSectors, form: str) -> ConicProgram:
    """``q_gamma_program``'s frame in ``form``: its program at J = 0."""
    d_in, d = dims[0], dims[0] * dims[1]
    lift, pt, _, tr_b = bipartite_maps(dims)
    if form == "primal":
        prog = ConicProgram("max")
        prog.herm_block("R", d, sec.joint)
        prog.herm_block("rho", d_in, sec.inputs)
        prog.add_constraint({"rho": np.eye(d_in)}, "==", 1.0)
        prog.add_operator_constraint({"R": pt, "rho": -lift}, "<=", 0, sec.transposed)
        prog.add_operator_constraint({"R": pt, "rho": lift}, ">=", 0, sec.transposed)
        return prog
    prog = ConicProgram("min")
    prog.herm_block("V", d, sec.transposed)
    prog.herm_block("Y", d, sec.transposed)
    prog.free_block("mu", 1)
    prog.set_objective({"mu": [1.0]})
    prog.add_operator_constraint({"V": pt, "Y": -pt}, ">=", 0, sec.joint)
    minus_eye_a = -sp.identity(d_in).reshape(d_in**2, 1)  # mu's column is -vec(I_A)
    prog.add_operator_constraint({"V": tr_b, "Y": tr_b, "mu": minus_eye_a}, "<=", 0, sec.inputs)
    return prog


def q_gamma(
    ch: Channel,
    form: str = "primal",
    feas_tol: float = 1e-8,
    gap_tol: float = 1e-8,
) -> BoundResult:
    """Strong-converse rate bound; ``log_value`` is the rate in qubits.

    ``form='primal'`` maximizes tr(J R) over states rho and operators R with
    -rho (x) I <= R^TB <= rho (x) I; ``form='dual'`` minimizes mu over PSD
    V, Y with (V - Y)^TB >= J and tr_B(V + Y) <= mu I.  Both give the same
    value within solver tolerance, and each carries its own certificate.
    """
    prog, read = q_gamma_program(ch, form)
    return read(solve(prog, feas_tol=feas_tol, gap_tol=gap_tol))


def e_w(
    rho: HermMat,
    form: str = "primal",
    feas_tol: float = 1e-8,
    gap_tol: float = 1e-8,
) -> float:
    """log2 of the partial-transpose witness maximum of a bipartite state.

    ``form='primal'`` maximizes tr(rho R) over R >= 0 with -I <= R^TB <= I;
    ``form='dual'`` minimizes the trace norm of X^TB over X >= rho.  States
    with trace below one are accepted.
    """
    if form not in ("primal", "dual"):
        raise ValueError(f"form must be 'primal' or 'dual', got {form!r}")
    if len(rho.dims) != 2:
        raise ValueError(f"expected a bipartite operator, got dims {rho.dims}")
    lo = float(np.linalg.eigvalsh(rho.data)[0])
    if lo < -1e-8:
        raise ValueError(f"state is not positive semidefinite (min eig {lo:g})")
    pt = bipartite_maps(rho.dims)[1]
    d = rho.side

    if form == "primal":
        prog = ConicProgram("max")
        prog.herm_block("R", d)
        prog.set_objective({"R": rho.data})
        prog.add_operator_constraint({"R": pt}, "<=", np.eye(d))
        prog.add_operator_constraint({"R": pt}, ">=", -np.eye(d))
    else:
        prog = ConicProgram("min")
        prog.herm_block("Z", d)  # X = rho + Z
        prog.herm_block("P", d)
        prog.herm_block("Q", d)
        prog.set_objective({"P": np.eye(d), "Q": np.eye(d)})
        # P - Q = X^TB
        eye = sp.identity(d * d)
        prog.add_operator_constraint(
            {"Z": pt, "P": -eye, "Q": eye}, "==", -partial_transpose(rho, 1).data
        )

    sol = solve(prog, feas_tol=feas_tol, gap_tol=gap_tol)
    if sol.status != "optimal":
        raise SolverError(f"witness program ended with {sol.status}", sol.status)
    return math.log2(float(sol.primal_value))


def d_max(rho: HermMat, sigma: HermMat) -> float:
    """Max-relative entropy log2 min{mu : rho <= mu sigma}, computed spectrally.

    Support violations (rho not inside the support of sigma) return +inf and
    emit a warning.  No conic solve is involved.
    """
    if rho.side != sigma.side:
        raise ValueError("operators must have equal side")
    w, v = np.linalg.eigh(sigma.data)
    top = float(w[-1])
    if top <= 0.0:
        warnings.warn("reference operator is zero; max-relative entropy is +inf")
        return float("inf")
    keep = w > SUPPORT_RTOL * top
    v_out = v[:, ~keep]
    if v_out.shape[1]:
        leak = float(np.linalg.norm(v_out.conj().T @ rho.data @ v_out))
        if leak > 1e-10 * max(1.0, float(np.abs(rho.data).max())):
            warnings.warn("state leaves the support of the reference; returning +inf")
            return float("inf")
    v_in = v[:, keep]
    inv_sqrt = v_in * (1.0 / np.sqrt(w[keep]))[None, :]
    core = inv_sqrt.conj().T @ rho.data @ inv_sqrt
    lam = float(np.linalg.eigvalsh(0.5 * (core + core.conj().T))[-1])
    if lam <= 0.0:
        return float("-inf")
    return math.log2(lam)


def purified_output(ch: Channel, rho_a: np.ndarray) -> HermMat:
    """Bipartite state (rho^1/2 (x) I) J (rho^1/2 (x) I) of a channel.

    ``rho_a`` must be a density matrix on the input space; rank-deficient
    inputs are handled through the pseudo square root (with a warning).
    """
    rho_a = np.asarray(rho_a, dtype=np.complex128)
    if rho_a.shape != (ch.d_in, ch.d_in):
        raise ValueError(f"state must be {ch.d_in}x{ch.d_in}, got {rho_a.shape}")
    if abs(np.trace(rho_a).real - 1.0) > 1e-8:
        raise ValueError("input state must have unit trace")
    w, v = np.linalg.eigh(0.5 * (rho_a + rho_a.conj().T))
    if w[0] < -1e-8:
        raise ValueError(f"input state is not positive semidefinite (min eig {w[0]:g})")
    if np.any(w < 1e-12):
        warnings.warn("singular input state; using the pseudo square root")
    root = (v * np.sqrt(np.clip(w, 0.0, None))[None, :]) @ v.conj().T
    lift = np.kron(root, np.eye(ch.d_out))
    j = choi(ch)
    out = lift @ j.mat.data @ lift.conj().T
    out = 0.5 * (out + out.conj().T)
    return HermMat(out, (ch.d_in, ch.d_out))


def q_theta_program(ch: Channel):
    """``q_theta``'s program on ``ch``, and the reader of its result from
    the program's solution.

    G's sector k is the transposed sector k of its top half joined with the
    same sector of its bottom half: J^TB, and so G's optimal off-diagonal
    block, is transposed-graded.  rho0 and rho1 are on the inputs, and the
    equalities of G's diagonal blocks on the transposed grading.
    """
    prog, j, read = stated("q_theta", ch, 1, None, _q_theta_frame)
    d = ch.d_in * ch.d_out
    jt = partial_transpose(j, 1).data
    cost = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    cost[:d, d:] = 0.5 * jt
    cost[d:, :d] = 0.5 * jt.conj().T
    prog.set_objective({"G": cost})
    return prog, read


def _q_theta_frame(dims: tuple[int, int], sec: PhaseSectors) -> ConicProgram:
    """``q_theta_program``'s frame: its program at J = 0."""
    d_in, d = dims[0], dims[0] * dims[1]
    lift = bipartite_maps(dims)[0]
    prog = ConicProgram("max")
    prog.herm_block("G", 2 * d, [p + tuple(d + i for i in p) for p in sec.transposed])
    prog.herm_block("rho0", d_in, sec.inputs)
    prog.herm_block("rho1", d_in, sec.inputs)
    prog.add_constraint({"rho0": np.eye(d_in)}, "==", 1.0)
    prog.add_constraint({"rho1": np.eye(d_in)}, "==", 1.0)
    # G's diagonal blocks, selected from its vec, are rho0 (x) I and rho1 (x) I
    vec = np.arange(4 * d * d).reshape(2 * d, 2 * d)
    for o, rho in ((0, "rho0"), (d, "rho1")):
        sel = (np.ones(d * d), (np.arange(d * d), vec[o : o + d, o : o + d].ravel()))
        corner = sp.csc_array(sel, shape=(d * d, 4 * d * d))
        prog.add_operator_constraint({"G": corner, rho: -lift}, "==", 0, sec.transposed)
    return prog


def q_theta(
    ch: Channel,
    feas_tol: float = 1e-8,
    gap_tol: float = 1e-8,
) -> BoundResult:
    """log2 of the completely bounded trace norm of the channel composed
    with transposition; upper bounds the ``q_gamma`` rate.

    The norm is the SDP maximum of Re tr(J^TB X) over off-diagonal blocks X
    of a PSD matrix whose diagonal blocks are rho0 (x) I and rho1 (x) I for
    density matrices rho0, rho1.
    """
    prog, read = q_theta_program(ch)
    return read(solve(prog, feas_tol=feas_tol, gap_tol=gap_tol))


def strong_converse_error(n_uses: int, rate: float, q_value: float) -> float:
    """Error floor forced after n uses at a rate above a strong-converse bound.

    Returns max(0, 1 - 2^{n (q_value - rate)}), clamped to [0, 1].
    """
    if n_uses < 1:
        raise ValueError(f"n_uses must be at least 1, got {n_uses}")
    exponent = n_uses * (q_value - rate)
    if exponent >= 0.0:
        return 0.0
    return min(1.0, 1.0 - 2.0**exponent)
