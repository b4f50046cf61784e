"""Interior-point solver for the block conic programs.

The method is a primal-dual path follower on the homogeneous self-dual
embedding, so genuinely infeasible or unbounded programs terminate with a
certificate instead of diverging.  Semidefinite blocks are carried as complex
Hermitian matrices throughout, so every iterate, scaling point and search
direction keeps the complex structure by construction; the Nesterov-Todd
scaling is computed on the complex block.  Search directions come from a
Mehrotra predictor-corrector step, reduced to one factorization of the Schur
complement.

The iteration is the one of the real symmetric embedding
[[Re H, -Im H], [Im H, Re H]] of each block.  The embedding pairs two blocks
by ``<A, B> = 2 Re tr(A B)``, twice their complex trace pairing, and a
side-s block contributes 2s to the barrier parameter.  Working on the
complex matrices instead of their 2s x 2s embeddings removes the component
outside the embedding's image, which no row and no objective term can see
and which roundoff would otherwise let grow until the scaling breaks down.

Stacks.  Assembly groups the cones into stacks of equal side, each held as
one (k, s, s) array: the Hermitian blocks of each side, the sectors of a
sectored block among them, and the entries of all nonnegative blocks as one
stack of side-1 real cones, which pair by their product and weigh 1 in the
barrier parameter, as a nonnegative orthant does.  A stack stops at
``_STACK_KERNEL`` Schur-kernel entries, so that a side-16 cone is a stack of
its own.  Every piece of cone algebra runs once per stack: the NT scaling by
stacked ``cholesky`` and ``svd``, the W R W products, the pairings and the
step test.  The step test runs in the scaled space, where X and S both
read diag(lam): the largest step along dX is
-1/lambda_min(lam^-1/2 R^-1 dX R^-H lam^-1/2), one stacked ``eigvalsh``
with no triangular solve (Todd, Toh and Tutuncu, SIAM J. Optim. 8, 1998);
SDPT3 groups its blocks the same way (Toh, Todd and Tutuncu, Optim. Methods
Softw. 11, 1999).

The program hands over only equality rows, and each block's coefficients as
nonzero (row, coordinate, value) triples; a PSD block's coordinates are
orthonormal Hermitian-basis ones (``hermitian_basis`` order), made by the
program.  Each stack keeps its cones' coordinates contiguous in one sparse
A, whose transpose is also stored, so applying A or A' is one sparse
product; a stack converts to and from its coordinates by the gathers of
``matops``.  Each iteration every stack forms K = [Re tr(W B_b W B_g)] of
each cone from the scaling W and the basis' structure (every basis element
has at most two nonzero entries), in the spirit of Fujisawa, Kojima and
Nakata, Math. Prog. 79 (1997), and all stacks enter the Schur complement
through one sparse product, A [K A']'.

The equilibrated, shifted Schur complement is factored by Cholesky; should
that fail, the solve ends with ``factorization_failed`` and its best
iterate, as after any other breakdown.  Everything runs on one BLAS thread,
which is faster than several at these sizes.

Two forms, one reduction.  The iteration sees cones alone: min c.x s.t.
A x = b, with the dual max b.z s.t. c - A'z in K.  A program reaches it
through ``lmi.reduce_dual``, as one of two dual programs whose equality
rows E y = e it eliminates (``lmi.py``): in the equality form (``eq``) y is
the rows' duals and E y = e the free columns' dual rows, and in the LMI
form (``lmi``) y is the user's point and E y = e the program's equality
rows.  ``solve`` takes the LMI form when its Schur complement is smaller by
at least ``_LMI_MIN_FLOPS`` of Cholesky per iteration, as for the g family
on two uses of a qubit channel with no phase symmetry (770 rows against
287); a small program keeps the equality form, since its iterations cost
per-cone work that both forms share.  One fact reads the solution back: the
program is the solver's primal in the equality form and its dual in the LMI
form.  So in the LMI form the user's blocks are the cones' values S, the
user's value is the solver's dual one, an infeasible solver program reads
``unbounded`` and an unbounded one ``infeasible``, and equality rows with
no solution read ``infeasible`` (``inconsistent_rows``, with their Farkas
y) before any iteration; in the equality form, free columns whose costs
disagree read ``unbounded`` (``free_ray``).  The multipliers of E y = e
solve the pivot rows of the dual program's stationarity, so the other rows
are the residual, and the residuals keep their meaning, relative to the
program's |b| and |c| (Anjos and Burer, SIAM J. Optim. 18, 2007, survey the
ways to treat free variables).  Two more things differ in the LMI form:

- the objective b = -T'c is scaled by 1 / (1 + |b|), and every stopping and
  certificate test reads residuals, gap and values in the user's units;
- after the back-substitution dX = rx - W dS W, each direction is corrected
  back onto A dx - b dtau = -r_p by dx += W A' M^-1 r, one more solve with
  the factored Schur complement M = A W A': the least-norm correction in the
  scaling's metric.  Without it the solves' error builds up in the primal
  residual until the step stalls near 1e-8; the Euclidean least-norm
  correction through the constant A A' ignores how near each cone is to its
  boundary, and stalled g_tilde on AD(0.0708) x AD(0.0708) at step 1e-10.
"""
from __future__ import annotations

import logging
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import cho_solve, cholesky

from ..matops import basis_pairs, from_hermitian_coords, hermitian_coords
from ._blas import one_blas_thread
from .lmi import (
    InconsistentRows, LmiRows, Reduction, check_equalities, eq_form, lmi_form, row_counts,
    stated_blocks,
)
from .program import HERM_PSD, NONNEG, ConicProgram

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
MAX_ITER = "max_iter"


class SolverError(RuntimeError):
    """Raised by callers that need an optimal solve and did not get one."""

    def __init__(self, message: str, status: str):
        super().__init__(message)
        self.status = status


_log = logging.getLogger("qcap.conic")

_STEP_BACKOFF = 0.99
_STALL_ALPHA = 1e-9
_SCHUR_SHIFT = 1e-14
# Below this many flops of Cholesky saved per iteration (about 1 ms on one
# core), the LMI form's assembly and corrected steps cost more than its
# smaller Schur complement saves: an iteration of a small program is per-cone
# work that both forms share.
_LMI_MIN_FLOPS = 1e7
_RT2 = np.sqrt(2.0)
# A stack holds cones of at most this many Schur-kernel entries together
# (count * side**4): a larger kernel and its temporaries leave the cache and
# are faulted in afresh each iteration.  Four side-16 cones in one stack took
# 3.4 ms per kernel on one core of a 2-core x86-64 host, and 1.3 ms in four
# stacks of one.
_STACK_KERNEL = 2**16


@dataclass
class ConicSolution:
    """Result of a solve: objective values, status, and per-block variables.

    ``reason`` is why the iteration ended: ``converged``, ``iteration_limit``,
    ``inconsistent_rows`` (the equality rows have no solution, and ``y``
    combines them into 0 = 1), ``free_ray`` (``unbounded`` with no
    iteration: free columns that no row sees combine into a lower objective),
    or a breakdown, ``factorization_failed`` (of the Schur complement or a
    cone), ``non_finite`` or ``step_stalled``.  ``form`` is the form the
    program was solved in, ``eq`` or ``lmi``."""

    status: str
    reason: str
    primal_value: float | None
    dual_value: float | None
    gap: float | None
    blocks: dict[str, np.ndarray]
    iterations: int
    primal_residual: float
    dual_residual: float
    y: np.ndarray | None = None
    form: str = "eq"


def _h(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def _herm(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + _h(a))


@dataclass
class _Stack:
    """The cones of one side and pairing, as (count, side, side) arrays.

    Hermitian cones pair by <A, B> = 2 Re tr(AB), as their real symmetric
    embedding does (``gamma`` 2), and each weighs 2 * side in the barrier
    parameter.  The entries of the nonnegative blocks form one stack of
    side-1 real cones, which pair by their product and weigh 1 (``gamma``
    1).  A cone's coordinates are its ``hermitian_coords``, and ``a`` holds
    the program's coefficients on them, so A(X) = a coords(X) and A'(y) has
    coordinates a'y / gamma.
    """

    side: int
    gamma: float
    count: int
    spans: list[tuple[str, int, int]]  # (block, first cone, cones); a Hermitian block is one cone
    cobj: np.ndarray  # (count, side, side): the objective / gamma, in min sense
    a: sparse.csr_array  # (m, count * side**2), each cone's coordinates contiguous
    # ``a`` / gamma with its rows split by cone: row c * m + r holds row r's
    # coefficients on cone c, so that a_split [K_1; ...; K_count] stacks the
    # a_c K_c / gamma
    a_split: sparse.csr_array


@dataclass
class _Assembled:
    stacks: list[_Stack]
    a: sparse.csr_array  # the stacks' ``a``, side by side
    at: sparse.csr_array  # its transpose
    b: np.ndarray
    sign: float  # +1 for min programs, -1 when a max program was negated
    # the program's |b| and |c| (free costs included): the residuals' units
    normb: float
    normc: float
    red: Reduction
    free: list  # each free block's (name, first, count) in -lam (eq) or in y (lmi)
    # the LMI form: its rows, b is scale times the reduction's, the user's
    # objective is offset - b.y / scale, and each direction is corrected onto A dx = rhs
    lmi: LmiRows | None = None
    scale: float = 1.0

    def user_value(self, pobj: float, dobj: float) -> float:
        """The user's objective, in min sense, of the iterate's values; with
        the two swapped, the user's dual objective."""
        if self.lmi is None:
            return pobj - self.red.offset
        return self.red.offset - dobj / self.scale


def _cost_norm(costs) -> float:
    """|c| from each block's (kind, cost coordinates); a Hermitian C pairs as C / 2."""
    return float(np.sqrt(sum(c @ c / (2.0 if kind == HERM_PSD else 1.0) for kind, c in costs)))


def _stacks(m: int, cones) -> list[_Stack]:
    """Group cones into stacks: the Hermitian ones by side, and all
    nonnegative entries in one, each stack up to ``_STACK_KERNEL``.  Each
    cone is given as (block name, kind, size, rows, coordinates, values,
    objective coordinates in min sense)."""
    groups: dict[tuple[int, float], list] = {}
    for cone in cones:
        kind, size = cone[1], cone[2]
        key = (1, 1.0) if kind == NONNEG else (size, 2.0)
        group = groups.setdefault(key, [[]])
        cones_in = sum(c[2] if c[1] == NONNEG else 1 for c in group[-1])
        if group[-1] and (cones_in + 1) * key[0] ** 4 > _STACK_KERNEL:
            group.append([])
        group[-1].append(cone)
    stacks = []
    for (side, gamma), members in ((k, mem) for k, g in sorted(groups.items()) for mem in g):
        n = side * side
        spans, rows, cols, vals, objs = [], [], [], [], []
        first = 0
        for name, kind, size, r, k, v, c in members:
            count = size if kind == NONNEG else 1
            spans.append((name, first, count))
            rows.append(r)
            cols.append(first * n + k)
            vals.append(v)
            objs.append(c)
            first += count
        rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
        a = sparse.csr_array((vals, (rows, cols)), shape=(m, first * n))
        split = sparse.csr_array(
            (vals / gamma, (cols // n * m + rows, cols)), shape=(first * m, first * n)
        )
        with np.errstate(invalid="ignore"):  # non-finite data ends the solve as non_finite
            cobj = from_hermitian_coords(np.concatenate(objs).reshape(first, n), side) / gamma
        stacks.append(_Stack(side, gamma, first, spans, cobj, a, split))
    return stacks


def _side_by_side(m: int, stacks: list[_Stack]) -> tuple[sparse.csr_array, sparse.csr_array]:
    a = sparse.hstack([st.a for st in stacks], format="csr") if stacks else sparse.csr_array((m, 0))
    return a, a.T.tocsr()


def _assemble(prog: ConicProgram, form: str) -> _Assembled:
    """The solver's program for ``prog`` in ``form``: the form's dual program,
    reduced by ``lmi.reduce_dual``, whose errors it raises."""
    sign = 1.0 if prog.sense == "min" else -1.0
    blocks = stated_blocks(prog)
    if form == "lmi":
        red, rows, free = lmi_form(prog, blocks)
        # the solver's primal side, the user's multipliers, then weighs less
        # than the user's point, whose feasibility decides the reported value
        scale = 1.0 / (1.0 + float(np.linalg.norm(red.b)))
        b = scale * red.b
        norms = float(np.linalg.norm(b)), _cost_norm((cone[1], cone[-1]) for cone in red.cones)
    else:
        (red, free), rows, scale = eq_form(prog, blocks), None, 1.0
        b = red.b
        norms = float(np.linalg.norm(prog.rows)), _cost_norm((blk[1], blk[-1]) for blk in blocks)
    stacks = _stacks(b.size, red.cones)
    a, at = _side_by_side(b.size, stacks)
    return _Assembled(stacks, a, at, b, sign, *norms, red, free, rows, scale)


def _basis_kernel(w: np.ndarray) -> np.ndarray:
    """K = [Re tr(W B_b W B_g)] over the ``hermitian_basis`` of W's side, for
    each W of a (count, s, s) stack: the coordinates of W B_g W.

    With tr(W e_ij W e_kl) = W_jk W_li, each entry is a sum of at most four
    such products; for pairs b = (i, j), g = (k, l) it takes the two products
    u1 = W_jk W_li and u2 = W_jl W_ki.
    """
    s = w.shape[-1]
    i, j = basis_pairs(s)
    k = np.empty(w.shape[:-2] + (s * s, s * s))
    k[..., :s, :s] = w.real**2 + w.imag**2
    z = _RT2 * (w[..., :, i] * w[..., :, j].conj())  # diagonal l against pair (i, j)
    k[..., :s, s::2] = z.real
    k[..., :s, s + 1 :: 2] = z.imag
    k[..., s:, :s] = k[..., :s, s:].swapaxes(-1, -2)
    rows_j, cols_i = w[..., j, :], w[..., :, i]
    u1 = rows_j[..., :, i] * cols_i[..., j, :].swapaxes(-1, -2)
    u2 = rows_j[..., :, j] * cols_i[..., i, :].swapaxes(-1, -2)
    k[..., s::2, s::2] = u1.real + u2.real
    k[..., s::2, s + 1 :: 2] = u1.imag - u2.imag
    k[..., s + 1 :: 2, s::2] = u1.imag + u2.imag
    k[..., s + 1 :: 2, s + 1 :: 2] = u2.real - u1.real
    return k


def _schur(data: _Assembled, ws: list[np.ndarray]) -> np.ndarray:
    """The symmetric Schur complement M = A W A' of the cone columns, where
    ``ws`` holds each stack's scalings W: each cone c adds a_c (K_c / gamma)
    a_c', with K_c its ``_basis_kernel``, and a stack's a_c K_c / gamma all
    come from one sparse product with its ``a_split``."""
    m = data.b.size
    # [a_c K_c]' of every cone, stacked row-major, the layout the sparse product reads
    gt = np.empty((data.a.shape[1], m))
    off = 0
    for st, w in zip(data.stacks, ws):
        k = _basis_kernel(w).reshape(-1, st.side * st.side)
        width = st.count * k.shape[1]
        ak = (st.a_split @ k).reshape(st.count, m, k.shape[1])
        gt[off : off + width].reshape(st.count, k.shape[1], m)[...] = ak.transpose(0, 2, 1)
        off += width
    M = data.a @ gt
    return 0.5 * (M + M.T)


def _schur_solver(mmat: np.ndarray):
    """A solve with the Schur complement M, or None when its Cholesky
    factorization fails.

    M is first equilibrated symmetrically by its diagonal (rows whose
    coefficients live where W is small would otherwise sit orders of magnitude
    below the rest), and shifted by a tiny multiple of the identity: on
    degenerate programs M becomes numerically singular near the optimum, and
    an unshifted factor returns garbage along its near-null directions.  Each
    solve takes one refinement step against the unshifted matrix, which
    restores full accuracy everywhere else.
    """
    diag = np.abs(np.diagonal(mmat)).copy()
    diag[diag == 0.0] = 1.0
    eq = 1.0 / np.sqrt(diag)
    scaled = mmat * eq[:, None] * eq[None, :]
    scaled[np.diag_indices_from(scaled)] += _SCHUR_SHIFT
    try:
        up = cholesky(scaled, check_finite=False)  # upper: M = U'U
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(np.diagonal(up))):  # a collapsed scaling
        return None

    def msolve(rhs: np.ndarray) -> np.ndarray:
        sol = eq * cho_solve((up, False), eq * rhs, check_finite=False)
        sol += eq * cho_solve((up, False), eq * (rhs - mmat @ sol), check_finite=False)
        return sol

    return msolve


# The NT scaling of a stack: R^H S R = R^-1 X R^-H = diag(lam) and W = R R^H,
# so that W S W = X; g stacks lam^-1/2 R^-1 over lam^-1/2 R^H, which carry
# dX and dS into the scaled space.
_Scaling = namedtuple("_Scaling", "r rinv lam w g")


def _nt_scaling(xs: list[np.ndarray], ss: list[np.ndarray]) -> list[_Scaling]:
    """The NT scaling of each stack of X and S, from their stacked Cholesky
    factors Lx, Ls and the SVD of Ls^H Lx."""
    out = []
    for x, s in zip(xs, ss):
        lx = np.linalg.cholesky(x)
        ls = np.linalg.cholesky(s)
        u, sig, vh = np.linalg.svd(_h(ls) @ lx)
        isq = 1.0 / np.sqrt(sig)
        r = (lx @ _h(vh)) * isq[..., None, :]
        rinv = _h(u * isq[..., None, :]) @ _h(ls)
        g = np.concatenate([rinv * isq[..., :, None], _h(r) * isq[..., :, None]])
        out.append(_Scaling(r, rinv, sig, r @ _h(r), g))
    return out


def _max_step(scal: list[_Scaling], dX: list[np.ndarray], dS: list[np.ndarray]) -> float:
    """Largest t with X + t dX and S + t dS PSD in every stack.

    The step test runs in the scaled space, where X and S both read
    diag(lam): X + t dX is PSD while I + t lam^-1/2 R^-1 dX R^-H lam^-1/2 is,
    so t is -1/lambda_min of that matrix, and likewise of
    lam^-1/2 R^H dS R lam^-1/2 for S.  That is one stacked ``eigvalsh`` per
    stack, and no triangular solve.
    """
    lmin = np.inf
    for sc, dx, ds in zip(scal, dX, dS):
        d = np.concatenate([dx, ds])
        lmin = min(lmin, float(np.linalg.eigvalsh(_herm(sc.g @ d @ _h(sc.g)))[:, 0].min()))
    return np.inf if lmin >= -1e-300 else -1.0 / lmin


_Direction = namedtuple("_Direction", "dX dS dy dtau dkap ok")


def solve(
    prog: ConicProgram,
    feas_tol: float = 1e-8,
    gap_tol: float = 1e-8,
    max_iter: int = 200,
) -> ConicSolution:
    """Solve a :class:`ConicProgram` to the requested tolerances.

    Status ``optimal`` guarantees the relative primal/dual equality residuals
    are at most ``feas_tol`` and |primal - dual| <= gap_tol * (1 + |primal|).
    ``infeasible``/``unbounded`` report an approximate Farkas certificate at
    the same tolerance; equality rows that have no solution read
    ``infeasible`` with the reason ``inconsistent_rows``.  ``max_iter``
    returns the best iterate seen.  A numerical breakdown (a failed
    factorization, a non-finite iterate or a stalled step) also ends the
    iteration with ``max_iter`` and the best iterate, and ``reason`` names
    it; no numerical exception escapes.

    The program is solved in its equality form, or in its LMI form when that
    form's Schur complement is enough smaller (``_form``; the solution's
    ``form`` says which).  Either way the solution is the program's own, and
    the tolerances hold in its units; a sectored block comes back as one
    full matrix (``ConicProgram.full_blocks``).

    The solve runs on one OpenBLAS thread, assembly included; each loaded
    OpenBLAS gets its previous thread count back on return.  With the
    ``qcap.conic`` logger at DEBUG, each iteration logs one progress record.
    """
    with one_blas_thread():
        sol = _solve(prog, feas_tol, gap_tol, max_iter, _form(prog))
    sol.blocks = prog.full_blocks(sol.blocks)
    return sol


def _form(prog: ConicProgram) -> str:
    """``lmi`` when the LMI form's smaller Schur complement saves at least
    ``_LMI_MIN_FLOPS`` of Cholesky per iteration, else ``eq``."""
    eq_rows, lmi_rows = row_counts(prog)
    saved = (eq_rows**3 - lmi_rows**3) / 3.0
    return "lmi" if lmi_rows > 0 and saved >= _LMI_MIN_FLOPS else "eq"


def _solve(prog, feas_tol, gap_tol, max_iter, form) -> ConicSolution:
    try:
        data = _assemble(prog, form)
    except InconsistentRows as exc:
        # E y = e is the LMI form's equality rows, and the equality form's free columns
        if form == "lmi":
            return _empty(INFEASIBLE, "inconsistent_rows", 0, form, exc.y)
        return _empty(UNBOUNDED, "free_ray", 0, form)
    except FloatingPointError:
        return _empty(MAX_ITER, "non_finite", 0, form)
    sol = _solution(data, _iterate(data, feas_tol, gap_tol, max_iter))
    if sol.status == MAX_ITER and form == "eq":
        # equality rows with no solution stall the equality form; their
        # elimination finds the combination that shows it
        try:
            check_equalities(prog)
        except InconsistentRows as exc:
            return _empty(INFEASIBLE, "inconsistent_rows", sol.iterations, form, exc.y)
    return sol


@dataclass
class _Final:
    """How the iteration ended, and its best iterate (None if it had none)."""

    status: str
    reason: str
    iterations: int
    best: tuple | None  # (X, y, S, tau, pres, dres, pobj, dobj)


def _empty(status: str, reason: str, iterations: int, form: str, y=None) -> ConicSolution:
    nan = float("nan")
    return ConicSolution(status, reason, None, None, None, {}, iterations, nan, nan, y, form)


def _values(stacks: list[_Stack], mats: list[np.ndarray], scale: float) -> dict[str, np.ndarray]:
    """Each cone block's value in ``mats`` times ``scale``: a Hermitian matrix,
    or the entries of a nonnegative block."""
    out = {}
    for st, x in zip(stacks, mats):
        for name, first, count in st.spans:
            if st.gamma == 1.0:
                out[name] = x[first : first + count, 0, 0].real * scale
            else:
                out[name] = _herm(x[first]) * scale
    return out


def _cone_coords(stacks: list[_Stack], mats: list[np.ndarray], cones: list) -> np.ndarray:
    """The coordinates of each stack's ``mats``, cone by cone in the order of ``cones``."""
    by_name = {}
    for st, x in zip(stacks, mats):
        coords = hermitian_coords(x)
        for name, first, count in st.spans:
            by_name[name] = coords[first : first + count].ravel()
    return np.concatenate([by_name[cone[0]] for cone in cones] + [np.zeros(0)])


def _solution(data: _Assembled, fin: _Final) -> ConicSolution:
    """The program's solution from the solver's.  The program is the
    solver's primal in the equality form and its dual in the LMI form, so
    there the user's blocks are the cones' values S, the user's value is the
    solver's dual one, and a certificate of infeasibility of the solver's
    program is one of unboundedness of the user's, and the other way round."""
    lmi, red = data.lmi is not None, data.red
    form = "lmi" if lmi else "eq"
    status = fin.status
    if lmi:
        status = {INFEASIBLE: UNBOUNDED, UNBOUNDED: INFEASIBLE}.get(status, status)
    if status in (INFEASIBLE, UNBOUNDED) or fin.best is None:
        # best is None only when the very first iterate was already non-finite
        return _empty(status, fin.reason, fin.iterations, form)
    Xc, yc, Sc, tauc, pres, dres, pobj, dobj = fin.best
    y = red.point(yc / tauc)
    # the cones' multipliers, the solver's primal, in the program's units
    x = _cone_coords(data.stacks, Xc, red.cones) / (tauc * data.scale)
    lam = red.multipliers(x)
    if lmi:
        # the solver's S is the value over gamma
        blocks = _values(data.stacks, [st.gamma * s for st, s in zip(data.stacks, Sc)], 1.0 / tauc)
        free, rows = y, np.zeros(lam.size + data.lmi.slack_rows.size)
        rows[data.lmi.eq_rows] = lam
        rows[data.lmi.slack_rows] = -x[data.lmi.slack_cols] / data.lmi.slack_coef
        pres, dres = dres, pres
    else:
        blocks = _values(data.stacks, Xc, 1.0 / tauc)
        free, rows = -lam, y
    blocks.update((name, free[lo : lo + n].copy()) for name, lo, n in data.free)
    return ConicSolution(
        status=status,
        reason=fin.reason,
        primal_value=data.sign * data.user_value(pobj, dobj),
        dual_value=data.sign * data.user_value(dobj, pobj),
        gap=abs(pobj - dobj) / data.scale,
        blocks=blocks,
        iterations=fin.iterations,
        primal_residual=pres,
        dual_residual=dres,
        y=rows,
        form=form,
    )


def _iterate(data: _Assembled, feas_tol, gap_tol, max_iter) -> _Final:
    debug = _log.isEnabledFor(logging.DEBUG)
    stacks, b = data.stacks, data.b
    m = b.size
    cobj = [st.cobj for st in stacks]
    # each stack's first coordinate in A
    offs = np.cumsum([0] + [st.count * st.side**2 for st in stacks])

    def inner(p, q) -> float:
        """<P, Q> over all stacks, in each stack's pairing."""
        return sum(st.gamma * float(np.vdot(x, z).real) for st, x, z in zip(stacks, p, q))

    def sq_norm(p) -> float:
        return sum(st.gamma * float(np.vdot(x, x).real) for st, x in zip(stacks, p))

    def apply_a(mats) -> np.ndarray:
        if not stacks:
            return np.zeros(m)
        return data.a @ np.concatenate([hermitian_coords(x).ravel() for x in mats])

    def apply_at(vec) -> list[np.ndarray]:
        v = data.at @ vec
        return [
            from_hermitian_coords(v[o : o + st.count * st.side**2].reshape(st.count, -1), st.side)
            / st.gamma
            for st, o in zip(stacks, offs)
        ]

    # a side-s Hermitian cone counts 2s, as its real symmetric embedding does
    nu = sum(st.gamma * st.side * st.count for st in stacks)

    # state
    X = [np.tile(np.eye(st.side, dtype=np.complex128), (st.count, 1, 1)) for st in stacks]
    Sm = [x.copy() for x in X]
    y = np.zeros(m)
    tau = 1.0
    kap = 1.0

    best = None  # (score, X, y, S, tau, pres, dres, pobj, dobj)
    status, reason = MAX_ITER, "iteration_limit"
    it = 0

    for it in range(1, max_iter + 1):
        # residuals of the self-dual system
        at_y = apply_at(y)
        ax = apply_a(X)
        rp = ax - b * tau
        rd = [-aty + c * tau - s for aty, c, s in zip(at_y, cobj, Sm)]
        cx = inner(cobj, X)
        by = float(b @ y)
        rg = cx - by + kap
        mu = (inner(X, Sm) + tau * kap) / (nu + 1)

        # in the user's units: the LMI form's b and its multipliers carry the scale
        pres = float(np.linalg.norm(rp)) / tau / (data.scale + data.normb)
        dres = float(np.sqrt(sq_norm(rd))) / tau / (1.0 + data.normc)
        pobj = cx / tau
        dobj = by / tau

        if debug:
            _log.debug(
                "it %3d  mu=%9.3e  pres=%9.3e  dres=%9.3e  gap=%9.3e  tau=%8.3e  kap=%8.3e",
                it, mu, pres, dres, abs(pobj - dobj), tau, kap,
            )

        if not np.all(np.isfinite([mu, pres, dres, pobj, dobj])):
            reason = "non_finite"
            break  # breakdown: fall through to best-iterate return

        gap = abs(pobj - dobj) / data.scale
        ref = 1.0 + abs(data.user_value(pobj, dobj))
        if pres <= feas_tol and dres <= feas_tol and gap <= gap_tol * ref:
            status, reason = OPTIMAL, "converged"
            best = (0.0, X, y, Sm, tau, pres, dres, pobj, dobj)
            break

        score = max(pres, dres, gap / ref)
        if best is None or score < best[0]:
            copies = [x.copy() for x in X], y.copy(), [s.copy() for s in Sm]
            best = (score, *copies, tau, pres, dres, pobj, dobj)

        # Farkas certificate checks for infeasible / unbounded programs
        if it > 1 and by > 0.0:
            res = np.sqrt(sq_norm([aty + s for aty, s in zip(at_y, Sm)]))
            if res * max(1.0, data.normb / data.scale) <= feas_tol * by / data.scale:
                status, reason = INFEASIBLE, "converged"
                break
        if it > 1 and cx < 0.0:
            res = float(np.linalg.norm(ax))
            if res * max(1.0, data.normc) <= feas_tol * (-cx):
                status, reason = UNBOUNDED, "converged"
                break

        def newton_step():
            """Predictor-corrector direction and step length, or the reason of a breakdown."""
            scal = _nt_scaling(X, Sm)
            ws = [sc.w for sc in scal]

            def wmw(mats):
                return [w @ x @ w for w, x in zip(ws, mats)]

            msolve = _schur_solver(_schur(data, ws))
            if msolve is None:
                return "factorization_failed"

            # pieces independent of the complementarity right-hand side
            wrd = wmw(rd)
            awrd = apply_a(wrd)
            cwrd = inner(cobj, wrd)

            def w_quad(mats) -> float:
                # <xi, W(xi)> accumulated as sums of squares for stability
                return sq_norm([_h(sc.r) @ x @ sc.r for sc, x in zip(scal, mats)])

            # The tau column needs M^-1 A(W c W), whose right-hand side grows
            # like 1/mu; the residual of solving with it swamps the primal residual
            # near convergence.  Writing dy = dy' + dtau * y / tau moves the column to
            # c_hat = c - A'y / tau (about S / tau), whose image A(W c_hat W) is
            # moderate.  dS below is built from the same c_hat, so the primal
            # equation holds to the accuracy of the solves.
            wc = wmw(cobj)
            c_hat = [c - aty / tau for c, aty in zip(cobj, at_y)]
            pb = msolve(b)
            pu = msolve(apply_a(wmw(c_hat)))
            if not (np.all(np.isfinite(pb)) and np.all(np.isfinite(pu))):
                return "non_finite"
            p2 = pb + pu
            # Delta-tau denominator, algebraically -(|W^.5 A'pb|^2 + |W^.5 (c_hat - A'pu)|^2
            # + kap/tau); the naive inner-product form cancels catastrophically once
            # the scaling matrices become extreme near convergence.
            at_pu = apply_at(pu)
            denom = -(
                w_quad(apply_at(pb))
                + w_quad([c - atp for c, atp in zip(c_hat, at_pu)])
                + kap / tau
            )

            def direction(rx, dtau_rhs) -> _Direction:
                h1 = -rp - apply_a(rx) + awrd
                h3 = -rg - dtau_rhs / tau - inner(cobj, rx) + cwrd
                p1 = msolve(h1)
                # A(W c W) . p1 taken directly, not through M p1 = h1, so that
                # the gap row holds for the step actually taken
                num = h3 + float(b @ p1) - inner(wc, apply_at(p1))
                if denom == 0.0 or not np.isfinite(denom) or not np.isfinite(num):
                    return _Direction(None, None, None, 0.0, 0.0, False)
                dtau = num / denom
                dy_shift = p1 + dtau * p2  # dy' above
                dy = dy_shift + (dtau / tau) * y
                at_dy = apply_at(dy_shift)
                dS = [-atd + ch * dtau + r for atd, ch, r in zip(at_dy, c_hat, rd)]
                dX = [_herm(r - w @ ds @ w) for r, w, ds in zip(rx, ws, dS)]
                if data.lmi is not None:
                    # restore A dx - b dtau = -rp, which the back-substitution
                    # above meets only to the accuracy of the Schur solves, by
                    # the correction of least norm in the scaling's metric
                    v = msolve(b * dtau - rp - apply_a(dX))
                    dX = [_herm(dx + wv) for dx, wv in zip(dX, wmw(apply_at(v)))]
                dkap = (dtau_rhs - kap * dtau) / tau
                ok = np.isfinite(dtau) and np.isfinite(dkap) and all(
                    np.all(np.isfinite(d)) for d in (*dX, *dS, dy)
                )
                return _Direction(dX, dS, dy, dtau, dkap, ok)

            def max_step(d: _Direction) -> float:
                t = _max_step(scal, d.dX, d.dS)
                if d.dtau < 0:
                    t = min(t, -tau / d.dtau)
                if d.dkap < 0:
                    t = min(t, -kap / d.dkap)
                return t

            aff = direction([-x for x in X], -tau * kap)
            if not aff.ok:
                return "non_finite"

            a_aff = min(1.0, max_step(aff))
            compl_aff = inner(
                [x + a_aff * dx for x, dx in zip(X, aff.dX)],
                [s + a_aff * ds for s, ds in zip(Sm, aff.dS)],
            )
            mu_aff = (compl_aff + (tau + a_aff * aff.dtau) * (kap + a_aff * aff.dkap)) / (nu + 1)
            sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))

            # the corrector's complementarity right-hand side, in the scaled space
            rx = []
            for sc, st, dx, ds in zip(scal, stacks, aff.dX, aff.dS):
                dxt = sc.rinv @ dx @ _h(sc.rinv)
                dst = _h(sc.r) @ ds @ sc.r
                d = -0.5 * (dxt @ dst + dst @ dxt)
                diag = np.arange(st.side)
                d[:, diag, diag] += sigma * mu - sc.lam**2
                d *= 2.0 / (sc.lam[:, :, None] + sc.lam[:, None, :])
                rx.append(_herm(sc.r @ d @ _h(sc.r)))
            dtau_rhs = sigma * mu - tau * kap - aff.dtau * aff.dkap
            step = direction(rx, dtau_rhs)
            if not step.ok:
                step = aff

            alpha = min(1.0, _STEP_BACKOFF * max_step(step))
            if not alpha >= _STALL_ALPHA:  # also rejects a NaN step length
                return "step_stalled"
            return step, alpha

        try:
            found = newton_step()
        except np.linalg.LinAlgError:
            found = "factorization_failed"  # e.g. Cholesky of a block that lost definiteness
        except ArithmeticError:
            found = "non_finite"
        if isinstance(found, str):
            reason = found
            break  # fall through to best-iterate return
        step, alpha = found

        X = [_herm(x + alpha * dx) for x, dx in zip(X, step.dX)]
        Sm = [_herm(s + alpha * ds) for s, ds in zip(Sm, step.dS)]
        y = y + alpha * step.dy
        tau = tau + alpha * step.dtau
        kap = kap + alpha * step.dkap

    return _Final(status, reason, it, None if best is None else best[1:])
