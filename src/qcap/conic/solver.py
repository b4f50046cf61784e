"""Interior-point solver for the block conic programs.

The method is a primal-dual path follower on the homogeneous self-dual
embedding, so genuinely infeasible or unbounded programs terminate with a
certificate instead of diverging.  Semidefinite blocks are carried as complex
Hermitian matrices throughout, so every iterate, scaling point and search
direction keeps the complex structure by construction; the Nesterov-Todd
scaling is computed on the complex block.  Search directions come from a
Mehrotra predictor-corrector step, reduced to one factorization of the Schur
complement bordered by the free columns.

The iteration is the one of the real symmetric embedding
[[Re H, -Im H], [Im H, Re H]] of each block.  The embedding pairs two blocks
by ``<A, B> = 2 Re tr(A B)``, twice their complex trace pairing, so
assembly halves every PSD coefficient, and a side-s block contributes 2s to
the barrier parameter.  Working on the complex matrices instead of their
2s x 2s embeddings removes the component outside the embedding's image,
which no row and no objective term can see and which roundoff would
otherwise let grow until the scaling breaks down.

The program hands over only equality rows, and each block's coefficients as
nonzero (row, coordinate, value) triples; a PSD block's coordinates are
orthonormal Hermitian-basis ones (``hermitian_basis`` order), made by the
program.  Assembly only places them: the halved PSD values into a real
sparse matrix A_c per block, the vector values into dense column blocks.
The PSD blocks sit side by side in one sparse A, whose transpose is also
stored, so applying A or A' is one sparse product; an iterate converts to
and from its coordinates by the gathers of ``matops``.  Each iteration every
block forms K_c = [2 Re tr(W B_b W B_g)] from the scaling W and the basis'
structure (every basis element has at most two nonzero entries), in the
spirit of Fujisawa, Kojima and Nakata, Math. Prog. 79 (1997), and all blocks
enter the Schur complement through one sparse product, A [A_c K_c]'.

The equilibrated, shifted Schur block is factored by Cholesky, and the free
columns are eliminated through the reduced system F' M^-1 F; should Cholesky
fail, that iteration falls back to LU of the bordered matrix.  Everything
runs on one BLAS thread, which is faster than several at these sizes.

Two forms.  The iteration above runs on the program as stated (``eq``: one
Schur row per scalar row) or on its LMI form (``lmi``, see ``lmi.py``: one
row per free coordinate of the user's blocks, the program's equality rows
eliminated by pivoting, one cone per block and per inequality).  ``solve``
takes the LMI form when its Schur complement is smaller by at least
``_LMI_MIN_FLOPS`` of Cholesky per iteration, as for the g family on two
uses of a qubit channel (770 rows against 287); a small program keeps the
equality form, since its iterations cost per-cone work that both forms
share.  In the LMI form the solver's primal blocks are the multipliers of
the user's cones and its dual iterate is the user's point; three things
differ from the equality form:

- the objective b = -T'c is scaled by 1 / (1 + |b|), and every stopping and
  certificate test reads residuals, gap and values in the user's units;
- after the back-substitution dX = rx - W dS W, each direction is corrected
  back onto A dx - b dtau = -r_p by dx += W A' M^-1 r, one more solve with
  the factored Schur complement M = A W A': the least-norm correction in the
  scaling's metric.  Without it the solves' error builds up in the primal
  residual until the step stalls near 1e-8; the Euclidean least-norm
  correction through the constant A A' ignores how near each cone is to its
  boundary, and stalled g_tilde on AD(0.0708) x AD(0.0708) at step 1e-10;
- the solution is mapped back: the user's blocks are the cones' values (and
  y for free blocks), the values swap sides, the rows' duals come from the
  multipliers, and an infeasible multiplier program reads ``unbounded`` and
  an unbounded one ``infeasible``.
"""
from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import cho_solve, cholesky, lu_factor, lu_solve, solve_triangular

from ..matops import basis_pairs, from_hermitian_coords, hermitian_coords
from ._blas import one_blas_thread
from .lmi import LmiProgram, compile_lmi, row_counts
from .program import FREE, HERM_PSD, NONNEG, ConicProgram

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
# core), compiling the LMI form and correcting its steps costs more than its
# smaller Schur complement saves: an iteration of a small program is per-cone
# work that both forms share.
_LMI_MIN_FLOPS = 1e7
_RT2 = np.sqrt(2.0)


@dataclass
class ConicSolution:
    """Result of a solve: objective values, status, and per-block variables.

    ``reason`` is why the iteration ended: ``converged``, ``iteration_limit``,
    or a breakdown, ``factorization_failed``, ``non_finite`` or ``step_stalled``.
    ``form`` is the form the program was solved in, ``eq`` or ``lmi``."""

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


@dataclass
class _PsdCone:
    name: str
    side: int
    cobj: np.ndarray  # (side, side) complex Hermitian, already halved
    a: sparse.csr_array  # (m, side**2) basis coordinates of each row's halved coefficient


@dataclass
class _Assembled:
    psd: list[_PsdCone]
    a: sparse.csr_array  # the cones' ``a``, side by side
    at: sparse.csr_array  # its transpose
    a_nn: np.ndarray  # (m, p) nonnegative columns, slacks included
    c_nn: np.ndarray
    a_f: np.ndarray  # (m, f) free columns
    c_f: np.ndarray
    b: np.ndarray
    nonneg_spans: list[tuple[str, int, int]]
    free_spans: list[tuple[str, int, int]]
    sign: float  # +1 for min programs, -1 when a max program was negated
    # the LMI form: b is scale times the user's -T'c, the user's objective is
    # offset - b.y / scale, and each direction is corrected onto A dx = rhs
    lmi: bool = False
    scale: float = 1.0
    offset: float = 0.0

    def user_value(self, pobj: float, dobj: float) -> float:
        """The user's objective, in min sense, of the iterate's values."""
        return self.offset - dobj / self.scale if self.lmi else pobj


def _assemble(prog: ConicProgram) -> _Assembled:
    m = len(prog.rows)
    sign = 1.0 if prog.sense == "min" else -1.0
    psd: list[_PsdCone] = []
    spans: dict[str, list[tuple[str, int, int]]] = {NONNEG: [], FREE: []}
    width = {NONNEG: 0, FREE: 0}
    for blk in prog.blocks:
        if blk.kind == HERM_PSD:
            side = blk.size
            rows, k, v = prog.coefficients(blk.name)
            a_c = sparse.csr_array((0.5 * v, (rows, k)), shape=(m, side * side))
            if blk.name in prog.objective:
                cobj = sign * 0.5 * prog.objective[blk.name]
            else:
                cobj = np.zeros((side, side), dtype=np.complex128)
            psd.append(_PsdCone(blk.name, side, cobj, a_c))
        else:
            spans[blk.kind].append((blk.name, width[blk.kind], blk.size))
            width[blk.kind] += blk.size

    def dense(kind):
        a, c = np.zeros((m, width[kind])), np.zeros(width[kind])
        for name, off, size in spans[kind]:
            rows, k, v = prog.coefficients(name)
            a[rows, off + k] = v
            if name in prog.objective:
                c[off : off + size] = sign * prog.objective[name]
        return a, c

    a_nn, c_nn = dense(NONNEG)
    a_f, c_f = dense(FREE)
    a = sparse.hstack([cone.a for cone in psd], format="csr") if psd else sparse.csr_array((m, 0))
    b = np.array(prog.rows, dtype=np.float64)
    return _Assembled(
        psd, a, a.T.tocsr(), a_nn, c_nn, a_f, c_f, b, spans[NONNEG], spans[FREE], sign
    )


def _assemble_lmi(lmi: LmiProgram) -> _Assembled:
    """The solver's program for a program's LMI form: each cone's multiplier
    is a primal block, and there are no free columns.  The objective b is
    scaled by 1 / (1 + |b|), so that the solver's primal side, the user's
    multipliers, weighs less than the user's point, whose feasibility
    decides the reported value."""
    m = lmi.b.size
    psd = [
        _PsdCone(cone.name, cone.size, 0.5 * from_hermitian_coords(cone.c, cone.size), 0.5 * cone.a)
        for cone in lmi.cones
        if cone.kind == HERM_PSD
    ]
    nn = [cone for cone in lmi.cones if cone.kind != HERM_PSD]
    spans, width = [], 0
    for cone in nn:
        spans.append((cone.name, width, cone.size))
        width += cone.size
    a_nn = np.hstack([cone.a.toarray() for cone in nn]) if nn else np.zeros((m, 0))
    c_nn = np.concatenate([cone.c for cone in nn]) if nn else np.zeros(0)
    a = sparse.hstack([cone.a for cone in psd], format="csr") if psd else sparse.csr_array((m, 0))
    scale = 1.0 / (1.0 + float(np.linalg.norm(lmi.b)))
    return _Assembled(
        psd, a, a.T.tocsr(), a_nn, c_nn, np.zeros((m, 0)), np.zeros(0), scale * lmi.b, spans, [],
        1.0, lmi=True, scale=scale, offset=lmi.offset,
    )


def _basis_kernel(w: np.ndarray) -> np.ndarray:
    """K = [2 Re tr(W B_b W B_g)] over the ``hermitian_basis`` of W's side.

    With tr(W e_ij W e_kl) = W_jk W_li, each entry is a sum of at most four
    such products; for pairs b = (i, j), g = (k, l) it takes the two products
    u1 = W_jk W_li and u2 = W_jl W_ki.
    """
    s = w.shape[0]
    i, j = basis_pairs(s)
    k = np.empty((s * s, s * s))
    k[:s, :s] = 2.0 * (w.real**2 + w.imag**2)
    z = 2.0 * _RT2 * (w[:, i] * w[:, j].conj())  # diagonal l against pair (i, j)
    k[:s, s::2] = z.real
    k[:s, s + 1 :: 2] = z.imag
    k[s:, :s] = k[:s, s:].T
    rows_j, cols_i = w[j], w[:, i]
    u1 = rows_j[:, i] * cols_i[j].T
    u2 = rows_j[:, j] * cols_i[i].T
    k[s::2, s::2] = 2.0 * (u1.real + u2.real)
    k[s::2, s + 1 :: 2] = 2.0 * (u1.imag - u2.imag)
    k[s + 1 :: 2, s::2] = 2.0 * (u1.imag + u2.imag)
    k[s + 1 :: 2, s + 1 :: 2] = 2.0 * (u2.real - u1.real)
    return k


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """<A, B> = 2 Re tr(A B) for Hermitian A, B: the embedding's trace pairing."""
    return 2.0 * float(np.vdot(a, b).real)


def _sq_norm(mats) -> float:
    """Squared norm of embedded blocks: twice the complex Frobenius norm."""
    return sum(2.0 * float(np.linalg.norm(a) ** 2) for a in mats)


def _herm(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def _chol(mat: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        side = mat.shape[0]
        jitter = max(1e-14, 1e-12 * abs(np.trace(mat)) / side)
        return np.linalg.cholesky(mat + jitter * np.eye(side))


def _nt_scaling(x: np.ndarray, s: np.ndarray):
    """NT scaling point for one Hermitian PSD block.

    Returns (R, Rinv, lam, w, Lx, Ls) with R^H S R = Rinv X Rinv^H = diag(lam),
    w = R R^H satisfying w s w = x, and Lx, Ls the Cholesky factors of x, s.
    """
    lx = _chol(x)
    ls = _chol(s)
    u, sig, vh = np.linalg.svd(ls.conj().T @ lx)
    isq = 1.0 / np.sqrt(sig)
    r = (lx @ vh.conj().T) * isq[None, :]
    rinv = (u * isq[None, :]).conj().T @ ls.conj().T
    w = r @ r.conj().T
    return r, rinv, sig, w, lx, ls


def _psd_max_step(l_chol: np.ndarray, delta: np.ndarray) -> float:
    """Largest t with X + t*delta PSD, where l_chol is a Cholesky factor of X."""
    t1 = solve_triangular(l_chol, delta, lower=True, check_finite=False)
    t2 = solve_triangular(l_chol, t1.conj().T, lower=True, check_finite=False)
    lmin = float(np.linalg.eigvalsh(_herm(t2))[0])
    if lmin >= -1e-300:
        return np.inf
    return -1.0 / lmin


def _vec_max_step(x: np.ndarray, dx: np.ndarray) -> float:
    neg = dx < 0
    if not np.any(neg):
        return np.inf
    return float(np.min(-x[neg] / dx[neg]))


def _schur(data: _Assembled, ws: list[np.ndarray], w2n: np.ndarray) -> np.ndarray:
    """The symmetric Schur complement M = A W A' of the cone columns, where
    ``ws`` holds each PSD block's scaling W and ``w2n`` the nonnegative one."""
    # [A_c K_c]' stacked row-major, the layout the sparse product reads
    gt = np.empty(data.a.shape[::-1])
    off = 0
    for cone, w in zip(data.psd, ws):
        gt[off : off + w.size] = (cone.a @ _basis_kernel(w)).T
        off += w.size
    M = data.a @ gt
    if data.a_nn.shape[1]:
        M += (data.a_nn * w2n[None, :]) @ data.a_nn.T
    return 0.5 * (M + M.T)


def _schur_solver(gmat: np.ndarray, m: int):
    """A solve with the bordered Schur matrix [[M, F], [F', 0]] (M is its
    leading m x m block), or None when it cannot be factored.

    The matrix is first equilibrated symmetrically by its diagonal (rows whose
    coefficients live where W is small would otherwise sit orders of magnitude
    below the rest), and M is shifted by a tiny multiple of the identity: on
    degenerate programs M becomes numerically singular near the optimum, and
    an unshifted factor returns garbage along its near-null directions.  Each
    solve takes one refinement step against the unshifted matrix, which
    restores full accuracy everywhere else.
    """
    diag = np.abs(np.diagonal(gmat)).copy()
    diag[diag == 0.0] = 1.0
    eq = 1.0 / np.sqrt(diag)
    gscaled = gmat * eq[:, None] * eq[None, :]
    gscaled[np.arange(m), np.arange(m)] += _SCHUR_SHIFT
    with warnings.catch_warnings():
        # a collapsed scaling underflows the factorization; treat it as a stall
        # instead of letting the zero-pivot warning and downstream NaNs escape
        warnings.simplefilter("ignore")
        solve_scaled = _cholesky_solver(gscaled, m) or _lu_solver(gscaled)
    if solve_scaled is None:
        return None

    def gsolve(rhs: np.ndarray) -> np.ndarray:
        sol = eq * solve_scaled(eq * rhs)
        sol += eq * solve_scaled(eq * (rhs - gmat @ sol))
        return sol

    return gsolve


def _cholesky_solver(g: np.ndarray, m: int):
    """Solve with [[M, F], [F', 0]] from a Cholesky factor of M and, when F has
    columns, one of the reduced matrix F' M^-1 F; None if either is not
    positive definite."""
    fcols = g[:m, m:]
    try:
        up = cholesky(g[:m, :m], check_finite=False)  # upper: M = U'U
        if not np.all(np.isfinite(np.diagonal(up))):
            return None
        if fcols.shape[1]:
            z = cho_solve((up, False), fcols, check_finite=False)
            up_f = cholesky(fcols.T @ z, check_finite=False)
    except np.linalg.LinAlgError:
        return None

    def solve_scaled(rhs: np.ndarray) -> np.ndarray:
        t = cho_solve((up, False), rhs[:m], check_finite=False)
        if not fcols.shape[1]:
            return t
        q = cho_solve((up_f, False), fcols.T @ t - rhs[m:], check_finite=False)
        return np.concatenate([t - z @ q, q])

    return solve_scaled


def _lu_solver(g: np.ndarray):
    """Solve with g from its LU factors; None if the factorization fails."""
    try:
        glu = lu_factor(g, check_finite=False)
    except Exception:
        return None
    udiag = np.abs(np.diagonal(glu[0]))
    if not np.all(np.isfinite(udiag)) or float(udiag.min()) == 0.0:
        return None
    return lambda rhs: lu_solve(glu, rhs, check_finite=False)


class _Direction:
    __slots__ = ("dX", "dS", "dxn", "dsn", "dxf", "dy", "dtau", "dkap", "ok")

    def __init__(self, dX, dS, dxn, dsn, dxf, dy, dtau, dkap, ok=True):
        self.dX, self.dS = dX, dS
        self.dxn, self.dsn = dxn, dsn
        self.dxf, self.dy = dxf, dy
        self.dtau, self.dkap = dtau, dkap
        self.ok = ok


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
    the same tolerance; ``max_iter`` returns the best iterate seen.  A
    numerical breakdown (a failed factorization, a non-finite iterate or a
    stalled step) also ends the iteration with ``max_iter`` and the best
    iterate, and ``reason`` names it; no numerical exception escapes.

    The program is solved in its equality form, or in its LMI form when that
    form's Schur complement is enough smaller (``_form``; the solution's
    ``form`` says which).  Either way the solution is the program's own, and
    the tolerances hold in its units.

    The solve runs on one OpenBLAS thread, assembly included; each loaded
    OpenBLAS gets its previous thread count back on return.  With the
    ``qcap.conic`` logger at DEBUG, each iteration logs one progress record.
    """
    with one_blas_thread():
        return _solve(prog, feas_tol, gap_tol, max_iter, _form(prog))


def _form(prog: ConicProgram) -> str:
    """``lmi`` when the LMI form's smaller Schur complement saves at least
    ``_LMI_MIN_FLOPS`` of Cholesky per iteration, else ``eq``."""
    eq_rows, lmi_rows = row_counts(prog)
    saved = (eq_rows**3 - lmi_rows**3) / 3.0
    return "lmi" if lmi_rows > 0 and saved >= _LMI_MIN_FLOPS else "eq"


def _solve(prog, feas_tol, gap_tol, max_iter, form) -> ConicSolution:
    lmi = compile_lmi(prog) if form == "lmi" else None
    if lmi is None:
        data = _assemble(prog)
        return _eq_solution(data, _iterate(data, feas_tol, gap_tol, max_iter))
    data = _assemble_lmi(lmi)
    return _lmi_solution(lmi, data, _iterate(data, feas_tol, gap_tol, max_iter))


@dataclass
class _Final:
    """How the iteration ended, and its best iterate (None if it had none)."""

    status: str
    reason: str
    iterations: int
    best: tuple | None  # (X, xn, xf, y, S, sn, tau, pres, dres, pobj, dobj)


def _empty(status: str, reason: str, iterations: int, form: str) -> ConicSolution:
    return ConicSolution(
        status=status,
        reason=reason,
        primal_value=None,
        dual_value=None,
        gap=None,
        blocks={},
        iterations=iterations,
        primal_residual=float("nan"),
        dual_residual=float("nan"),
        y=None,
        form=form,
    )


def _eq_solution(data: _Assembled, fin: _Final) -> ConicSolution:
    if fin.status in (INFEASIBLE, UNBOUNDED) or fin.best is None:
        # best is None only when the very first iterate was already non-finite
        return _empty(fin.status, fin.reason, fin.iterations, "eq")
    Xc, xnc, xfc, yc, _, _, tauc, pres, dres, pvalue, dvalue = fin.best
    blocks: dict[str, np.ndarray] = {}
    for j, cone in enumerate(data.psd):
        blocks[cone.name] = _herm(Xc[j] / tauc)
    for name, off, ln in data.nonneg_spans:
        blocks[name] = np.array(xnc[off : off + ln] / tauc)
    for name, off, ln in data.free_spans:
        blocks[name] = np.array(xfc[off : off + ln] / tauc)
    return ConicSolution(
        status=fin.status,
        reason=fin.reason,
        primal_value=data.sign * pvalue,
        dual_value=data.sign * dvalue,
        gap=abs(pvalue - dvalue),
        blocks=blocks,
        iterations=fin.iterations,
        primal_residual=pres,
        dual_residual=dres,
        y=yc / tauc,
        form="eq",
    )


def _lmi_solution(lmi: LmiProgram, data: _Assembled, fin: _Final) -> ConicSolution:
    """The program's solution from its LMI form's: the user's blocks are the
    cones' values and the free coordinates of y, its primal value is the LMI
    form's dual one, and the cones' multipliers give the rows' duals.  A
    certificate of infeasibility of the multipliers is one of unboundedness
    of the program, and the other way round."""
    status = {INFEASIBLE: UNBOUNDED, UNBOUNDED: INFEASIBLE}.get(fin.status, fin.status)
    if status in (INFEASIBLE, UNBOUNDED) or fin.best is None:
        return _empty(status, fin.reason, fin.iterations, "lmi")
    Xc, xnc, _, yc, Sc, snc, tauc, pres, dres, pobj, dobj = fin.best
    y = lmi.y0 + lmi.t @ (yc / tauc)
    blocks: dict[str, np.ndarray] = {}
    mult: dict[str, np.ndarray] = {}
    per_unit = 1.0 / (tauc * data.scale)
    for j, cone in enumerate(data.psd):
        blocks[cone.name] = _herm(2.0 * Sc[j] / tauc)  # the solver's S is half the value
        mult[cone.name] = hermitian_coords(Xc[j]) * per_unit
    for name, off, ln in data.nonneg_spans:
        blocks[name] = np.array(snc[off : off + ln] / tauc)
        mult[name] = xnc[off : off + ln] * per_unit
    for name, (off, n) in lmi.spans.items():
        if name not in blocks:
            blocks[name] = y[off : off + n].copy()
    return ConicSolution(
        status=status,
        reason=fin.reason,
        primal_value=lmi.sign * (lmi.offset - dobj / data.scale),
        dual_value=lmi.sign * (lmi.offset - pobj / data.scale),
        gap=abs(pobj - dobj) / data.scale,
        blocks=blocks,
        iterations=fin.iterations,
        primal_residual=dres,
        dual_residual=pres,
        y=lmi.row_duals(mult),
        form="lmi",
    )


def _iterate(data: _Assembled, feas_tol, gap_tol, max_iter) -> _Final:
    debug = _log.isEnabledFor(logging.DEBUG)
    psd, a_nn, c_nn, a_f, c_f, b = data.psd, data.a_nn, data.c_nn, data.a_f, data.c_f, data.b
    m = b.size
    p = c_nn.size
    f = c_f.size
    have_nn = p > 0
    have_f = f > 0

    # a side-s Hermitian block counts 2s, as its real symmetric embedding does
    nu = sum(2 * cone.side for cone in psd) + p
    normb = float(np.linalg.norm(b))
    normc = float(
        np.sqrt(
            sum(2.0 * np.linalg.norm(cone.cobj) ** 2 for cone in psd)
            + np.linalg.norm(c_nn) ** 2
            + np.linalg.norm(c_f) ** 2
        )
    )

    offs = np.cumsum([0] + [cone.side**2 for cone in psd])  # each cone's first coordinate

    # state
    X = [np.eye(cone.side, dtype=np.complex128) for cone in psd]
    Sm = [np.eye(cone.side, dtype=np.complex128) for cone in psd]
    xn = np.ones(p)
    sn = np.ones(p)
    xf = np.zeros(f)
    y = np.zeros(m)
    tau = 1.0
    kap = 1.0

    def apply_cones(mats, vn) -> np.ndarray:
        coords = [hermitian_coords(x) for x in mats]
        out = 2.0 * (data.a @ np.concatenate(coords)) if psd else np.zeros(m)
        if have_nn:
            out += a_nn @ vn
        return out

    def apply_a(mats, vn, vf) -> np.ndarray:
        out = apply_cones(mats, vn)
        if have_f:
            out += a_f @ vf
        return out

    def apply_at(vec) -> list[np.ndarray]:
        v = data.at @ vec
        return [
            from_hermitian_coords(v[o : o + cone.side**2], cone.side) for cone, o in zip(psd, offs)
        ]

    def c_dot(mats, vn) -> float:
        total = 0.0
        for j, cone in enumerate(psd):
            total += _inner(cone.cobj, mats[j])
        if have_nn:
            total += float(c_nn @ vn)
        return total

    best = None  # (score, X, xn, xf, y, S, sn, tau, pres, dres, pobj, dobj)
    status, reason = MAX_ITER, "iteration_limit"
    it = 0

    for it in range(1, max_iter + 1):
        # residuals of the self-dual system
        at_y = apply_at(y)
        ax = apply_a(X, xn, xf)
        rp = ax - b * tau
        rdc = [-at_y[j] + psd[j].cobj * tau - Sm[j] for j in range(len(psd))]
        rdn = (-(a_nn.T @ y) + c_nn * tau - sn) if have_nn else np.zeros(0)
        rdf = (-(a_f.T @ y) + c_f * tau) if have_f else np.zeros(0)
        cx = c_dot(X, xn) + (float(c_f @ xf) if have_f else 0.0)
        by = float(b @ y)
        rg = cx - by + kap
        compl = sum(_inner(X[j], Sm[j]) for j in range(len(psd)))
        if have_nn:
            compl += float(xn @ sn)
        mu = (compl + tau * kap) / (nu + 1)

        # in the user's units: the LMI form's b and its multipliers carry the scale
        pres = float(np.linalg.norm(rp)) / tau / (data.scale + normb)
        dres_sq = _sq_norm(rdc)
        if have_nn:
            dres_sq += float(rdn @ rdn)
        if have_f:
            dres_sq += float(rdf @ rdf)
        dres = float(np.sqrt(dres_sq)) / tau / (1.0 + normc)
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
            best = (0.0, X, xn, xf, y, Sm, sn, tau, pres, dres, pobj, dobj)
            break

        score = max(pres, dres, gap / ref)
        if best is None or score < best[0]:
            best = (
                score,
                [x.copy() for x in X],
                xn.copy(),
                xf.copy(),
                y.copy(),
                [s.copy() for s in Sm],
                sn.copy(),
                tau,
                pres,
                dres,
                pobj,
                dobj,
            )

        # Farkas certificate checks for infeasible / unbounded programs
        if it > 1 and by > 0.0:
            res_sq = _sq_norm([at_y[j] + Sm[j] for j in range(len(psd))])
            if have_nn:
                v = a_nn.T @ y + sn
                res_sq += float(v @ v)
            if have_f:
                v = a_f.T @ y
                res_sq += float(v @ v)
            if np.sqrt(res_sq) * max(1.0, normb / data.scale) <= feas_tol * by / data.scale:
                status, reason = INFEASIBLE, "converged"
                break
        if it > 1 and cx < 0.0:
            res = float(np.linalg.norm(apply_a(X, xn, xf)))
            if res * max(1.0, normc) <= feas_tol * (-cx):
                status, reason = UNBOUNDED, "converged"
                break

        def newton_step():
            """Predictor-corrector direction and step length, or the reason of a breakdown."""
            # Nesterov-Todd scalings
            scal = [_nt_scaling(X[j], Sm[j]) for j in range(len(psd))]
            w2n = xn / sn if have_nn else np.zeros(0)

            # Schur complement M = A W A' over cone columns, bordered by free columns
            gmat = _schur(data, [sc[3] for sc in scal], w2n)
            if have_f:
                gmat = np.block([[gmat, a_f], [a_f.T, np.zeros((f, f))]])
            gsolve = _schur_solver(gmat, m)
            if gsolve is None:
                return "factorization_failed"

            # pieces independent of the complementarity right-hand side
            wrd = [scal[j][3] @ rdc[j] @ scal[j][3] for j in range(len(psd))]
            wrdn = w2n * rdn if have_nn else np.zeros(0)
            awrd = apply_cones(wrd, wrdn)
            cwrd = c_dot(wrd, wrdn)

            def w_quad(mats, vn) -> float:
                # <xi, W(xi)> accumulated as sums of squares for stability
                total = _sq_norm(
                    [scal[j][0].conj().T @ mats[j] @ scal[j][0] for j in range(len(psd))]
                )
                if have_nn and vn is not None:
                    total += float(w2n @ (vn * vn))
                return total

            # The tau column needs gmat^-1 [A(W c W); c_f], whose right-hand side grows
            # like 1/mu; the residual of solving with it swamps the primal residual
            # near convergence.  Writing dy = dy' + dtau * y / tau moves the column to
            # c_hat = c - A'y / tau (about S / tau), whose image A(W c_hat W) is
            # moderate.  dS below is built from the same c_hat, so the primal
            # equation holds to the accuracy of the solves.
            wc = [scal[j][3] @ psd[j].cobj @ scal[j][3] for j in range(len(psd))]
            c_hat = [psd[j].cobj - at_y[j] / tau for j in range(len(psd))]
            c_hat_n = c_nn - (a_nn.T @ y) / tau if have_nn else np.zeros(0)
            c_hat_f = c_f - (a_f.T @ y) / tau if have_f else np.zeros(0)
            u_vec = apply_cones(
                [scal[j][3] @ c_hat[j] @ scal[j][3] for j in range(len(psd))], w2n * c_hat_n
            )
            sol_b = gsolve(np.concatenate([b, np.zeros(f)]))
            sol_u = gsolve(np.concatenate([u_vec, c_hat_f]))
            if not (np.all(np.isfinite(sol_b)) and np.all(np.isfinite(sol_u))):
                return "non_finite"
            pb, pu = sol_b[:m], sol_u[:m]
            p2 = pb + pu
            q2 = (sol_b[m:] + sol_u[m:]) if have_f else np.zeros(0)
            # Delta-tau denominator, algebraically -(|W^.5 A'pb|^2 + |W^.5 (c_hat - A'pu)|^2
            # + kap/tau); the naive inner-product form cancels catastrophically once
            # the scaling matrices become extreme near convergence.
            at_pb = apply_at(pb)
            at_pu = apply_at(pu)
            vec_c = [c_hat[j] - at_pu[j] for j in range(len(psd))]
            denom = -(
                w_quad(at_pb, a_nn.T @ pb if have_nn else None)
                + w_quad(vec_c, (c_hat_n - a_nn.T @ pu) if have_nn else None)
                + kap / tau
            )

            def direction(rx, rxn, dtau_rhs) -> _Direction:
                arx = apply_cones(rx, rxn)
                h1 = -rp - arx + awrd
                crx = c_dot(rx, rxn)
                h3 = -rg - dtau_rhs / tau - crx + cwrd
                sol1 = gsolve(np.concatenate([h1, rdf]))
                p1, q1 = sol1[:m], sol1[m:]
                # [A(W c W); c_f] . sol1 taken directly, not through gmat @ sol1 =
                # [h1; rd_f], so that the gap row holds for the step actually taken
                at_p1 = apply_at(p1)
                u_sol1 = sum(_inner(wc[j], at_p1[j]) for j in range(len(psd)))
                if have_nn:
                    u_sol1 += float((w2n * c_nn) @ (a_nn.T @ p1))
                if have_f:
                    u_sol1 += float(c_f @ q1)
                num = h3 + float(b @ p1) - u_sol1
                if denom == 0.0 or not np.isfinite(denom) or not np.isfinite(num):
                    return _Direction(None, None, None, None, None, None, 0.0, 0.0, ok=False)
                dtau = num / denom
                dy_shift = p1 + dtau * p2  # dy' above
                dy = dy_shift + (dtau / tau) * y
                dxf = q1 + dtau * q2 if have_f else np.zeros(0)
                at_dy = apply_at(dy_shift)
                dS = [-at_dy[j] + c_hat[j] * dtau + rdc[j] for j in range(len(psd))]
                dsn = (-(a_nn.T @ dy_shift) + c_hat_n * dtau + rdn) if have_nn else np.zeros(0)
                dX = [_herm(rx[j] - scal[j][3] @ dS[j] @ scal[j][3]) for j in range(len(psd))]
                dxn = rxn - w2n * dsn if have_nn else np.zeros(0)
                if data.lmi:
                    # restore A dx - b dtau = -rp, which the back-substitution
                    # above meets only to the accuracy of the Schur solves, by
                    # the correction of least norm in the scaling's metric (the
                    # LMI form has no free columns)
                    v = gsolve(b * dtau - rp - apply_cones(dX, dxn))
                    at_v = apply_at(v)
                    dX = [_herm(dX[j] + scal[j][3] @ at_v[j] @ scal[j][3]) for j in range(len(psd))]
                    if have_nn:
                        dxn = dxn + w2n * (a_nn.T @ v)
                dkap = (dtau_rhs - kap * dtau) / tau
                ok = np.isfinite(dtau) and np.isfinite(dkap) and all(
                    np.all(np.isfinite(d)) for d in (*dX, *dS, dxn, dsn, dxf, dy)
                )
                return _Direction(dX, dS, dxn, dsn, dxf, dy, dtau, dkap, ok=ok)

            def max_step(d: _Direction) -> float:
                t = np.inf
                for j in range(len(psd)):
                    t = min(t, _psd_max_step(scal[j][4], d.dX[j]))
                    t = min(t, _psd_max_step(scal[j][5], d.dS[j]))
                if have_nn:
                    t = min(t, _vec_max_step(xn, d.dxn), _vec_max_step(sn, d.dsn))
                if d.dtau < 0:
                    t = min(t, -tau / d.dtau)
                if d.dkap < 0:
                    t = min(t, -kap / d.dkap)
                return t

            aff = direction([-X[j] for j in range(len(psd))], -xn, -tau * kap)
            if not aff.ok:
                return "non_finite"

            a_aff = min(1.0, max_step(aff))
            compl_aff = sum(
                _inner(X[j] + a_aff * aff.dX[j], Sm[j] + a_aff * aff.dS[j])
                for j in range(len(psd))
            )
            if have_nn:
                compl_aff += float((xn + a_aff * aff.dxn) @ (sn + a_aff * aff.dsn))
            mu_aff = (compl_aff + (tau + a_aff * aff.dtau) * (kap + a_aff * aff.dkap)) / (nu + 1)
            sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))

            rx = []
            for j, cone in enumerate(psd):
                r, rinv, lam, _, _, _ = scal[j]
                dxt = rinv @ aff.dX[j] @ rinv.conj().T
                dst = r.conj().T @ aff.dS[j] @ r
                corr = 0.5 * (dxt @ dst + dst @ dxt)
                d = sigma * mu * np.eye(cone.side) - np.diag(lam**2) - corr
                rx.append(_herm(r @ (2.0 * d / (lam[:, None] + lam[None, :])) @ r.conj().T))
            rxn = (sigma * mu - xn * sn - aff.dxn * aff.dsn) / sn if have_nn else np.zeros(0)
            dtau_rhs = sigma * mu - tau * kap - aff.dtau * aff.dkap
            step = direction(rx, rxn, dtau_rhs)
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

        for j in range(len(psd)):
            X[j] = _herm(X[j] + alpha * step.dX[j])
            Sm[j] = _herm(Sm[j] + alpha * step.dS[j])
        if have_nn:
            xn = xn + alpha * step.dxn
            sn = sn + alpha * step.dsn
        if have_f:
            xf = xf + alpha * step.dxf
        y = y + alpha * step.dy
        tau = tau + alpha * step.dtau
        kap = kap + alpha * step.dkap

    return _Final(status, reason, it, None if best is None else best[1:])
