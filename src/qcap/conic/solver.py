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

Batches.  ``solve_all`` iterates the programs of one assembled shape (form,
row count, and each stack's side and count) in lockstep, as OptNet's
batched interior-point method does (Amos and Kolter, ICML 2017).  Each
stack holds every program's cones, program after program, and A is
block-diagonal, so the NT scaling, the W R W products, the Schur kernels,
the step test and A, A' run once for the whole batch, and one sparse product
yields every program's Schur complement.  What belongs to one program is
its entry of an array over the programs, computed from its own slices as a
solve of it alone computes it: its pairings and norms (per stack, one
stacked ``vecdot``, which sums as ``np.vdot`` does), its Cholesky factor
(one stacked ``cholesky``), its tau, kappa, mu, sigma and step length, and
its stopping tests and best iterate, as masks.  Only its triangular solves
run program by program.  So each program ends on the iterate it reaches
alone, to the bit, and ``solve`` is ``solve_all`` of one program.  A program
that ends leaves the batch, and the others go on.  A breakdown is a mask
too: each LAPACK call of the step goes through ``_each``, which calls per
matrix only should the stacked call raise, and gives a failed matrix a
finite stand-in; its program alone ends with ``factorization_failed``.

Frames.  The copies of one program frame (``ConicProgram.structure``, see
``program.py``) differ only in their costs and rows, so ``solve_all``
assembles what the coefficients alone decide once per structure: the form,
the reduction's frame (``lmi.EqForm`` or ``lmi.LmiForm``: E's pivots, T and
A = T'G) and the stacks' A, split and A'.  Each program then adds its
objective per stack, its b and its norms (``_assemble``).  A program whose
coefficients carry data, such as the fidelity row of f and the g family,
has a structure of its own, and so assembles whole, by the same path.  The
frames live for one ``solve_all`` call.

Two forms, one reduction.  The iteration sees cones alone: min c.x s.t.
A x = b, with the dual max b.z s.t. c - A'z in K.  A program reaches it
through ``lmi.DualFrame``, as one of two dual programs whose equality
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
from dataclasses import dataclass, replace

import numpy as np
from numpy.linalg import cholesky, eigvalsh, svd
from scipy import sparse
from scipy.linalg.lapack import dpotrs

from ..matops import basis_pairs, from_hermitian_coords, hermitian_coords
from ._blas import one_blas_thread
from .lmi import (
    EqForm, InconsistentRows, LmiForm, LmiRows, Reduction, check_equalities, row_counts,
    stated_blocks, stated_costs,
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
# A batch of programs solved in lockstep holds at most this many Schur
# entries (programs * rows**2), so that a sweep's peak memory stays near a
# solo solve's: each program in a batch adds its Schur complement, its factor
# and its share of every stacked temporary.  Past about ten small programs a
# batch saves little more: the Fig. 3 sweep (26 points, Q_Gamma and Q_Theta
# of 73 and 74 rows) in batches of 26, 13 and 9 took 0.44, 0.46 and 0.47 s
# of CPU on one core of a 2-core x86-64 host, at a peak RSS of 91.5, 88.7
# and 87.7 MB, where solving each program alone peaked at 82.8 MB.  On the
# phase sectors these programs have 21 and 22 rows, so each Fig. 3 column
# fits one batch (its r = 0 point, with 5 joint sectors, is a shape alone).
_BATCH_SCHUR = 2**16


@dataclass
class ConicSolution:
    """Result of a solve: objective values, status, and per-block variables.

    ``reason`` is why the iteration ended: ``converged``, ``iteration_limit``,
    ``inconsistent_rows`` (the equality rows have no solution, and ``y``
    combines them into 0 = 1), ``free_ray`` (``unbounded`` with no
    iteration: free columns that no row sees combine into a lower objective),
    or a breakdown, ``factorization_failed`` (a LAPACK call on the Schur
    complement, a cone or the step test failed), ``non_finite`` or
    ``step_stalled``.  ``form`` is the form the program was solved in,
    ``eq`` or ``lmi``."""

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
    a: sparse.csr_array | None  # (m, count * side**2), cones contiguous; None in a batch
    # ``a`` / gamma with its rows split by cone, for the cones lo:hi of each
    # chunk: row (c - lo) * m + r holds row r's coefficients on cone c, so that
    # its product with [K_lo; ...; K_hi-1] stacks the a_c K_c / gamma
    split: list[tuple[int, int, sparse.csr_array]]


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


def _user_value(lmi: bool, offset, scale, pobj, dobj):
    """The user's objective, in min sense, of the iterate's values; with the
    two swapped, the user's dual objective.  The LMI form's has the offset
    and scale of its program (``_Assembled``), each value one per program
    of a batch or a float."""
    if not lmi:
        return pobj - offset
    return offset - dobj / scale


def _cost_norm(costs) -> float:
    """|c| from each block's (kind, cost coordinates); a Hermitian C pairs as C / 2."""
    return float(np.sqrt(sum(c @ c / (2.0 if kind == HERM_PSD else 1.0) for kind, c in costs)))


def _stacks(m: int, cones) -> list[_Stack]:
    """Group cones into stacks: the Hermitian ones by side, and all
    nonnegative entries in one, each stack up to ``_STACK_KERNEL``.  Each
    cone is given as (block name, kind, size, rows, coordinates, values);
    the stacks' ``cobj`` is left to ``_cobj``."""
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
        spans, rows, cols, vals = [], [], [], []
        first = 0
        for name, kind, size, r, k, v in members:
            count = size if kind == NONNEG else 1
            spans.append((name, first, count))
            rows.append(r)
            cols.append(first * n + k)
            vals.append(v)
            first += count
        rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
        a = sparse.csr_array((vals, (rows, cols)), shape=(m, first * n))
        split = sparse.csr_array(
            (vals / gamma, (cols // n * m + rows, cols)), shape=(first * m, first * n)
        )
        stacks.append(_Stack(side, gamma, first, spans, None, a, [(0, first, split)]))
    return stacks


def _cobj(st: _Stack, costs: dict[str, np.ndarray]) -> np.ndarray:
    """The objective / gamma of a stack's cones, from each cone's costs."""
    c = np.concatenate([costs[name] for name, *_ in st.spans]).reshape(st.count, -1)
    with np.errstate(invalid="ignore"):  # non-finite data ends the solve as non_finite
        return from_hermitian_coords(c, st.side) / st.gamma


@dataclass
class _Frame:
    """The coefficient part of the assembly of the programs of one
    ``structure`` in one form: the form with its reduction's frame, and the
    stacks' A, whose ``cobj`` each program adds."""

    form: EqForm | LmiForm
    stacks: list[_Stack]
    a: sparse.csr_array
    at: sparse.csr_array


def _frame(prog: ConicProgram, form: str) -> _Frame:
    blocks = stated_blocks(prog)
    red = LmiForm(prog, blocks) if form == "lmi" else EqForm(prog, blocks)
    m = red.dual.n_z
    stacks = _stacks(m, red.dual.cones)
    a = sparse.hstack([st.a for st in stacks], format="csr") if stacks else sparse.csr_array((m, 0))
    return _Frame(red, stacks, a, a.T.tocsr())


def _assemble(prog: ConicProgram, form: str, frames: dict | None = None) -> _Assembled:
    """The solver's program for ``prog`` in ``form``: the form's dual program,
    reduced (``lmi.DualFrame``), whose errors it raises.  Its coefficient
    part comes from ``frames``, by structure and form, where an earlier
    program of the same ``structure`` left it, and is left there otherwise;
    the program adds its costs and rows: cobj, b and the norms."""
    key = (prog.structure, form)
    fr = None if frames is None else frames.get(key)
    if fr is None:
        fr = _frame(prog, form)
        if frames is not None:
            frames[key] = fr
    sign = 1.0 if prog.sense == "min" else -1.0
    costs = stated_costs(prog)
    red = fr.form.reduce(prog, costs)
    if form == "lmi":
        # the solver's primal side, the user's multipliers, then weighs less
        # than the user's point, whose feasibility decides the reported value
        scale, rows = 1.0 / (1.0 + float(np.linalg.norm(red.b))), fr.form.rows
        b = scale * red.b
        norms = float(np.linalg.norm(b)), _cost_norm((cone[1], cone[-1]) for cone in red.cones)
    else:
        scale, rows, b = 1.0, None, red.b
        kinds = [blk.kind for blk in prog.blocks]
        norms = float(np.linalg.norm(prog.rows)), _cost_norm(zip(kinds, costs))
    by_name = {cone[0]: cone[-1] for cone in red.cones}
    stacks = [replace(st, cobj=_cobj(st, by_name)) for st in fr.stacks]
    return _Assembled(stacks, fr.a, fr.at, b, sign, *norms, red, fr.form.free, rows, scale)


def _assemble_all(progs: list[ConicProgram]) -> list:
    """Each program's ``_assemble`` in the form ``_form`` picks, or the
    solution it ends with before any iteration.  The programs of one
    ``structure`` share their form and the coefficient part of their
    assembly, which the first of them computes."""
    forms: dict = {}
    frames: dict = {}
    out = []
    for prog in progs:
        if prog.structure not in forms:
            forms[prog.structure] = _form(prog)
        form = forms[prog.structure]
        try:
            out.append(_assemble(prog, form, frames))
        except InconsistentRows as exc:
            # E y = e is the LMI form's equality rows, and the equality form's free columns
            if form == "lmi":
                out.append(_empty(INFEASIBLE, "inconsistent_rows", 0, form, exc.y))
            else:
                out.append(_empty(UNBOUNDED, "free_ray", 0, form))
        except FloatingPointError:
            out.append(_empty(MAX_ITER, "non_finite", 0, form))
    return out


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


def _schur(data, ws: list[np.ndarray]) -> np.ndarray:
    """The symmetric Schur complement M = A W A' of the cone columns of each
    program of ``data`` (an ``_Assembled`` or a ``_Batch``), as a (programs,
    m, m) stack, where ``ws`` holds each stack's scalings W: each cone c adds
    a_c (K_c / gamma) a_c', with K_c its ``_basis_kernel``, and a chunk of a
    stack's a_c K_c / gamma come from one sparse product with its ``split``.
    In a batch, A is block-diagonal, so that one product A [K A']' yields
    every program's M from its own rows."""
    b = np.atleast_2d(data.b)
    m = b.shape[1]
    # [a_c K_c]' of every cone, stacked row-major, the layout the sparse product reads
    gt = np.empty((data.a.shape[1], m))
    off = 0
    for st, w in zip(data.stacks, ws):
        n = st.side * st.side
        for lo, hi, a_split in st.split:
            k = _basis_kernel(w[lo:hi]).reshape(-1, n)
            ak = (a_split @ k).reshape(hi - lo, m, n)
            gt[off + lo * n : off + hi * n].reshape(hi - lo, n, m)[...] = ak.transpose(0, 2, 1)
        off += st.count * n
    M = (data.a @ gt).reshape(b.shape[0], m, m)
    return 0.5 * (M + M.swapaxes(-1, -2))


def _each(fn, mats: np.ndarray, stand_in) -> tuple:
    """``fn`` of each matrix of a stack, by one stacked call, and the
    positions of the matrices it failed on.  Only should that call raise
    ``LinAlgError`` does ``fn`` run on each matrix alone; one it fails on
    takes ``stand_in(side)``, a finite output of ``fn`` for one matrix, so
    that its program's step runs on finite numbers until it is dropped."""
    try:
        return fn(mats), []
    except np.linalg.LinAlgError:
        pass
    outs, bad = [], []
    for i, mat in enumerate(mats):
        try:
            outs.append(fn(mat))
        except np.linalg.LinAlgError:
            outs.append(stand_in(mats.shape[-1]))
            bad.append(i)
    tup = isinstance(outs[0], tuple)
    return (tuple(map(np.stack, zip(*outs))) if tup else np.stack(outs)), bad


def _schur_factors(mmats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factorization of each Schur complement M of a (programs, m, m)
    stack: the equilibration of each, the upper Cholesky factor of each
    equilibrated, shifted M, and whether that factor holds.

    M is first equilibrated symmetrically by its diagonal (rows whose
    coefficients live where W is small would otherwise sit orders of magnitude
    below the rest), and shifted by a tiny multiple of the identity: on
    degenerate programs M becomes numerically singular near the optimum, and
    an unshifted factor returns garbage along its near-null directions.  Each
    solve (``_msolve``) takes one refinement step against the unshifted
    matrix, which restores full accuracy everywhere else.  The factors come
    from ``_each``: a program whose M does not factor, or whose factor is not
    finite, has no factor that holds.
    """
    diag = np.abs(np.diagonal(mmats, axis1=1, axis2=2))
    diag[diag == 0.0] = 1.0
    eqs = 1.0 / np.sqrt(diag)
    scaled = mmats * eqs[:, :, None] * eqs[:, None, :]
    rows = np.arange(mmats.shape[1])
    scaled[:, rows, rows] += _SCHUR_SHIFT
    ups, bad = _each(lambda mat: cholesky(mat, upper=True), scaled, np.eye)  # M = U'U
    # a collapsed scaling can leave a factor that is not finite
    live = np.isfinite(np.diagonal(ups, axis1=1, axis2=2)).all(axis=1)
    live[bad] = False
    # each factor in column-major order, as LAPACK's triangular solves read it
    return eqs, np.ascontiguousarray(ups.swapaxes(1, 2)).swapaxes(1, 2), live


def _msolve(
    mmats: np.ndarray, eqs: np.ndarray, ups: np.ndarray, live: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """M^-1 rhs of each program, with ``_schur_factors``' factors, refined
    once against M; zero where the factorization failed."""
    sol = np.zeros(rhs.shape)
    idx = np.flatnonzero(live)
    if rhs.shape[1] == 0 or idx.size == 0:  # no rows, or no factor
        return sol
    if idx.size < live.size:
        mmats, eqs, rhs = mmats[idx], eqs[idx], rhs[idx]

    def tri(v: np.ndarray) -> np.ndarray:
        return np.stack([dpotrs(ups[i], r)[0] for i, r in zip(idx, v)])

    sol[idx] = eqs * tri(eqs * rhs)
    sol[idx] += eqs * tri(eqs * (rhs - (mmats @ sol[idx][..., None])[..., 0]))
    return sol


# The NT scaling of a stack: R^H S R = R^-1 X R^-H = diag(lam) and W = R R^H,
# so that W S W = X; g stacks lam^-1/2 R^-1 over lam^-1/2 R^H, which carry
# dX and dS into the scaled space.
_Scaling = namedtuple("_Scaling", "r rinv lam w g")


def _nt_scaling(xs: list, ss: list, programs: int = 1) -> tuple[list[_Scaling], np.ndarray]:
    """The NT scaling of each stack of X and S, from their stacked Cholesky
    factors Lx, Ls and the SVD of Ls^H Lx, and which of ``programs``
    programs, whose cones follow one another in each stack, it failed for:
    by ``_each``, a factor that fails is the identity, and a failed SVD that
    of the identity."""
    out = []
    failed = np.zeros(programs, dtype=bool)
    for x, s in zip(xs, ss):
        # by its full name, so that patching ``cholesky`` fails the Schur factor alone
        lx, bad_x = _each(np.linalg.cholesky, x, np.eye)
        ls, bad_s = _each(np.linalg.cholesky, s, np.eye)
        (u, sig, vh), bad_v = _each(svd, _h(ls) @ lx, lambda n: (np.eye(n), np.ones(n), np.eye(n)))
        for i in bad_x + bad_s + bad_v:
            failed[i * programs // len(x)] = True
        isq = 1.0 / np.sqrt(sig)
        r = (lx @ _h(vh)) * isq[..., None, :]
        rinv = _h(u * isq[..., None, :]) @ _h(ls)
        g = np.concatenate([rinv * isq[..., :, None], _h(r) * isq[..., :, None]])
        out.append(_Scaling(r, rinv, sig, r @ _h(r), g))
    return out, failed


def _max_step(
    scal: list[_Scaling], dX: list[np.ndarray], dS: list[np.ndarray], programs: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Largest t with X + t dX and S + t dS PSD in every stack, for each of
    ``programs`` programs whose cones follow one another in each stack, and
    which programs the test failed for.

    The step test runs in the scaled space, where X and S both read
    diag(lam): X + t dX is PSD while I + t lam^-1/2 R^-1 dX R^-H lam^-1/2 is,
    so t is -1/lambda_min of that matrix, and likewise of
    lam^-1/2 R^H dS R lam^-1/2 for S.  That is one stacked ``eigvalsh`` per
    stack (through ``_each``), and no triangular solve.
    """
    lmin = np.full(programs, np.inf)
    failed = np.zeros(programs, dtype=bool)
    for sc, dx, ds in zip(scal, dX, dS):
        vals, bad = _each(eigvalsh, _herm(sc.g @ np.concatenate([dx, ds]) @ _h(sc.g)), np.zeros)
        # each program's cones of X, then of S
        for i in bad:
            failed[i % len(dx) * programs // len(dx)] = True
        low = vals[:, 0].reshape(2, programs, -1).swapaxes(0, 1).reshape(programs, -1).min(axis=1)
        lmin = np.minimum(lmin, low)
    return np.where(lmin >= -1e-300, np.inf, -1.0 / lmin), failed


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
    This is ``solve_all`` of the one program.
    """
    return solve_all([prog], feas_tol, gap_tol, max_iter)[0]


def solve_all(
    progs: list[ConicProgram],
    feas_tol: float = 1e-8,
    gap_tol: float = 1e-8,
    max_iter: int = 200,
) -> list[ConicSolution]:
    """Solve each program as ``solve`` does, the programs of one assembled
    shape (form, row count, and each stack's side and count) in lockstep.

    Each solution is the one ``solve`` returns for its program alone, to the
    bit: every program keeps its own Schur factor, pairings, norms, step
    lengths and stopping tests, and leaves the batch when it ends.
    """
    sols: list[ConicSolution | None] = [None] * len(progs)
    with one_blas_thread():
        groups: dict[tuple, list] = {}
        for i, data in enumerate(_assemble_all(progs)):
            if isinstance(data, ConicSolution):
                sols[i] = data
                continue
            form = "eq" if data.lmi is None else "lmi"
            shape = (form, data.b.size, tuple((st.side, st.gamma, st.count) for st in data.stacks))
            groups.setdefault(shape, []).append((i, data))
        for shape, group in groups.items():
            for members in _batches(group, shape[1]):
                fins = _iterate([data for _, data in members], feas_tol, gap_tol, max_iter)
                for (i, data), fin in zip(members, fins):
                    sols[i] = _checked(progs[i], _solution(data, fin))
    for prog, sol in zip(progs, sols):
        sol.blocks = prog.full_blocks(sol.blocks)
    return sols


def _form(prog: ConicProgram) -> str:
    """``lmi`` when the LMI form's smaller Schur complement saves at least
    ``_LMI_MIN_FLOPS`` of Cholesky per iteration, else ``eq``."""
    eq_rows, lmi_rows = row_counts(prog)
    saved = (eq_rows**3 - lmi_rows**3) / 3.0
    return "lmi" if lmi_rows > 0 and saved >= _LMI_MIN_FLOPS else "eq"


def _checked(prog: ConicProgram, sol: ConicSolution) -> ConicSolution:
    """``sol``, or ``infeasible``/``inconsistent_rows`` where equality rows
    with no solution stalled the equality form; their elimination finds the
    combination that shows it."""
    if sol.status == MAX_ITER and sol.form == "eq":
        try:
            check_equalities(prog)
        except InconsistentRows as exc:
            return _empty(INFEASIBLE, "inconsistent_rows", sol.iterations, sol.form, exc.y)
    return sol


# How the iteration of a program ended, and its best iterate, (X, y, S, tau,
# pres, dres, pobj, dobj), or None if it had none
_Final = namedtuple("_Final", "status reason iterations best")


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
        primal_value=data.sign * _user_value(lmi, red.offset, data.scale, pobj, dobj),
        dual_value=data.sign * _user_value(lmi, red.offset, data.scale, dobj, pobj),
        gap=abs(pobj - dobj) / data.scale,
        blocks=blocks,
        iterations=fin.iterations,
        primal_residual=pres,
        dual_residual=dres,
        y=rows,
        form=form,
    )


def _block_diag(mats: list[sparse.csr_array], widths: list[int] | None = None) -> sparse.csr_array:
    """The same-shaped CSR matrices on the diagonal of one, each row's
    entries in their order.  Given ``widths``, each matrix's columns fall in
    blocks of these widths, and the columns are grouped by block, each
    block's columns matrix after matrix: a batch's A, stack by stack."""
    if len(mats) == 1:
        return mats[0]
    rows, cols = mats[0].shape
    w = np.array(widths or [cols])
    nnz = np.cumsum([0] + [mat.nnz for mat in mats])
    indptr = np.concatenate([[0]] + [mat.indptr[1:] + n for mat, n in zip(mats, nnz)])
    col = np.concatenate([mat.indices for mat in mats])
    # column c of matrix k, in a block of width w from column o, moves by (len(mats) - 1) o
    # + k w: past the other matrices' earlier blocks and matrix k's forerunners in its own
    shift = np.repeat((len(mats) - 1) * (np.cumsum(w) - w), w)[col]
    col = col + shift + np.repeat(np.arange(len(mats)), np.diff(nnz)) * np.repeat(w, w)[col]
    data = np.concatenate([mat.data for mat in mats])
    return sparse.csr_array((data, col, indptr), shape=(len(mats) * rows, len(mats) * cols))


def _chunks(stacks: list[_Stack]) -> list[tuple[int, int, sparse.csr_array]]:
    """The ``split`` of one stack of each of the programs joined, by as many
    programs at a time as keep a chunk's Schur kernel within ``_STACK_KERNEL``."""
    st = stacks[0]
    per = max(1, _STACK_KERNEL // (st.count * st.side**4))
    return [
        (lo * st.count, (lo + len(group)) * st.count, _block_diag([g.split[0][2] for g in group]))
        for lo in range(0, len(stacks), per)
        for group in [stacks[lo : lo + per]]
    ]


def _batches(members: list, m: int) -> list[list]:
    """Same-shaped programs of m rows in contiguous runs of near-equal size,
    each of at most ``_BATCH_SCHUR`` Schur entries or of one program."""
    runs = -(-len(members) * m * m // _BATCH_SCHUR)
    size = -(-len(members) // max(1, runs))
    return [members[lo : lo + size] for lo in range(0, len(members), size)]


class _Batch:
    """Programs of one assembled shape as one: each stack holds every
    program's cones, program after program, and A is block-diagonal, with
    its columns stack by stack, so that the cone algebra and A, A' run once
    for all of them.  What belongs to one program -- its pairings, norms and
    scalars -- is one entry of an array over the programs, computed from its
    own slices as a solve of it alone computes it."""

    def __init__(self, members: list[_Assembled]) -> None:
        first = members[0]
        self.members = members
        self.size = len(members)
        self.lmi = first.lmi is not None
        self.b = np.stack([d.b for d in members])
        # each program's residual units, objective scale and value offset
        self.normb, self.normc, self.scale, self.offset = np.array(
            [(d.normb, d.normc, d.scale, d.red.offset) for d in members]
        ).T
        self.counts = [st.count for st in first.stacks]
        if self.size == 1:
            self.stacks, self.a, self.at = first.stacks, first.a, first.at
        else:
            self.stacks = [
                _Stack(
                    st.side, st.gamma, st.count * self.size, [],
                    np.concatenate([d.stacks[j].cobj for d in members]),
                    None,  # the batch keeps its A whole, in ``self.a``
                    _chunks([d.stacks[j] for d in members]),
                )
                for j, st in enumerate(first.stacks)
            ]
            widths = [st.count * st.side**2 for st in first.stacks]
            self.a = _block_diag([d.a for d in members], widths)
            self.at = self.a.T.tocsr()
        self.cobj = [st.cobj for st in self.stacks]
        self.offs = np.cumsum([0] + [st.count * st.side**2 for st in self.stacks])

    def apply_a(self, mats: list[np.ndarray]) -> np.ndarray:
        if not self.stacks:
            return np.zeros(self.b.shape)
        coords = np.concatenate([hermitian_coords(x).ravel() for x in mats])
        return (self.a @ coords).reshape(self.b.shape)

    def apply_at(self, vec: np.ndarray) -> list[np.ndarray]:
        v = self.at @ vec.ravel()
        return [
            from_hermitian_coords(v[o : o + st.count * st.side**2].reshape(st.count, -1), st.side)
            / st.gamma
            for st, o in zip(self.stacks, self.offs)
        ]

    def inner(self, p: list[np.ndarray], q: list[np.ndarray]) -> np.ndarray:
        """<P, Q> of each program: per stack, one stacked ``vecdot`` of the
        programs' entries, which pairs them as ``np.vdot`` does, in the
        stack's pairing; summed stack by stack."""
        out = np.zeros(self.size)
        for st, x, z in zip(self.stacks, p, q):
            pair = np.vecdot(x.reshape(self.size, -1), z.reshape(self.size, -1)).real
            out = out + st.gamma * pair
        return out

    def per_cone(self, vals: np.ndarray) -> list[np.ndarray]:
        """One value per program, repeated over its cones of each stack, to
        broadcast over the stack."""
        return [np.repeat(vals, c)[:, None, None] for c in self.counts]

    def finite(self, mats: list[np.ndarray], rows: np.ndarray) -> np.ndarray:
        """Whether each program's entries of the stacks ``mats`` and its row
        of ``rows`` are finite."""
        ok = np.isfinite(rows).all(axis=1)
        for x in mats:
            ok &= np.isfinite(x).reshape(self.size, -1).all(axis=1)
        return ok


@dataclass
class _Lockstep:
    """Programs that iterate together: their batch, each one's index among
    the programs of the solve, and their iterate."""

    bat: _Batch
    ids: np.ndarray
    X: list[np.ndarray]
    S: list[np.ndarray]
    y: np.ndarray  # (programs, m)
    tau: np.ndarray  # (programs,)
    kap: np.ndarray

    @classmethod
    def start(cls, members: list[_Assembled]) -> _Lockstep:
        bat = _Batch(members)
        X = [np.tile(np.eye(st.side, dtype=np.complex128), (st.count, 1, 1)) for st in bat.stacks]
        S = [x.copy() for x in X]
        ones = np.ones(bat.size)
        return cls(bat, np.arange(bat.size), X, S, np.zeros(bat.b.shape), ones, ones.copy())

    def cones(self, mats: list[np.ndarray]) -> list[np.ndarray]:
        """Each stack of ``mats`` as (programs, cones, side, side)."""
        return [x.reshape(self.bat.size, c, *x.shape[1:]) for x, c in zip(mats, self.bat.counts)]


def _gather(run: _Lockstep, keep: np.ndarray) -> _Lockstep | None:
    """The programs at positions ``keep`` of the run, as one run; None if
    there are none."""
    if not len(keep):
        return None
    if len(keep) == run.bat.size:
        return run
    return _Lockstep(
        _Batch([run.bat.members[i] for i in keep]),
        run.ids[keep],
        [x[keep].reshape(-1, *x.shape[2:]) for x in run.cones(run.X)],
        [s[keep].reshape(-1, *s.shape[2:]) for s in run.cones(run.S)],
        run.y[keep], run.tau[keep], run.kap[keep],
    )


class _Best:
    """The best iterate of each program of ``_iterate``, by its index: its
    score, X, y, S, and its tau, pres, dres, pobj and dobj."""

    def __init__(self, stacks: list[_Stack], programs: int, m: int) -> None:
        self.seen = np.zeros(programs, dtype=bool)
        self.score = np.full(programs, np.inf)
        self.X = [np.empty((programs, st.count, st.side, st.side), complex) for st in stacks]
        self.S = [x.copy() for x in self.X]
        self.y = np.empty((programs, m))
        self.vals = np.empty((5, programs))

    def take(self, run: _Lockstep, mask: np.ndarray, score: np.ndarray, *vals) -> None:
        """Keep the current iterate of the run's programs in ``mask``."""
        ks = run.ids[mask]
        self.seen[ks] = True
        self.score[ks] = score[mask]
        for mine, x in zip(self.X + self.S, run.cones(run.X) + run.cones(run.S)):
            mine[ks] = x[mask]
        self.y[ks] = run.y[mask]
        self.vals[:, ks] = np.stack([v[mask] for v in (run.tau, *vals)])

    def of(self, k: int) -> tuple | None:
        """Program k's (X, y, S, tau, pres, dres, pobj, dobj), or None."""
        if not self.seen[k]:
            return None
        return [x[k] for x in self.X], self.y[k], [s[k] for s in self.S], *self.vals[:, k].tolist()


def _residuals(run: _Lockstep) -> tuple:
    """A'y, A X, and the primal and dual residuals of the self-dual system."""
    bat = run.bat
    at_y = bat.apply_at(run.y)
    ax = bat.apply_a(run.X)
    rp = ax - bat.b * run.tau[:, None]
    rd = [-aty + c * t - s for aty, c, t, s in zip(at_y, bat.cobj, bat.per_cone(run.tau), run.S)]
    return at_y, ax, rp, rd


def _iterate(members: list[_Assembled], feas_tol, gap_tol, max_iter) -> list[_Final]:
    """Iterate programs of one assembled shape in lockstep, each to the end
    and the best iterate that it reaches alone.

    A program that converges, certifies infeasibility or breaks down leaves
    the batch, and the others go on.  Each test is a mask over the programs.
    """
    debug = _log.isEnabledFor(logging.DEBUG)
    # a side-s Hermitian cone counts 2s, as its real symmetric embedding does
    nu = sum(st.gamma * st.side * st.count for st in members[0].stacks)
    best = _Best(members[0].stacks, len(members), members[0].b.size)
    finals: list[_Final | None] = [None] * len(members)

    def end(ks, status: str, reason: str, it: int) -> None:
        for k in ks:
            finals[k] = _Final(status, reason, it, best.of(k))

    run = _Lockstep.start(members)
    it = 0
    # a program that breaks down fills its entries with inf and nan, and its mask drops them
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(1, max_iter + 1):
            bat = run.bat
            tau, kap = run.tau, run.kap
            at_y, ax, rp, rd = _residuals(run)
            cx, xs = bat.inner(bat.cobj, run.X), bat.inner(run.X, run.S)
            by = np.vecdot(bat.b, run.y)
            rg = cx - by + kap
            mu = (xs + tau * kap) / (nu + 1)

            # in the user's units: the LMI form's b and its multipliers carry the scale
            # (``vecdot`` of a row with itself is its ``np.linalg.norm`` squared)
            pres = np.sqrt(np.vecdot(rp, rp)) / tau / (bat.scale + bat.normb)
            dres = np.sqrt(bat.inner(rd, rd)) / tau / (1.0 + bat.normc)
            pobj, dobj = cx / tau, by / tau

            for row in zip(mu, pres, dres, abs(pobj - dobj), tau, kap) if debug else ():
                _log.debug("it %3d  mu=%9.3e  pres=%9.3e  dres=%9.3e  gap=%9.3e  tau=%8.3e  "
                           "kap=%8.3e", it, *row)

            finite = np.isfinite(np.stack([mu, pres, dres, pobj, dobj])).all(axis=0)
            end(run.ids[~finite], MAX_ITER, "non_finite", it)  # breakdown: the best iterate returns

            gap = abs(pobj - dobj) / bat.scale
            ref = 1.0 + abs(_user_value(bat.lmi, bat.offset, bat.scale, pobj, dobj))
            done = finite & (pres <= feas_tol) & (dres <= feas_tol) & (gap <= gap_tol * ref)
            score = np.where(done, 0.0, np.maximum(np.maximum(pres, dres), gap / ref))
            best.take(run, finite & (done | ~best.seen[run.ids] | (score < best.score[run.ids])),
                      score, pres, dres, pobj, dobj)
            end(run.ids[done], OPTIMAL, "converged", it)
            go = finite & ~done

            # Farkas certificate checks for infeasible / unbounded programs
            if it > 1:
                ray = go & (by > 0.0)
                if ray.any():
                    ray_s = [aty + s for aty, s in zip(at_y, run.S)]
                    res = np.sqrt(bat.inner(ray_s, ray_s))
                    ray &= res * np.maximum(1.0, bat.normb / bat.scale) <= feas_tol * by / bat.scale
                    end(run.ids[ray], INFEASIBLE, "converged", it)
                    go &= ~ray
                res = np.sqrt(np.vecdot(ax, ax)) * np.maximum(1.0, bat.normc)
                ray = go & (cx < 0.0) & (res <= feas_tol * (-cx))
                end(run.ids[ray], UNBOUNDED, "converged", it)
                go &= ~ray

            run = _gather(run, np.flatnonzero(go))
            if run is None:
                break
            rg, mu = rg[go], mu[go]
            if run.bat is not bat:
                at_y, _, rp, rd = _residuals(run)
            reasons, step, alphas = _newton(run, (at_y, rp, rd), rg, mu, nu)
            for k, why in zip(run.ids, reasons):
                if why is not None:
                    end([k], MAX_ITER, why, it)  # breakdown: the best iterate returns
            alive = np.array([why is None for why in reasons])
            run = _gather(_stepped(run, step, alphas, alive), np.flatnonzero(alive))
            if run is None:
                break

    end([k for k, fin in enumerate(finals) if fin is None], MAX_ITER, "iteration_limit", it)
    return finals


def _stepped(run: _Lockstep, step: _Direction, alphas: np.ndarray, alive: np.ndarray) -> _Lockstep:
    """The run after each program's step; a program that broke down takes
    none, and its entries are dropped, whatever they hold."""
    alphas = np.where(alive, alphas, 0.0)
    per_cone = run.bat.per_cone(alphas)
    return _Lockstep(
        run.bat,
        run.ids,
        [_herm(x + a * dx) for x, a, dx in zip(run.X, per_cone, step.dX)],
        [_herm(s + a * ds) for s, a, ds in zip(run.S, per_cone, step.dS)],
        run.y + alphas[:, None] * step.dy,
        run.tau + alphas * step.dtau,
        run.kap + alphas * step.dkap,
    )


def _newton(run: _Lockstep, res: tuple, rg: np.ndarray, mu: np.ndarray, nu: float):
    """Each program's predictor-corrector direction and step length, as
    (reasons, step, alphas): a program whose step broke down has its reason,
    and its entries of the step are not used."""
    bat = run.bat
    X, Sm, y, tau, kap = run.X, run.S, run.y, run.tau, run.kap
    at_y, rp, rd = res
    cobj = bat.cobj
    reasons: list[str | None] = [None] * bat.size

    def fail(mask: np.ndarray, why: str) -> None:
        for i in np.flatnonzero(mask):
            if reasons[i] is None:
                reasons[i] = why

    scal, broken = _nt_scaling(X, Sm, bat.size)
    fail(broken, "factorization_failed")  # its scaling is a finite stand-in
    ws = [sc.w for sc in scal]

    def wmw(mats):
        return [w @ x @ w for w, x in zip(ws, mats)]

    mmats = _schur(bat, ws)
    eqs, ups, live = _schur_factors(mmats)
    fail(~live, "factorization_failed")  # its directions are not used

    def msolve(rhs: np.ndarray) -> np.ndarray:
        return _msolve(mmats, eqs, ups, live, rhs)

    # pieces independent of the complementarity right-hand side
    wrd = wmw(rd)
    awrd = bat.apply_a(wrd)
    cwrd = bat.inner(cobj, wrd)

    def w_quad(mats) -> np.ndarray:
        # <xi, W(xi)> accumulated as sums of squares for stability
        xi = [_h(sc.r) @ x @ sc.r for sc, x in zip(scal, mats)]
        return bat.inner(xi, xi)

    # The tau column needs M^-1 A(W c W), whose right-hand side grows
    # like 1/mu; the residual of solving with it swamps the primal residual
    # near convergence.  Writing dy = dy' + dtau * y / tau moves the column to
    # c_hat = c - A'y / tau (about S / tau), whose image A(W c_hat W) is
    # moderate.  dS below is built from the same c_hat, so the primal
    # equation holds to the accuracy of the solves.
    wc = wmw(cobj)
    c_hat = [c - aty / t for c, aty, t in zip(cobj, at_y, bat.per_cone(tau))]
    pb = msolve(bat.b)
    pu = msolve(bat.apply_a(wmw(c_hat)))
    fail(~(np.isfinite(pb).all(axis=1) & np.isfinite(pu).all(axis=1)), "non_finite")
    p2 = pb + pu
    # Delta-tau denominator, algebraically -(|W^.5 A'pb|^2 + |W^.5 (c_hat - A'pu)|^2
    # + kap/tau); the naive inner-product form cancels catastrophically once
    # the scaling matrices become extreme near convergence.
    at_pu = bat.apply_at(pu)
    q2 = w_quad([c - atp for c, atp in zip(c_hat, at_pu)])
    denom = -(w_quad(bat.apply_at(pb)) + q2 + kap / tau)

    def direction(rx, dtau_rhs: np.ndarray) -> _Direction:
        h1 = -rp - bat.apply_a(rx) + awrd
        crx = bat.inner(cobj, rx)
        p1 = msolve(h1)
        # A(W c W) . p1 taken directly, not through M p1 = h1, so that
        # the gap row holds for the step actually taken
        wcp = bat.inner(wc, bat.apply_at(p1))
        h3 = -rg - dtau_rhs / tau - crx + cwrd
        num = h3 + np.vecdot(bat.b, p1) - wcp
        ok = (denom != 0.0) & np.isfinite(denom) & np.isfinite(num)
        dtau = np.where(ok, num / denom, 0.0)
        dy_shift = p1 + dtau[:, None] * p2  # dy' above
        dy = dy_shift + (dtau / tau)[:, None] * y
        at_dy = bat.apply_at(dy_shift)
        dS = [-atd + ch * d + r for atd, ch, d, r in zip(at_dy, c_hat, bat.per_cone(dtau), rd)]
        dX = [_herm(r - w @ ds @ w) for r, w, ds in zip(rx, ws, dS)]
        if bat.lmi:
            # restore A dx - b dtau = -rp, which the back-substitution
            # above meets only to the accuracy of the Schur solves, by
            # the correction of least norm in the scaling's metric
            v = msolve(bat.b * dtau[:, None] - rp - bat.apply_a(dX))
            dX = [_herm(dx + wv) for dx, wv in zip(dX, wmw(bat.apply_at(v)))]
        dkap = (dtau_rhs - kap * dtau) / tau
        ok &= np.isfinite(dtau) & np.isfinite(dkap) & bat.finite([*dX, *dS], dy)
        return _Direction(dX, dS, dy, dtau, dkap, ok)

    def max_step(d: _Direction) -> np.ndarray:
        t, broken = _max_step(scal, d.dX, d.dS, bat.size)
        fail(broken, "factorization_failed")
        t = np.where(d.dtau < 0, np.minimum(t, -tau / d.dtau), t)
        return np.where(d.dkap < 0, np.minimum(t, -kap / d.dkap), t)

    aff = direction([-x for x in X], -tau * kap)
    fail(~aff.ok, "non_finite")

    a_aff = np.minimum(1.0, max_step(aff))
    compl_aff = bat.inner(
        [x + a * dx for x, a, dx in zip(X, bat.per_cone(a_aff), aff.dX)],
        [s + a * ds for s, a, ds in zip(Sm, bat.per_cone(a_aff), aff.dS)],
    )
    tk_aff = (tau + a_aff * aff.dtau) * (kap + a_aff * aff.dkap)
    mu_aff = (compl_aff + tk_aff) / (nu + 1)
    # float_power rounds as the C library's pow does (np.power may not)
    sigma = np.minimum(1.0, np.maximum(0.0, np.float_power(mu_aff / mu, 3)))

    # the corrector's complementarity right-hand side, in the scaled space
    rx = []
    target = bat.per_cone(sigma * mu)
    for sc, st, dx, ds, tc in zip(scal, bat.stacks, aff.dX, aff.dS, target):
        dxt = sc.rinv @ dx @ _h(sc.rinv)
        dst = _h(sc.r) @ ds @ sc.r
        d = -0.5 * (dxt @ dst + dst @ dxt)
        diag = np.arange(st.side)
        d[:, diag, diag] += tc[:, 0] - sc.lam**2
        d *= 2.0 / (sc.lam[:, :, None] + sc.lam[:, None, :])
        rx.append(_herm(sc.r @ d @ _h(sc.r)))
    step = direction(rx, sigma * mu - tau * kap - aff.dtau * aff.dkap)
    if not step.ok.all():
        # where the corrector is not finite, the predictor is the step
        use = ~step.ok
        step = _Direction(
            [np.where(u, a, s) for u, a, s in zip(bat.per_cone(use), aff.dX, step.dX)],
            [np.where(u, a, s) for u, a, s in zip(bat.per_cone(use), aff.dS, step.dS)],
            np.where(use[:, None], aff.dy, step.dy),
            np.where(use, aff.dtau, step.dtau),
            np.where(use, aff.dkap, step.dkap),
            np.ones(bat.size, dtype=bool),
        )

    alphas = np.minimum(1.0, _STEP_BACKOFF * max_step(step))
    fail(~(alphas >= _STALL_ALPHA), "step_stalled")  # also rejects a NaN step length
    return reasons, step, alphas
