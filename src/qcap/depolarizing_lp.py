"""Linear-programming reductions of the one-shot bounds for qudit
depolarizing channels under tensor powers.

The n-fold Choi matrix is invariant under local unitaries of the form
U (x) conj(U) applied factor-wise, so every SDP over it collapses onto the
commutant spanned by the 2^n products of the two invariant projectors per
factor, grouped by weight.  Operators become (n+1)-vectors, the partial
transpose becomes the exact rational matrix ``x_coeffs`` builds, and the
bound programs become LPs of side n+1 that stay solvable at n=30 where the
full SDPs would have side 4^n.

The LPs are solved by the dual simplex of the HiGHS that scipy bundles
(Huangfu and Hall, Math. Prog. Comp. 10, 2018); the returned vertices are
exact to roundoff, which keeps the ordering and monotonicity relations
between bound values intact even where they tie exactly.  ``linprog`` calls
scipy's HiGHS bindings directly, with the settings and the result checks of
``scipy.optimize.linprog(method="highs")``, whose per-call input cleaning,
option validation and sparse conversion cost more than the solves of these
small LPs.  It keeps the name ``linprog`` because the benchmark's tracer
wraps ``depolarizing_lp.linprog`` by that name and reads its ``status``.
"""
from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.optimize._highspy._core as _highs

from .oneshot import check_eps, refine
from .results import BoundResult

_LP_STATUS = {0: "optimal", 1: "max_iter", 2: "infeasible", 3: "unbounded", 4: "max_iter"}

_INF = _highs.kHighsInf

# the settings scipy.optimize.linprog(method="highs") passes HiGHS
_OPTIONS = _highs.HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
_OPTIONS.log_to_console = False
_OPTIONS.output_flag = False
_OPTIONS.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual

# scipy's status of each HiGHS model status (_highs_to_scipy_status_message);
# every other model status reads 4
_M = _highs.HighsModelStatus
_SCIPY_STATUS = {
    _M.kOptimal: 0,
    _M.kTimeLimit: 1,
    _M.kIterationLimit: 1,
    _M.kInfeasible: 2,
    _M.kModelError: 2,
    _M.kUnbounded: 3,
}

# scipy's _check_result: sqrt of linprog's default tol of 1e-9, times 10
_CHECK_TOL = 10.0 * math.sqrt(1e-9)

LpResult = namedtuple("LpResult", "status fun x")


def linprog(c, a_ub, b_ub, lb, ub) -> LpResult:
    """min c'x subject to a_ub x <= b_ub and lb <= x <= ub, by HiGHS.

    ``status``, ``fun`` and ``x`` are those of ``scipy.optimize.linprog(c,
    A_ub=a_ub, b_ub=b_ub, bounds=list(zip(lb, ub)), method="highs")``, to the
    bit: scipy's status codes, and ``fun`` and ``x`` only when HiGHS reports
    an optimum.  As scipy does, an optimum whose x misses a bound or a row by
    more than 10 sqrt(1e-9) reads status 4.  (scipy also demotes an
    ``infeasible`` whose point is feasible; HiGHS hands over no point but an
    optimum, so that case cannot arise.)  Infinite bounds are ``kHighsInf``.
    Each call takes a fresh solver, so no state carries from one LP to the
    next.
    """
    rows, cols = a_ub.shape
    nonzero = a_ub.T != 0.0
    lp = _highs.HighsLp()
    lp.num_col_, lp.num_row_ = cols, rows
    mat = lp.a_matrix_
    mat.format_ = _highs.MatrixFormat.kColwise
    mat.num_col_, mat.num_row_ = cols, rows
    mat.start_ = np.concatenate([[0], np.cumsum(nonzero.sum(axis=1))])
    mat.index_ = np.nonzero(nonzero)[1]
    mat.value_ = a_ub.T[nonzero]
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, lb, ub
    lp.row_lower_, lp.row_upper_ = np.full(rows, -_INF), b_ub
    highs = _highs._Highs()
    highs.passOptions(_OPTIONS)
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        return LpResult(_SCIPY_STATUS[_M.kModelError], None, None)
    ran = highs.run() != _highs.HighsStatus.kError
    status = _SCIPY_STATUS.get(highs.getModelStatus(), 4)
    if status != 0 or not ran:
        return LpResult(4 if status == 0 else status, None, None)
    sol = highs.getSolution()
    x = np.array(sol.col_value)
    fun = highs.getInfo().objective_function_value
    slack = b_ub - np.array(sol.row_value)
    if (
        np.isnan(fun)
        or np.isnan(x).any()
        or np.isnan(slack).any()
        or not np.all((x >= lb - _CHECK_TOL) & (x <= ub + _CHECK_TOL))
        or (slack < -_CHECK_TOL).any()
    ):
        status = 4
    return LpResult(status, fun, x)


@lru_cache(maxsize=256)
def x_coeffs(n: int, d: int = 2) -> np.ndarray:
    """Partial-transpose spectrum table of the invariant subspace.

    Entry [i, k] is the eigenvalue, on the weight-k spectral projector of
    the partially transposed basis, of the weight-i invariant basis element
    (k counts symmetric factors).  The alternating sum is accumulated in
    exact integer arithmetic before the single division by d^n; individual
    terms overflow the 53-bit float mantissa well before n = 30.

    The table depends on (n, d) alone and is cached, so ``lp_f`` and
    ``lp_g_hat_iterate`` on one row build it once.  The returned array is
    shared between callers and therefore read-only.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    x = np.zeros((n + 1, n + 1))
    dn = d**n
    for i in range(n + 1):
        for k in range(n + 1):
            num = 0
            for m in range(max(0, i + k - n), min(i, k) + 1):
                term = (
                    math.comb(k, m)
                    * math.comb(n - k, i - m)
                    * (d - 1) ** (k - m)
                    * (d + 1) ** (n - k + m - i)
                )
                num += -term if (i - m) % 2 else term
            x[i, k] = num / dn
    x.flags.writeable = False
    return x


@dataclass
class DepolLp:
    """Coefficient data shared by the reduced programs at fixed (n, p, d).

    ``x`` is the transpose table, ``fw`` the channel-fidelity weight of each
    invariant component, ``gw`` the marginal weight entering the iterated
    constraint, and ``kw`` the multiplicity of each transpose eigenvalue.
    ``box`` holds the rows x[:, k]' m - eta <= 0 and -x[:, k]' m - eta <= 0
    of every transpose eigenvalue k over the variables [m_0..m_n, eta], and
    ``box_lb``, ``box_ub`` the bounds m in [0, 1], eta >= 0: they depend on
    ``x`` alone, and ``lp_g`` and every round of ``lp_g_hat_iterate`` share
    them.
    """

    n: int
    p: float
    d: int
    x: np.ndarray = field(repr=False)
    fw: np.ndarray = field(repr=False)
    gw: np.ndarray = field(repr=False)
    kw: np.ndarray = field(repr=False)
    box: np.ndarray = field(repr=False)
    box_lb: np.ndarray = field(repr=False)
    box_ub: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, n: int, p: float, d: int = 2) -> "DepolLp":
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
        x = x_coeffs(n, d)
        i_arr = np.arange(n + 1)
        comb = np.array([math.comb(n, int(i)) for i in i_arr], dtype=float)
        fw = comb * (1.0 - p) ** i_arr * p ** (n - i_arr)
        gw = comb * float(d * d - 1) ** (n - i_arr) / float(d) ** (2 * n)
        kw = np.array(
            [
                math.comb(n, int(k))
                * (d * (d + 1) // 2) ** int(k)
                * (d * (d - 1) // 2) ** (n - int(k))
                for k in i_arr
            ],
            dtype=float,
        )
        box = np.empty((2 * (n + 1), n + 2))
        box[0::2, :-1] = x.T
        box[1::2, :-1] = -x.T
        box[:, -1] = -1.0
        box_ub = np.append(np.ones(n + 1), _INF)
        return cls(n, p, d, x, fw, gw, kw, box, np.zeros(n + 2), box_ub)


def _run(name: str, c, a_ub, b_ub, lb, ub, certificate) -> BoundResult:
    t0 = time.perf_counter()
    res = linprog(c, a_ub, b_ub, lb, ub)
    ok = res.status == 0
    return BoundResult.from_optimum(
        name,
        res.fun if ok else None,
        _LP_STATUS.get(res.status, "max_iter"),
        0.0 if ok else None,
        t0,
        log_sign=-1,
        certificate=certificate(res.x) if ok else None,
    )


def _g_rows(lp: DepolLp, eps: float, m_hat: float | None):
    """The transpose-box programs over [m_0..m_n, eta]: minimize eta subject
    to the fidelity row, ``lp.box`` and optionally the marginal floor."""
    n = lp.n
    floor = [] if m_hat is None else [np.append(-lp.gw, 0.0)]
    a_ub = np.vstack([np.append(-lp.fw, 0.0), lp.box, *floor])
    b_ub = np.zeros(len(a_ub))
    b_ub[0] = -(1.0 - eps)
    if m_hat is not None:
        b_ub[-1] = -m_hat * m_hat
    c = np.zeros(n + 2)
    c[-1] = 1.0
    cert = lambda z: {"m": z[: n + 1].copy(), "eta": float(z[n + 1])}
    return c, a_ub, b_ub, lp.box_lb, lp.box_ub, cert


def lp_g(n: int, p: float, eps: float, d: int = 2) -> BoundResult:
    """Reduced form of ``bound_g`` for the n-fold depolarizing channel.

    Minimizes eta subject to the fidelity row and |sum_i x[i, k] m_i| <= eta
    for every transpose eigenvalue k.  ``log_value`` is -log2 of the
    optimum; the certificate carries the optimal component vector m.
    """
    eps = check_eps(eps)
    return _lp_g(DepolLp.build(n, p, d), eps)


def _lp_g(lp: DepolLp, eps: float) -> BoundResult:
    return _run("lp_g", *_g_rows(lp, eps, None))


def lp_f(n: int, p: float, eps: float, d: int = 2) -> BoundResult:
    """Reduced form of ``bound_f``: the transpose box is replaced by a
    componentwise witness s with m_i + s_i <= eta and x' s >= 0."""
    eps = check_eps(eps)
    lp = DepolLp.build(n, p, d)
    w = n + 1
    # variables [m, eta, s]; rows: fidelity, m_i + s_i <= eta, x' s >= 0
    eye = np.eye(w)
    a_ub = np.block(
        [
            [-lp.fw[None], np.zeros((1, 1 + w))],
            [eye, -np.ones((w, 1)), eye],
            [np.zeros((w, w + 1)), -lp.x.T],
        ]
    )
    b_ub = np.zeros(2 * w + 1)
    b_ub[0] = -(1.0 - eps)
    c = np.zeros(2 * w + 1)
    c[w] = 1.0
    lb = np.concatenate([np.zeros(w + 1), np.full(w, -_INF)])
    ub = np.concatenate([np.ones(w), np.full(w + 1, _INF)])
    cert = lambda z: {
        "m": z[:w].copy(),
        "eta": float(z[w]),
        "s": z[w + 1 :].copy(),
    }
    return _run("lp_f", c, a_ub, b_ub, lb, ub, cert)


def lp_g_hat(n: int, p: float, eps: float, m_hat: float, d: int = 2) -> BoundResult:
    """Reduced iterated bound: ``lp_g`` plus the marginal row gw' m >= m_hat^2.

    m_hat above 1 makes the program infeasible, which is reported through
    the result status rather than an exception.
    """
    if m_hat <= 0.0:
        raise ValueError(f"m_hat must be positive, got {m_hat}")
    eps = check_eps(eps)
    return _lp_g_hat(DepolLp.build(n, p, d), eps, m_hat)


def _lp_g_hat(lp: DepolLp, eps: float, m_hat: float) -> BoundResult:
    return _run("lp_g_hat", *_g_rows(lp, eps, m_hat))


def lp_g_hat_iterate(
    n: int, p: float, eps: float, rounds: int = 5, d: int = 2
) -> list[BoundResult]:
    """Self-improving sequence seeded by ``lp_g``; each optimum becomes the
    next round's marginal threshold.

    Returns one result per round; the value sequence is non-decreasing.
    Raises :class:`SolverError` (annotated with the failing round) if any
    round does not solve to optimality.
    """
    eps = check_eps(eps)
    lp = DepolLp.build(n, p, d)  # shared by every round
    return refine(rounds, lambda: _lp_g(lp, eps), lambda m_hat: _lp_g_hat(lp, eps, m_hat))
