"""Linear-programming reductions of the one-shot bounds for qudit
depolarizing channels under tensor powers.

The n-fold Choi matrix is invariant under local unitaries of the form
U (x) conj(U) applied factor-wise, so every SDP over it collapses onto the
commutant spanned by the 2^n products of the two invariant projectors per
factor, grouped by weight.  Operators become (n+1)-vectors, the partial
transpose becomes the exact rational matrix ``x_coeffs`` builds, and the
bound programs become LPs of side n+1 that stay solvable at n=30 where the
full SDPs would have side 4^n.

The LPs are dispatched to a simplex engine; the returned vertices are exact
to roundoff, which keeps the ordering and monotonicity relations between
bound values intact even where they tie exactly.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.optimize import linprog

from .oneshot import check_eps, refine
from .results import BoundResult

_LP_STATUS = {0: "optimal", 1: "max_iter", 2: "infeasible", 3: "unbounded", 4: "max_iter"}


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
    """

    n: int
    p: float
    d: int
    x: np.ndarray = field(repr=False)
    fw: np.ndarray = field(repr=False)
    gw: np.ndarray = field(repr=False)
    kw: np.ndarray = field(repr=False)

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
        return cls(n=n, p=p, d=d, x=x, fw=fw, gw=gw, kw=kw)


def _run(name: str, c, a_ub, b_ub, bounds, certificate) -> BoundResult:
    t0 = time.perf_counter()
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
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
    """Inequality rows shared by the transpose-box programs.

    Variables are [m_0..m_n, eta]; rows are fidelity, the +-eta box on each
    transpose eigenvalue, and optionally the marginal floor."""
    n = lp.n
    rows = [np.concatenate([-lp.fw, [0.0]])]
    rhs = [-(1.0 - eps)]
    for k in range(n + 1):
        rows.append(np.concatenate([lp.x[:, k], [-1.0]]))
        rhs.append(0.0)
        rows.append(np.concatenate([-lp.x[:, k], [-1.0]]))
        rhs.append(0.0)
    if m_hat is not None:
        rows.append(np.concatenate([-lp.gw, [0.0]]))
        rhs.append(-m_hat * m_hat)
    c = np.zeros(n + 2)
    c[-1] = 1.0
    bounds = [(0.0, 1.0)] * (n + 1) + [(0.0, None)]
    cert = lambda z: {"m": z[: n + 1].copy(), "eta": float(z[n + 1])}
    return c, np.array(rows), np.array(rhs), bounds, cert


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
    # variables [m, eta, s]
    rows = [np.concatenate([-lp.fw, [0.0], np.zeros(w)])]
    rhs = [-(1.0 - eps)]
    for i in range(w):
        row = np.zeros(2 * w + 1)
        row[i] = 1.0
        row[w] = -1.0
        row[w + 1 + i] = 1.0
        rows.append(row)
        rhs.append(0.0)
    for k in range(w):
        rows.append(np.concatenate([np.zeros(w), [0.0], -lp.x[:, k]]))
        rhs.append(0.0)
    c = np.zeros(2 * w + 1)
    c[w] = 1.0
    bounds = [(0.0, 1.0)] * w + [(0.0, None)] + [(None, None)] * w
    cert = lambda z: {
        "m": z[:w].copy(),
        "eta": float(z[w]),
        "s": z[w + 1 :].copy(),
    }
    return _run("lp_f", c, np.array(rows), np.array(rhs), bounds, cert)


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
