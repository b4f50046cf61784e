"""One reduction for both of the solver's forms, and the LMI form's statement.

The solver iterates on cones alone: min c.x s.t. A x = b over a product of
cones K, whose dual is max b.z s.t. c - A'z in K.  Each form of a
:class:`ConicProgram` states a dual program

    min o.y  s.t.  E y = e  and  g_j - G_j'y in K_j for each cone j,

each G_j given as the solver's A_j is, by its nonzero (row, coordinate,
value) triples.  ``reduce_dual`` brings it to the solver's shape (Loefberg,
"Dualize it", Optim. Methods Softw. 24, 2009): E y = e has the solutions
y = y0 + T z (``affine_solutions``), so each cone reads c_j - A_j'z with
A = T'G, one sparse product with all G_j side by side, sliced into cones by
its columns, c = g - G'y0 and b = -T'o, and the objective is o.y0 - b.z.
y0 is taken orthogonal to G x0, the image of the solver's start x0 = I, so
that the start keeps the gap c.x0, which shrinks with the residuals.  When E
has no rows, G, g and -o pass through as they are.  Equality rows that have
no solution raise ``InconsistentRows``, with the combination of them that
reads 0 = 1.  The multipliers lam of E y = e solve the dual program's
stationarity E'lam = o + G x, at the cones' multipliers x, on the pivot
columns.

A program has rows A x = b, with one slack block per inequality, and free
columns F of costs d; a sectored block is one block per sector, and so one
cone per sector in either form.

- Its equality form is the solver's primal, so y is the rows' duals: G = A
  on the cone blocks, g their costs, o = -b, and E = F' with e = d.  The free
  blocks are -lam.
- Its LMI form (``lmi_form``) is the solver's dual, so y is the user's
  point: the Hermitian-basis coordinates of every block that is not a
  slack.  A user cone block is its own value, G = -I on its coordinates and
  g = 0.  A slack has coefficient e_k in the one row i that holds its
  coordinate k, so its value there is (b_i - A_i y) / e_k: G = A_i'/e_k and
  g = b_i/e_k.  o = c_y, and E y = e are the remaining rows, the equalities
  such as tr rho = 1.  The solver has one row per coordinate z, where the
  equality form has one per scalar row of the program, less the free columns.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ..matops import hermitian_coords
from .program import FREE, HERM_PSD, SLACK_PREFIX, ConicProgram

# a reduced equality row below this fraction of its largest entry is dependent
_DEPENDENT_RTOL = 1e-10


def _coords(blk) -> int:
    return blk.size * blk.size if blk.kind == HERM_PSD else blk.size


def _is_slack(blk) -> bool:
    return blk.name.startswith(SLACK_PREFIX)


def row_counts(prog: ConicProgram) -> tuple[int, int]:
    """Rows of the Schur complement in the program's equality form, its rows
    less its free coordinates, and in its LMI form, the user's coordinates
    less the equality rows."""
    slack_rows = {
        int(r) for blk in prog.blocks if _is_slack(blk) for r in prog.coefficients(blk.name)[0]
    }
    n_y = sum(_coords(blk) for blk in prog.blocks if not _is_slack(blk))
    n_free = sum(blk.size for blk in prog.blocks if blk.kind == FREE)
    return len(prog.rows) - n_free, n_y - (len(prog.rows) - len(slack_rows))


class InconsistentRows(ValueError):
    """The program's equality rows have no solution.  ``y``, over the
    program's rows, combines them into 0 = 1: A'y = 0 and b.y = 1, a Farkas
    certificate that the program is infeasible."""

    def __init__(self, y: np.ndarray) -> None:
        super().__init__("the equality rows are inconsistent")
        self.y = y


def affine_solutions(e_mat: np.ndarray, e_rhs: np.ndarray):
    """The solutions of E y = e as y = y0 + T z, z the coordinates of y that
    are not pivots; with the pivot columns p and the kept rows k of E, so
    that E[k][:, p] is invertible.

    Each row, once reduced by the earlier pivots, pivots on its largest
    entry; a row that reduces to zero is dependent and is dropped, unless its
    right-hand side does not, when ``InconsistentRows`` carries the
    combination of E's rows that it came from, scaled to 0 = 1.
    """
    n = e_mat.shape[1]
    # the reduced rows, their right-hand sides, each as a combination of E's rows
    rows, rhs, combs, piv, kept = [], [], [], [], []
    for i, (row, r) in enumerate(zip(e_mat, e_rhs)):
        size = float(np.max(np.abs(row), initial=0.0))
        row, r = row.astype(float), float(r)
        comb = np.zeros(len(e_rhs))
        comb[i] = 1.0
        for k, prow, pr, pcomb in zip(piv, rows, rhs, combs):
            f = row[k]
            if f != 0.0:
                row -= f * prow
                r -= f * pr
                comb -= f * pcomb
        k = int(np.argmax(np.abs(row)))
        if abs(row[k]) <= _DEPENDENT_RTOL * size:
            if abs(r) > _DEPENDENT_RTOL * max(1.0, float(np.max(np.abs(e_rhs)))):
                raise InconsistentRows(comb / r)
            continue
        r /= row[k]
        comb /= row[k]
        row /= row[k]
        for j, prow in enumerate(rows):
            f = prow[k]
            if f != 0.0:
                prow -= f * row
                rhs[j] -= f * r
                combs[j] -= f * comb
        rows.append(row)
        rhs.append(r)
        combs.append(comb)
        piv.append(k)
        kept.append(i)
    # y[p] = rhs - R[:, rest] z for the reduced rows R, and y[rest] = z
    piv = np.array(piv, dtype=np.intp)
    rest = np.setdiff1d(np.arange(n), piv)
    y0 = np.zeros(n)
    y0[piv] = rhs
    tail = sparse.csr_array(-np.array(rows).reshape(-1, n)[:, rest])
    order = np.argsort(np.concatenate([piv, rest]))  # the rows of [tail; I] in y's order
    t = sparse.vstack([tail, sparse.eye_array(rest.size)], format="csr")[order]
    return y0, t, piv, np.array(kept, dtype=np.intp)


@dataclass
class Reduction:
    """A dual program reduced to cones on z (see the module docstring)."""

    cones: list  # per cone (name, kind, size, rows, coordinates, values, c): A and c
    b: np.ndarray  # -T'o
    offset: float  # o.y0
    y0: np.ndarray
    t: sparse.csr_array | None  # y = y0 + T z; None when E has no rows, for T = I
    g: sparse.csc_array | None  # G, the cones' coordinates in its columns; None with t
    o: np.ndarray
    e: np.ndarray  # E
    piv: np.ndarray
    kept: np.ndarray

    def point(self, z: np.ndarray) -> np.ndarray:
        """y at the solver's z."""
        return z if self.t is None else self.y0 + self.t @ z

    def multipliers(self, x: np.ndarray) -> np.ndarray:
        """The multipliers of E y = e, over E's rows, at the cones'
        multipliers x (on G's columns): E'lam = o + G x on the pivots."""
        lam = np.zeros(self.e.shape[0])
        if self.kept.size:
            e_p = self.e[self.kept][:, self.piv]
            lam[self.kept] = np.linalg.solve(e_p.T, (self.o + self.g @ x)[self.piv])
        return lam


def _columns(m: int, blocks: list):
    """The blocks' coefficients side by side, their costs and first columns."""
    starts = np.cumsum([0] + [blk[-1].size for blk in blocks])
    parts = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0), np.zeros(0))]
    parts += [(r, k + first, v, c) for (*_, r, k, v, c), first in zip(blocks, starts)]
    r, k, v, c = (np.concatenate(part) for part in zip(*parts))
    return sparse.csc_array((v, (r, k)), shape=(m, starts[-1])), c, starts


def _by_cone(rows, cols, vals, c, cones, starts) -> list[tuple]:
    """Each cone's (name, kind, size, rows, coordinates, values, costs) from
    the entries of the cones' columns side by side, in column order, and
    their costs c."""
    ends = np.searchsorted(cols, starts)
    return [
        (name, kind, size, rows[i:j], cols[i:j] - lo, vals[i:j], c[lo:hi])
        for (name, kind, size, *_), lo, hi, i, j in zip(cones, starts, starts[1:], ends, ends[1:])
    ]


def reduce_dual(cones: list, n_y: int, o, e_mat, e_rhs) -> Reduction:
    """The dual program min o.y s.t. E y = e and g_j - G_j'y in K_j, for
    ``cones`` (name, kind, size, rows, coordinates, values, g_j) with G_j's
    entries on y's n_y coordinates, reduced to the cones on z, in the same
    form.  Raises ``InconsistentRows`` if E y = e has no solution, and
    ``FloatingPointError`` if E, e or o is not finite."""
    none = np.zeros(0, np.intp)
    if e_mat.shape[0] == 0:
        return Reduction(cones, -o, 0.0, np.zeros(n_y), None, None, o, e_mat, none, none)
    if not all(np.all(np.isfinite(v)) for v in (e_mat, e_rhs, o)):
        raise FloatingPointError("non-finite data")  # these rows leave the iteration
    y0, t, piv, kept = affine_solutions(e_mat, e_rhs)
    g_mat, g, starts = _columns(n_y, cones)
    # y0 orthogonal to G x0: the pivots' y0 added -y0.G x0 to the start's
    # gap, and ended Q_Gamma's dual at gaps of 2e-8, not 3e-9
    x0 = [hermitian_coords(np.eye(n)) if k == HERM_PSD else np.ones(n) for _, k, n, *_ in cones]
    g_x0 = g_mat @ np.concatenate(x0 + [np.zeros(0)])
    tg = t.T @ g_x0
    if tg @ tg > 0.0:
        y0 = y0 - (y0 @ g_x0) / (tg @ tg) * (t @ tg)
    a = (t.T @ g_mat).tocsc().tocoo()  # entries in column order
    reduced = _by_cone(a.row, a.col, a.data, g - g_mat.T @ y0, cones, starts)
    return Reduction(reduced, -(t.T @ o), float(o @ y0), y0, t, g_mat, o, e_mat, piv, kept)


def stated_blocks(prog: ConicProgram) -> list[tuple]:
    """Each block of the program as (name, kind, size, rows, coordinates,
    values, costs): its coefficients' triples and its objective's
    coordinates, in min sense."""
    sign = 1.0 if prog.sense == "min" else -1.0
    out = []
    for blk in prog.blocks:
        obj = prog.objective.get(blk.name)
        if obj is None:
            c = np.zeros(_coords(blk))
        else:
            c = sign * (hermitian_coords(obj) if blk.kind == HERM_PSD else obj)
        out.append((blk.name, blk.kind, blk.size, *prog.coefficients(blk.name), c))
    return out


def eq_form(prog: ConicProgram, blocks: list):
    """The program's equality form, reduced: its ``Reduction``, and each
    free block's (name, first, count) in the multipliers of E y = e."""
    m = len(prog.rows)
    free = [blk for blk in blocks if blk[1] == FREE]
    starts = np.cumsum([0] + [blk[2] for blk in free])
    e_mat = np.zeros((starts[-1], m))  # F'
    for (*_, r, k, v, _), lo in zip(free, starts):
        e_mat[lo + k, r] = v
    d = np.concatenate([blk[-1] for blk in free] + [np.zeros(0)])
    cones = [blk for blk in blocks if blk[1] != FREE]
    red = reduce_dual(cones, m, -np.array(prog.rows, dtype=np.float64), e_mat, d)
    return red, [(blk[0], lo, blk[2]) for blk, lo in zip(free, starts)]


# The LMI form's rows: the program rows of E, and each slack row with its
# column of G and its slack's coefficient there
LmiRows = namedtuple("LmiRows", "eq_rows slack_rows slack_cols slack_coef")


def _user_rows(prog: ConicProgram, blocks: list):
    """The program's rows on the user's point y, the coordinates of the
    blocks that are not slacks: the user blocks, A_y with their costs and
    first coordinates, which rows are equalities, and those rows' E."""
    user = [blk for blk in blocks if not blk[0].startswith(SLACK_PREFIX)]
    a_y, o, starts = _columns(len(prog.rows), user)
    eq = np.ones(len(prog.rows), dtype=bool)
    for name, *_, r, _, _, _ in blocks:
        if name.startswith(SLACK_PREFIX):
            eq[r] = False
    return user, a_y, o, starts, eq, a_y[np.flatnonzero(eq)].toarray()


def _on_rows(exc: InconsistentRows, eq: np.ndarray) -> InconsistentRows:
    y = np.zeros(eq.size)
    y[eq] = exc.y
    return InconsistentRows(y)


def check_equalities(prog: ConicProgram) -> None:
    """Raise ``InconsistentRows``, with y over the program's rows, if its
    equality rows have no solution on the user's point."""
    *_, eq, e_mat = _user_rows(prog, stated_blocks(prog))
    try:
        affine_solutions(e_mat, np.array(prog.rows, dtype=np.float64)[eq])
    except InconsistentRows as exc:
        raise _on_rows(exc, eq) from None


def lmi_form(prog: ConicProgram, blocks: list):
    """The program's LMI form, reduced: its ``Reduction``, ``LmiRows`` and
    each free block's (name, first, count) in the user's point.  Raises as
    ``reduce_dual`` does, with y over the program's rows."""
    b = np.array(prog.rows, dtype=np.float64)
    user, a_y, o, starts, eq, e_mat = _user_rows(prog, blocks)
    spans = {blk[0]: (lo, blk[-1].size) for blk, lo in zip(user, starts)}
    # G's entries, cone by cone in the program's order: -I on a user block's
    # coordinates, and each slack row's column and coefficient
    cones = [blk for blk in blocks if blk[1] != FREE]
    g_r, g_c, g_v, starts = [], [], [], [0]
    col_of, coef_of = np.zeros(b.size, dtype=np.intp), np.ones(b.size)
    for name, _, _, r, k, v, c in cones:
        first = starts[-1]
        if name in spans:
            off, n = spans[name]
            g_r.append(off + np.arange(n))
            g_c.append(first + np.arange(n))
            g_v.append(-np.ones(n))
        else:
            col_of[r], coef_of[r] = first + k, v
        starts.append(first + c.size)
    coo = a_y.tocoo()
    in_slack = ~eq[coo.row]
    slack_of = coo.row[in_slack]
    g_r.append(coo.col[in_slack])
    g_c.append(col_of[slack_of])
    g_v.append(coo.data[in_slack] / coef_of[slack_of])
    g_r, g_c, g_v = (np.concatenate(x) for x in (g_r, g_c, g_v))
    slack_rows = np.flatnonzero(~eq)
    g = np.zeros(starts[-1])
    g[col_of[slack_rows]] = b[slack_rows] / coef_of[slack_rows]
    order = np.argsort(g_c, kind="stable")
    cones = _by_cone(g_r[order], g_c[order], g_v[order], g, cones, np.array(starts))
    try:
        red = reduce_dual(cones, o.size, o, e_mat, b[eq])
    except InconsistentRows as exc:
        raise _on_rows(exc, eq) from None
    rows = LmiRows(np.flatnonzero(eq), slack_rows, col_of[slack_rows], coef_of[slack_rows])
    return red, rows, [(name, *spans[name]) for name, kind, *_ in blocks if kind == FREE]
