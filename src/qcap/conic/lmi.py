"""The LMI (dual) form of a :class:`ConicProgram`.

A program is stated in equality form: blocks x, rows A x = b, and one slack
block per inequality.  Its LMI form keeps only the user's coordinates y, the
Hermitian-basis coordinates of every block that is not a slack, and asks
each cone for one value:

- a PSD or nonnegative user block is its own value, y_block in its cone;
- a slack block's value is rhs - L(y), read off its rows: the slack has
  coefficient e_k in the one row i that holds its coordinate k, so its value
  there is (b_i - A_i y) / e_k;
- the remaining rows, the equalities E y = e such as tr rho = 1, are
  eliminated by pivoting each row on a column of E, so y = y0 + T z with z
  the coordinates that were not pivots.

Each cone's value is then c_j - A_j' z, and the LMI form is the dual of the
equality-form program min c~.x~ s.t. sum_j A_j x~_j = b~ over the same cones,
with b~ = -T' c_user: the solver runs on that program, its dual iterate z is
the user's point and its primal x~ the multipliers of the user's cones
(SeDuMi/SDPT3 dual form; Loefberg, "Dualize it", Optim. Methods Softw. 24,
2009).  It has one row per coordinate z, where the equality form has one
per scalar row of the program.  A sectored block is one program block per
sector, so it gives one cone per sector here too.  Equality rows that have
no solution raise ``InconsistentRows``, with the combination of them that
reads 0 = 1.
"""
from __future__ import annotations

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
    """Rows of the program's equality form and of its LMI form: the user's
    coordinates less the equality rows."""
    slack_rows = {
        int(r) for blk in prog.blocks if _is_slack(blk) for r in prog.coefficients(blk.name)[0]
    }
    n_y = sum(_coords(blk) for blk in prog.blocks if not _is_slack(blk))
    return len(prog.rows), n_y - (len(prog.rows) - len(slack_rows))


@dataclass
class Cone:
    """One cone of the LMI form: its value is c - a' z."""

    name: str
    kind: str  # HERM_PSD or NONNEG
    size: int
    a: sparse.csr_array  # (rows, coordinates)
    c: np.ndarray  # (coordinates,)
    slack_rows: np.ndarray | None  # the program row of each coordinate, for a slack
    slack_coef: np.ndarray | None  # the slack's coefficient in that row


@dataclass
class LmiProgram:
    """A program's LMI form, and what maps its solution back."""

    cones: list[Cone]
    b: np.ndarray  # -T' c_user: the dual objective, unscaled
    offset: float  # c_user . y0, the user objective at z = 0
    y0: np.ndarray
    t: sparse.csr_array  # (n_y, rows): y = y0 + T z
    spans: dict[str, tuple[int, int]]  # user block -> (first coordinate in y, count)
    a_y: sparse.csr_array  # the program's rows on y
    c_y: np.ndarray  # the user objective on y, in min sense
    eq_rows: np.ndarray
    sign: float  # +1 for min programs, -1 when a max program was negated

    def row_duals(self, multipliers: dict[str, np.ndarray]) -> np.ndarray:
        """The multipliers of the program's rows, from each cone's
        multiplier (coordinates, in the user's objective units): a slack row
        reads its slack's, and the equality rows solve c - A' y = s on y in
        least squares."""
        m_rows = self.a_y.shape[0]
        y_rows = np.zeros(m_rows)
        s_y = np.zeros_like(self.c_y)
        for cone in self.cones:
            mult = multipliers[cone.name]
            if cone.slack_rows is None:
                off, n = self.spans[cone.name]
                s_y[off : off + n] = mult
            else:
                y_rows[cone.slack_rows] = -mult / cone.slack_coef
        if self.eq_rows.size:
            rest = self.c_y - s_y - self.a_y.T @ y_rows
            e_t = self.a_y[self.eq_rows].toarray().T
            y_rows[self.eq_rows] = np.linalg.lstsq(e_t, rest, rcond=None)[0]
        return y_rows


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


def compile_lmi(prog: ConicProgram) -> LmiProgram | None:
    """The LMI form of ``prog``, or None when its equality rows leave no
    coordinate free.  Raises ``InconsistentRows`` when they have no
    solution."""
    m_rows = len(prog.rows)
    b_rows = np.array(prog.rows, dtype=np.float64)
    sign = 1.0 if prog.sense == "min" else -1.0
    user = [blk for blk in prog.blocks if not _is_slack(blk)]
    spans, n_y = {}, 0
    for blk in user:
        spans[blk.name] = (n_y, _coords(blk))
        n_y += _coords(blk)

    trip = [prog.coefficients(blk.name) for blk in user]
    rows = np.concatenate([r for r, _, _ in trip])
    cols = np.concatenate([k + spans[blk.name][0] for blk, (_, k, _) in zip(user, trip)])
    vals = np.concatenate([v for _, _, v in trip])
    a_y = sparse.csr_array((vals, (rows, cols)), shape=(m_rows, n_y))
    c_y = np.zeros(n_y)
    for blk in user:
        if blk.name in prog.objective:
            off, n = spans[blk.name]
            obj = prog.objective[blk.name]
            c_y[off : off + n] = sign * (hermitian_coords(obj) if blk.kind == HERM_PSD else obj)

    slack = {}
    for blk in prog.blocks:
        if _is_slack(blk):
            rows, k, v = prog.coefficients(blk.name)
            order = np.argsort(k, kind="stable")
            slack[blk.name] = (rows[order], v[order])
    in_slack = np.zeros(m_rows, dtype=bool)
    for rows, _ in slack.values():
        in_slack[rows] = True
    eq_rows = np.flatnonzero(~in_slack)

    try:
        y0, t, _, _ = affine_solutions(a_y[eq_rows].toarray(), b_rows[eq_rows])
    except InconsistentRows as exc:
        y = np.zeros(m_rows)
        y[eq_rows] = exc.y
        raise InconsistentRows(y) from None
    if t.shape[1] == 0:
        return None

    cones = []
    for blk in prog.blocks:
        if blk.kind == FREE:
            continue
        if blk.name in slack:
            rows, e = slack[blk.name]
            f = a_y[rows]
            a = (f @ t).T.tocsr() @ sparse.diags_array(1.0 / e)
            c = (b_rows[rows] - f @ y0) / e
            cones.append(Cone(blk.name, blk.kind, blk.size, sparse.csr_array(a), c, rows, e))
        else:
            off, n = spans[blk.name]
            a = -t[off : off + n].T.tocsr()
            cones.append(Cone(blk.name, blk.kind, blk.size, a, y0[off : off + n], None, None))
    for cone in cones:
        cone.a.eliminate_zeros()
    return LmiProgram(
        cones=cones,
        b=-(t.T @ c_y),
        offset=float(c_y @ y0),
        y0=y0,
        t=t,
        spans=spans,
        a_y=a_y,
        c_y=c_y,
        eq_rows=eq_rows,
        sign=sign,
    )
