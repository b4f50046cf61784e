"""One reduction for both of the solver's forms, and the LMI form's statement.

The solver iterates on cones alone: min c.x s.t. A x = b over a product of
cones K, whose dual is max b.z s.t. c - A'z in K.  Each form of a
:class:`ConicProgram` states a dual program

    min o.y  s.t.  E y = e  and  g_j - G_j'y in K_j for each cone j,

each G_j given as the solver's A_j is, by its nonzero (row, coordinate,
value) triples.  ``DualFrame`` brings it to the solver's shape (Loefberg,
"Dualize it", Optim. Methods Softw. 24, 2009): E y = e has the solutions
y = y0 + T z (``_eliminate``), so each cone reads c_j - A_j'z with A = T'G,
one sparse product with all G_j side by side, sliced into cones by its
columns, c = g - G'y0 and b = -T'o, and the objective is o.y0 - b.z.  y0 is
taken orthogonal to G x0, the image of the solver's start x0 = I, so that
the start keeps the gap c.x0, which shrinks with the residuals.  When E has
no rows, G, g and -o pass through as they are.  Equality rows that have no
solution raise ``InconsistentRows``, with the combination of them that reads
0 = 1.  The multipliers lam of E y = e solve the dual program's
stationarity E'lam = o + G x, at the cones' multipliers x, on the pivot
columns.

Frames.  What depends on the coefficients alone (E's pivots, T, A = T'G and
G x0, and each form's E and G) is computed once for all the programs of
one ``ConicProgram.structure``: ``EqForm`` and ``LmiForm`` hold it, and
their ``reduce`` adds one program's rows and costs (o, e and g, so y0, c and
b).  The elimination still runs once per program for y0, since the order of
its operations fixes y0 to the bit.

A program has rows A x = b, with one slack block per inequality, and free
columns F of costs d; a sectored block is one block per sector, and so one
cone per sector in either form.

- Its equality form is the solver's primal, so y is the rows' duals: G = A
  on the cone blocks, g their costs, o = -b, and E = F' with e = d.  The free
  blocks are -lam.
- Its LMI form (``LmiForm``) is the solver's dual, so y is the user's
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


def _width(kind: str, size: int) -> int:
    """The number of coordinates of a block of ``kind`` and ``size``."""
    return size * size if kind == HERM_PSD else size


def _is_slack(blk) -> bool:
    return blk.name.startswith(SLACK_PREFIX)


def row_counts(prog: ConicProgram) -> tuple[int, int]:
    """Rows of the Schur complement in the program's equality form, its rows
    less its free coordinates, and in its LMI form, the user's coordinates
    less the equality rows."""
    slack_rows = {
        int(r) for blk in prog.blocks if _is_slack(blk) for r in prog.coefficients(blk.name)[0]
    }
    n_y = sum(_width(blk.kind, blk.size) for blk in prog.blocks if not _is_slack(blk))
    n_free = sum(blk.size for blk in prog.blocks if blk.kind == FREE)
    return len(prog.rows) - n_free, n_y - (len(prog.rows) - len(slack_rows))


class InconsistentRows(ValueError):
    """The program's equality rows have no solution.  ``y``, over the
    program's rows, combines them into 0 = 1: A'y = 0 and b.y = 1, a Farkas
    certificate that the program is infeasible."""

    def __init__(self, y: np.ndarray) -> None:
        super().__init__("the equality rows are inconsistent")
        self.y = y


def _eliminate(e_mat: np.ndarray, e_rhs: np.ndarray):
    """E y = e row by row: each row, once reduced by the earlier pivots,
    pivots on its largest entry; a row that reduces to zero is dependent and
    is dropped, unless its right-hand side does not, when
    ``InconsistentRows`` carries the combination of E's rows that it came
    from, scaled to 0 = 1.  Returns the reduced rows R, their right-hand
    sides, the pivot columns p and the kept rows k of E, so that E[k][:, p]
    is invertible.  R, p and k depend on E alone."""
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
    return rows, rhs, np.array(piv, dtype=np.intp), np.array(kept, dtype=np.intp)


def _solution_map(rows: list, piv: np.ndarray, n: int) -> sparse.csr_array:
    """T of y = y0 + T z, z the coordinates of y that are not pivots:
    y[p] = rhs - R[:, rest] z for the reduced rows R, and y[rest] = z."""
    rest = np.setdiff1d(np.arange(n), piv)
    tail = sparse.csr_array(-np.array(rows).reshape(-1, n)[:, rest])
    order = np.argsort(np.concatenate([piv, rest]))  # the rows of [tail; I] in y's order
    return sparse.vstack([tail, sparse.eye_array(rest.size)], format="csr")[order]


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
    """The blocks' coefficients side by side, and their first columns."""
    starts = np.cumsum([0] + [_width(kind, size) for _, kind, size, *_ in blocks])
    parts = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))]
    parts += [(r, k + first, v) for (*_, r, k, v), first in zip(blocks, starts)]
    r, k, v = (np.concatenate(part) for part in zip(*parts))
    return sparse.csc_array((v, (r, k)), shape=(m, starts[-1])), starts


def _by_cone(rows, cols, vals, cones, starts) -> list[tuple]:
    """Each cone's (name, kind, size, rows, coordinates, values) from the
    entries of the cones' columns side by side, in column order."""
    ends = np.searchsorted(cols, starts)
    return [
        (name, kind, size, rows[i:j], cols[i:j] - lo, vals[i:j])
        for (name, kind, size, *_), lo, i, j in zip(cones, starts, ends, ends[1:])
    ]


class DualFrame:
    """The reduction of the dual programs whose G_j and E are ``cones``'
    and ``e_mat``, as far as they decide it: E's pivots, T, A = T'G and the
    image G x0 of the solver's start, computed once for all of them.
    ``reduce`` adds one program's o, e and costs g.  Raises
    ``FloatingPointError`` if E is not finite."""

    def __init__(self, cones: list, n_y: int, e_mat: np.ndarray) -> None:
        # cones: (name, kind, size, rows, coordinates, values) of each G_j
        self.e, self.n_y, self.n_z = e_mat, n_y, n_y  # n_z: the solver's rows, z's coordinates
        self.starts = np.cumsum([0] + [_width(kind, size) for _, kind, size, *_ in cones])
        self.cones, self.t, self.g = cones, None, None
        self.piv = self.kept = np.zeros(0, np.intp)
        if e_mat.shape[0] == 0:
            return
        if not np.all(np.isfinite(e_mat)):
            raise FloatingPointError("non-finite data")  # these rows leave the iteration
        rows, _, self.piv, self.kept = _eliminate(e_mat, np.zeros(e_mat.shape[0]))
        self.t = _solution_map(rows, self.piv, n_y)
        self.n_z = self.t.shape[1]
        self.g = _columns(n_y, cones)[0]
        x0 = [hermitian_coords(np.eye(n)) if k == HERM_PSD else np.ones(n) for _, k, n, *_ in cones]
        self.g_x0 = self.g @ np.concatenate(x0 + [np.zeros(0)])
        self.tg = self.t.T @ self.g_x0
        a = (self.t.T @ self.g).tocsc().tocoo()  # entries in column order
        self.cones = _by_cone(a.row, a.col, a.data, cones, self.starts)

    def reduce(self, o: np.ndarray, e_rhs: np.ndarray, costs: np.ndarray) -> Reduction:
        """The dual program min o.y s.t. E y = e_rhs and g_j - G_j'y in K_j,
        the g_j side by side in ``costs``, reduced to the cones on z, in the
        same form.  Raises ``InconsistentRows`` if E y = e has no solution,
        and ``FloatingPointError`` if e or o is not finite."""
        none = np.zeros(0, np.intp)
        if self.t is None:
            return Reduction(
                self._costed(costs), -o, 0.0, np.zeros(self.n_y), None, None, o, self.e, none, none
            )
        if not all(np.all(np.isfinite(v)) for v in (e_rhs, o)):
            raise FloatingPointError("non-finite data")  # these rows leave the iteration
        _, rhs, piv, _ = _eliminate(self.e, e_rhs)
        y0 = np.zeros(self.n_y)
        y0[piv] = rhs
        # y0 orthogonal to G x0: the pivots' y0 added -y0.G x0 to the start's
        # gap, and ended Q_Gamma's dual at gaps of 2e-8, not 3e-9
        if self.tg @ self.tg > 0.0:
            y0 = y0 - (y0 @ self.g_x0) / (self.tg @ self.tg) * (self.t @ self.tg)
        reduced, t = self._costed(costs - self.g.T @ y0), self.t
        return Reduction(reduced, -(t.T @ o), float(o @ y0), y0, t, self.g, o, self.e, piv, self.kept)

    def _costed(self, c: np.ndarray) -> list[tuple]:
        return [(*cone, c[lo:hi]) for cone, lo, hi in zip(self.cones, self.starts, self.starts[1:])]


def stated_blocks(prog: ConicProgram) -> list[tuple]:
    """Each block of the program as (name, kind, size, rows, coordinates,
    values): its coefficients' triples."""
    return [(blk.name, blk.kind, blk.size, *prog.coefficients(blk.name)) for blk in prog.blocks]


def stated_costs(prog: ConicProgram) -> list[np.ndarray]:
    """Each block's objective coordinates, in min sense."""
    sign = 1.0 if prog.sense == "min" else -1.0
    out = []
    for blk in prog.blocks:
        obj = prog.objective.get(blk.name)
        if obj is None:
            out.append(np.zeros(_width(blk.kind, blk.size)))
        else:
            out.append(sign * (hermitian_coords(obj) if blk.kind == HERM_PSD else obj))
    return out


class EqForm:
    """The program's equality form, with the coefficient part of its
    reduction, for the programs of its ``structure``: each free block's
    (name, first, count) in the multipliers of E y = e, with E = F'."""

    def __init__(self, prog: ConicProgram, blocks: list) -> None:
        m = len(prog.rows)
        self.free_at = [i for i, blk in enumerate(blocks) if blk[1] == FREE]
        self.cone_at = [i for i, blk in enumerate(blocks) if blk[1] != FREE]
        free = [blocks[i] for i in self.free_at]
        starts = np.cumsum([0] + [blk[2] for blk in free])
        e_mat = np.zeros((starts[-1], m))  # F'
        for (*_, r, k, v), lo in zip(free, starts):
            e_mat[lo + k, r] = v
        self.dual = DualFrame([blocks[i] for i in self.cone_at], m, e_mat)
        self.free = [(blk[0], lo, blk[2]) for blk, lo in zip(free, starts)]

    def reduce(self, prog: ConicProgram, costs: list) -> Reduction:
        """The reduction of ``prog``, whose blocks' costs are ``costs``."""
        d = np.concatenate([costs[i] for i in self.free_at] + [np.zeros(0)])
        c = np.concatenate([costs[i] for i in self.cone_at] + [np.zeros(0)])
        return self.dual.reduce(-np.array(prog.rows, dtype=np.float64), d, c)


# The LMI form's rows: the program rows of E, and each slack row with its
# column of G and its slack's coefficient there
LmiRows = namedtuple("LmiRows", "eq_rows slack_rows slack_cols slack_coef")


def _user_rows(prog: ConicProgram, blocks: list):
    """The program's rows on the user's point y, the coordinates of the
    blocks that are not slacks: the user blocks' indices, A_y with their
    first coordinates, which rows are equalities, and those rows' E."""
    user = [i for i, blk in enumerate(blocks) if not blk[0].startswith(SLACK_PREFIX)]
    a_y, starts = _columns(len(prog.rows), [blocks[i] for i in user])
    eq = np.ones(len(prog.rows), dtype=bool)
    for name, *_, r, _, _ in blocks:
        if name.startswith(SLACK_PREFIX):
            eq[r] = False
    return user, a_y, starts, eq, a_y[np.flatnonzero(eq)].toarray()


def _on_rows(exc: InconsistentRows, eq: np.ndarray) -> InconsistentRows:
    y = np.zeros(eq.size)
    y[eq] = exc.y
    return InconsistentRows(y)


def check_equalities(prog: ConicProgram) -> None:
    """Raise ``InconsistentRows``, with y over the program's rows, if its
    equality rows have no solution on the user's point."""
    *_, eq, e_mat = _user_rows(prog, stated_blocks(prog))
    try:
        _eliminate(e_mat, np.array(prog.rows, dtype=np.float64)[eq])
    except InconsistentRows as exc:
        raise _on_rows(exc, eq) from None


class LmiForm:
    """The program's LMI form, with the coefficient part of its reduction,
    for the programs of its ``structure``: its ``LmiRows``, and each free
    block's (name, first, count) in the user's point."""

    def __init__(self, prog: ConicProgram, blocks: list) -> None:
        m = len(prog.rows)
        self.user, a_y, starts, self.eq, e_mat = _user_rows(prog, blocks)
        spans = {blocks[i][0]: (lo, _width(*blocks[i][1:3])) for i, lo in zip(self.user, starts)}
        # G's entries, cone by cone in the program's order: -I on a user block's
        # coordinates, and each slack row's column and coefficient
        cones = [blk for blk in blocks if blk[1] != FREE]
        g_r, g_c, g_v, starts = [], [], [], [0]
        col_of, coef_of = np.zeros(m, dtype=np.intp), np.ones(m)
        for name, kind, size, r, k, v in cones:
            first = starts[-1]
            if name in spans:
                off, n = spans[name]
                g_r.append(off + np.arange(n))
                g_c.append(first + np.arange(n))
                g_v.append(-np.ones(n))
            else:
                col_of[r], coef_of[r] = first + k, v
            starts.append(first + _width(kind, size))
        coo = a_y.tocoo()
        in_slack = ~self.eq[coo.row]
        slack_of = coo.row[in_slack]
        g_r.append(coo.col[in_slack])
        g_c.append(col_of[slack_of])
        g_v.append(coo.data[in_slack] / coef_of[slack_of])
        g_r, g_c, g_v = (np.concatenate(x) for x in (g_r, g_c, g_v))
        slack_rows = np.flatnonzero(~self.eq)
        self.width = starts[-1]
        order = np.argsort(g_c, kind="stable")
        cones = _by_cone(g_r[order], g_c[order], g_v[order], cones, np.array(starts))
        self.dual = DualFrame(cones, a_y.shape[1], e_mat)
        self.rows = LmiRows(np.flatnonzero(self.eq), slack_rows, col_of[slack_rows], coef_of[slack_rows])
        self.free = [(blk[0], *spans[blk[0]]) for blk in blocks if blk[1] == FREE]

    def reduce(self, prog: ConicProgram, costs: list) -> Reduction:
        """The reduction of ``prog``, whose blocks' costs are ``costs``.
        Raises as ``DualFrame.reduce`` does, with y over the program's rows."""
        b = np.array(prog.rows, dtype=np.float64)
        o = np.concatenate([costs[i] for i in self.user] + [np.zeros(0)])
        rows = self.rows
        g = np.zeros(self.width)
        g[rows.slack_cols] = b[rows.slack_rows] / rows.slack_coef
        try:
            return self.dual.reduce(o, b[self.eq], g)
        except InconsistentRows as exc:
            raise _on_rows(exc, self.eq) from None
