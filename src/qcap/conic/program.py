"""Structured conic-program description shared by all bound formulations.

A program is a list of named variable blocks (complex Hermitian PSD,
nonnegative vector, free vector), scalar linear equality rows, and a linear
objective with a minimize/maximize sense.  ``add_constraint`` states one row
by a Hermitian matrix or real vector per block; ``add_operator_constraint``
states an operator (in)equality by each block's sparse map matrix and
expands it into rows <L^dag(B), X> over an orthonormal Hermitian basis B.
An inequality gets a slack block: length-1 nonnegative for a scalar row, PSD
for an operator one.

Each block's coefficients are stored as the solver reads them: nonzero
(row, coordinate, value) triples, where a vector block's coordinates are its
entries and a Hermitian block's are <B_b, C> in ``hermitian_basis`` order,
made here by ``matops.hermitian_coords`` as rows are added; an operator
constraint's rows are one sparse gather of each map's columns, as each basis
element has at most two nonzero entries.  The objective stays one dense
coefficient per block.

A Hermitian block may be declared zero off a partition of its index range,
its sectors, as a symmetry of the program allows (``qcap.symmetry``).  It is
then held as one block per sector, named ``name[k]``, whose coordinates are
those of the sector's diagonal block; an operator constraint given sectors
states only the rows of its in-sector basis elements, and its slack gets
the same sectors.  Only a map's in-sector columns are read, and none may
store a nonzero off the output's sectors; an rhs or a coefficient must
vanish off its sectors to 1e-12 of its largest entry.  Else the call raises
``ValueError``: a wrong symmetry fails when the program is built, not with a
wrong value.  ``full_blocks`` puts a solution's sectors back together.

This is the program's equality form: one scalar row per row above.  The
solver may instead solve its LMI form, which keeps the user's coordinates
and reads each slack block as a cone on rhs - L(y); one reduction
(``lmi.py``) brings either form to cones alone, ``solve`` picks the form
from the two Schur row counts, and the solution is stated in this
program's blocks and rows either way.

Frames.  A sweep states one program many times with new data: a bound's
program takes the channel's Choi matrix J in its objective, in one rhs or in
one scalar row's coefficient, and all the rest of it depends only on the
dimensions and the phase grading.  The rest is the program's frame: the
program at J = 0, which its builder makes as ``build(*args)``.
``frame(build, *args)`` returns a program to add the data to: inside
``shared_frames()``, a ``copy`` of the frame built once per key
``(build, *args)``, so that a key holds every argument of its builder, and
elsewhere the frame ``build(*args)`` makes, as a frame of one.  The data
goes in by ``set_objective``, ``set_rhs`` or ``add_terms``, each checked
against the sectors as when the program is built whole, so the copy is the
program that building it whole gives: the same blocks, rows and triples, in
the same order.  The coefficient arrays are read-only and a copy shares them with its
frame; ``structure`` names what a program shares with its frame's other
copies, and changes once a block or a coefficient is added, so that the
solver assembles the coefficients once per ``structure`` (``solve_all``).
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from ..matops import basis_pairs, coords_readers, hermitian_coords, hermiticity_defect

HERM_PSD = "hermitian_psd"
NONNEG = "nonneg"
FREE = "free"

RELATIONS = ("==", "<=", ">=")

# names of inequality slack blocks start with this; user blocks' may not
SLACK_PREFIX = "slack#"

_RT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class Block:
    name: str
    kind: str
    size: int  # matrix side for hermitian_psd, vector length otherwise


class _Sectors:
    """A partition of range(side): the diagonal blocks a matrix may fill."""

    def __init__(self, side: int, sectors: Sequence[Sequence[int]] | None) -> None:
        self.side = side
        self.parts = [np.arange(side)]
        self.key = self.off = None  # one sector: the whole matrix
        if sectors is None:
            return
        parts = [np.sort(np.asarray(sec, dtype=np.intp).reshape(-1)) for sec in sectors]
        flat = np.concatenate(parts) if parts else np.zeros(0, dtype=np.intp)
        if any(p.size == 0 for p in parts) or not np.array_equal(np.sort(flat), np.arange(side)):
            raise ValueError(f"sectors must partition range({side})")
        if len(parts) == 1:
            return
        self.parts = parts
        self.key = tuple(tuple(p.tolist()) for p in parts)
        label = np.empty(side, dtype=np.intp)
        for k, p in enumerate(parts):
            label[p] = k
        self.off = label[:, None] != label[None, :]  # True off the sectors

    def check(self, mat: np.ndarray, what: str) -> None:
        """Raise unless the side x side ``mat`` vanishes off the sectors to
        1e-12 of its largest entry."""
        if self.off is not None and np.max(np.abs(mat[self.off])) > _herm_tol(mat):
            raise ValueError(f"{what} does not vanish off its sectors")

    def coords(self, mat: np.ndarray) -> np.ndarray:
        """``hermitian_coords`` of each sector's diagonal block, sector by sector."""
        return np.concatenate([hermitian_coords(mat[np.ix_(p, p)]) for p in self.parts])


class ConicProgram:
    """Builder for block-structured conic programs."""

    def __init__(self, sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
        self.sense = sense
        self.blocks: list[Block] = []
        self.rows: list[float] = []  # the right-hand side of each scalar row
        self.objective: dict[str, np.ndarray] = {}
        self._by_name: dict[str, Block] = {}
        # each Hermitian block's sectors and the names of the blocks holding them
        self._sectors: dict[str, tuple[_Sectors, list[str]]] = {}
        # per block, one read-only (rows, coordinates, values) part per call that added rows
        self._parts: dict[str, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
        # each operator constraint's first row: its output sectors and sign
        self._operators: dict[int, tuple[_Sectors, float]] = {}
        # shared by the copies of a frame; new with each block or coefficient added
        self.structure = object()

    def copy(self) -> ConicProgram:
        """This program, to add to without changing it: the read-only
        coefficient arrays are shared, and what holds them is copied."""
        new = ConicProgram(self.sense)
        new.blocks, new.rows = list(self.blocks), list(self.rows)
        new.objective, new._by_name = dict(self.objective), dict(self._by_name)
        new._sectors, new._operators = dict(self._sectors), dict(self._operators)
        new._parts = {name: list(parts) for name, parts in self._parts.items()}
        new.structure = self.structure
        return new

    # -- block declaration -------------------------------------------------

    def _add_block(self, name: str, kind: str, size: int, slack: bool = False) -> str:
        if name.startswith(SLACK_PREFIX) and not slack:
            raise ValueError(f"block names starting with {SLACK_PREFIX!r} are reserved")
        if name in self._by_name or name in self._sectors:
            raise ValueError(f"block {name!r} already declared")
        if size < 1:
            raise ValueError(f"block {name!r} must have positive size")
        blk = Block(name, kind, int(size))
        self.blocks.append(blk)
        self._by_name[name] = blk
        self._parts[name] = [_frozen(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))]
        self.structure = object()
        return name

    def herm_block(
        self, name: str, side: int, sectors: Sequence[Sequence[int]] | None = None
    ) -> str:
        """Declare a complex Hermitian PSD matrix variable of given side.

        ``sectors``, a partition of range(side), declares it zero off the
        diagonal blocks of its parts; with two or more, each part is a block
        ``name[k]`` of its own.
        """
        return self._add_herm(name, side, sectors, slack=False)

    def _add_herm(self, name: str, side: int, sectors, slack: bool) -> str:
        if name in self._sectors or name in self._by_name:
            raise ValueError(f"block {name!r} already declared")
        if side < 1:
            raise ValueError(f"block {name!r} must have positive size")
        sec = _Sectors(side, sectors)
        if len(sec.parts) == 1:
            names = [self._add_block(name, HERM_PSD, side, slack)]
        elif name.startswith(SLACK_PREFIX) and not slack:
            raise ValueError(f"block names starting with {SLACK_PREFIX!r} are reserved")
        else:
            names = [
                self._add_block(f"{name}[{k}]", HERM_PSD, p.size, True)
                for k, p in enumerate(sec.parts)
            ]
        self._sectors[name] = (sec, names)
        return name

    def nonneg_block(self, name: str, length: int = 1) -> str:
        """Declare an entrywise-nonnegative vector variable."""
        return self._add_block(name, NONNEG, length)

    def free_block(self, name: str, length: int = 1) -> str:
        """Declare an unconstrained real vector variable."""
        return self._add_block(name, FREE, length)

    def full_blocks(self, values: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Each declared block's value from those of ``blocks``: a sectored
        block's parts placed on its diagonal blocks, zero elsewhere."""
        out = dict(values)
        for name, (sec, names) in self._sectors.items():
            if len(names) > 1 and all(n in out for n in names):
                full = np.zeros((sec.side, sec.side), dtype=np.complex128)
                for p, n in zip(sec.parts, names):
                    full[np.ix_(p, p)] = out.pop(n)
                out[name] = full
        return out

    # -- coefficients ------------------------------------------------------

    def _split(self, name: str, coeff) -> dict[str, np.ndarray]:
        """A declared block's coefficient, per block holding it: a Hermitian
        matrix per sector, or a real vector."""
        if name in self._sectors:
            sec, names = self._sectors[name]
            c = np.asarray(coeff, dtype=np.complex128)
            if c.shape != (sec.side, sec.side):
                raise ValueError(
                    f"coefficient for {name!r} must be {sec.side}x{sec.side}, got {c.shape}"
                )
            if hermiticity_defect(c) > _herm_tol(c):
                raise ValueError(f"coefficient for Hermitian block {name!r} is not Hermitian")
            sec.check(c, f"the coefficient for {name!r}")
            return {n: c[np.ix_(p, p)] for p, n in zip(sec.parts, names)}
        blk = self._by_name.get(name)
        if blk is None or blk.kind == HERM_PSD:
            raise ValueError(f"unknown block {name!r}")
        c = np.atleast_1d(np.asarray(coeff, dtype=np.float64)).reshape(-1)
        if c.shape != (blk.size,):
            raise ValueError(
                f"coefficient for {name!r} must have length {blk.size}, got {c.shape}"
            )
        return {name: c}

    def coefficients(self, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, coordinates and values of block ``name``'s nonzero constraint
        coefficients, ordered by row and then by coordinate."""
        return tuple(np.concatenate(col) for col in zip(*self._parts[name]))

    def _append(self, coords: Mapping[str, object], rhs) -> None:
        """Append one row per entry of ``rhs``; coords[name] holds block
        ``name``'s coefficients: an array whose row r holds row r's
        coordinates, or (rows, coordinates, values), rows counted from 0."""
        base = len(self.rows)
        for name, x in coords.items():
            r, k, v = x if isinstance(x, tuple) else (*np.nonzero(x), x[np.nonzero(x)])
            self._parts[name].append(_frozen(base + r, k, v))
        self.rows.extend(float(v) for v in rhs)
        self.structure = object()

    def set_objective(self, terms: Mapping[str, object]) -> None:
        objective = {}
        for n, c in terms.items():
            objective.update(self._split(n, c))
        for c in objective.values():
            c.flags.writeable = False
        self.objective = objective

    def add_terms(self, row: int, terms: Mapping[str, object]) -> None:
        """Add ``terms`` to scalar row ``row`` (rows count from 0 in the order
        they were added), each as ``add_constraint`` states it; a block may
        not have coefficients in the constraint of that row yet."""
        if not 0 <= row < len(self.rows):
            raise ValueError(f"no row {row}")
        coeffs = {}
        for n, c in terms.items():
            coeffs.update(self._split(n, c))
        at = {}  # the new part goes after each block's parts with earlier rows
        for n in coeffs:
            rows = [r for r, *_ in self._parts[n]]
            at[n] = max((i + 1 for i, r in enumerate(rows) if r.size and r[0] <= row), default=0)
            if at[n] and rows[at[n] - 1][-1] >= row:
                raise ValueError(f"block {n!r} already has coefficients in the constraint of row {row}")
        for n, c in coeffs.items():
            x = hermitian_coords(c) if c.ndim == 2 else c
            k = np.flatnonzero(x)
            self._parts[n].insert(at[n], _frozen(np.full(k.size, row, dtype=np.intp), k, x[k]))
        self.structure = object()

    def set_rhs(self, row: int, rhs) -> None:
        """Restate the rhs of the operator (in)equality whose rows start at
        ``row``, as ``add_operator_constraint`` states it."""
        if row not in self._operators:
            raise ValueError(f"no operator constraint starts at row {row}")
        out, sign = self._operators[row]
        b = sign * out.coords(_operator_rhs(rhs, out))
        self.rows[row : row + b.size] = [float(v) for v in b]

    def add_constraint(self, terms: Mapping[str, object], relation: str, rhs: float) -> str | None:
        """Append one scalar row: sum of block inner products <relation> rhs.

        ``"<="`` and ``">="`` also declare a length-1 nonnegative slack block
        s, entering the row as +s or -s, and return its name.
        """
        if relation not in RELATIONS:
            raise ValueError(f"relation must be one of {RELATIONS}, got {relation!r}")
        if not terms:
            raise ValueError("a constraint row needs at least one term")
        coeffs = {}
        for n, c in terms.items():
            coeffs.update(self._split(n, c))
        coords = {n: (hermitian_coords(c) if c.ndim == 2 else c)[None] for n, c in coeffs.items()}
        rhs, slack = float(rhs), None
        if relation != "==":
            slack = self._add_block(f"{SLACK_PREFIX}{len(self.blocks)}", NONNEG, 1, True)
            coords[slack] = np.array([[1.0 if relation == "<=" else -1.0]])
        self._append(coords, [rhs])
        return slack

    def add_operator_constraint(
        self, terms: Mapping[str, sp.sparray | sp.spmatrix], relation: str, rhs=0,
        sectors: Sequence[Sequence[int]] | None = None,
    ) -> str | None:
        """Append the operator (in)equality: sum of terms[name] @ vec(block) <relation> rhs.

        Each term is the ``scipy.sparse`` matrix L, (side**2, width), of a
        block's forward map from its row-major vec (width n**2 for a side n
        Hermitian block, or a vector block's length) to that of a side x side
        matrix.  L must be Hermitian-preserving, P L P_n = conj(L) with P, P_n
        the vec transposes (P L = conj(L) on a vector), to 1e-12 of its largest
        entry.  ``rhs`` is a Hermitian side x side matrix, or 0.  ``sectors``
        partitions range(side): no stored nonzero of L's in-sector columns and
        no entry of ``rhs`` may fall off it, and one row is appended per basis
        element of each sector's diagonal block, in basis order (side**2 rows
        without sectors).  ``"<="`` and ``">="`` also declare a PSD slack on
        the same sectors, Z = rhs - sum or Z = sum - rhs, and return its name.
        """
        if relation not in RELATIONS:
            raise ValueError(f"relation must be one of {RELATIONS}, got {relation!r}")
        dense = [name for name, op in terms.items() if not sp.issparse(op)]
        if dense:
            raise TypeError(f"the map of block {dense[0]!r} must be a scipy.sparse matrix")
        # the largest side: a term of another side fails its shape check
        out = _Sectors(max(math.isqrt(op.shape[0]) for op in terms.values()), sectors)
        r = _operator_rhs(rhs, out)
        sign = -1.0 if relation == ">=" else 1.0
        coords = {}
        for name, op in terms.items():
            coords.update(self._term_coords(name, op, out, sign))
        b = sign * out.coords(r)
        slack = None
        if relation != "==":
            slack = self._add_herm(f"{SLACK_PREFIX}{len(self.blocks)}", out.side, sectors, True)
            first = 0
            for n in self._sectors[slack][1]:
                k = np.arange(self._by_name[n].size ** 2)
                coords[n] = (first + k, k, np.ones(k.size))
                first += k.size
        self._operators[len(self.rows)] = (out, sign)
        self._append(coords, b)
        return slack

    def _term_coords(self, name: str, op, out: _Sectors, sign: float) -> dict:
        """The (rows, coordinates, values) of term ``name`` per block holding
        it, checked as ``add_operator_constraint`` states.  Row i is
        L^dag(B_i): with t_i(u) = tr(B_i L(e_u)), its coordinate on a vector
        entry j is t_i(j), on a diagonal unit d t_i(dd), and on a pair a < b
        sqrt2 Re t_i(ab) and sqrt2 Im t_i(ab), as L(e_ba) = L(e_ab)^dag: the
        output's ``hermitian_coords`` of the columns L(e_u) and -i L(e_u)."""
        if name in self._sectors:
            sec, names = self._sectors[name]
            n, width = sec.side, sec.side**2
            units, factor, scale, widths = _unit_columns(n, sec.key)
        elif name in self._by_name and self._by_name[name].kind != HERM_PSD:
            n, names, width = None, [name], self._by_name[name].size
            units, factor, scale, widths = np.arange(width), np.ones(width), np.ones(width), [width]
        else:
            raise ValueError(f"unknown block {name!r}")
        if op.shape != (out.side**2, width):
            raise ValueError(f"the map of block {name!r} is {op.shape}, not {(out.side**2, width)}")
        op = sp.csc_array(op, dtype=np.complex128)
        cols, side2 = np.repeat(np.arange(width), np.diff(op.indptr)), out.side**2
        inside = np.ones(width, bool) if n is None or sec.off is None else ~sec.off.ravel()
        stray = inside[cols] & (op.data != 0)  # stored nonzeros of in-sector columns
        if out.off is not None and np.any(stray & out.off.ravel()[op.indices]):
            raise ValueError(f"the map of block {name!r} has an image off its sectors")
        # L - P conj(L) P_n, with the entry (r, c) of conj(L) at (P r, P_n c)
        flip = cols if n is None else cols % n * n + cols // n
        flip_rows = op.indices % out.side * out.side + op.indices // out.side
        key = np.concatenate([cols * side2 + op.indices, flip * side2 + flip_rows])
        _, defect = _summed(key, np.concatenate([op.data, -op.data.conj()]))
        if np.max(np.abs(defect), initial=0.0) > _herm_tol(op.data):
            raise ValueError(f"the map of block {name!r} is not Hermitian-preserving")
        # the stored entries of the column units[j] of each coordinate j, times factor[j]
        count = np.diff(op.indptr)[units]
        j = np.repeat(np.arange(units.size), count)
        at = np.arange(j.size) + np.repeat(op.indptr[units] - np.cumsum(count) + count, count)
        z = op.data[at] * factor[j]
        # each float of an image feeds at most one output coordinate
        coord, c = coords_readers(out.side, out.key)
        f = np.concatenate([2 * op.indices[at], 2 * op.indices[at] + 1])
        val = c[f] * np.concatenate([z.real, z.imag])
        key = coord[f] * units.size + np.tile(j, 2)
        key, v = _summed(key[coord[f] >= 0], val[coord[f] >= 0])
        rows, k = np.divmod(key, units.size)
        rows, k, v = rows[v != 0], k[v != 0], v[v != 0] * (sign * scale)[k[v != 0]]
        first = np.cumsum([0, *widths])
        at = np.searchsorted(first, k, side="right") - 1  # the block of each coordinate
        return {b: (rows[at == i], k[at == i] - first[i], v[at == i]) for i, b in enumerate(names)}


@lru_cache(maxsize=None)
def _unit_columns(side: int, key) -> tuple:
    """Per coordinate of a side x side block on the sectors ``key`` (None for one):
    its unit's vec index, (a, b) for both of a pair a < b; its factor, -1j for a
    pair's second; sqrt2 for a pair's; and each sector's number of coordinates."""
    parts = [range(side)] if key is None else key
    units, factor = [], []
    for p in map(np.asarray, parts):
        i, j = basis_pairs(p.size)
        units += [p * (side + 1), np.repeat(p[i] * side + p[j], 2)]
        factor += [np.ones(p.size), np.tile([1.0, -1j], i.size)]
    units = np.concatenate(units)
    scale = np.where(units // side == units % side, 1.0, _RT2)
    return units, np.concatenate(factor), scale, [len(p) ** 2 for p in parts]


def _herm_tol(mat: np.ndarray) -> float:
    return 1e-12 * max(float(np.max(np.abs(mat), initial=0.0)), 1e-300)


def _summed(key: np.ndarray, val: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the sum of the values at each."""
    order = np.argsort(key, kind="stable")
    key, cut = key[order], np.flatnonzero(np.diff(key[order], prepend=-1))
    return key[cut], np.add.reduceat(val[order], cut) if cut.size else val[:0]


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: a frame's copies share them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _operator_rhs(rhs, out: _Sectors) -> np.ndarray:
    """An operator constraint's ``rhs`` as a matrix, checked Hermitian and
    zero off the sectors ``out``."""
    side = out.side
    r = np.zeros((side, side)) if np.isscalar(rhs) and rhs == 0 else np.asarray(rhs)
    if r.shape != (side, side) or hermiticity_defect(r) > _herm_tol(r):
        raise ValueError(f"rhs must be 0 or a Hermitian {side}x{side} matrix")
    out.check(r, "rhs")
    return r


# the frames of the enclosing ``shared_frames``, by (build, *args); None outside one
_FRAMES: ContextVar[dict | None] = ContextVar("qcap_frames", default=None)


@contextmanager
def shared_frames():
    """Within the body, ``frame`` builds each frame once per builder and
    arguments and hands out copies of it; the frames are dropped on exit."""
    token = _FRAMES.set({})
    try:
        yield
    finally:
        _FRAMES.reset(token)


def frame(build: Callable[..., ConicProgram], *args: Hashable) -> ConicProgram:
    """A program to add one row's data to: a copy of the frame ``build(*args)``
    inside ``shared_frames``, built on the first call with that builder and
    those arguments; elsewhere ``build(*args)``'s own program."""
    frames = _FRAMES.get()
    if frames is None:
        return build(*args)
    key = (build, *args)
    if key not in frames:
        frames[key] = build(*args)
    return frames[key].copy()
