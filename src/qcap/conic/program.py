"""Structured conic-program description shared by all bound formulations.

A program is a list of named variable blocks (complex Hermitian PSD,
nonnegative vector, free vector), scalar linear equality rows, and a linear
objective with a minimize/maximize sense.  ``add_constraint`` states one row
by a Hermitian matrix or real vector per block; ``add_operator_constraint``
states an operator (in)equality by the forward linear map of each block and
expands it into rows <L^dag(B), X> over an orthonormal Hermitian basis B.
An inequality gets a slack block: length-1 nonnegative for a scalar row, PSD
for an operator one.

Each block's coefficients are stored as the solver reads them: nonzero
(row, coordinate, value) triples, where a vector block's coordinates are its
entries and a Hermitian block's are <B_b, C> in ``hermitian_basis`` order,
made here by ``matops.hermitian_coords`` as rows are added; an operator
constraint's rows are gathers of the maps' images, as each basis element has
at most two nonzero entries.  The objective stays one dense coefficient per
block.

A Hermitian block may be declared zero off a partition of its index range,
its sectors, as a symmetry of the program allows (``qcap.symmetry``).  It is
then held as one block per sector, named ``name[k]``, whose coordinates are
those of the sector's diagonal block; an operator constraint given sectors
states only the rows of its in-sector basis elements, and its slack gets
the same sectors.  The maps still take and return full matrices, and are
called only on in-sector units.  Every image, rhs and coefficient must
vanish off its sectors to 1e-12 of its largest entry, or the call raises
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
program at J = 0.  ``frame(key, build)`` returns a program to add the data
to: inside ``shared_frames()``, a ``copy`` of the frame built once per key,
and elsewhere the frame ``build()`` makes, as a frame of one.  The data goes
in by ``set_objective``, ``set_rhs`` or ``add_terms``, each checked against
the sectors as when the program is built whole, so the copy is the program
that building it whole gives: the same blocks, rows and triples, in the same
order.  The coefficient arrays are read-only and a copy shares them with its
frame; ``structure`` names what a program shares with its frame's other
copies, and changes once a block or a coefficient is added, so that the
solver assembles the coefficients once per ``structure`` (``solve_all``).
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from ..matops import basis_pairs, hermitian_coords, hermiticity_defect
from ._blas import one_blas_thread

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

    def check(self, stacks, what: str) -> None:
        """Raise unless each matrix of the (..., side, side) ``stacks``
        vanishes off the sectors to 1e-12 of its largest entry."""
        if self.off is None:
            return
        mags = np.abs(np.concatenate([m.reshape(-1, self.side, self.side) for m in stacks]))
        if np.any(np.max(mags[:, self.off], axis=1) > 1e-12 * np.max(mags, axis=(1, 2))):
            raise ValueError(f"{what} does not vanish off its sectors")

    def coords(self, mats: np.ndarray) -> np.ndarray:
        """``hermitian_coords`` of each sector's diagonal block, sector by sector."""
        return hermitian_coords(mats, self.key)


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
            sec.check([c], f"the coefficient for {name!r}")
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

    def _append(self, coords: Mapping[str, np.ndarray], rhs) -> None:
        """Append one row per entry of ``rhs``; coords[name][r] holds the
        coordinates of row r's coefficient on block ``name``."""
        base = len(self.rows)
        for name, x in coords.items():
            r, k = np.nonzero(x)
            self._parts[name].append(_frozen(base + r, k, x[r, k]))
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
        self, terms: Mapping[str, Callable], relation: str, rhs=0,
        sectors: Sequence[Sequence[int]] | None = None,
    ) -> str | None:
        """Append the operator (in)equality: sum of terms[name](block) <relation> rhs.

        Each term is the forward linear map of a block into side x side
        matrices, e.g. ``lambda w: -w`` or ``lambda rho: np.kron(rho, eye)``.
        A Hermitian block's map is called on each in-sector matrix unit, so it
        must be complex-linear and Hermitian-preserving; a vector block's map
        is called on each unit vector and must return Hermitian matrices.
        ``rhs`` is a Hermitian side x side matrix, or 0.  ``sectors``
        partitions range(side): every image and ``rhs`` must vanish off it,
        and one row is appended per basis element of each sector's diagonal
        block, sector by sector in basis order (side**2 rows without
        sectors).  ``"<="`` and ``">="`` also declare a PSD slack block on the
        same sectors, Z = rhs - sum or Z = sum - rhs, and return its name.
        """
        if relation not in RELATIONS:
            raise ValueError(f"relation must be one of {RELATIONS}, got {relation!r}")
        # the maps run on one BLAS thread, as in the solve: should one call
        # BLAS, a second thread would only spin at these sizes
        with one_blas_thread():
            per_term = {name: self._images(name, fn) for name, fn in terms.items()}
        images = {n: img for imgs in per_term.values() for n, img in imgs.items()}
        sides = sorted({img.shape[-1] for img in images.values()})
        if len(sides) != 1:
            raise ValueError(f"the terms must map to matrices of one side, got sides {sides}")
        out = _Sectors(sides[0], sectors)
        r = _operator_rhs(rhs, out)
        for name, imgs in per_term.items():
            out.check(imgs.values(), f"an image of the map of block {name!r}")
        sign = -1.0 if relation == ">=" else 1.0
        # Row i of a term is L^dag(B_i).  With t_i(u) = tr(B_i L(e_u)), its
        # coordinate on a vector block's entry j is t_i(j), and on a Hermitian
        # block's diagonal unit d it is t_i(dd) and on the pair a < b it is
        # sqrt2 Re t_i(ab) and sqrt2 Im t_i(ab), as L(e_ba) = L(e_ab)^dag.  Each
        # B_i has at most two nonzero entries, so Re t = hermitian_coords(L(e_u))
        # and Im t = hermitian_coords(-i L(e_u)) are gathers.
        b = sign * out.coords(r)
        coords = {}
        for name, img in images.items():
            blk = self._by_name[name]
            re_t = out.coords(img)  # (units, rows)
            if blk.kind != HERM_PSD:
                coords[name] = sign * re_t.T
                continue
            n = blk.size
            i, j = basis_pairs(n)
            up = i * n + j
            x = np.empty((n * n, b.size))
            x[:n] = re_t[np.arange(n) * (n + 1)]
            x[n::2] = _RT2 * re_t[up]
            x[n + 1 :: 2] = _RT2 * out.coords(-1j * img[up])
            coords[name] = sign * x.T
        slack = None
        if relation != "==":
            slack = self._add_herm(f"{SLACK_PREFIX}{len(self.blocks)}", out.side, sectors, True)
            first = 0
            for n in self._sectors[slack][1]:
                width = self._by_name[n].size ** 2
                coords[n] = np.eye(b.size, width, -first)
                first += width
        self._operators[len(self.rows)] = (out, sign)
        self._append(coords, b)
        return slack

    def _images(self, name: str, fn: Callable) -> dict[str, np.ndarray]:
        """fn on each in-sector unit of the blocks holding ``name``, stacked per
        block (the unit of a sector's entry (a, b) at a * size + b), and
        checked square and Hermitian-preserving."""
        if name in self._sectors:
            sec, names = self._sectors[name]
            units = {}
            for p, n in zip(sec.parts, names):
                u = np.zeros((p.size**2, sec.side**2), dtype=np.complex128)
                u[np.arange(p.size**2), (p[:, None] * sec.side + p).ravel()] = 1.0
                units[n] = u.reshape(-1, sec.side, sec.side)
        elif name in self._by_name and self._by_name[name].kind != HERM_PSD:
            units = {name: np.eye(self._by_name[name].size)}
        else:
            raise ValueError(f"unknown block {name!r}")
        out = {}
        for n, stack in units.items():
            images = [np.asarray(fn(u), dtype=np.complex128) for u in stack]
            shape = images[0].shape
            if len(shape) != 2 or shape[0] != shape[1] or any(im.shape != shape for im in images):
                raise ValueError(
                    f"the map of block {name!r} must return square matrices of one side"
                )
            img = np.array(images)
            # L(e_ba) must be L(e_ab)^dag, and L(e_j) Hermitian
            k = self._by_name[n].size
            herm = self._by_name[n].kind == HERM_PSD
            partner = np.arange(k * k).reshape(k, k).T.ravel() if herm else np.arange(k)
            if np.max(np.abs(img - img[partner].conj().transpose(0, 2, 1))) > _herm_tol(img):
                raise ValueError(f"the map of block {name!r} is not Hermitian-preserving")
            out[n] = img
        return out


def _herm_tol(mat: np.ndarray) -> float:
    return 1e-12 * max(float(np.max(np.abs(mat), initial=0.0)), 1e-300)


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
    out.check([r], "rhs")
    return r


# the frames of the enclosing ``shared_frames``, by key; None outside one
_FRAMES: ContextVar[dict | None] = ContextVar("qcap_frames", default=None)


@contextmanager
def shared_frames():
    """Within the body, ``frame`` builds each key's frame once and hands out
    copies of it; the frames are dropped on exit."""
    token = _FRAMES.set({})
    try:
        yield
    finally:
        _FRAMES.reset(token)


def frame(key: Hashable, build: Callable[[], ConicProgram]) -> ConicProgram:
    """A program to add one row's data to: a copy of the frame of ``key``
    inside ``shared_frames``, built by ``build()`` on the first call with
    that key; elsewhere ``build()``'s own program."""
    frames = _FRAMES.get()
    if frames is None:
        return build()
    if key not in frames:
        frames[key] = build()
    return frames[key].copy()
