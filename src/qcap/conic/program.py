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
block.  The solver's real symmetric embedding pairs two blocks by
2 Re tr(AB), twice their complex trace pairing, so it halves every PSD
coefficient at assembly.

This is the program's equality form: one scalar row per row above.  The
solver may instead solve its LMI form (``lmi.py``), which keeps the user's
coordinates, eliminates the equality rows and reads each slack block as a
cone on rhs - L(y); ``solve`` picks the form from the two row counts, and
the solution is stated in this program's blocks and rows either way.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

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
        # per block, one (rows, coordinates, values) part per call that added rows
        self._parts: dict[str, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}

    # -- block declaration -------------------------------------------------

    def _add_block(self, name: str, kind: str, size: int, slack: bool = False) -> str:
        if name.startswith(SLACK_PREFIX) and not slack:
            raise ValueError(f"block names starting with {SLACK_PREFIX!r} are reserved")
        if name in self._by_name:
            raise ValueError(f"block {name!r} already declared")
        if size < 1:
            raise ValueError(f"block {name!r} must have positive size")
        blk = Block(name, kind, int(size))
        self.blocks.append(blk)
        self._by_name[name] = blk
        self._parts[name] = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))]
        return name

    def herm_block(self, name: str, side: int) -> str:
        """Declare a complex Hermitian PSD matrix variable of given side."""
        return self._add_block(name, HERM_PSD, side)

    def nonneg_block(self, name: str, length: int = 1) -> str:
        """Declare an entrywise-nonnegative vector variable."""
        return self._add_block(name, NONNEG, length)

    def free_block(self, name: str, length: int = 1) -> str:
        """Declare an unconstrained real vector variable."""
        return self._add_block(name, FREE, length)

    # -- coefficients ------------------------------------------------------

    def _coerce_coeff(self, name: str, coeff) -> np.ndarray:
        blk = self._by_name.get(name)
        if blk is None:
            raise ValueError(f"unknown block {name!r}")
        if blk.kind == HERM_PSD:
            c = np.asarray(coeff, dtype=np.complex128)
            if c.shape != (blk.size, blk.size):
                raise ValueError(
                    f"coefficient for {name!r} must be {blk.size}x{blk.size}, got {c.shape}"
                )
            if hermiticity_defect(c) > _herm_tol(c):
                raise ValueError(f"coefficient for Hermitian block {name!r} is not Hermitian")
            return c
        c = np.atleast_1d(np.asarray(coeff, dtype=np.float64)).reshape(-1)
        if c.shape != (blk.size,):
            raise ValueError(
                f"coefficient for {name!r} must have length {blk.size}, got {c.shape}"
            )
        return c

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
            self._parts[name].append((base + r, k, x[r, k]))
        self.rows.extend(float(v) for v in rhs)

    def set_objective(self, terms: Mapping[str, object]) -> None:
        self.objective = {n: self._coerce_coeff(n, c) for n, c in terms.items()}

    def add_constraint(self, terms: Mapping[str, object], relation: str, rhs: float) -> str | None:
        """Append one scalar row: sum of block inner products <relation> rhs.

        ``"<="`` and ``">="`` also declare a length-1 nonnegative slack block
        s, entering the row as +s or -s, and return its name.
        """
        if relation not in RELATIONS:
            raise ValueError(f"relation must be one of {RELATIONS}, got {relation!r}")
        if not terms:
            raise ValueError("a constraint row needs at least one term")
        coeffs = {n: self._coerce_coeff(n, c) for n, c in terms.items()}
        coords = {n: (hermitian_coords(c) if c.ndim == 2 else c)[None] for n, c in coeffs.items()}
        rhs, slack = float(rhs), None
        if relation != "==":
            slack = self._add_block(f"{SLACK_PREFIX}{len(self.blocks)}", NONNEG, 1, True)
            coords[slack] = np.array([[1.0 if relation == "<=" else -1.0]])
        self._append(coords, [rhs])
        return slack

    def add_operator_constraint(
        self, terms: Mapping[str, Callable], relation: str, rhs=0
    ) -> str | None:
        """Append the operator (in)equality: sum of terms[name](block) <relation> rhs.

        Each term is the forward linear map of a block into side x side
        matrices, e.g. ``lambda w: -w`` or ``lambda rho: np.kron(rho, eye)``.
        A Hermitian block's map is called on each matrix unit, so it must be
        complex-linear and Hermitian-preserving; a vector block's map is called
        on each unit vector and must return Hermitian matrices.  ``rhs`` is a
        Hermitian side x side matrix, or 0.  Appends side**2 rows in
        basis order.  ``"<="`` and ``">="`` also declare a PSD slack block,
        Z = rhs - sum or Z = sum - rhs, and return its name.
        """
        if relation not in RELATIONS:
            raise ValueError(f"relation must be one of {RELATIONS}, got {relation!r}")
        # the maps run on one BLAS thread, as in the solve: should one call
        # BLAS, a second thread would only spin at these sizes
        with one_blas_thread():
            images = {name: self._images(name, fn) for name, fn in terms.items()}
        sides = sorted({img.shape[-1] for img in images.values()})
        if len(sides) != 1:
            raise ValueError(f"the terms must map to matrices of one side, got sides {sides}")
        side = sides[0]
        r = np.zeros((side, side)) if np.isscalar(rhs) and rhs == 0 else np.asarray(rhs)
        if r.shape != (side, side) or hermiticity_defect(r) > _herm_tol(r):
            raise ValueError(f"rhs must be 0 or a Hermitian {side}x{side} matrix")
        sign = -1.0 if relation == ">=" else 1.0
        # Row i of a term is L^dag(B_i).  With t_i(u) = tr(B_i L(e_u)), its
        # coordinate on a vector block's entry j is t_i(j), and on a Hermitian
        # block's diagonal unit d it is t_i(dd) and on the pair a < b it is
        # sqrt2 Re t_i(ab) and sqrt2 Im t_i(ab), as L(e_ba) = L(e_ab)^dag.  Each
        # B_i has at most two nonzero entries, so Re t = hermitian_coords(L(e_u))
        # and Im t = hermitian_coords(-i L(e_u)) are gathers.
        b = sign * hermitian_coords(r)
        coords = {}
        for name, img in images.items():
            blk = self._by_name[name]
            re_t = hermitian_coords(img)  # (units, side**2)
            if blk.kind != HERM_PSD:
                coords[name] = sign * re_t.T
                continue
            n = blk.size
            i, j = basis_pairs(n)
            up = i * n + j
            x = np.empty((n * n, side * side))
            x[:n] = re_t[np.arange(n) * (n + 1)]
            x[n::2] = _RT2 * re_t[up]
            x[n + 1 :: 2] = _RT2 * hermitian_coords(-1j * img[up])
            coords[name] = sign * x.T
        slack = None
        if relation != "==":
            slack = self._add_block(f"{SLACK_PREFIX}{len(self.blocks)}", HERM_PSD, side, True)
            coords[slack] = np.eye(side * side)
        self._append(coords, b)
        return slack

    def _images(self, name: str, fn: Callable) -> np.ndarray:
        """fn on each unit of block ``name`` (e_ab at a * size + b), stacked
        and checked square and Hermitian-preserving."""
        blk = self._by_name.get(name)
        if blk is None:
            raise ValueError(f"unknown block {name!r}")
        n, herm = blk.size, blk.kind == HERM_PSD
        units = np.eye(n * n, dtype=np.complex128).reshape(n * n, n, n) if herm else np.eye(n)
        images = [np.asarray(fn(u), dtype=np.complex128) for u in units]
        shape = images[0].shape
        if len(shape) != 2 or shape[0] != shape[1] or any(im.shape != shape for im in images):
            raise ValueError(f"the map of block {name!r} must return square matrices of one side")
        img = np.array(images)
        # L(e_ba) must be L(e_ab)^dag, and L(e_j) Hermitian
        partner = np.arange(n * n).reshape(n, n).T.ravel() if herm else np.arange(n)
        if np.max(np.abs(img - img[partner].conj().transpose(0, 2, 1))) > _herm_tol(img):
            raise ValueError(f"the map of block {name!r} is not Hermitian-preserving")
        return img


def _herm_tol(mat: np.ndarray) -> float:
    return 1e-12 * max(float(np.max(np.abs(mat), initial=0.0)), 1e-300)
