"""Structured conic-program description shared by all bound formulations.

A program is a list of named variable blocks (complex Hermitian PSD,
nonnegative vector, free vector), scalar linear constraint rows whose
coefficients are Hermitian matrices or real vectors per block, and a linear
objective with a minimize/maximize sense.  Operator (in)equalities are
expressed by the callers as explicit PSD slack blocks tied down with scalar
rows expanded over an orthonormal Hermitian basis; this module only deals in
scalar rows.

The solver keeps Hermitian blocks complex.  It runs the iteration of the
real symmetric embedding [[Re H, -Im H], [Im H, Re H]] of each block, which
doubles eigenvalue multiplicities and pairs two blocks by 2 Re tr(AB), twice
their complex trace pairing; so coefficient matrices are halved during
assembly and every scalar row keeps its complex-domain value exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..matops import hermiticity_defect

HERM_PSD = "hermitian_psd"
NONNEG = "nonneg"
FREE = "free"

RELATIONS = ("==", "<=", ">=")


@dataclass(frozen=True)
class Block:
    name: str
    kind: str
    size: int  # matrix side for hermitian_psd, vector length otherwise


@dataclass(frozen=True)
class Row:
    terms: dict[str, np.ndarray]
    relation: str
    rhs: float


class ConicProgram:
    """Builder for block-structured conic programs."""

    def __init__(self, sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
        self.sense = sense
        self.blocks: list[Block] = []
        self.rows: list[Row] = []
        self.objective: dict[str, np.ndarray] = {}
        self._by_name: dict[str, Block] = {}

    # -- block declaration -------------------------------------------------

    def _add_block(self, name: str, kind: str, size: int) -> str:
        if name in self._by_name:
            raise ValueError(f"block {name!r} already declared")
        if size < 1:
            raise ValueError(f"block {name!r} must have positive size")
        blk = Block(name, kind, int(size))
        self.blocks.append(blk)
        self._by_name[name] = blk
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
            scale = float(np.max(np.abs(c), initial=0.0))
            if hermiticity_defect(c) > 1e-12 * max(scale, 1e-300):
                raise ValueError(f"coefficient for Hermitian block {name!r} is not Hermitian")
            return c
        c = np.atleast_1d(np.asarray(coeff, dtype=np.float64)).reshape(-1)
        if c.shape != (blk.size,):
            raise ValueError(
                f"coefficient for {name!r} must have length {blk.size}, got {c.shape}"
            )
        return c

    def set_objective(self, terms: Mapping[str, object]) -> None:
        self.objective = {n: self._coerce_coeff(n, c) for n, c in terms.items()}

    def add_constraint(self, terms: Mapping[str, object], relation: str, rhs: float) -> None:
        """Append one scalar row: sum of block inner products <relation> rhs."""
        if relation not in RELATIONS:
            raise ValueError(f"relation must be one of {RELATIONS}, got {relation!r}")
        if not terms:
            raise ValueError("a constraint row needs at least one term")
        row = Row({n: self._coerce_coeff(n, c) for n, c in terms.items()}, relation, float(rhs))
        self.rows.append(row)

    # -- debugging ---------------------------------------------------------

    def dump(self) -> str:
        """Human-readable listing: blocks, objective, one constraint per line."""
        out = [f"sense {self.sense}"]
        for blk in self.blocks:
            out.append(f"block {blk.name} {blk.kind} {blk.size}")
        obj = ", ".join(
            f"{n}(fro={np.linalg.norm(c):.6g})" for n, c in sorted(self.objective.items())
        )
        out.append(f"objective: {obj if obj else '0'}")
        for i, row in enumerate(self.rows):
            terms = ", ".join(
                f"{n}(fro={np.linalg.norm(c):.6g})" for n, c in sorted(row.terms.items())
            )
            out.append(f"row {i}: {terms} {row.relation} {row.rhs:.12g}")
        return "\n".join(out)
