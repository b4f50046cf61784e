"""Complex linear algebra on operators over tensor-product factors.

A matrix here acts on a tensor product of finite-dimensional factors.  The
composite index is row-major with the *first* factor most significant, the
same ordering ``numpy.kron`` produces: for ``dims == (d1, d2)`` the basis
vector ``|i1, i2>`` lives at row ``i1 * d2 + i2``.

Conic programs state coefficients in the coordinates of ``hermitian_basis``,
to and from which ``hermitian_coords`` and ``from_hermitian_coords`` convert;
``coords_readers`` reads that gather from the matrix's side; ``bipartite_maps``
gives the programs' maps as sparse matrices on the row-major vec.

All operations are pure functions; inputs are never mutated.  ``herm``,
``permute_factors`` and ``trace_norm`` have no caller in the package: they are
public API, which the tests use as references independent of the solver.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
import scipy.sparse as sp

# Relative tolerance for declaring a matrix Hermitian.
HERM_RTOL = 1e-12
_RT2 = np.sqrt(2.0)


def _as_complex(mat: np.ndarray) -> np.ndarray:
    out = np.array(mat, dtype=np.complex128, order="C")
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {out.shape}")
    return out


def hermiticity_defect(mat: np.ndarray) -> float:
    """Max-entry deviation of ``mat`` from its conjugate transpose."""
    return float(np.max(np.abs(mat - mat.conj().T), initial=0.0))


@dataclass(frozen=True)
class HermMat:
    """Square complex matrix with explicit tensor-factor dimensions.

    Parameters
    ----------
    data : ndarray
        The matrix entries, coerced to complex128.
    dims : tuple of int
        Factor dimensions; their product must equal the matrix side.
    hermitian : bool
        If set (the default), the entries must satisfy
        ``max|M - M^dag| <= 1e-12 * max|M|``.
    """

    data: np.ndarray
    dims: tuple[int, ...]
    hermitian: bool = True

    def __post_init__(self) -> None:
        data = _as_complex(self.data)
        dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in dims):
            raise ValueError(f"factor dimensions must be positive, got {dims}")
        if int(np.prod(dims)) != data.shape[0]:
            raise ValueError(
                f"dims {dims} do not multiply out to matrix side {data.shape[0]}"
            )
        if self.hermitian:
            scale = float(np.max(np.abs(data), initial=0.0))
            if hermiticity_defect(data) > HERM_RTOL * max(scale, 1e-300):
                raise ValueError("matrix marked hermitian fails the symmetry check")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "dims", dims)

    @property
    def side(self) -> int:
        return self.data.shape[0]


def herm(data: np.ndarray, dims: Sequence[int] | None = None, hermitian: bool = True) -> HermMat:
    """Wrap ``data`` as a :class:`HermMat`, defaulting to a single factor."""
    data = _as_complex(data)
    if dims is None:
        dims = (data.shape[0],)
    return HermMat(data, tuple(dims), hermitian)


def _check_factor(m: HermMat, factor: int) -> int:
    if not 0 <= factor < len(m.dims):
        raise IndexError(f"factor {factor} out of range for dims {m.dims}")
    return factor


def _ptrace_array(mat: np.ndarray, dims: Sequence[int], factor: int) -> np.ndarray:
    n = len(dims)
    t = mat.reshape(tuple(dims) * 2)
    t = np.trace(t, axis1=factor, axis2=factor + n)
    rest = int(np.prod([d for i, d in enumerate(dims) if i != factor], initial=1))
    return np.ascontiguousarray(t.reshape(rest, rest))


def partial_trace(m: HermMat, factor: int) -> HermMat:
    """Trace out one factor, keeping the remaining factor order."""
    _check_factor(m, factor)
    if len(m.dims) == 1:
        raise ValueError("cannot partial-trace a single-factor matrix; use trace")
    out = _ptrace_array(m.data, m.dims, factor)
    dims = tuple(d for i, d in enumerate(m.dims) if i != factor)
    return HermMat(out, dims, m.hermitian)


def partial_transpose(m: HermMat, factor: int) -> HermMat:
    """Transpose one factor in place; an involution, and trace preserving."""
    _check_factor(m, factor)
    n = len(m.dims)
    axes = list(range(2 * n))
    axes[factor], axes[factor + n] = axes[factor + n], axes[factor]
    t = m.data.reshape(m.dims * 2).transpose(axes)
    return HermMat(t.reshape(m.side, m.side), m.dims, m.hermitian)


def permute_factors(m: HermMat, order: Sequence[int]) -> HermMat:
    """Reorder tensor factors by an index permutation (no matrix products)."""
    n = len(m.dims)
    order = list(order)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {order} is not a permutation of range({n})")
    axes = order + [n + k for k in order]
    side = m.side
    out = m.data.reshape(m.dims * 2).transpose(axes).reshape(side, side)
    return HermMat(np.ascontiguousarray(out), tuple(m.dims[k] for k in order), m.hermitian)


def trace_norm(m: HermMat) -> float:
    """Sum of singular values; for Hermitian input, sum of |eigenvalues|."""
    if m.hermitian:
        return float(np.abs(np.linalg.eigvalsh(m.data)).sum())
    return float(np.linalg.svd(m.data, compute_uv=False).sum())


def hermitian_basis(side: int) -> np.ndarray:
    """An orthonormal basis of the side x side Hermitian matrices, stacked as a
    (side**2, side, side) array.

    Frobenius-orthonormal: diagonal units, then for each i < j in row-major
    order the symmetric and the antisymmetric combination of (i, j) and
    (j, i), scaled by 1/sqrt(2).
    """
    basis = np.zeros((side * side, side, side), dtype=np.complex128)
    diag = np.arange(side)
    basis[diag, diag, diag] = 1.0
    i, j = np.triu_indices(side, 1)
    k = side + 2 * np.arange(i.size)
    rt2 = 1.0 / np.sqrt(2.0)
    basis[k, i, j] = basis[k, j, i] = rt2
    basis[k + 1, i, j] = -1j * rt2
    basis[k + 1, j, i] = 1j * rt2
    return basis


@lru_cache(maxsize=None)
def basis_pairs(side: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j of the off-diagonal Hermitian basis elements, in
    order; read-only, as every caller shares them."""
    i, j = np.triu_indices(side, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


@lru_cache(maxsize=None)
def _gathers(side: int) -> tuple[np.ndarray, ...]:
    """Tables between a side x side complex matrix's interleaved float view v
    (Re, Im of each entry, row-major) and its ``hermitian_basis`` coordinates
    x: x = v[g1] c1 + v[g2] c2, and the float view of the Hermitian matrix
    with coordinates x is x[f] e.  Read-only, as every caller shares them."""
    s, n = side, side * side
    i, j = basis_pairs(s)
    d = np.arange(s)
    diag, up, low = 2 * (d * s + d), 2 * (i * s + j), 2 * (j * s + i)  # Re X_dd, X_ij, X_ji
    sym = s + 2 * np.arange(i.size)  # the symmetric coordinate of pair (i, j)
    g1, g2 = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    c1, c2 = np.full(n, 1.0 / _RT2), np.full(n, 1.0 / _RT2)
    g1[:s] = g2[:s] = diag
    c1[:s], c2[:s] = 1.0, 0.0
    g1[s::2], g2[s::2] = up, low  # (Re X_ij + Re X_ji) / sqrt2
    g1[s + 1 :: 2], g2[s + 1 :: 2] = low + 1, up + 1  # (Im X_ji - Im X_ij) / sqrt2
    c2[s + 1 :: 2] = -1.0 / _RT2
    f, e = np.zeros(2 * n, dtype=np.intp), np.zeros(2 * n)  # Im X_dd stays 0
    f[diag], e[diag] = d, 1.0
    f[up] = f[low] = sym
    e[up] = e[low] = 1.0 / _RT2
    f[up + 1] = f[low + 1] = sym + 1
    e[up + 1], e[low + 1] = -1.0 / _RT2, 1.0 / _RT2
    tables = (g1, g2, c1, c2, f, e)
    for t in tables:
        t.flags.writeable = False
    return tables


def hermitian_coords(mats: np.ndarray) -> np.ndarray:
    """Coordinates <B_b, X> of (..., s, s) matrices in the orthonormal
    ``hermitian_basis`` order: the diagonal, then for each pair i < j the
    symmetric element (e_ij + e_ji)/sqrt2 and the antisymmetric one
    (-i e_ij + i e_ji)/sqrt2.  Only the Hermitian part of X has coordinates."""
    s = mats.shape[-1]
    g1, g2, c1, c2, _, _ = _gathers(s)
    v = np.ascontiguousarray(mats, dtype=np.complex128).view(np.float64)
    v = v.reshape(mats.shape[:-2] + (2 * s * s,))
    return v[..., g1] * c1 + v[..., g2] * c2


def from_hermitian_coords(x: np.ndarray, s: int) -> np.ndarray:
    """The Hermitian s x s matrices sum_b x_b B_b of (..., s**2) coordinates:
    the inverse of ``hermitian_coords``."""
    _, _, _, _, f, e = _gathers(s)
    v = np.ascontiguousarray(x[..., f] * e)
    return v.view(np.complex128).reshape(x.shape[:-1] + (s, s))


@lru_cache(maxsize=None)
def coords_readers(side: int, sectors=None) -> tuple[np.ndarray, np.ndarray]:
    """The ``hermitian_coords`` coordinate of each sector's X[p, p] (-1 for none)
    that reads each float of a side x side X's float view, and its factor (0):
    each float is read by at most one.  ``sectors``: index tuples, or None."""
    coord, factor, first = np.full(2 * side * side, -1), np.zeros(2 * side * side), 0
    for p in map(np.asarray, sectors or [range(side)]):
        g1, g2, c1, c2, _, _ = _gathers(p.size)
        entry = (p[:, None] * side + p).ravel()
        for g, c in ((g1, c1), (g2, c2)):
            f = 2 * entry[g // 2] + g % 2  # the float of X that local float g is
            coord[f[c != 0]], factor[f[c != 0]] = first + np.flatnonzero(c), c[c != 0]
        first += g1.size
    coord.flags.writeable = factor.flags.writeable = False
    return coord, factor


@lru_cache(maxsize=None)
def bipartite_maps(dims: tuple[int, int]) -> tuple[sp.csc_array, ...]:
    """The linear maps X -> X (x) I_B, W -> W^TB, W -> tr_A W and W -> tr_B W
    over A (x) B with factor dims ``dims``, as 0/1 sparse matrices on the
    row-major vec; shared by every caller, so they must not be modified."""
    da, db = dims
    d = da * db
    a, b, a2, b2 = (ix.ravel() for ix in np.indices((da, db, da, db)))
    vec = (a * db + b) * d + a2 * db + b2  # of the entry ((a, b), (a2, b2))

    def zero_one(rows, cols, shape):
        return sp.csc_array((np.ones(rows.size, dtype=complex), (rows, cols)), shape=shape)

    lift = zero_one(vec[b == b2], (a * da + a2)[b == b2], (d * d, da * da))
    lift_b = zero_one(vec[a == a2], (b * db + b2)[a == a2], (d * d, db * db))  # Y -> I_A (x) Y
    pt = zero_one(vec, (a * db + b2) * d + a2 * db + b, (d * d, d * d))
    return lift, pt, sp.csc_array(lift_b.T), sp.csc_array(lift.T)
