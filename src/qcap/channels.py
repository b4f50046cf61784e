"""Quantum channels as Kraus operator collections, and their Choi matrices.

The Choi matrix convention is unnormalized: J = sum_ij |i><j| (x) N(|i><j|),
so tr J = d_in and the input factor comes first in the factor list.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .matops import HermMat, _ptrace_array

TP_ATOL = 1e-10
CHOI_PSD_FLOOR = -1e-10


@dataclass(frozen=True)
class Channel:
    """Completely positive trace-preserving map given by Kraus operators.

    Each Kraus operator has shape (d_out, d_in); trace preservation
    (sum K^dag K = I) is checked to 1e-10 on construction.  The Kraus
    operators are read-only, so what is computed from them, such as the Choi
    matrix, is kept on the instance (``cached``) and travels with it when it
    is pickled.
    """

    kraus: tuple[np.ndarray, ...]
    d_in: int
    d_out: int
    name: str = ""

    def __post_init__(self) -> None:
        if not self.kraus:
            raise ValueError("a channel needs at least one Kraus operator")
        ops = []
        for k in self.kraus:
            arr = np.array(k, dtype=np.complex128, order="C")
            if arr.shape != (self.d_out, self.d_in):
                raise ValueError(
                    f"Kraus operator shape {arr.shape} does not match "
                    f"(d_out, d_in) = ({self.d_out}, {self.d_in})"
                )
            arr.flags.writeable = False
            ops.append(arr)
        ident = sum(k.conj().T @ k for k in ops)
        if np.max(np.abs(ident - np.eye(self.d_in))) > TP_ATOL:
            raise ValueError("Kraus operators are not trace preserving")
        object.__setattr__(self, "kraus", tuple(ops))

    def cached(self, key: str, compute):
        """``compute(self)``, computed on the first call with ``key`` and kept
        on this channel for the later ones."""
        memo = self.__dict__.setdefault("_cache", {})
        if key not in memo:
            memo[key] = compute(self)
        return memo[key]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Evaluate the channel on a d_in x d_in matrix."""
        rho = np.asarray(rho, dtype=np.complex128)
        return sum(k @ rho @ k.conj().T for k in self.kraus)


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix of a channel, factors ordered (input, output)."""

    mat: HermMat
    channel: Channel | None = None

    @property
    def d_in(self) -> int:
        return self.mat.dims[0]

    @property
    def d_out(self) -> int:
        return self.mat.dims[1]


def choi(ch: Channel) -> ChoiMatrix:
    """Unnormalized Choi matrix of ``ch``: trace d_in, marginal on input I.

    Computed once per channel; its entries are read-only."""
    return ChoiMatrix(ch.cached("choi", _choi_mat), ch)


def _choi_mat(ch: Channel) -> HermMat:
    d_in, d_out = ch.d_in, ch.d_out
    j = np.zeros((d_in * d_out, d_in * d_out), dtype=np.complex128)
    for k in ch.kraus:
        v = k.T.reshape(-1)  # v[(a, b)] = K[b, a]
        j += np.outer(v, v.conj())
    j = 0.5 * (j + j.conj().T)
    eigs = np.linalg.eigvalsh(j)
    if eigs[0] < CHOI_PSD_FLOOR:
        raise ValueError(f"Choi matrix not positive semidefinite (min eig {eigs[0]:g})")
    marg = _ptrace_array(j, (d_in, d_out), 1)
    if np.max(np.abs(marg - np.eye(d_in))) > TP_ATOL:
        raise ValueError("Choi marginal on the input factor is not the identity")
    mat = HermMat(j, (d_in, d_out))
    mat.data.flags.writeable = False
    return mat


def tensor(a: Channel, b: Channel) -> Channel:
    """Parallel composition; Kraus list is all pairwise tensor products."""
    kraus = [np.kron(ka, kb) for ka in a.kraus for kb in b.kraus]
    name = f"{a.name}(x){b.name}" if a.name and b.name else ""
    return Channel(tuple(kraus), a.d_in * b.d_in, a.d_out * b.d_out, name)


def identity_channel(d: int) -> Channel:
    return Channel((np.eye(d, dtype=np.complex128),), d, d, f"identity_{d}")


def amplitude_damping(r: float) -> Channel:
    """Qubit amplitude damping with decay probability ``r`` in [0, 1]."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"damping parameter {r} outside [0, 1]")
    e0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - r)]])
    e1 = np.array([[0.0, np.sqrt(r)], [0.0, 0.0]])
    return Channel((e0, e1), 2, 2, f"ad_{r:g}")


def depolarizing(p: float) -> Channel:
    """Qubit depolarizing channel mixing in each Pauli with weight p/3."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability {p} outside [0, 1]")
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
    kraus = (
        np.sqrt(1.0 - p) * np.eye(2, dtype=np.complex128),
        np.sqrt(p / 3.0) * sx,
        np.sqrt(p / 3.0) * sy,
        np.sqrt(p / 3.0) * sz,
    )
    return Channel(kraus, 2, 2, f"depol_{p:g}")


def channel_nr(r: float) -> Channel:
    """Qutrit-to-qubit channel with a tunable leak parameter r in [0, 0.5]."""
    if not 0.0 <= r <= 0.5:
        raise ValueError(f"parameter {r} outside [0, 0.5]")
    e0 = np.array([[1.0, 0.0, 0.0], [0.0, np.sqrt(r), 0.0]])
    e1 = np.array([[0.0, np.sqrt(1.0 - r), 0.0], [0.0, 0.0, 1.0]])
    return Channel((e0, e1), 3, 2, f"nr_{r:g}")


def random_channel(d_in: int, d_out: int, d_env: int = 2, seed=None) -> Channel:
    """Sample a channel from a Haar-random isometry into output x environment.

    Requires d_out * d_env >= d_in.  Reproducible for a fixed ``seed``.
    """
    if d_out * d_env < d_in:
        raise ValueError("isometry needs d_out * d_env >= d_in")
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(d_out * d_env, d_in)) + 1j * rng.normal(size=(d_out * d_env, d_in))
    q, r = np.linalg.qr(z)
    # fix phases so the sample is Haar rather than QR-convention biased
    diag = np.diag(r)
    q = q * (diag / np.abs(diag))[None, :].conj()
    v = q.reshape(d_out, d_env, d_in)
    kraus = tuple(np.ascontiguousarray(v[:, e, :]) for e in range(d_env))
    return Channel(kraus, d_in, d_out, f"random_{d_in}x{d_out}")


def to_json_dict(ch: Channel) -> dict:
    """Serialize to the interchange schema {d_in, d_out, kraus: [[[re, im]]]}."""
    kraus = [[[[float(z.real), float(z.imag)] for z in row] for row in k] for k in ch.kraus]
    return {"d_in": ch.d_in, "d_out": ch.d_out, "kraus": kraus}


def from_json_dict(payload: dict) -> Channel:
    """Parse the interchange schema; raises ValueError on malformed input."""
    try:
        d_in = int(payload["d_in"])
        d_out = int(payload["d_out"])
        raw = payload["kraus"]
        kraus = []
        for k in raw:
            mat = np.array([[complex(cell[0], cell[1]) for cell in row] for row in k])
            kraus.append(mat)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ValueError(f"malformed channel payload: {exc}") from exc
    return Channel(tuple(kraus), d_in, d_out)


def save_channel(ch: Channel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(ch), fh, indent=2)


def load_channel(path: str) -> Channel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"channel file is not valid JSON: {exc}") from exc
    return from_json_dict(payload)
