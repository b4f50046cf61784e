"""Phase sectors: the block structure a channel's diagonal phase symmetry
forces on the one-shot and rate programs.

Let phases theta act on the input basis and phi on the output basis.  The
Choi matrix J is invariant under conjugation by the torus
diag(e^{-i theta_a}) (x) diag(e^{i phi_b}) exactly when every entry
J[(a, b), (a', b')] that is not zero joins two indices of one charge
phi_b - theta_a.  The phases that satisfy these
equations form a subspace, whose basis ``phase_sectors`` finds by SVD; an
index's charge is then a vector, one entry per basis element, and two
indices share a sector when their charges agree.  The grouping is
deterministic: sectors are ordered by their first index.

Averaging over the torus keeps an optimum of each bound program
(Gatermann and Parrilo, J. Pure Appl. Algebra 192, 2004), so the programs
may assume every variable invariant, that is zero off its sectors.  The
gradings differ by the kind of operator:

- ``joint``: operators on A (x) B, such as W, rho (x) I - W, f's
  S (x) I - W - Theta^TB, Q_Gamma's R and its dual's (V - Y)^TB - J, by the
  charge phi_b - theta_a;
- ``transposed``: partially transposed operators, such as the boxes
  S (x) I -+ W^TB and rho (x) I -+ R^TB, Theta, the dual's V and Y, and
  each half of Q_Theta's G (its sector k joins sector k of both halves), by
  theta_a + phi_b;
- ``inputs``: operators on A, such as rho, S, Q_Theta's rho0 and rho1, and
  mu I - tr_B(V + Y), by theta_a;
- ``outputs``: operators on B, such as tr_A W = t I, by phi_b.

Amplitude damping is covariant under diag(1, e^{i theta}) on each use, so n
uses give 3**n joint sectors of sizes (1, 2, 1)**(x)n and 2**n input sectors
of size 1.  ``channel_nr(r)`` for r > 0 has joint and transposed sectors
of sizes 2, 1, 2, 1 and 1, 2, 2, 1, and 3 input sectors of size 1.  A channel
with no phase symmetry, such as a random one, gets one sector per grading.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import Channel, choi
from .conic._blas import one_blas_thread

# an entry of J below this fraction of its largest one is taken as zero
_ZERO_RTOL = 1e-12
# charges, over an orthonormal basis of the phases, that agree to this are equal
_CHARGE_ATOL = 1e-9

Sectors = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PhaseSectors:
    """The sectors of each grading, each a partition of its index range."""

    joint: Sectors  # A (x) B, index a * d_out + b, by phi_b - theta_a
    transposed: Sectors  # A (x) B by theta_a + phi_b
    inputs: Sectors  # A by theta_a
    outputs: Sectors  # B by phi_b


def _group(charges: np.ndarray) -> Sectors:
    """Indices of equal charge rows, in order of their first index.

    One lexsort brings equal rows together, and the sorted rows split where
    neighbours differ by more than ``_CHARGE_ATOL``.  Noise below that in a
    sort key can still put rows of one charge on both sides of another
    charge, so each run joins the first run of equal charge.
    """
    n = len(charges)
    if n == 0:
        return ()
    order = np.lexsort(charges.T[::-1])  # the first column is the primary key
    rows = charges[order]
    cut = np.max(np.abs(np.diff(rows, axis=0)), axis=1, initial=0.0) > _CHARGE_ATOL
    starts = np.flatnonzero(np.concatenate([[True], cut]))
    heads = rows[starts]
    same = np.max(np.abs(heads[:, None, :] - heads[None, :, :]), axis=2, initial=0.0)
    run_label = np.argmax(same <= _CHARGE_ATOL, axis=1)
    label = np.empty(n, dtype=np.intp)
    label[order] = np.repeat(run_label, np.diff(np.append(starts, n)))
    # sectors by first index, each in index order
    _, first = np.unique(label, return_index=True)
    rank = np.empty(label.max() + 1, dtype=np.intp)
    rank[label[np.sort(first)]] = np.arange(first.size)
    members = np.argsort(rank[label], kind="stable")
    sizes = np.bincount(rank[label])
    return tuple(tuple(sec.tolist()) for sec in np.split(members, np.cumsum(sizes)[:-1]))


def phase_sectors(ch: Channel) -> PhaseSectors:
    """The sectors of the largest diagonal torus that leaves ``ch``'s Choi
    matrix invariant, in each of the four gradings; computed once per
    channel, so that a sweep row's builders share them, from its Choi
    matrix's support (``_grading``)."""
    return ch.cached("phase_sectors", _phase_sectors)


def _phase_sectors(ch: Channel) -> PhaseSectors:
    j = choi(ch).mat.data
    support = np.abs(j) > _ZERO_RTOL * np.max(np.abs(j))
    return _grading(ch.d_in, ch.d_out, support.tobytes())


@lru_cache(maxsize=16)
def _grading(d_in: int, d_out: int, support: bytes) -> PhaseSectors:
    """The sectors of a Choi matrix whose entries are nonzero where the
    (d_in d_out)-square boolean ``support`` is set: they depend on nothing
    else, so the channels of one support pattern, such as ``channel_nr(r)``
    for every r > 0, share one computation."""
    idx = np.arange(d_in * d_out)
    a, b = np.divmod(idx, d_out)
    # the charge phi_b - theta_a of each joint index, as a row on (theta, phi)
    q = np.zeros((idx.size, d_in + d_out))
    q[idx, a] = -1.0
    q[idx, d_in + b] = 1.0
    r, c = np.nonzero(np.frombuffer(support, dtype=bool).reshape(idx.size, idx.size))
    eqs = np.unique(q[r] - q[c], axis=0)
    with one_blas_thread():  # a second thread would only spin, long after this small SVD
        _, sig, vh = np.linalg.svd(eqs)
    rank = int(np.sum(sig > 1e-9))
    phases = vh[rank:].T  # (d_in + d_out, dim): an orthonormal basis of the solutions
    pt = np.abs(q)  # theta_a + phi_b
    return PhaseSectors(
        joint=_group(q @ phases),
        transposed=_group(pt @ phases),
        inputs=_group(phases[:d_in]),
        outputs=_group(phases[d_in:]),
    )
