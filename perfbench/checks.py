"""Correctness checks for the benchmark's sweep rows, in plain numpy.

Every check is a property the paper proves (an ordering of bounds, a
crossing of the capacity line, feasibility of a certificate) or an identity
between two routes to the same number.  None compares against a stored copy
of earlier output.  Channels are rebuilt here from their Kraus operators, so
the certificate checks share no code with ``qcap`` beyond the solver that
produced the certificate.
"""
from __future__ import annotations

import math

import numpy as np

TOL = 1e-7  # certificate feasibility, chain order; certificates hold to ~1e-9
MATCH_TOL = 1e-6  # two routes to the same bound (re-solve, LP against SDP)


class Checks:
    """Collects named check outcomes; a run is correct when none failed."""

    def __init__(self) -> None:
        self.passed: list[str] = []
        self.failed: list[str] = []

    def expect(self, ok: bool, name: str, detail: str = "") -> None:
        if ok:
            self.passed.append(name)
        else:
            self.failed.append(f"{name}: {detail}" if detail else name)


# -- channels and operators --------------------------------------------------


def ad_kraus(r: float) -> list[np.ndarray]:
    """Qubit amplitude damping with decay probability r."""
    return [
        np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - r)]]),
        np.array([[0.0, math.sqrt(r)], [0.0, 0.0]]),
    ]


def nr_kraus(r: float) -> list[np.ndarray]:
    """The qutrit-to-qubit family of Fig. 3."""
    return [
        np.array([[1.0, 0.0, 0.0], [0.0, math.sqrt(r), 0.0]]),
        np.array([[0.0, math.sqrt(1.0 - r), 0.0], [0.0, 0.0, 1.0]]),
    ]


def choi(kraus: list[np.ndarray]) -> np.ndarray:
    """Unnormalized Choi matrix sum_K (I (x) K)|Omega><Omega|(I (x) K)^dag,
    input factor first."""
    d_out, d_in = kraus[0].shape
    eye = np.eye(d_in)
    j = np.zeros((d_in * d_out, d_in * d_out), dtype=np.complex128)
    for k in kraus:
        v = sum(np.kron(eye[:, a], k[:, a]) for a in range(d_in))
        j += np.outer(v, v.conj())
    return j


def pt_out(x: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """Partial transpose of the output (second) factor."""
    t = x.reshape(d_in, d_out, d_in, d_out).transpose(0, 3, 2, 1)
    return t.reshape(d_in * d_out, d_in * d_out)


def min_eig(x: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (x + x.conj().T))[0])


def _psd(ck: Checks, name: str, x: np.ndarray) -> None:
    lo = min_eig(x)
    ck.expect(lo >= -TOL, name, f"min eigenvalue {lo:.3e}")


# -- one-shot certificates (Fig. 1) -------------------------------------------


def check_g_certificate(ck, tag, cert, j, d_in, d_out, eps, value) -> None:
    """g: W >= 0, rho (x) I - W >= 0, S (x) I +- W^TB >= 0, tr(J W) >= 1 - eps,
    tr rho = 1 and tr S = value."""
    eye = np.eye(d_out)
    w, rho, s = cert.W, cert.rho, cert.S
    _psd(ck, f"{tag}.W_psd", w)
    _psd(ck, f"{tag}.W_below_rho", np.kron(rho, eye) - w)
    _psd(ck, f"{tag}.S_plus_WTB", np.kron(s, eye) + pt_out(w, d_in, d_out))
    _psd(ck, f"{tag}.S_minus_WTB", np.kron(s, eye) - pt_out(w, d_in, d_out))
    _trace_rows(ck, tag, j, w, rho, s, eps, value)


def check_f_certificate(ck, tag, cert, j, d_in, d_out, eps, value) -> None:
    """f, the Theta form: W >= 0, rho (x) I - W >= 0, Theta >= 0,
    S (x) I - W - Theta^TB >= 0, tr(J W) >= 1 - eps, tr rho = 1, tr S = value."""
    eye = np.eye(d_out)
    w, rho, s, theta = cert.W, cert.rho, cert.S, cert.Theta
    _psd(ck, f"{tag}.W_psd", w)
    _psd(ck, f"{tag}.W_below_rho", np.kron(rho, eye) - w)
    _psd(ck, f"{tag}.Theta_psd", theta)
    _psd(ck, f"{tag}.S_dominates", np.kron(s, eye) - w - pt_out(theta, d_in, d_out))
    _trace_rows(ck, tag, j, w, rho, s, eps, value)


def _trace_rows(ck, tag, j, w, rho, s, eps, value) -> None:
    fid = float(np.real(np.trace(j @ w)))
    ck.expect(fid >= 1.0 - eps - TOL, f"{tag}.fidelity", f"tr(JW) = {fid!r} < 1 - eps")
    tr_rho = float(np.real(np.trace(rho)))
    ck.expect(abs(tr_rho - 1.0) <= TOL, f"{tag}.rho_trace", f"tr rho = {tr_rho!r}")
    tr_s = float(np.real(np.trace(s)))
    ck.expect(
        abs(tr_s - value) <= TOL * max(1.0, abs(value)),
        f"{tag}.value_is_trS",
        f"tr S = {tr_s!r}, value = {value!r}",
    )


# -- rate certificate (Fig. 3) -------------------------------------------------


def check_gamma_certificate(ck, tag, cert, j, d_in, d_out, value) -> None:
    """Primal Q_Gamma: R >= 0, rho a state, -rho (x) I <= R^TB <= rho (x) I,
    and tr(J R) = value."""
    eye = np.eye(d_out)
    r_tb = pt_out(cert.R, d_in, d_out)
    _psd(ck, f"{tag}.R_psd", cert.R)
    _psd(ck, f"{tag}.rho_psd", cert.rho)
    _psd(ck, f"{tag}.RTB_below", np.kron(cert.rho, eye) - r_tb)
    _psd(ck, f"{tag}.RTB_above", np.kron(cert.rho, eye) + r_tb)
    tr_rho = float(np.real(np.trace(cert.rho)))
    ck.expect(abs(tr_rho - 1.0) <= TOL, f"{tag}.rho_trace", f"tr rho = {tr_rho!r}")
    obj = float(np.real(np.trace(j @ cert.R)))
    ck.expect(
        abs(obj - value) <= TOL * max(1.0, abs(value)),
        f"{tag}.value_is_trJR",
        f"tr(JR) = {obj!r}, value = {value!r}",
    )


# -- depolarizing reduction (Fig. 2) -------------------------------------------


def dense_x_coeffs(n: int, d: int = 2) -> np.ndarray:
    """``x_coeffs`` from dense operators on (C^d (x) C^d)^(x)n.

    The weight-i invariant element is the sum, over the factor subsets of
    size i, of Phi on those factors and I - Phi on the rest (Phi the
    normalized maximally entangled projector).  Its partial transpose on every
    output factor is a scalar on each product of symmetric and antisymmetric
    projectors; entry [i, k] is that scalar where k factors are symmetric.
    """
    dd = d * d
    omega = np.eye(d).reshape(-1) / math.sqrt(d)
    phi = np.outer(omega, omega)
    swap = np.eye(dd)[[b * d + a for a in range(d) for b in range(d)]]
    sym = 0.5 * (np.eye(dd) + swap)
    factors = {1: phi, 0: np.eye(dd) - phi}
    projs = {1: sym, 0: np.eye(dd) - sym}

    def tensor_sum(parts, weight):
        out = np.zeros((dd**n, dd**n))
        for mask in range(2**n):
            bits = [(mask >> t) & 1 for t in range(n)]
            if sum(bits) == weight:
                term = np.ones((1, 1))
                for b in bits:
                    term = np.kron(term, parts[b])
                out += term
        return out

    # row axes a_1 b_1 ... a_n b_n, then the same for the columns; the
    # transpose of output factor t swaps row axis 2t + 1 with its column axis
    order = list(range(4 * n))
    for t in range(n):
        order[2 * t + 1], order[2 * n + 2 * t + 1] = order[2 * n + 2 * t + 1], order[2 * t + 1]
    x = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        elem = tensor_sum(factors, i).reshape([d] * (4 * n))
        elem_tb = elem.transpose(order).reshape(dd**n, dd**n)
        for k in range(n + 1):
            proj = tensor_sum(projs, k)
            x[i, k] = np.trace(elem_tb @ proj) / np.trace(proj)
            if np.abs(elem_tb @ proj - x[i, k] * proj).max() > 1e-12:
                x[i, k] = math.nan  # not a scalar on the projector
    return x
