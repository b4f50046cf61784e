import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qcap.depolarizing_lp import (
    DepolLp,
    lp_f,
    lp_g,
    lp_g_hat,
    lp_g_hat_iterate,
    x_coeffs,
)
from qcap.channels import choi, depolarizing
from qcap.matops import HermMat, herm, partial_transpose
from qcap.oneshot import bound_f, bound_g


def invariant_basis(n):
    # weight-graded sums of per-pair projector products, pair ordering
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    phi = np.outer(v, v.conj())
    perp = np.eye(4) - phi
    out = [np.zeros((4**n, 4**n), dtype=complex) for _ in range(n + 1)]
    for pattern in itertools.product([0, 1], repeat=n):
        term = np.array([[1.0 + 0j]])
        for bit in pattern:
            term = np.kron(term, phi if bit else perp)
        out[sum(pattern)] += term
    return out


def swap_projectors(n):
    swap = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            swap[2 * a + b, 2 * b + a] = 1.0
    plus = (np.eye(4) + swap) / 2.0
    minus = (np.eye(4) - swap) / 2.0
    out = [np.zeros((4**n, 4**n)) for _ in range(n + 1)]
    for pattern in itertools.product([0, 1], repeat=n):
        term = np.array([[1.0]])
        for bit in pattern:
            term = np.kron(term, plus if bit else minus)
        out[sum(pattern)] += term
    return out


def transpose_pairs(mat, n):
    m = herm(mat, (2,) * (2 * n), hermitian=False)
    for j in range(n):
        m = partial_transpose(m, 2 * j + 1)
    return m.data


def x_numerators(n, d):
    # integer numerator of x_coeffs before the division by d^n
    num = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for k in range(n + 1):
            for m in range(max(0, i + k - n), min(i, k) + 1):
                term = (
                    math.comb(k, m)
                    * math.comb(n - k, i - m)
                    * (d - 1) ** (k - m)
                    * (d + 1) ** (n - k + m - i)
                )
                num[i][k] += -term if (i - m) % 2 else term
    return num


def test_x_coeffs_single_use_table():
    assert np.array_equal(x_coeffs(1, 2), np.array([[1.5, 0.5], [-0.5, 0.5]]))


def test_x_coeffs_is_cached_and_read_only():
    first = x_coeffs(6, 2)
    again = x_coeffs(6, 2)
    assert np.array_equal(first, again)
    assert not first.flags.writeable and not again.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 0.0
    assert np.array_equal(x_coeffs(6, 2), again)


def test_x_coeffs_rejects_bad_args():
    with pytest.raises(ValueError):
        x_coeffs(0)
    with pytest.raises(ValueError):
        x_coeffs(2, d=1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_x_coeffs_matches_explicit_transpose(n):
    # build the invariant operators as dense matrices and transpose the
    # output half of every pair; the result must decompose exactly on the
    # swap eigenprojectors with the tabulated coefficients
    basis = invariant_basis(n)
    proj = swap_projectors(n)
    x = x_coeffs(n, 2)
    for i in range(n + 1):
        want = sum(x[i, k] * proj[k] for k in range(n + 1))
        got = transpose_pairs(basis[i], n)
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("n,d", [(7, 2), (30, 2), (5, 3)])
def test_x_coeffs_exact_division_and_multiplicity_sum(n, d):
    num = x_numerators(n, d)
    x = x_coeffs(n, d)
    dn = d**n
    for i in range(n + 1):
        for k in range(n + 1):
            # the float entry is the correctly rounded rational
            assert x[i, k] == float(Fraction(num[i][k], dn))
        # weighting each eigenvalue by its multiplicity recovers the trace
        total = sum(
            num[i][k] * math.comb(n, k) * (d * (d + 1) // 2) ** k * (d * (d - 1) // 2) ** (n - k)
            for k in range(n + 1)
        )
        assert total == math.comb(n, i) * (d * d - 1) ** (n - i) * dn


def test_build_weights():
    lp = DepolLp.build(30, 0.2)
    assert abs(lp.fw.sum() - 1.0) < 1e-12
    assert lp.x.shape == (31, 31)
    assert np.all(lp.kw > 0)
    with pytest.raises(ValueError):
        DepolLp.build(2, 1.5)


@pytest.mark.parametrize("eps", [0.004, 0.05])
@pytest.mark.parametrize("n", [1, 2])
def test_noiseless_values(n, eps):
    want = (1.0 - eps) / 2.0**n
    for res in (lp_f(n, 0.0, eps), lp_g(n, 0.0, eps)):
        assert res.status == "optimal"
        assert abs(res.value - want) < 1e-12
    seq = lp_g_hat_iterate(n, 0.0, eps, rounds=3)
    assert all(abs(r.value - want) < 1e-12 for r in seq)


def test_g_hat_domain_and_infeasibility():
    with pytest.raises(ValueError):
        lp_g_hat(1, 0.2, 0.004, m_hat=0.0)
    res = lp_g_hat(1, 0.2, 0.004, m_hat=1.2)
    assert res.status == "infeasible"
    assert math.isnan(res.value)


def test_g_hat_monotone_in_threshold():
    vals = [lp_g_hat(3, 0.2, 0.01, m_hat=m).value for m in (0.2, 0.6, 0.9, 0.99)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # a slack threshold leaves the base program unchanged
    assert vals[0] == lp_g(3, 0.2, 0.01).value


def test_iterate_sequence():
    seq = lp_g_hat_iterate(5, 0.2, 0.01, rounds=4)
    assert len(seq) == 4
    assert all(r.status == "optimal" for r in seq)
    vals = [r.value for r in seq]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert seq[0].value >= lp_g(5, 0.2, 0.01).value - 1e-12
    with pytest.raises(ValueError):
        lp_g_hat_iterate(2, 0.2, 0.01, rounds=0)


def test_iterate_builds_the_table_once(monkeypatch):
    import qcap.depolarizing_lp as dlp

    calls = []
    real = dlp.x_coeffs

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dlp, "x_coeffs", counting)
    seq = lp_g_hat_iterate(6, 0.2, 0.01, rounds=5)
    assert len(calls) == 1
    # each round matches the public per-call entry points
    assert seq[-1].value == lp_g_hat(6, 0.2, 0.01, m_hat=seq[-2].value).value


def test_value_non_increasing_in_eps():
    for fn in (lp_f, lp_g):
        tight = fn(4, 0.15, 0.004).value
        loose = fn(4, 0.15, 0.05).value
        assert loose <= tight + 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_certificate_reconstructs_feasible_operator(n):
    # lift the optimal component vector back to a dense operator and check
    # the constraints it certifies: spectrum in [0, 1/2^n], fidelity row,
    # and the transpose spectrum inside the +-eta box
    p, eps = 0.2, 0.01
    res = lp_g(n, p, eps)
    m = res.certificate["m"]
    eta = res.certificate["eta"]
    assert abs(eta - res.value) < 1e-12
    basis = invariant_basis(n)
    scale = 1.0 / 2.0**n
    w = sum(m[i] * scale * basis[i] for i in range(n + 1))
    eigs = np.linalg.eigvalsh(w)
    assert eigs.min() > -1e-10
    assert eigs.max() < scale + 1e-10
    j1 = choi(depolarizing(p)).mat.data
    jn = np.array([[1.0 + 0j]])
    for _ in range(n):
        jn = np.kron(jn, j1)
    fid = np.trace(jn @ w).real
    assert abs(fid - float(lp_g(n, p, eps).certificate["m"] @ DepolLp.build(n, p).fw)) < 1e-9
    assert fid >= 1.0 - eps - 1e-9
    teigs = np.linalg.eigvalsh(transpose_pairs(w, n))
    assert np.abs(teigs).max() <= eta * scale + 1e-10


@pytest.mark.parametrize("p", [0.1, 0.2])
def test_single_use_matches_full_programs(p):
    eps = 0.004
    ch = depolarizing(p)
    assert abs(lp_g(1, p, eps).value - bound_g(ch, eps).value) < 1e-7
    assert abs(lp_f(1, p, eps).value - bound_f(ch, eps).value) < 1e-7


def test_crossing_point_of_the_sweep():
    # at 17 uses the iterated transpose bound certifies a rate below one
    # qubit per use while the witness relaxation still sits above it
    f = lp_f(17, 0.2, 0.004)
    gh = lp_g_hat_iterate(17, 0.2, 0.004, rounds=5)[-1]
    assert gh.log_value < 1.0 < f.log_value
    assert gh.log_value <= f.log_value
