import numpy as np
import pytest

from qcap.matops import (
    HermMat,
    bipartite_maps,
    herm,
    hermitian_basis,
    hermiticity_defect,
    partial_trace,
    partial_transpose,
    permute_factors,
    trace_norm,
)

RNG = np.random.default_rng(20260818)


def random_herm(d, rng=RNG):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (g + g.conj().T)


def max_entangled(d):
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return np.outer(v, v.conj())


def test_hermiticity_defect_zero_on_hermitian():
    h = random_herm(4)
    assert hermiticity_defect(h) == 0.0
    assert hermiticity_defect(h + 1e-3j * np.eye(4)) > 1e-4


def test_hermmat_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        HermMat(m, (2,))


def test_hermmat_rejects_dims_mismatch():
    with pytest.raises(ValueError):
        HermMat(np.eye(4), (2, 3))


def test_hermmat_rejects_non_square():
    with pytest.raises(ValueError):
        herm(np.zeros((2, 3)))


@pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 2)])
def test_partial_trace_of_product(da, db):
    a, b = random_herm(da), random_herm(db)
    m = herm(np.kron(a, b), (da, db))
    # tracing one factor of a product leaves the other scaled by its trace
    left = partial_trace(m, 1)
    assert np.allclose(left.data, a * np.trace(b).real)
    right = partial_trace(m, 0)
    assert np.allclose(right.data, b * np.trace(a).real)


def test_partial_trace_bad_factor():
    m = herm(np.eye(4), (2, 2))
    with pytest.raises(IndexError):
        partial_trace(m, 2)


def test_partial_transpose_of_product_and_involution():
    a, b = random_herm(2), random_herm(3)
    m = herm(np.kron(a, b), (2, 3))
    t = partial_transpose(m, 1)
    assert np.allclose(t.data, np.kron(a, b.T))
    assert np.allclose(partial_transpose(t, 1).data, m.data)


def test_partial_transpose_of_max_entangled_is_swap():
    # the rank-one maximally entangled projector turns into SWAP / d
    d = 2
    phi = herm(max_entangled(d), (d, d))
    t = partial_transpose(phi, 1)
    swap = np.zeros((4, 4))
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    assert np.allclose(t.data, swap / d, atol=1e-14)
    w = np.linalg.eigvalsh(t.data)
    assert np.allclose(np.sort(w), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert abs(trace_norm(t) - 2.0) < 1e-12


def test_trace_norm_matches_svd_on_non_hermitian_part():
    g = RNG.normal(size=(5, 5)) + 1j * RNG.normal(size=(5, 5))
    h = 0.5 * (g + g.conj().T)
    m = herm(h, (5,))
    assert abs(trace_norm(m) - np.linalg.svd(h, compute_uv=False).sum()) < 1e-10


def test_permute_factors_roundtrip_and_product():
    mats = [random_herm(2) for _ in range(3)]
    m = herm(np.kron(np.kron(mats[0], mats[1]), mats[2]), (2, 2, 2))
    p = permute_factors(m, (2, 0, 1))
    expect = np.kron(np.kron(mats[2], mats[0]), mats[1])
    assert np.allclose(p.data, expect)
    back = permute_factors(p, (1, 2, 0))
    assert np.allclose(back.data, m.data)


def test_permute_factors_bad_order():
    m = herm(np.eye(4), (2, 2))
    with pytest.raises(ValueError):
        permute_factors(m, (0, 0))


@pytest.mark.parametrize("side", [2, 3, 4])
def test_hermitian_basis_orthonormal_complete(side):
    basis = list(hermitian_basis(side))
    assert len(basis) == side * side
    for bmat in basis:
        assert hermiticity_defect(bmat) < 1e-14
    gram = np.array(
        [[np.trace(x.conj().T @ y).real for y in basis] for x in basis]
    )
    assert np.allclose(gram, np.eye(side * side), atol=1e-12)


def test_hermitian_basis_expands_arbitrary_hermitian():
    h = random_herm(3)
    coeffs = [np.trace(b.conj().T @ h) for b in hermitian_basis(3)]
    rebuilt = sum(c * b for c, b in zip(coeffs, hermitian_basis(3)))
    assert np.allclose(rebuilt, h, atol=1e-12)
    assert np.allclose(np.imag(coeffs), 0.0, atol=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (4, 4)])
def test_bipartite_maps_act_on_the_row_major_vec(dims):
    da, db = dims
    d = da * db
    rng = np.random.default_rng(d)
    x = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
    w = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = herm(w, dims, hermitian=False)
    lift, pt, tr_a, tr_b = bipartite_maps(dims)
    assert np.array_equal((lift @ x.ravel()).reshape(d, d), np.kron(x, np.eye(db)))
    assert np.array_equal((pt @ w.ravel()).reshape(d, d), partial_transpose(m, 1).data)
    # a sum over the traced factor, added up in either order
    for tr, factor, side in ((tr_a, 0, db), (tr_b, 1, da)):
        got = (tr @ w.ravel()).reshape(side, side)
        assert np.allclose(got, partial_trace(m, factor).data, rtol=0, atol=1e-13)
