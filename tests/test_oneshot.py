import numpy as np
import pytest

from qcap.channels import (
    amplitude_damping,
    choi,
    depolarizing,
    identity_channel,
    random_channel,
    tensor,
)
from qcap.conic import SolverError
from qcap.matops import partial_transpose
from qcap.oneshot import (
    NS_PPT,
    PPT,
    bound_f,
    bound_g,
    bound_g_hat,
    bound_g_tilde,
    check_eps,
    fidelity_sdp,
    g_hat_iterate,
    oneshot_capacity,
    refine,
)
from qcap.results import BoundResult

CHAIN_CHANNELS = [random_channel(2, 2, d_env=2, seed=s) for s in (11, 23, 37)]


def test_check_eps_domain():
    with pytest.raises(ValueError):
        check_eps(-0.1)
    with pytest.raises(ValueError):
        check_eps(1.0)
    assert check_eps(0.3) == 0.3


def test_check_eps_zero_substitutes_floor():
    with pytest.warns(UserWarning):
        val = check_eps(0.0)
    assert 0.0 < val < 1e-10


@pytest.mark.parametrize("code_class", [PPT, NS_PPT])
@pytest.mark.parametrize("k", [1, 2])
def test_identity_fidelity_is_one(code_class, k):
    res = fidelity_sdp(identity_channel(2), k, code_class)
    assert abs(res.fidelity - 1.0) < 1e-7
    assert res.k == k


def test_fidelity_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fidelity_sdp(identity_channel(2), 0)
    with pytest.raises(ValueError):
        fidelity_sdp(identity_channel(2), 1, code_class="magic")


@pytest.mark.parametrize("seed", [3, 14])
def test_fidelity_monotone_in_k_and_class(seed):
    # adding the no-signalling marginal can only lower the optimum, and
    # larger codes never help
    ch = random_channel(3, 3, d_env=2, seed=seed)
    prev = 1.0 + 1e-9
    for k in (1, 2, 3):
        ppt = fidelity_sdp(ch, k, PPT)
        ns = fidelity_sdp(ch, k, NS_PPT)
        assert ns.fidelity <= ppt.fidelity + 1e-8
        assert ppt.fidelity <= prev + 1e-8
        prev = ppt.fidelity


def test_identity_oneshot_capacity():
    assert oneshot_capacity(identity_channel(2), 0.01, PPT) == 1.0
    assert oneshot_capacity(identity_channel(2), 0.01, NS_PPT) == 1.0


def test_exhaustive_search_agrees():
    ch = amplitude_damping(0.4)
    fast = oneshot_capacity(ch, 0.05, PPT)
    full = oneshot_capacity(ch, 0.05, PPT, exhaustive=True)
    assert fast == full


def test_noiseless_bounds_hit_one_half():
    ch = identity_channel(2)
    with pytest.warns(UserWarning):
        f = bound_f(ch, 0.0)
    with pytest.warns(UserWarning):
        g = bound_g(ch, 0.0)
    assert abs(f.value - 0.5) < 5e-8
    assert abs(g.value - 0.5) < 5e-8
    assert abs(f.log_value - 1.0) < 2e-7


@pytest.mark.parametrize("ch", CHAIN_CHANNELS)
@pytest.mark.parametrize("eps", [0.03])
def test_bound_chain(ch, eps):
    f = bound_f(ch, eps)
    g = bound_g(ch, eps)
    gt = bound_g_tilde(ch, eps)
    seq = g_hat_iterate(ch, eps, rounds=2)
    vals = [f.value, g.value, gt.value, seq[0].value, seq[1].value]
    for a, b in zip(vals, vals[1:]):
        assert a <= b + 1e-6
    for res in (f, g, gt, *seq):
        assert res.status == "optimal"
        assert res.log_value == pytest.approx(-np.log2(res.value))


def test_bound_f_solves_seed_2011():
    # regression: the NT scaling's Cholesky raised LinAlgError on this channel
    ch = random_channel(2, 2, d_env=2, seed=2011)
    f = bound_f(ch, 0.05)
    g = bound_g(ch, 0.05)
    assert f.status == "optimal", f"bound_f ended with {f.status}"
    assert g.status == "optimal"
    # f >= g as bounds on the one-shot capacity, i.e. on the -log2 scale
    assert f.log_value >= g.log_value - 1e-7
    assert f.value <= g.value + 1e-7


@pytest.mark.parametrize("r", [0.05, 0.10])
def test_bound_f_solves_damping_pair(r):
    ch = tensor(amplitude_damping(r), amplitude_damping(r))
    res = bound_f(ch, 0.01)
    assert res.status == "optimal", f"bound_f(AD({r})^2, 0.01) ended with {res.status}"
    assert 0.0 < res.value < 1.0


def test_bound_f_iterations_on_damping_pair():
    # the tau column of the Newton step is solved against c - A'y / tau; with
    # the raw objective its residual stalls the primal residual near 1e-8 and
    # this solve took 28 iterations or more
    res = bound_f(tensor(amplitude_damping(0.09), amplitude_damping(0.09)), 0.01)
    assert res.status == "optimal" and res.reason == "converged"
    assert res.iterations <= 28


def test_bound_f_gap_small():
    res = bound_f(CHAIN_CHANNELS[0], 0.05, gap_tol=1e-8)
    assert res.gap <= 2e-8 * (1 + abs(res.value))


def test_bound_f_certificate_feasible():
    ch = CHAIN_CHANNELS[1]
    eps = 0.05
    res = bound_f(ch, eps)
    cert = res.certificate
    j = choi(ch).mat
    w = cert.W
    rho = cert.rho
    # fidelity row and the operator box, up to solver tolerance
    assert np.trace(j.data @ w).real >= 1 - eps - 1e-6
    assert np.linalg.eigvalsh(w).min() > -1e-6
    upper = np.kron(rho, np.eye(ch.d_out)) - w
    assert np.linalg.eigvalsh(upper).min() > -1e-6
    assert abs(np.trace(rho).real - 1.0) < 1e-6
    # witness pair certifies the objective
    slack = np.kron(cert.S, np.eye(ch.d_out)) - w - partial_transpose(
        type(j)(cert.Theta, j.dims), 1
    ).data
    assert np.linalg.eigvalsh(0.5 * (slack + slack.conj().T)).min() > -1e-6


def test_bound_g_hat_domain_and_infeasible():
    ch = CHAIN_CHANNELS[0]
    with pytest.raises(ValueError):
        bound_g_hat(ch, 0.05, 0.0)
    res = bound_g_hat(ch, 0.05, 1.2)
    assert res.status == "infeasible"
    assert np.isnan(res.value)


def test_g_hat_iterate_sequence():
    ch = CHAIN_CHANNELS[2]
    seq = g_hat_iterate(ch, 0.05, rounds=3)
    assert len(seq) == 3
    vals = [r.value for r in seq]
    assert all(b >= a - 1e-8 for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        g_hat_iterate(ch, 0.05, rounds=0)


def test_refine_feeds_each_value_forward_and_names_the_failing_round():
    def result(value, status="optimal"):
        return BoundResult("x", value, 0.0, status, 0.0, 0.0)

    floors = []

    def step(m_hat):
        floors.append(m_hat)
        return result(m_hat + 1.0, "infeasible" if m_hat >= fail_at else "optimal")

    fail_at = float("inf")
    assert [r.value for r in refine(3, lambda: result(0.5), step)] == [1.5, 2.5, 3.5]
    assert floors == [0.5, 1.5, 2.5]
    fail_at = 1.5  # the second round is infeasible
    with pytest.raises(SolverError, match="^round 2 ended with status infeasible$") as err:
        refine(3, lambda: result(0.5), step)
    assert err.value.status == "infeasible" and floors[3:] == [0.5, 1.5]
    with pytest.raises(SolverError, match="^seed ended with status max_iter$"):
        refine(3, lambda: result(0.5, "max_iter"), step)
    assert floors[5:] == []


def test_g_hat_iterate_noiseless_fixed_point():
    seq = g_hat_iterate(identity_channel(2), 0.01, rounds=3)
    vals = [r.value for r in seq]
    assert max(vals) - min(vals) < 1e-7


def test_depolarizing_g_matches_closed_form():
    # one use, p = 0.2, eps = 0.004: the reduced program optimum is 0.99
    res = bound_g(depolarizing(0.2), 0.004)
    assert abs(res.value - 0.99) < 1e-7
