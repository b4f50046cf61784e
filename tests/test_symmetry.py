"""Phase sectors, and the one-shot and rate programs stated on them.

Amplitude damping and ``channel_nr`` are phase-covariant, so their programs
split into small sectors; a channel with no phase symmetry keeps one sector
per grading and so the dense program.  The sector programs must reach the
dense programs' values, and a wrong grading must fail when the program is
built.
"""
import pickle
from collections import Counter
from dataclasses import replace
from functools import reduce
from itertools import product

import numpy as np
import pytest

import qcap.asymptotic as asymptotic
import qcap.channels as channels
import qcap.oneshot as oneshot
import qcap.symmetry as symmetry
from qcap.channels import amplitude_damping, channel_nr, choi, random_channel, tensor
from qcap.conic import solve_all
from qcap.matops import HermMat, partial_transpose
from qcap.symmetry import PhaseSectors, phase_sectors

AD = amplitude_damping(0.09)
AD2 = tensor(AD, AD)
RP2 = tensor(random_channel(2, 2, seed=1000), random_channel(2, 2, seed=1001))
R32 = random_channel(3, 2, seed=2)
FIG1_R = np.linspace(0.05, 0.1, 11).tolist()
FIG3_R = np.linspace(0.0, 0.5, 26).tolist()

RATE_BUILDERS = {
    "q_gamma_primal": lambda ch: asymptotic.q_gamma_program(ch),
    "q_gamma_dual": lambda ch: asymptotic.q_gamma_program(ch, "dual"),
    "q_theta": asymptotic.q_theta_program,
}


def _one_sector(ch):
    """The grading of a channel with no phase symmetry."""
    joint = (tuple(range(ch.d_in * ch.d_out)),)
    return PhaseSectors(joint, joint, (tuple(range(ch.d_in)),), (tuple(range(ch.d_out)),))


def _sizes(sectors):
    return sorted(len(sec) for sec in sectors)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_amplitude_damping_uses_have_3_to_the_n_sectors(n):
    sec = phase_sectors(reduce(tensor, [AD] * n))
    # sizes (1, 2, 1) on each use, multiplied out
    want = sorted(int(np.prod(c)) for c in product((1, 2, 1), repeat=n))
    assert _sizes(sec.joint) == _sizes(sec.transposed) == want
    assert len(sec.joint) == 3**n
    assert _sizes(sec.inputs) == _sizes(sec.outputs) == [1] * 2**n
    for grading, side in ((sec.joint, 4**n), (sec.inputs, 2**n)):
        assert sorted(i for s in grading for i in s) == list(range(side))


@pytest.mark.parametrize(
    "ch",
    [
        random_channel(2, 2, seed=3),
        RP2,
        tensor(random_channel(2, 2, seed=3), random_channel(2, 2, seed=4)),
        R32,
    ],
)
def test_channel_without_phase_symmetry_has_one_sector(ch):
    assert phase_sectors(ch) == _one_sector(ch)


def test_a_row_computes_choi_and_sectors_once(monkeypatch):
    calls = Counter()
    for module, name in ((channels, "_choi_mat"), (symmetry, "_phase_sectors")):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda ch, real=real, name=name: calls.update([name]) or real(ch)
        )
    ch = channel_nr(0.3)
    for build in (*RATE_BUILDERS.values(), lambda ch: oneshot.f_program(ch, 0.01)):
        build(ch)
    assert calls == {"_choi_mat": 1, "_phase_sectors": 1}
    assert not choi(ch).mat.data.flags.writeable
    # a pickled channel, as a pool worker gets it, brings both along
    copy = pickle.loads(pickle.dumps(ch))
    assert phase_sectors(copy) == phase_sectors(ch)
    assert np.array_equal(choi(copy).mat.data, choi(ch).mat.data)
    assert calls == {"_choi_mat": 1, "_phase_sectors": 1}
    # a new instance computes its own
    phase_sectors(replace(ch))
    assert calls == {"_choi_mat": 2, "_phase_sectors": 2}


def test_channels_of_one_support_pattern_share_one_grading(monkeypatch):
    symmetry._grading.cache_clear()
    inner = [phase_sectors(channel_nr(r)) for r in (0.1, 0.3)]
    edge = phase_sectors(channel_nr(0.0))
    assert symmetry._grading.cache_info().misses == 2
    assert inner[0] == inner[1] != edge
    assert _sizes(edge.joint) != _sizes(inner[0].joint)
    # the finer grading of r = 0 is wrong for r > 0, and still fails the build
    monkeypatch.setattr(oneshot, "phase_sectors", lambda ch: edge)
    with pytest.raises(ValueError, match="does not vanish off its sectors"):
        asymptotic.q_gamma_program(channel_nr(0.3))


def test_sectors_leave_the_choi_matrix_invariant():
    j = choi(AD2).mat.data
    for p in phase_sectors(AD2).joint:
        q = np.setdiff1d(np.arange(16), p)
        assert np.max(np.abs(j[np.ix_(p, q)]), initial=0.0) == 0.0


@pytest.mark.parametrize(
    "build",
    [
        lambda ch: oneshot.bound_f(ch, 0.01),
        lambda ch: oneshot.bound_g(ch, 0.01),
        lambda ch: oneshot.bound_g_tilde(ch, 0.01),
        lambda ch: oneshot.fidelity_sdp(ch, 2),
        *(pytest.param(build, id=name) for name, build in RATE_BUILDERS.items()),
    ],
)
def test_wrong_sectors_fail_at_build_time(monkeypatch, build):
    # channels with no phase symmetry, each given the grading of a
    # phase-covariant channel of its dimensions
    wrong = {(4, 4): phase_sectors(AD2), (3, 2): phase_sectors(channel_nr(0.22))}
    monkeypatch.setattr(oneshot, "phase_sectors", lambda ch: wrong[ch.d_in, ch.d_out])
    for ch in (RP2, R32):
        with pytest.raises(ValueError, match="does not vanish off its sectors"):
            build(ch)


def test_sector_programs_match_one_sector_programs_on_the_fig1_grid(monkeypatch):
    bounds = (oneshot.bound_f, oneshot.bound_g, oneshot.bound_g_tilde)
    channels = [tensor(amplitude_damping(r), amplitude_damping(r)) for r in FIG1_R]
    sectored = [[bound(ch, 0.01) for bound in bounds] for ch in channels]
    monkeypatch.setattr(oneshot, "phase_sectors", _one_sector)
    for ch, results in zip(channels, sectored):
        for bound, res in zip(bounds, results):
            dense = bound(ch, 0.01)
            assert res.status == dense.status == "optimal"
            assert abs(res.value - dense.value) <= 1e-7 * abs(dense.value)


def _rate_results(build, channels):
    """Each channel's program from ``build``, solved together, and read."""
    built = [build(ch) for ch in channels]
    sols = solve_all([prog for prog, _ in built])
    return [read(sol) for (_, read), sol in zip(built, sols)], [len(p.rows) for p, _ in built]


@pytest.mark.parametrize("name", list(RATE_BUILDERS))
def test_rate_sector_programs_match_one_sector_programs_on_the_fig3_grid(monkeypatch, name):
    channels = [channel_nr(r) for r in FIG3_R]
    sectored, sector_rows = _rate_results(RATE_BUILDERS[name], channels)
    monkeypatch.setattr(oneshot, "phase_sectors", _one_sector)
    dense, dense_rows = _rate_results(RATE_BUILDERS[name], channels)
    for r, res, ref, rows, ref_rows in zip(FIG3_R, sectored, dense, sector_rows, dense_rows):
        assert rows < ref_rows, r
        assert res.status == ref.status == "optimal", r
        assert abs(res.value - ref.value) <= 1e-8 * abs(ref.value), r


def test_bound_g_on_three_uses_of_amplitude_damping():
    # the value of the dense solve: 89 s and 1.36 GB where this takes a second
    res = oneshot.bound_g(tensor(AD2, AD), 0.01)
    assert res.status == "optimal"
    assert abs(res.value - 0.32633718878) <= 1e-7 * 0.32633718878


def _psd_floor(mat):
    return float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))[0])


def _off_sectors(mat, sectors):
    mask = np.ones(mat.shape, dtype=bool)
    for p in sectors:
        mask[np.ix_(p, p)] = False
    return float(np.max(np.abs(mat[mask]), initial=0.0))


@pytest.mark.parametrize("name", ["f", "g"])
def test_certificates_are_full_size_and_meet_their_rows(name):
    eps = 0.01
    res = (oneshot.bound_f if name == "f" else oneshot.bound_g)(AD2, eps)
    cert, sec = res.certificate, phase_sectors(AD2)
    def lift(x):
        return np.kron(x, np.eye(4))

    def pt(x):
        return partial_transpose(HermMat(x, (4, 4), hermitian=False), 1).data

    assert cert.W.shape == (16, 16) and cert.rho.shape == cert.S.shape == (4, 4)
    assert _off_sectors(cert.W, sec.joint) == 0.0
    assert _off_sectors(cert.rho, sec.inputs) == _off_sectors(cert.S, sec.inputs) == 0.0
    tol = 1e-7
    assert np.trace(choi(AD2).mat.data @ cert.W).real >= 1.0 - eps - tol
    assert abs(np.trace(cert.rho).real - 1.0) <= tol
    assert abs(np.trace(cert.S).real - cert.value) <= tol
    for mat in (cert.W, cert.rho, cert.S, lift(cert.rho) - cert.W):
        assert _psd_floor(mat) >= -tol
    if name == "f":
        assert cert.Theta.shape == (16, 16)
        assert _off_sectors(cert.Theta, sec.transposed) == 0.0
        assert _psd_floor(cert.Theta) >= -tol
        assert _psd_floor(lift(cert.S) - cert.W - pt(cert.Theta)) >= -tol
    else:
        for sign in (1.0, -1.0):
            assert _psd_floor(lift(cert.S) + sign * pt(cert.W)) >= -tol


def _greedy_group(charges):
    """Each index joins the first earlier sector whose first charge row is
    within the tolerance of its own: the grouping by pairwise comparison."""
    reps, members = [], []
    for i, q in enumerate(charges):
        for rep, mem in zip(reps, members):
            if np.max(np.abs(q - rep), initial=0.0) <= symmetry._CHARGE_ATOL:
                mem.append(i)
                break
        else:
            reps.append(q)
            members.append([i])
    return tuple(tuple(mem) for mem in members)


def _census_channels():
    dims = ((2, 2), (2, 3), (3, 2))
    for seed in range(24):
        yield random_channel(*dims[seed % 3], seed=seed)
    for i in range(8):
        yield tensor(random_channel(2, 2, seed=1000 + 2 * i), random_channel(2, 2, seed=1001 + 2 * i))


@pytest.mark.parametrize(
    "channels",
    [
        pytest.param(lambda: [reduce(tensor, [AD] * n) for n in (1, 2, 3, 4)], id="ad_uses"),
        pytest.param(lambda: [channel_nr(r) for r in (0.0, 0.22, 0.38)], id="nr"),
        pytest.param(lambda: list(_census_channels()), id="census_random"),
    ],
)
def test_sorted_grouping_matches_pairwise_grouping(monkeypatch, channels):
    for ch in channels():
        got = phase_sectors(ch)
        with monkeypatch.context() as m:
            m.setattr(symmetry, "_group", _greedy_group)
            # a new instance, as the first one keeps its sectors, and a new
            # grading, as its support pattern's is kept too
            symmetry._grading.cache_clear()
            assert got == phase_sectors(replace(ch))
        symmetry._grading.cache_clear()


def test_grouping_joins_rows_that_noise_sorts_apart():
    # one sorted run per row: each charge's two rows differ by roundoff in the
    # first column, which the sort reads before the second
    eps = 2.0**-53
    charges = np.array([[0.5, 1.0], [0.5 + eps, 0.0], [0.5 + 2 * eps, 1.0], [0.5, 0.0]])
    assert symmetry._group(charges) == _greedy_group(charges) == ((0, 2), (1, 3))
