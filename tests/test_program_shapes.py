"""Each bound builder hands the solver a program of a fixed shape: its row
count, the sides of its PSD blocks and its vector blocks, the length-1
nonnegative slack of each scalar inequality among them.  The programs are
built but not solved.

The dense pins use two uses of random qubit channels and, for the rate
programs, a random qutrit-to-qubit channel: neither has a phase symmetry, so
each keeps one sector per grading.  Two uses of amplitude damping and
``channel_nr(0.22)`` give the sector programs pinned below them."""
import tracemalloc
from collections import Counter
from functools import reduce
from types import SimpleNamespace

import pytest

import qcap.asymptotic as asymptotic
import qcap.conic.solver as solver_mod
import qcap.oneshot as oneshot
from qcap.channels import amplitude_damping, channel_nr, choi, random_channel, tensor
from qcap.conic.lmi import row_counts
from qcap.conic.program import HERM_PSD

RP2 = tensor(random_channel(2, 2, seed=1000), random_channel(2, 2, seed=1001))
AD2 = tensor(amplitude_damping(0.09), amplitude_damping(0.09))
R32 = random_channel(3, 2, seed=2)
NR = channel_nr(0.22)
RP2_PSD = [4, 4, 16, 16, 16, 16]
RATE_PSD = [3, 6, 6, 6]

CASES = {
    "bound_f": (oneshot, lambda: oneshot.bound_f(RP2, 0.01), 514, RP2_PSD, [("nonneg", 1)]),
    "bound_g": (oneshot, lambda: oneshot.bound_g(RP2, 0.01), 770, RP2_PSD, [("nonneg", 1)]),
    "bound_g_tilde": (
        oneshot, lambda: oneshot.bound_g_tilde(RP2, 0.01), 786, RP2_PSD,
        [("free", 1), ("nonneg", 1)],
    ),
    "fidelity_ppt": (
        oneshot, lambda: oneshot.fidelity_sdp(RP2, 2), 769, [4, 16, 16, 16, 16], []
    ),
    "fidelity_ns_ppt": (
        oneshot, lambda: oneshot.fidelity_sdp(RP2, 2, oneshot.NS_PPT), 785,
        [4, 16, 16, 16, 16], [],
    ),
    "q_gamma_primal": (asymptotic, lambda: asymptotic.q_gamma(R32), 73, RATE_PSD, []),
    "q_gamma_dual": (
        asymptotic, lambda: asymptotic.q_gamma(R32, "dual"), 45, RATE_PSD, [("free", 1)]
    ),
    "q_theta": (asymptotic, lambda: asymptotic.q_theta(R32), 74, [3, 3, 12], []),
    "e_w_primal": (asymptotic, lambda: asymptotic.e_w(choi(NR).mat), 72, [6, 6, 6], []),
    "e_w_dual": (
        asymptotic, lambda: asymptotic.e_w(choi(NR).mat, "dual"), 36, [6, 6, 6], []
    ),
}


# rows of the Schur complement in the equality form (the program's rows less
# its free coordinates) and in the LMI form, and the form ``solve`` picks
FORMS = {
    "bound_f": (514, 543, "eq"),
    "bound_g": (770, 287, "lmi"),
    "bound_g_tilde": (785, 272, "lmi"),
    "fidelity_ppt": (769, 271, "lmi"),
    "fidelity_ns_ppt": (785, 255, "lmi"),
    "q_gamma_primal": (73, 44, "eq"),  # fewer rows, but too few to pay for the LMI form
    "q_gamma_dual": (44, 73, "eq"),
    "q_theta": (74, 88, "eq"),
    "e_w_primal": (72, 36, "eq"),
    "e_w_dual": (36, 72, "eq"),
}


class _Built(Exception):
    """Raised in place of the solve, once the program is built."""


def _built(monkeypatch, module, build):
    progs = []

    def capture(prog, **kwargs):
        progs.append(prog)
        raise _Built

    monkeypatch.setattr(module, "solve", capture)
    with pytest.raises(_Built):
        build()
    (prog,) = progs
    return prog


@pytest.mark.parametrize("name", list(CASES))
def test_builder_program_shape(monkeypatch, name):
    module, build, rows, psd_sides, vectors = CASES[name]
    prog = _built(monkeypatch, module, build)
    assert len(prog.rows) == rows
    assert sorted(b.size for b in prog.blocks if b.kind == HERM_PSD) == psd_sides
    assert sorted((b.kind, b.size) for b in prog.blocks if b.kind != HERM_PSD) == vectors


@pytest.mark.parametrize("name", list(FORMS))
def test_row_counts_of_both_forms(monkeypatch, name):
    module, build = CASES[name][:2]
    prog = _built(monkeypatch, module, build)
    eq_rows, lmi_rows, form = FORMS[name]
    assert row_counts(prog) == (eq_rows, lmi_rows)
    assert solver_mod._form(prog) == form


def test_g_hat_row_counts(monkeypatch):
    prog = _built(monkeypatch, oneshot, lambda: oneshot.bound_g_hat(RP2, 0.01, 0.5))
    assert row_counts(prog) == (786, 272)
    assert solver_mod._form(prog) == "lmi"


# On AD x AD the joint and transposed gradings have 9 sectors of sides
# 1, 1, 1, 1, 2, 2, 2, 2, 4, and the input and output ones 4 of side 1: a
# program's PSD blocks are W, Theta and each operator inequality's slack on 9
# sectors, and rho and S on 4.  On channel_nr(0.22) the joint and transposed
# gradings have 4 sectors of sides 1, 1, 2, 2 and the inputs 3 of side 1:
# Q_Gamma's R and box slacks, or V, Y and the slack of (V - Y)^TB >= J, are
# on 4 sectors and rho or the slack of tr_B(V + Y) <= mu I on 3, and Q_Theta's
# G on 4 of sides 2, 2, 4, 4.  Schur rows of the equality and the LMI form, the
# count of PSD blocks of each side, and the form ``solve`` picks.
SECTOR_CASES = {
    "bound_f": (oneshot, lambda: oneshot.bound_f(AD2, 0.01), (74, 79), {1: 24, 2: 16, 4: 4}),
    "bound_g": (oneshot, lambda: oneshot.bound_g(AD2, 0.01), (110, 43), {1: 24, 2: 16, 4: 4}),
    "bound_g_tilde": (
        oneshot, lambda: oneshot.bound_g_tilde(AD2, 0.01), (113, 40), {1: 24, 2: 16, 4: 4}
    ),
    "bound_g_hat": (
        oneshot, lambda: oneshot.bound_g_hat(AD2, 0.01, 0.5), (114, 40), {1: 24, 2: 16, 4: 4}
    ),
    "fidelity_ppt": (
        oneshot, lambda: oneshot.fidelity_sdp(AD2, 2), (109, 39), {1: 20, 2: 16, 4: 4}
    ),
    "fidelity_ns_ppt": (
        oneshot, lambda: oneshot.fidelity_sdp(AD2, 2, oneshot.NS_PPT), (113, 35),
        {1: 20, 2: 16, 4: 4},
    ),
    "q_gamma_primal": (asymptotic, lambda: asymptotic.q_gamma(NR), (21, 12), {1: 9, 2: 6}),
    "q_gamma_dual": (
        asymptotic, lambda: asymptotic.q_gamma(NR, "dual"), (12, 21), {1: 9, 2: 6}
    ),
    "q_theta": (asymptotic, lambda: asymptotic.q_theta(NR), (22, 24), {1: 6, 2: 2, 4: 2}),
}


@pytest.mark.parametrize("name", list(SECTOR_CASES))
def test_sector_program_shape(monkeypatch, name):
    module, build, counts, sides = SECTOR_CASES[name]
    prog = _built(monkeypatch, module, build)
    assert row_counts(prog) == counts
    assert Counter(b.size for b in prog.blocks if b.kind == HERM_PSD) == sides
    # far under _LMI_MIN_FLOPS saved either way
    assert solver_mod._form(prog) == "eq"


def test_four_uses_of_amplitude_damping_build_in_bounded_memory():
    # 3**4 = 81 joint and transposed sectors of sides (1, 2, 1)**(x)4 and 16
    # input ones of side 1: W and the three slacks on 81 sectors, rho and S on
    # 16, and 2 + 1296 + 2 * 1296 rows.  A map called on each in-sector unit
    # made dense (units, 256, 256) image stacks here, over 1 GB per term.
    ad4 = reduce(tensor, [amplitude_damping(0.09)] * 4)
    tracemalloc.start()
    try:
        prog, _ = oneshot.g_program(ad4, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 2**20
    assert len(prog.rows) == 3890
    assert Counter(b.size for b in prog.blocks if b.kind == HERM_PSD) == {
        1: 96, 2: 128, 4: 96, 8: 32, 16: 4
    }
    assert [b.kind for b in prog.blocks if b.kind != HERM_PSD] == ["nonneg"]


@pytest.mark.parametrize(
    "build",
    [
        lambda: oneshot.f_program(RP2, 0.01),
        lambda: oneshot.g_program(RP2, 0.01),
        lambda: oneshot.g_tilde_program(RP2, 0.01),
        lambda: asymptotic.q_gamma_program(R32),
        lambda: asymptotic.q_gamma_program(R32, "dual"),
        lambda: asymptotic.q_theta_program(R32),
    ],
    ids=["f", "g", "g_tilde", "q_gamma_primal", "q_gamma_dual", "q_theta"],
)
def test_every_builder_clock_covers_choi_and_grading(monkeypatch, build):
    # a result's wall time spans the same steps for every bound: each
    # builder takes the clock, the Choi matrix and the grading in ``oneshot``
    events = []
    monkeypatch.setattr(oneshot, "time", SimpleNamespace(perf_counter=lambda: events.append("t0")))
    for name in ("choi", "phase_sectors"):
        real = getattr(oneshot, name)
        def spy(ch, real=real, name=name):
            events.append(name)
            return real(ch)

        monkeypatch.setattr(oneshot, name, spy)
    build()
    assert events[:3] == ["t0", "choi", "phase_sectors"]
