"""Program frames: a sweep column builds each bound's program once per phase
grading, at J = 0, and each row adds its Choi matrix to a copy.

A copy must be the program that building the row alone gives, a later row
must leave the frame and the earlier rows alone, a wrong grading must still
fail on its own row, and no frame may outlive the column that built it.
"""
import gc
import logging
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import qcap.asymptotic as asymptotic
import qcap.cli as cli
import qcap.conic.program as program
import qcap.conic.solver as solver_mod
import qcap.oneshot as oneshot
from qcap.channels import amplitude_damping, channel_nr, random_channel, tensor
from qcap.conic import ConicProgram, frame, shared_frames, solve_all
from qcap.symmetry import phase_sectors

FIG1_R = np.linspace(0.05, 0.1, 11).tolist()
FIG3_R = np.linspace(0.0, 0.5, 26).tolist()
R32 = random_channel(3, 2, seed=2)
RP2 = tensor(random_channel(2, 2, seed=1000), random_channel(2, 2, seed=1001))

BUILDERS = {
    "f": (lambda ch: oneshot.f_program(ch, 0.01), "fig1"),
    "g": (lambda ch: oneshot.g_program(ch, 0.01), "fig1"),
    "g_tilde": (lambda ch: oneshot.g_tilde_program(ch, 0.01), "fig1"),
    "q_gamma_primal": (lambda ch: asymptotic.q_gamma_program(ch), "fig3"),
    "q_gamma_dual": (lambda ch: asymptotic.q_gamma_program(ch, "dual"), "fig3"),
    "q_theta": (asymptotic.q_theta_program, "fig3"),
}


def _ad2(r):
    return tensor(amplitude_damping(r), amplitude_damping(r))


def _channels(grid):
    return [_ad2(r) for r in FIG1_R] if grid == "fig1" else [channel_nr(r) for r in FIG3_R]


def _arrays(prog):
    """Everything a program states, as (what, array) pairs in its order."""
    out = [("blocks", np.array([(b.name, b.kind, str(b.size)) for b in prog.blocks]))]
    out.append(("rows", np.array(prog.rows)))
    for blk in prog.blocks:
        out += [(f"{blk.name} coefficients", a) for a in prog.coefficients(blk.name)]
    out += [(f"{name} objective", c) for name, c in sorted(prog.objective.items())]
    return out


def _assert_same(prog, ref):
    got, want = _arrays(prog), _arrays(ref)
    assert [what for what, _ in got] == [what for what, _ in want]
    for (what, a), (_, b) in zip(got, want):
        # to the bit: the sign of a zero rhs included
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), what


@pytest.mark.parametrize("name", list(BUILDERS))
def test_column_programs_are_the_programs_built_alone(name):
    build, grid = BUILDERS[name]
    channels = _channels(grid)
    with shared_frames():
        column = [build(ch)[0] for ch in channels]
        frames = program._FRAMES.get()
    # fig3_nr has two gradings (r = 0 and r > 0), fig1_ad one
    assert len(frames) == len({phase_sectors(ch) for ch in channels}) == (2 if grid == "fig3" else 1)
    for ch, prog in zip(channels, column):
        _assert_same(prog, build(ch)[0])


@pytest.mark.parametrize("name", ["g_tilde", "q_gamma_dual", "q_theta"])
def test_a_later_row_leaves_the_frame_and_earlier_rows_unchanged(name):
    build, grid = BUILDERS[name]
    first, second = _channels(grid)[1:3]
    with shared_frames():
        prog = build(first)[0]
        (frame,) = program._FRAMES.get().values()
        frame_before, prog_before = _arrays(frame), _arrays(prog)
        later = build(second)[0]
    for (what, a), (_, b) in zip(_arrays(frame), frame_before):
        assert a.tobytes() == b.tobytes(), what
    for (what, a), (_, b) in zip(_arrays(prog), prog_before):
        assert a.tobytes() == b.tobytes(), what
    assert any(a.tobytes() != b.tobytes() for (_, a), (_, b) in zip(_arrays(later), prog_before))
    # the frame's arrays are read-only, and its copies hold the very same ones
    for name, parts in frame._parts.items():
        later_parts = [id(a) for part in later._parts[name] for a in part]
        for a in (a for part in parts for a in part):
            assert not a.flags.writeable and id(a) in later_parts
    assert all(not c.flags.writeable for c in frame.objective.values())
    *_, vals = frame._parts[frame.blocks[0].name][-1]
    with pytest.raises(ValueError, match="read-only"):
        vals[...] = 0.0


def test_no_frame_outlives_the_run(monkeypatch):
    # each column builds one frame per grading, and both its program frames
    # and its solver frames are gone once run_fig3 returns
    built, assembled = [], []
    for module, name in ((asymptotic, "_q_gamma_frame"), (asymptotic, "_q_theta_frame")):
        real = getattr(module, name)

        def wrapped(*args, real=real):
            prog = real(*args)
            built.append(weakref.ref(prog))
            return prog

        monkeypatch.setattr(module, name, wrapped)
    real_frame = solver_mod._frame

    def frame(prog, form):
        fr = real_frame(prog, form)
        assembled.append(weakref.ref(fr))
        return fr

    monkeypatch.setattr(solver_mod, "_frame", frame)
    rows = cli.run_fig3(steps=6, jobs=1)
    assert [row[-1] for row in rows] == ["optimal"] * 6
    # two gradings (r = 0 and r > 0) for each of the two columns
    assert len(built) == 4 and len(assembled) == 4
    gc.collect()
    assert program._FRAMES.get() is None
    assert all(ref() is None for ref in built + assembled)


def test_solve_all_assembles_coefficients_once_per_structure(monkeypatch):
    calls = []
    real_frame = solver_mod._frame

    def frame(prog, form):
        calls.append(prog.structure)
        return real_frame(prog, form)

    monkeypatch.setattr(solver_mod, "_frame", frame)
    channels = [channel_nr(r) for r in FIG3_R[:6]]
    with shared_frames():
        built = [asymptotic.q_theta_program(ch) for ch in channels]
    sols = solve_all([prog for prog, _ in built])
    assert len(calls) == 2  # r = 0, and the five r > 0
    # the fidelity row carries J in its coefficients: a structure per program
    with shared_frames():
        progs = [oneshot.g_program(_ad2(r), 0.01)[0] for r in FIG1_R[:3]]
    assert len({prog.structure for prog in progs}) == 3
    for (prog, read), sol, ch in zip(built, sols, channels):
        solo = asymptotic.q_theta(ch)
        assert read(sol).value == solo.value and sol.iterations == solo.iterations


def test_rows_whose_choi_matrix_breaks_the_grading_fail_alone(monkeypatch, capsys):
    # one row's channel has no phase symmetry but is given the grading of
    # its neighbours: its programs are copies of their frames, and adding
    # its Choi matrix raises on that row only; every other row keeps the
    # values it has alone, to the bit
    grid = [0.0, 0.1, 0.2, 0.30000000000000004, 0.4]
    nr = channel_nr(0.22)
    made = {}

    def build(r):
        made[r] = ch = R32 if r == grid[2] else channel_nr(r)
        return ch

    monkeypatch.setattr(
        oneshot, "phase_sectors", lambda ch: phase_sectors(nr if ch is R32 else ch)
    )
    monkeypatch.setattr(logging.getLogger(), "handlers", [])
    rows = cli._sweep("fig3_nr r", grid, build, ("q_gamma", "q_theta"), 1)
    err = capsys.readouterr().err
    assert "row fig3_nr r=0.20000000000000001 failed: ValueError: " in err
    assert "does not vanish off its sectors" in err
    assert [row[0] for row in rows] == grid
    for r, qg, qt, status in rows:
        if r == grid[2]:
            assert math.isnan(qg) and math.isnan(qt) and status == "error"
            continue
        ch = made[r]
        assert (qg, qt, status) == (asymptotic.q_gamma(ch).log_value,
                                     asymptotic.q_theta(ch).log_value, "optimal")


def test_one_shot_row_that_breaks_the_grading_fails_alone(monkeypatch, capsys):
    grid = [0.05, 0.075, 0.1]
    made = {}

    def build(r):
        made[r] = ch = RP2 if r == grid[1] else _ad2(r)
        return ch

    ad2 = _ad2(0.09)
    monkeypatch.setattr(oneshot, "phase_sectors", lambda ch: phase_sectors(ad2 if ch is RP2 else ch))
    monkeypatch.setattr(logging.getLogger(), "handlers", [])
    rows = cli._sweep("custom ad r", grid, build, ("g_tilde",), 1, eps=0.01)
    err = capsys.readouterr().err
    assert "row custom ad r=0.074999999999999997 failed: ValueError: " in err
    for r, ngt, status in rows:
        if r == grid[1]:
            assert math.isnan(ngt) and status == "error"
            continue
        assert (ngt, status) == (oneshot.bound_g_tilde(made[r], 0.01).log_value, "optimal")


def test_a_frame_is_keyed_by_its_builder_and_its_arguments():
    made = []

    def builder(tag):
        def build(side, name):
            made.append((tag, side, name))
            prog = ConicProgram("min")
            prog.herm_block(name, side)
            return prog

        return build

    one, other = builder("one"), builder("other")
    with shared_frames():
        first, second = frame(one, 2, "X"), frame(one, 2, "X")
        # equal builder and arguments: copies of one frame
        assert made == [("one", 2, "X")]
        assert first is not second and first.structure is second.structure
        # another argument, or another builder with equal arguments: another frame
        others = [frame(one, 3, "X"), frame(one, 2, "Y"), frame(other, 2, "X")]
        assert made[1:] == [("one", 3, "X"), ("one", 2, "Y"), ("other", 2, "X")]
        assert len({prog.structure for prog in [first, *others]}) == 4
        assert len(program._FRAMES.get()) == 4
    # outside shared_frames each call builds afresh
    alone = [frame(one, 2, "X"), frame(one, 2, "X")]
    assert made[4:] == [("one", 2, "X")] * 2
    assert alone[0].structure is not alone[1].structure


def _toy(frame_only: bool, c=None, rhs=None):
    """A sectored program with a data-carrying scalar row, operator rhs and
    objective; at c = rhs = 0 when ``frame_only``."""
    sectors = ((0, 2), (1,))
    prog = ConicProgram("max")
    prog.herm_block("X", 3, sectors)
    prog.free_block("t", 2)
    if not frame_only:
        prog.set_objective({"X": c})
    prog.add_constraint({"X": np.eye(3), "t": [1.0, 0.0]}, "==", 1.0)
    prog.add_constraint({"t": [0.0, 1.0]} if frame_only else {"t": [0.0, 1.0], "X": c}, "<=", 2.0)
    t_1 = sp.csr_array(np.outer(np.eye(3).ravel(), [0.0, 1.0]))  # t -> t[1] I
    prog.add_operator_constraint(
        {"X": sp.identity(9), "t": t_1}, "<=", 0 if frame_only else rhs, sectors
    )
    return prog


def test_copy_with_data_is_the_program_built_whole():
    c = np.array([[1.0, 0.0, 0.5j], [0.0, 2.0, 0.0], [-0.5j, 0.0, 3.0]])
    rhs = np.diag([0.8, 0.7, 0.9])
    frame = _toy(True)
    prog = frame.copy()
    assert prog.structure is frame.structure
    prog.set_objective({"X": c})
    prog.add_terms(1, {"X": c})
    prog.set_rhs(2, rhs)
    assert prog.structure is not frame.structure
    _assert_same(prog, _toy(False, c, rhs))
    _assert_same(frame, _toy(True))
    # data off the sectors, a row the block is in already and a row that
    # starts no operator constraint are refused, and change nothing
    bad = frame.copy()
    with pytest.raises(ValueError, match="off its sectors"):
        bad.add_terms(1, {"X": np.ones((3, 3))})
    with pytest.raises(ValueError, match="off its sectors"):
        bad.set_rhs(2, np.ones((3, 3)))
    with pytest.raises(ValueError, match="already has coefficients"):
        bad.add_terms(0, {"t": [0.0, 1.0]})
    with pytest.raises(ValueError, match="already has coefficients"):
        bad.add_terms(3, {"t": [0.0, 1.0]})
    with pytest.raises(ValueError, match="no operator constraint"):
        bad.set_rhs(1, rhs)
    with pytest.raises(ValueError, match="no row"):
        bad.add_terms(len(bad.rows), {"X": c})
    assert bad.structure is frame.structure
    _assert_same(bad, frame)
