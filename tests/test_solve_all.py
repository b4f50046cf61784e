"""``solve_all`` iterates same-shaped programs in lockstep, and each result is
the one ``solve`` gives for that program alone, to the bit: status, reason,
form, iterations, values, residuals, row duals and blocks.

The mixed batch holds programs of several assembled shapes in both forms,
and next to them programs that end without converging: infeasible,
inconsistent equality rows, a free ray, non-finite data, and a breakdown
forced in one program of a batch.  The Fig. 3 column holds the 25 Q_Theta
programs of the sweep with r > 0: one batch, whose programs leave it at
different iterations."""
import dataclasses
import math

import numpy as np
import pytest

import qcap.conic.solver as solver_mod
from qcap.asymptotic import q_gamma_program, q_theta_program
from qcap.channels import channel_nr
from qcap.conic import ConicProgram, shared_frames, solve, solve_all

_SCHUR = solver_mod._schur
_NEWTON = solver_mod._newton


def _box(seed: int, trace: float = 1.0) -> ConicProgram:
    """max <C, X> over PSD X of trace ``trace``, plus a boxed LP part: one
    assembled shape for every seed and trace."""
    g = np.random.default_rng(seed).normal(size=(3, 3, 2)) @ [1.0, 1j]
    prog = ConicProgram("max")
    prog.herm_block("X", 3)
    prog.nonneg_block("v", 2)
    prog.set_objective({"X": g + g.conj().T, "v": [1.0, 0.5]})
    prog.add_constraint({"X": np.eye(3)}, "==", trace)
    prog.add_constraint({"v": [1.0, 1.0]}, "<=", 1.0)
    return prog


def _lp(cost: float, rhs: float) -> ConicProgram:
    """min cost * x over x >= 0 with x = rhs: infeasible for rhs < 0."""
    prog = ConicProgram("min")
    prog.nonneg_block("x", 1)
    prog.set_objective({"x": [cost]})
    prog.add_constraint({"x": [1.0]}, "==", rhs)
    return prog


def _inconsistent() -> ConicProgram:
    prog = ConicProgram("max")
    prog.herm_block("X", 2)
    prog.set_objective({"X": np.diag([1.0, 2.0])})
    prog.add_constraint({"X": np.eye(2)}, "==", 1.5)
    prog.add_constraint({"X": np.eye(2)}, "==", 2.0)
    return prog


def _free_ray() -> ConicProgram:
    # g - f lowers the objective, and no row sees it
    prog = ConicProgram("min")
    prog.nonneg_block("x", 1)
    prog.free_block("f", 1)
    prog.free_block("g", 1)
    prog.set_objective({"x": [1.0], "f": [1.0]})
    prog.add_constraint({"x": [1.0], "f": [1.0], "g": [1.0]}, "==", 2.0)
    return prog


def _programs():
    """(name, program, solved in the LMI form, expected status, reason)."""
    nr = {r: channel_nr(r) for r in (0.1, 0.15, 0.2, 0.3, 0.35)}
    return [
        ("box1", _box(1), False, "optimal", "converged"),
        ("box2", _box(2), False, "optimal", "converged"),
        ("broken", _box(4, trace=2.0), False, "max_iter", "factorization_failed"),
        ("box3", _box(3), False, "optimal", "converged"),
        ("q_gamma.1", q_gamma_program(nr[0.1])[0], False, "optimal", "converged"),
        ("q_gamma_lmi.15", q_gamma_program(nr[0.15])[0], True, "optimal", "converged"),
        ("q_theta.2", q_theta_program(nr[0.2])[0], False, "optimal", "converged"),
        ("q_gamma.3", q_gamma_program(nr[0.3])[0], False, "optimal", "converged"),
        ("q_gamma_lmi.35", q_gamma_program(nr[0.35])[0], True, "optimal", "converged"),
        ("infeasible", _lp(1.0, -1.0), False, "infeasible", "converged"),
        ("feasible", _lp(1.0, 1.0), False, "optimal", "converged"),
        ("non_finite", _lp(np.inf, 1.0), False, "max_iter", "non_finite"),
        ("inconsistent", _inconsistent(), False, "infeasible", "inconsistent_rows"),
        ("free_ray", _free_ray(), False, "unbounded", "free_ray"),
    ]


def _break_at_third_step(mode: str) -> tuple[str, object]:
    """The solver function to patch, and its stand-in, that break the
    program whose rows read tr X = 2 from its third step on: ``nan``, a NaN
    Schur complement out of ``_schur``, whose factorization fails in its own
    program; ``raise``, ``_newton`` handed that program's cones negated,
    whose stacked Cholesky factor raises in the NT scaling."""
    seen = []

    def broken(b) -> bool:
        if b.size == 2 and b[0] == 2.0:
            seen.append(None)
            return len(seen) > 2
        return False

    def schur(data, ws):
        mats = _SCHUR(data, ws)
        for i, b in enumerate(np.atleast_2d(data.b)):
            if broken(b):
                mats[i] = np.nan
        return mats

    def newton(run, *args):
        X = [x.copy() for x in run.X]
        for i, b in enumerate(run.bat.b):
            if broken(b):
                for x in run.cones(X):
                    x[i] *= -1.0
        return _NEWTON(dataclasses.replace(run, X=X), *args)

    return ("_schur", schur) if mode == "nan" else ("_newton", newton)


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


@pytest.mark.parametrize("mode", ["nan", "raise"])
def test_mixed_batch_matches_solo_solves(monkeypatch, mode):
    cases = _programs()
    lmi = [prog for _, prog, in_lmi, *_ in cases if in_lmi]
    form = solver_mod._form
    monkeypatch.setattr(
        solver_mod, "_form", lambda prog: "lmi" if any(prog is p for p in lmi) else form(prog)
    )
    groups = []
    iterate = solver_mod._iterate

    def spy(members, *args):
        groups.append(len(members))
        return iterate(members, *args)

    monkeypatch.setattr(solver_mod, "_iterate", spy)
    solo = []
    for _, prog, *_ in cases:
        monkeypatch.setattr(solver_mod, *_break_at_third_step(mode))
        solo.append(solve(prog))
    groups.clear()
    monkeypatch.setattr(solver_mod, *_break_at_third_step(mode))
    batch = solve_all([prog for _, prog, *_ in cases])

    # the four boxes, two q_gamma in each form, q_theta, and the three LPs
    # on one nonnegative entry (the free ray ends at assembly)
    assert sorted(groups) == [1, 1, 2, 2, 3, 4]
    for (name, _, in_lmi, status, reason), one, both in zip(cases, solo, batch):
        assert (one.status, one.reason, one.form) == (status, reason, "lmi" if in_lmi else "eq"), name
        for field in ("status", "reason", "form", "iterations", "primal_value", "dual_value",
                      "gap", "primal_residual", "dual_residual", "y"):
            assert _same(getattr(one, field), getattr(both, field)), (name, field)
        assert one.blocks.keys() == both.blocks.keys(), name
        for key in one.blocks:
            assert np.array_equal(one.blocks[key], both.blocks[key]), (name, key)
    broken = solo[[c[0] for c in cases].index("broken")]
    assert broken.iterations == 3 and np.isfinite(broken.primal_value)


def test_empty_batch():
    assert solve_all([]) == []


def test_fig3_q_theta_column_matches_solo_solves(monkeypatch):
    # built as the CLI builds a sweep column: as copies of one program frame
    with shared_frames():
        progs = [q_theta_program(channel_nr(r))[0] for r in np.linspace(0.0, 0.5, 26)[1:]]
    groups = []
    iterate = solver_mod._iterate

    def spy(members, *args):
        groups.append(len(members))
        return iterate(members, *args)

    monkeypatch.setattr(solver_mod, "_iterate", spy)
    batch = solve_all(progs)
    assert groups == [25] and len({sol.iterations for sol in batch}) > 3
    for i, (prog, both) in enumerate(zip(progs, batch)):
        one = solve(prog)
        assert one.status == "optimal", i
        for field in ("status", "reason", "form", "iterations", "primal_value", "dual_value",
                      "gap", "primal_residual", "dual_residual", "y"):
            assert _same(getattr(one, field), getattr(both, field)), (i, field)
        assert all(np.array_equal(one.blocks[k], both.blocks[k]) for k in one.blocks), i


def test_stacked_kernels_match_their_per_program_loops():
    # the batch's pairings and Schur factors against what a loop over the
    # programs computes: np.vdot of each program's slices, and scipy's
    # cholesky of each equilibrated, shifted M, to the bit
    from scipy.linalg import cholesky

    rng = np.random.default_rng(7)
    with shared_frames():
        progs = [q_theta_program(channel_nr(r))[0] for r in (0.1, 0.2, 0.3)]
    bat = solver_mod._Batch(solver_mod._assemble_all(progs))
    p, q = ([rng.normal(size=c.shape) + 1j * rng.normal(size=c.shape) for c in bat.cobj]
            for _ in range(2))
    for i, got in enumerate(bat.inner(p, q)):
        want = 0.0
        for st, x, z, n in zip(bat.stacks, p, q, bat.counts):
            want += st.gamma * float(np.vdot(x[i * n : (i + 1) * n], z[i * n : (i + 1) * n]).real)
        assert got == want, i
    a = rng.normal(size=(3, 30, 34)) * np.exp(rng.normal(size=(3, 30, 1)))
    mmats = a @ a.swapaxes(1, 2)
    mmats[1] *= -1.0  # its factorization fails, and only it
    eqs, ups, live = solver_mod._schur_factors(mmats)
    assert live.tolist() == [True, False, True]
    for i in (0, 2):
        scaled = mmats[i] * eqs[i][:, None] * eqs[i][None, :]
        scaled[np.diag_indices(30)] += solver_mod._SCHUR_SHIFT
        assert np.array_equal(ups[i], cholesky(scaled)), i
