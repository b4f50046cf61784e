"""The Schur complement of the interior-point solver, against the dense
formula written out from the program's coefficients, the factorization that
solves with it, and the two forms a program can be solved in.

For every PSD block, row i's coefficient C_i (rebuilt as sum_k x_ik B_k from
its stored coordinates and ``hermitian_basis``, then halved, as the solver's
real embedding pairs blocks by 2 Re tr(AB)) contributes 2 Re tr(W C_i W C_k)
to M[i, k]; the nonnegative columns, slacks of inequality rows included,
contribute A diag(w) A'.  The solver builds every block's share from sparse
Hermitian-basis coordinates instead.  In the LMI form the blocks are the
cones of the reduced program and the rows its free coordinates.
"""
import numpy as np
import pytest
import scipy.sparse as sp

import qcap.asymptotic as asymptotic
import qcap.conic.solver as solver_mod
import qcap.oneshot as oneshot
from qcap.channels import channel_nr, random_channel, tensor
from qcap.conic.lmi import InconsistentRows, check_equalities
from qcap.conic.program import FREE, HERM_PSD, NONNEG, SLACK_PREFIX, ConicProgram
from qcap.matops import from_hermitian_coords, hermitian_basis, hermitian_coords

# two uses of random qubit channels, and a random qutrit-to-qubit channel for
# the rate programs: no phase symmetry, so every block is dense
RP2 = tensor(random_channel(2, 2, seed=1000), random_channel(2, 2, seed=1001))
R32 = random_channel(3, 2, seed=2)
# phase-covariant: the rate programs on its sectors
NR = channel_nr(0.22)

# builder, and the module whose ``solve`` it calls
PROGRAMS = {
    "bound_f": (lambda: oneshot.bound_f(RP2, 0.01), oneshot),
    "bound_g": (lambda: oneshot.bound_g(RP2, 0.01), oneshot),
    "bound_g_tilde": (lambda: oneshot.bound_g_tilde(RP2, 0.01), oneshot),
    "fidelity_sdp": (lambda: oneshot.fidelity_sdp(RP2, 2), oneshot),
    "q_gamma_primal": (lambda: asymptotic.q_gamma(R32), asymptotic),
    "q_gamma_dual": (lambda: asymptotic.q_gamma(R32, "dual"), asymptotic),
    "q_theta": (lambda: asymptotic.q_theta(R32), asymptotic),
    "q_gamma_primal_sectors": (lambda: asymptotic.q_gamma(NR), asymptotic),
    "q_gamma_dual_sectors": (lambda: asymptotic.q_gamma(NR, "dual"), asymptotic),
    "q_theta_sectors": (lambda: asymptotic.q_theta(NR), asymptotic),
}


class _Built(Exception):
    """Raised in place of the solve, once the program is built."""


def _program(monkeypatch, name):
    build, module = PROGRAMS[name]
    progs = []

    def capture(prog, **kwargs):
        progs.append(prog)
        raise _Built

    monkeypatch.setattr(module, "solve", capture)
    with pytest.raises(_Built):
        build()
    return progs[0]


def _stored(prog, blk):
    """The program's coefficients on ``blk`` as a dense rows x coordinates array."""
    rows, k, v = prog.coefficients(blk.name)
    out = np.zeros((len(prog.rows), blk.size**2 if blk.kind == HERM_PSD else blk.size))
    out[rows, k] = v
    return out


def _dense_share(kind, size, coeffs, w):
    """One block's share of M from its dense rows x coordinates coefficients
    and its scaling: the dense formula."""
    m = coeffs.shape[0]
    if kind == NONNEG:
        return (coeffs * w[:, 0, 0].real ** 2) @ coeffs.T
    c = 0.5 * np.einsum("ik,kab->iab", coeffs, hermitian_basis(size))
    wcw = w[0] @ c @ w[0]
    # tr(X C_k) = vec(X) . vec(C_k^T)
    return 2.0 * (wcw.reshape(m, -1) @ c.transpose(0, 2, 1).reshape(m, -1).T).real


def _eq_blocks(prog):
    return {blk.name: (blk.kind, blk.size, _stored(prog, blk)) for blk in prog.blocks}


def _reduced_blocks(red):
    """Each cone's coefficients on z, as the reduction returns them, dense."""
    out = {}
    for name, kind, size, rows, k, v, _ in red.cones:
        coeffs = np.zeros((red.b.size, size**2 if kind == HERM_PSD else size))
        coeffs[rows, k] = v
        out[name] = (kind, size, coeffs)
    return out


def _random_pd(count, side, rng):
    g = rng.normal(size=(count, side, side)) + 1j * rng.normal(size=(count, side, side))
    return g @ g.conj().transpose(0, 2, 1) / side + 0.1 * np.eye(side)


def _check_schur(data, blocks, t=None):
    """The solver's M against the dense formula, with a random scaling per
    cone: a positive definite matrix for a Hermitian block, and for each
    entry of a nonnegative block a positive number.  ``t`` maps the rows of
    ``blocks`` to the solver's: M is T' of theirs."""
    rng = np.random.default_rng(2024)
    ws = [_random_pd(st.count, st.side, rng) for st in data.stacks]
    got = solver_mod._schur(data, ws)
    want = sum(
        _dense_share(*blocks[name], w[first : first + count])
        for st, w in zip(data.stacks, ws)
        for name, first, count in st.spans
    )
    if t is not None:
        want = t.T @ want @ t
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_schur_matches_dense_formula(monkeypatch, name):
    prog = _program(monkeypatch, name)
    data = solver_mod._assemble(prog, "eq")
    # assembly eliminates the free columns: the solver's rows are T' of the program's
    _check_schur(data, _eq_blocks(prog), data.red.t)


def _lmi_cones(prog, red):
    """The LMI form's cones on z written out from the program's rows and
    the reduction's y = y0 + T z: -T_j' of value y0_j for a user block j, and
    (A_i T)' / e_k of value (b_i - A_i y0) / e_k for the coordinate k of a
    slack that has coefficient e_k in row i."""
    user = [blk for blk in prog.blocks if not blk.name.startswith(SLACK_PREFIX)]
    parts = [_stored(prog, blk) for blk in user]
    a_y = np.hstack(parts)
    first = np.cumsum([0] + [part.shape[1] for part in parts])
    offs = {blk.name: (lo, hi) for blk, lo, hi in zip(user, first, first[1:])}
    t = np.eye(a_y.shape[1]) if red.t is None else red.t.toarray()
    b = np.array(prog.rows)
    out = {}
    for blk in prog.blocks:
        if blk.kind == FREE:
            continue
        if blk.name in offs:
            lo, hi = offs[blk.name]
            out[blk.name] = (-t[lo:hi].T, red.y0[lo:hi])
        else:
            rows, k, e = prog.coefficients(blk.name)
            rows, e = rows[np.argsort(k)], e[np.argsort(k)]
            out[blk.name] = ((a_y[rows] @ t).T / e, (b[rows] - a_y[rows] @ red.y0) / e)
    return out


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_lmi_schur_matches_dense_formula(monkeypatch, name):
    prog = _program(monkeypatch, name)
    data = solver_mod._assemble(prog, "lmi")
    blocks = _reduced_blocks(data.red)
    # the reduction's cones are the LMI form's, written out densely
    values = {cone[0]: cone[-1] for cone in data.red.cones}
    for cone, (coeffs, value) in _lmi_cones(prog, data.red).items():
        assert np.max(np.abs(blocks[cone][2] - coeffs)) <= 1e-13 * max(1.0, np.max(np.abs(coeffs)))
        assert np.max(np.abs(values[cone] - value)) <= 1e-13 * max(1.0, np.max(np.abs(value)))
    _check_schur(data, blocks)


def _row_residual(prog, blocks):
    """max |A x - b| / (1 + |b|) of the program's rows at the returned blocks,
    slacks included."""
    b = np.array(prog.rows)
    ax = np.zeros_like(b)
    for blk in prog.blocks:
        x = blocks[blk.name]
        ax += _stored(prog, blk) @ (hermitian_coords(x) if blk.kind == HERM_PSD else x)
    return float(np.max(np.abs(ax - b))) / (1.0 + float(np.linalg.norm(b)))


def _check_row_duals(prog, y):
    """y meets the program's dual: c - A'y in each cone block, to
    -1e-7 (1 + |y|) in its least eigenvalue or entry, and F'y = d on each
    free block, to 1e-7; c and d in the program's min sense."""
    sign = 1.0 if prog.sense == "min" else -1.0
    tol = 1e-7 * (1.0 + float(np.linalg.norm(y)))
    for blk in prog.blocks:
        at_y = _stored(prog, blk).T @ y
        if blk.kind == HERM_PSD:
            at_y = from_hermitian_coords(at_y, blk.size)
        c = sign * prog.objective.get(blk.name, np.zeros_like(at_y))
        if blk.kind == HERM_PSD:
            assert np.linalg.eigvalsh(c - at_y)[0] >= -tol, blk.name
        elif blk.kind == NONNEG:
            assert np.min(c - at_y) >= -tol, blk.name
        else:
            assert np.max(np.abs(at_y - c)) <= 1e-7, blk.name


def _program_blocks(prog, blocks):
    """The program's own blocks from a solution's, in which each sectored
    block is one full matrix: its sectors' diagonal blocks, after checking
    that it is zero off them."""
    out = dict(blocks)
    for name, (sec, names) in prog._sectors.items():
        if len(names) > 1:
            full = out.pop(name)
            off = np.ones(full.shape, dtype=bool)
            for p, n in zip(sec.parts, names):
                out[n] = full[np.ix_(p, p)]
                off[np.ix_(p, p)] = False
            assert not np.any(full[off]), name
    return out


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_both_forms_solve_every_program(monkeypatch, name):
    prog = _program(monkeypatch, name)
    sols = {}
    for form in ("eq", "lmi"):
        monkeypatch.setattr(solver_mod, "_form", lambda prog, form=form: form)
        sol = solver_mod.solve(prog)
        assert (sol.status, sol.reason, sol.form) == ("optimal", "converged", form)
        # the blocks are the program's own, slacks included, and meet its rows
        blocks = _program_blocks(prog, sol.blocks)
        assert blocks.keys() == {blk.name for blk in prog.blocks}
        assert _row_residual(prog, blocks) <= 1e-7
        assert sol.y.shape == (len(prog.rows),)
        _check_row_duals(prog, sol.y)
        assert abs(sol.primal_value - sol.dual_value) <= 1e-7 * (1 + abs(sol.primal_value))
        sols[form] = sol
    eq, lmi = sols["eq"].primal_value, sols["lmi"].primal_value
    assert abs(eq - lmi) <= 1e-7 * abs(eq)


def test_g_hat_above_one_is_infeasible_in_lmi_form():
    res = oneshot.bound_g_hat(RP2, 0.01, 1.5)
    assert (res.status, res.reason, res.form) == ("infeasible", "converged", "lmi")
    assert res.certificate is None and np.isnan(res.value)


def _eigen_program(rhs_rows):
    # max <C, X> over X <= I with the trace rows tr X = r for r in rhs_rows
    prog = ConicProgram("max")
    prog.herm_block("X", 3)
    prog.set_objective({"X": np.diag([1.0, 2.0, 3.0])})
    for r in rhs_rows:
        prog.add_constraint({"X": np.eye(3)}, "==", r)
    prog.add_operator_constraint({"X": sp.identity(9)}, "<=", np.eye(3))
    return prog


def test_dependent_equality_rows(monkeypatch):
    monkeypatch.setattr(solver_mod, "_form", lambda prog: "lmi")
    # a duplicated row is dropped from the elimination
    sol = solver_mod.solve(_eigen_program([1.5, 1.5]))
    assert (sol.status, sol.form) == ("optimal", "lmi")
    assert abs(sol.primal_value - 4.0) <= 1e-7
    # inconsistent ones end infeasible, and y combines them into 0 = 1: the LMI
    # form's reduction finds them before an iteration, and the equality
    # form's stalled iteration falls back on the same elimination
    prog = _eigen_program([1.5, 2.0])

    def farkas(y):
        for blk in prog.blocks:
            assert np.max(np.abs(_stored(prog, blk).T @ y)) <= 1e-12
        assert abs(np.dot(prog.rows, y) - 1.0) <= 1e-12

    for find in (lambda: solver_mod._assemble(prog, "lmi"), lambda: check_equalities(prog)):
        with pytest.raises(InconsistentRows) as exc:
            find()
        farkas(exc.value.y)
    for form in ("lmi", "eq"):
        monkeypatch.setattr(solver_mod, "_form", lambda prog, form=form: form)
        sol = solver_mod.solve(prog)
        assert (sol.status, sol.reason, sol.form) == ("infeasible", "inconsistent_rows", form)
        assert (sol.iterations == 0) == (form == "lmi") and sol.blocks == {}
        farkas(sol.y)


def test_assembly_drops_zero_rows_and_stores_basis_coordinates(monkeypatch):
    data = solver_mod._assemble(_program(monkeypatch, "bound_g"), "eq")
    # each block's columns of its stack: contiguous, side**2 per cone
    cols = {
        name: st.a[:, first * st.side**2 : (first + count) * st.side**2]
        for st in data.stacks
        for name, first, count in st.spans
    }

    def rows_kept(a):
        return int(np.count_nonzero(np.diff(a.indptr)))

    # of the rows with a coefficient on the block, the all-zero ones store nothing
    assert cols["rho"].shape == (770, 16) and rows_kept(cols["rho"]) == 257 - 192
    assert cols["S"].shape == (770, 16) and rows_kept(cols["S"]) == 512 - 384
    # W <= rho (x) I and the box store one entry per coordinate, and the
    # fidelity row the 256 of the dense Choi matrix
    assert cols["W"].shape == (770, 256) and cols["W"].nnz == 3 * 256 + 256
    # the fidelity row's slack, rho and S, and W and its three slacks, each
    # side-16 cone in a stack of its own as its kernel fills _STACK_KERNEL
    assert [(st.side, st.count) for st in data.stacks] == [(1, 1), (4, 2)] + [(16, 1)] * 4


@pytest.mark.parametrize("side", [1, 2, 3, 16])
def test_coordinates_follow_the_hermitian_basis(side):
    basis = hermitian_basis(side)
    assert np.allclose(hermitian_coords(basis), np.eye(side * side), rtol=0, atol=1e-15)
    x = np.random.default_rng(side).normal(size=side * side)
    mat = from_hermitian_coords(x, side)
    assert np.allclose(mat, np.einsum("b,bij->ij", x, basis), rtol=0, atol=1e-15)
    assert np.allclose(hermitian_coords(mat), x, rtol=0, atol=1e-15)
    # only the Hermitian part has coordinates
    rng = np.random.default_rng(100 + side)
    y = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    herm = 0.5 * (y + y.conj().T)
    assert np.allclose(hermitian_coords(y), hermitian_coords(herm), rtol=0, atol=1e-15)
    # a stack with two leading dimensions: tr(B_b H) = Re tr(B_b Y)
    stack = rng.normal(size=(2, 3, side, side)) + 1j * rng.normal(size=(2, 3, side, side))
    want = np.einsum("bij,xyji->xyb", basis, stack).real
    assert np.allclose(hermitian_coords(stack), want, rtol=0, atol=1e-15)


def test_block_in_no_row_is_assembled():
    # Y appears only in the objective: no row has a coefficient on it
    prog = solver_mod.ConicProgram("min")
    prog.herm_block("X", 2)
    prog.herm_block("Y", 3)
    prog.set_objective({"X": np.diag([1.0, 2.0]), "Y": np.eye(3)})
    prog.add_constraint({"X": np.eye(2)}, "==", 1.0)
    sol = solver_mod.solve(prog)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 1.0) < 1e-7
    assert np.max(np.abs(sol.blocks["Y"])) < 1e-7
