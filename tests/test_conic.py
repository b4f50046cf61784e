import logging
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

import qcap.conic._blas as blas_mod
import qcap.conic.solver as solver_mod
from qcap.conic import MAX_ITER, ConicProgram, SolverError, solve
from qcap.conic.program import HERM_PSD, NONNEG, SLACK_PREFIX
from qcap.matops import hermitian_basis

RNG = np.random.default_rng(42)


def random_herm(d, rng=RNG):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (g + g.conj().T)


def test_program_rejects_non_hermitian_coefficient():
    prog = ConicProgram("min")
    prog.herm_block("X", 2)
    with pytest.raises(ValueError):
        prog.add_constraint({"X": np.array([[0, 1], [0, 0]])}, "==", 0.0)


def test_program_rejects_bad_shape_and_unknown_block():
    prog = ConicProgram("min")
    prog.herm_block("X", 2)
    with pytest.raises(ValueError):
        prog.add_constraint({"X": np.eye(3)}, "==", 0.0)
    with pytest.raises(ValueError):
        prog.add_constraint({"Y": np.eye(2)}, "==", 0.0)


def test_program_rejects_duplicate_block_and_bad_relation():
    prog = ConicProgram("min")
    prog.herm_block("X", 2)
    with pytest.raises(ValueError):
        prog.nonneg_block("X", 1)
    with pytest.raises(ValueError):
        prog.add_constraint({"X": np.eye(2)}, "=<", 0.0)


def test_sdp_largest_eigenvalue_real():
    c = np.diag([1.0, 3.0, -2.0])
    prog = ConicProgram("max")
    prog.herm_block("X", 3)
    prog.set_objective({"X": c})
    prog.add_constraint({"X": np.eye(3)}, "==", 1.0)
    sol = solve(prog)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 3.0) < 1e-7
    x = sol.blocks["X"]
    assert np.linalg.eigvalsh(x)[0] > -1e-9
    assert abs(np.trace(x).real - 1.0) < 1e-7


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sdp_largest_eigenvalue_complex(seed):
    rng = np.random.default_rng(seed)
    c = random_herm(4, rng)
    prog = ConicProgram("max")
    prog.herm_block("X", 4)
    prog.set_objective({"X": c})
    prog.add_constraint({"X": np.eye(4)}, "==", 1.0)
    sol = solve(prog)
    assert sol.status == "optimal"
    top = np.linalg.eigvalsh(c)[-1]
    assert abs(sol.primal_value - top) < 1e-7


@pytest.mark.parametrize("seed", list(range(6)))
def test_lp_matches_reference_solver(seed):
    rng = np.random.default_rng(seed)
    n, m = 8, 4
    a = rng.normal(size=(m, n))
    x0 = rng.uniform(0.5, 1.5, size=n)
    b = a @ x0
    c = rng.normal(size=n)
    # bound the feasible set so the optimum is finite
    a_full = np.vstack([a, np.ones(n)])
    b_full = np.concatenate([b, [x0.sum()]])
    ref = linprog(c, A_eq=a_full, b_eq=b_full, bounds=[(0, None)] * n, method="highs")
    assert ref.status == 0

    prog = ConicProgram("min")
    prog.nonneg_block("x", n)
    prog.set_objective({"x": c})
    for row, rhs in zip(a_full, b_full):
        prog.add_constraint({"x": row}, "==", float(rhs))
    sol = solve(prog)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - ref.fun) < 1e-6 * (1 + abs(ref.fun))


def test_lp_inequality_rows():
    # max x + y inside the unit box with x + 2y <= 2
    prog = ConicProgram("max")
    prog.nonneg_block("v", 2)
    prog.set_objective({"v": [1.0, 1.0]})
    prog.add_constraint({"v": [1.0, 0.0]}, "<=", 1.0)
    prog.add_constraint({"v": [0.0, 1.0]}, "<=", 1.0)
    prog.add_constraint({"v": [1.0, 2.0]}, "<=", 2.0)
    sol = solve(prog)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 1.5) < 1e-7


def test_free_variables():
    # min |coupling|-style program: x >= 0, f free, x - f = 1, x + f = 3
    prog = ConicProgram("min")
    prog.nonneg_block("x", 1)
    prog.free_block("f", 1)
    prog.set_objective({"x": [1.0]})
    prog.add_constraint({"x": [1.0], "f": [-1.0]}, "==", 1.0)
    prog.add_constraint({"x": [1.0], "f": [1.0]}, "==", 3.0)
    sol = solve(prog)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 2.0) < 1e-7
    assert abs(sol.blocks["f"][0] - 1.0) < 1e-6
    # the rows' duals meet the free column's dual row F'y = c_f, and leave
    # the cone a nonnegative reduced cost c - A'y
    assert abs(np.dot([-1.0, 1.0], sol.y) - 0.0) <= 1e-9
    assert 1.0 - np.dot([1.0, 1.0], sol.y) >= -1e-9


def _degenerate_free(case):
    """A free block in no row, one in every row, or two free columns that
    are equal."""
    prog = ConicProgram("min")
    prog.nonneg_block("x", 1)
    if case == "in_every_row":
        # the elimination leaves the cone no row
        prog.free_block("f", 1)
        prog.set_objective({"x": [1.0], "f": [1.0]})
        prog.add_constraint({"x": [1.0], "f": [1.0]}, "==", 2.0)
        return prog
    if case == "in_no_row":
        prog.free_block("g", 2)
        prog.set_objective({"x": [1.0]})
        prog.add_constraint({"x": [1.0]}, "==", 2.0)
        return prog
    prog.free_block("f", 1)
    prog.free_block("g", 1)
    costs = {"x": [1.0], "f": [1.0], "g": [1.0]}
    if case == "costs_disagree":
        del costs["g"]
    prog.set_objective(costs)
    prog.add_constraint({"x": [1.0], "f": [1.0], "g": [1.0]}, "==", 2.0)
    if case == "costs_agree":
        prog.add_constraint({"x": [1.0]}, "<=", 5.0)
    return prog


@pytest.mark.parametrize(
    "case, status, reason",
    [
        ("in_no_row", "optimal", "converged"),
        ("in_every_row", "optimal", "converged"),
        ("costs_agree", "optimal", "converged"),
        # g - f lowers the objective and no row sees it
        ("costs_disagree", "unbounded", "free_ray"),
    ],
)
def test_degenerate_free_columns(case, status, reason):
    sol = solve(_degenerate_free(case))
    assert (sol.status, sol.reason) == (status, reason)
    if status == "unbounded":
        assert sol.iterations == 0 and sol.primal_value is None
        return
    assert abs(sol.primal_value - 2.0) < 1e-7
    if case == "in_no_row":
        assert np.all(sol.blocks["g"] == 0.0)
    elif case == "in_every_row":
        assert abs(sol.blocks["x"][0] + sol.blocks["f"][0] - 2.0) < 1e-7
    else:
        # a column that combines earlier ones reads 0, and the rows still hold
        assert sol.blocks["g"][0] == 0.0
        assert abs(sol.blocks["x"][0] + sol.blocks["f"][0] - 2.0) < 1e-7


def test_infeasible_lp_detected():
    prog = ConicProgram("min")
    prog.nonneg_block("x", 1)
    prog.set_objective({"x": [1.0]})
    prog.add_constraint({"x": [1.0]}, "==", -1.0)
    assert solve(prog).status == "infeasible"


def test_infeasible_sdp_detected():
    prog = ConicProgram("min")
    prog.herm_block("X", 2)
    prog.set_objective({"X": np.eye(2)})
    prog.add_constraint({"X": np.eye(2)}, "==", -1.0)
    assert solve(prog).status == "infeasible"


def test_unbounded_lp_detected():
    prog = ConicProgram("max")
    prog.nonneg_block("x", 2)
    prog.set_objective({"x": [1.0, 0.0]})
    prog.add_constraint({"x": [0.0, 1.0]}, "==", 1.0)
    assert solve(prog).status == "unbounded"


def test_objective_scaling_invariance():
    c = random_herm(3, np.random.default_rng(9))
    vals = []
    for scale in (1.0, 7.5):
        prog = ConicProgram("max")
        prog.herm_block("X", 3)
        prog.set_objective({"X": scale * c})
        prog.add_constraint({"X": np.eye(3)}, "==", 1.0)
        sol = solve(prog)
        assert sol.status == "optimal"
        vals.append(sol.primal_value)
    assert abs(vals[1] - 7.5 * vals[0]) < 1e-6 * (1 + abs(vals[1]))


@pytest.mark.parametrize("seed", list(range(8)))
def test_mixed_program_duality_gap(seed):
    # random equality-constrained mix of a PSD block and nonneg vector,
    # built around a known interior feasible point
    rng = np.random.default_rng(100 + seed)
    side, n, m = 3, 4, 5
    x0 = random_herm(side, rng)
    x0 = x0 @ x0.conj().T + 0.5 * np.eye(side)
    v0 = rng.uniform(0.5, 1.5, size=n)
    prog = ConicProgram("min")
    prog.herm_block("X", side)
    prog.nonneg_block("v", n)
    cobj = random_herm(side, rng) + 2.5 * np.eye(side)
    vobj = rng.uniform(0.5, 1.5, size=n)
    prog.set_objective({"X": cobj, "v": vobj})
    for _ in range(m):
        amat = random_herm(side, rng)
        avec = rng.normal(size=n)
        rhs = float(np.trace(amat @ x0).real + avec @ v0)
        prog.add_constraint({"X": amat, "v": avec}, "==", rhs)
    # keep it bounded below through a trace row
    prog.add_constraint(
        {"X": np.eye(side), "v": np.ones(n)},
        "==",
        float(np.trace(x0).real + v0.sum()),
    )
    sol = solve(prog)
    assert sol.status == "optimal"
    assert sol.gap <= 1e-7 * (1 + abs(sol.primal_value))
    # weak duality for min sense
    assert sol.dual_value <= sol.primal_value + 1e-6 * (1 + abs(sol.primal_value))
    assert np.linalg.eigvalsh(sol.blocks["X"])[0] > -1e-7
    assert sol.blocks["v"].min() > -1e-9


def test_solution_carries_metadata():
    prog = ConicProgram("max")
    prog.nonneg_block("x", 1)
    prog.set_objective({"x": [1.0]})
    prog.add_constraint({"x": [1.0]}, "==", 1.0)
    sol = solve(prog)
    assert sol.reason == "converged"
    assert sol.iterations >= 1
    assert sol.primal_residual < 1e-7
    assert sol.dual_residual < 1e-7
    assert sol.y.shape == (1,)


def test_debug_log_has_one_record_per_iteration(caplog):
    with caplog.at_level(logging.INFO, logger="qcap.conic"):
        solve(_box_program())
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="qcap.conic"):
        sol = solve(_box_program())
    assert sol.status == "optimal"
    assert [r.name for r in caplog.records] == ["qcap.conic"] * sol.iterations
    assert caplog.records[0].getMessage().startswith("it   1  mu=")


def _box_program():
    # max <C, X> over density matrices plus a boxed LP part: several iterations
    c = random_herm(3, np.random.default_rng(5))
    prog = ConicProgram("max")
    prog.herm_block("X", 3)
    prog.nonneg_block("v", 2)
    prog.set_objective({"X": c, "v": [1.0, 0.5]})
    prog.add_constraint({"X": np.eye(3)}, "==", 1.0)
    prog.add_constraint({"v": [1.0, 1.0]}, "<=", 1.0)
    return prog


# per iteration, on the two stacks of the box: one SVD of each in the NT
# scaling, one eigvalsh of each in each of the two step-length tests, and one
# Cholesky factorization of the Schur complement
@pytest.mark.parametrize(
    "target, healthy_calls", [("svd", 6), ("eigvalsh", 12), ("cholesky", 3)]
)
def test_breakdown_returns_status_instead_of_raising(monkeypatch, target, healthy_calls):
    clean = solve(_box_program())
    assert clean.status == "optimal" and clean.iterations > 4
    real = getattr(solver_mod, target)
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) > healthy_calls:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return real(*args, **kwargs)

    monkeypatch.setattr(solver_mod, target, failing)
    sol = solve(_box_program())
    assert sol.status == MAX_ITER and sol.reason == "factorization_failed"
    assert sol.iterations == 4 < clean.iterations
    # the best iterate seen so far comes back with its residuals
    assert sol.blocks["X"].shape == (3, 3)
    assert np.isfinite(sol.primal_value) and np.isfinite(sol.primal_residual)


def test_iteration_limit_is_the_reason():
    sol = solve(_box_program(), max_iter=2)
    assert sol.status == MAX_ITER and sol.reason == "iteration_limit"
    assert sol.iterations == 2


@pytest.fixture
def blas_at_two():
    """Each loaded OpenBLAS at 2 threads (so a restore is visible), then put back."""
    pools = blas_mod.blas_pools()
    if not pools:
        pytest.skip("no OpenBLAS thread-count symbols in this process")
    before = _thread_counts(pools)
    for _, put in pools:
        put(2)
    yield pools
    for (_, put), n in zip(pools, before):
        put(n)


def _thread_counts(pools):
    return [get() for get, _ in pools]


def test_solve_runs_on_one_blas_thread(monkeypatch, blas_at_two):
    outside = _thread_counts(blas_at_two)
    inside = []
    real = solver_mod._nt_scaling

    def spy(*args):
        inside.append(_thread_counts(blas_at_two))
        return real(*args)

    monkeypatch.setattr(solver_mod, "_nt_scaling", spy)
    sol = solve(_box_program())
    assert sol.status == "optimal"
    assert inside and all(counts == [1] * len(blas_at_two) for counts in inside)
    assert _thread_counts(blas_at_two) == outside


def test_breakdown_restores_blas_threads(monkeypatch, blas_at_two):
    outside = _thread_counts(blas_at_two)

    def failing(*args):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(solver_mod, "svd", failing)
    assert solve(_box_program()).status == MAX_ITER
    assert _thread_counts(blas_at_two) == outside
    # an exception escaping the body restores the counts as well
    monkeypatch.setattr(solver_mod, "_assemble", failing)
    with pytest.raises(np.linalg.LinAlgError):
        solve(_box_program())
    assert _thread_counts(blas_at_two) == outside


def test_concurrent_solves_restore_blas_threads(blas_at_two):
    outside = _thread_counts(blas_at_two)
    wrong = []

    def worker():
        for _ in range(200):
            with blas_mod.one_blas_thread():
                if _thread_counts(blas_at_two) != [1] * len(blas_at_two):
                    wrong.append(None)
        solve(_box_program())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
    assert _thread_counts(blas_at_two) == outside


def test_blas_limit_is_a_no_op_without_openblas(monkeypatch, tmp_path):
    real = blas_mod.blas_pools()  # the pools really loaded, to read their counts
    maps = tmp_path / "maps"
    maps.write_text("00400000-00452000 r-xp 00000000 08:02 173521 /usr/bin/python3\n")
    monkeypatch.setattr(blas_mod, "_MAPS", str(maps))
    assert blas_mod._find_pools() == []
    monkeypatch.setattr(blas_mod, "_MAPS", str(tmp_path / "absent"))
    assert blas_mod._find_pools() == []

    monkeypatch.setattr(blas_mod, "_pools", [])
    before = _thread_counts(real)
    with blas_mod.one_blas_thread():
        assert _thread_counts(real) == before
    assert solve(_box_program()).status == "optimal"
    assert _thread_counts(real) == before


def test_non_finite_data_returns_status(monkeypatch):
    prog = ConicProgram("min")
    prog.nonneg_block("x", 1)
    prog.set_objective({"x": [np.inf]})
    prog.add_constraint({"x": [1.0]}, "==", 1.0)
    sol = solve(prog)
    assert sol.status == MAX_ITER and sol.reason == "non_finite"
    assert sol.primal_value is None and sol.blocks == {}
    # in a row that the free columns' elimination takes out of the iteration
    prog = ConicProgram("min")
    prog.nonneg_block("x", 1)
    prog.free_block("f", 1)
    prog.set_objective({"x": [1.0], "f": [1.0]})
    prog.add_constraint({"x": [1.0], "f": [1.0]}, "==", np.inf)
    prog.add_constraint({"x": [1.0]}, "<=", 5.0)
    sol = solve(prog)
    assert sol.status == MAX_ITER and sol.reason == "non_finite"
    # in the LMI form that row is an equality row, which the reduction takes out
    monkeypatch.setattr(solver_mod, "_form", lambda prog: "lmi")
    sol = solve(prog)
    assert (sol.status, sol.reason, sol.form, sol.iterations) == (MAX_ITER, "non_finite", "lmi", 0)


def test_solver_error_carries_status():
    err = SolverError("boom", "infeasible")
    assert err.status == "infeasible"
    assert "boom" in str(err)


# -- operator constraints ----------------------------------------------------

DA, DB = 2, 3
EYE6 = np.eye(DA * DB)


def _parts(x):
    return x.reshape(DA, DB, DA, DB)


def _pt(x):
    return _parts(x).transpose(0, 3, 2, 1).reshape(DA * DB, DA * DB)


# a fixed complex unitary, so that the map X -> U X U^dag has complex images
U6 = np.linalg.qr(random_herm(6, np.random.default_rng(7)) + 1j * np.eye(6))[0]


def _embed(x):
    out = np.zeros((2 * DA * DB, 2 * DA * DB), dtype=complex)
    out[DA * DB :, DA * DB :] = x
    return out


def _operator(kind, size, fn):
    """The sparse matrix of the map ``fn`` on a block of ``kind`` and ``size``,
    by calling it on each unit: column u is the row-major vec of fn(e_u).
    The dense reference for the maps written below as functions."""
    width = size * size if kind == "herm" else size
    units = np.eye(width).reshape((width, size, size) if kind == "herm" else (width, size))
    return sp.csc_array(np.stack([np.ravel(fn(u)).astype(complex) for u in units], axis=1))


LIFT = _operator("herm", DA, lambda x: np.kron(x, np.eye(DB)))
PT = _operator("herm", DA * DB, _pt)


def _eye(side):
    return sp.identity(side * side, format="csr")


# (block kind, block size, forward map, its adjoint written out by hand)
OPERATOR_MAPS = {
    "identity": ("herm", 6, lambda w: w, lambda b: b),
    "partial_transpose": ("herm", 6, _pt, _pt),
    "unitary_conjugation": (
        "herm", 6, lambda w: U6 @ w @ U6.conj().T, lambda b: U6.conj().T @ b @ U6
    ),
    "x_kron_1": (
        "herm", DA, lambda x: np.kron(x, np.eye(DB)),
        lambda b: np.trace(_parts(b), axis1=1, axis2=3),
    ),
    "1_kron_x": (
        "herm", DB, lambda x: np.kron(np.eye(DA), x),
        lambda b: np.trace(_parts(b), axis1=0, axis2=2),
    ),
    "t_times_1": ("free", 1, lambda t: t[0] * EYE6, lambda b: [np.trace(b).real]),
    "block_embedding": ("herm", 6, _embed, lambda b: b[DA * DB :, DA * DB :]),
    "partial_trace": (
        "herm", 6, lambda w: np.trace(_parts(w), axis1=1, axis2=3),
        lambda b: np.kron(b, np.eye(DB)),
    ),
    "block_extraction": ("herm", 12, lambda g: g[6:, 6:], _embed),
}


def _operator_program(kind, size):
    prog = ConicProgram("min")
    (prog.herm_block if kind == "herm" else prog.free_block)("X", size)
    return prog


def _stored(prog, name, width):
    """The program's coefficients on block ``name`` as a dense rows x width array."""
    rows, k, v = prog.coefficients(name)
    out = np.zeros((len(prog.rows), width))
    out[rows, k] = v
    return out


def _basis_coords(mats):
    """<B_k, C_i> = tr(B_k C_i) for each matrix C_i, over ``hermitian_basis``."""
    mats = np.asarray(mats)
    return np.einsum("kab,iba->ik", hermitian_basis(mats.shape[-1]), mats).real


@pytest.mark.parametrize("name", list(OPERATOR_MAPS))
def test_operator_rows_are_the_adjoint_expansion(name):
    kind, size, forward, adjoint = OPERATOR_MAPS[name]
    prog = _operator_program(kind, size)
    assert prog.add_operator_constraint({"X": _operator(kind, size, forward)}, "==", 0) is None
    side = np.shape(forward(np.eye(size)))[0]
    basis = hermitian_basis(side)
    assert prog.rows == [0.0] * len(basis)
    # row i holds L^dag(B_i): its Hermitian-basis coordinates, or its entries
    images = [np.asarray(adjoint(bmat)) for bmat in basis]
    want = _basis_coords(images) if kind == "herm" else np.real(images)
    got = _stored(prog, "X", want.shape[1])
    assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("relation, sign", [("==", 1.0), ("<=", 1.0), (">=", -1.0)])
def test_operator_inequality_adds_one_slack_block(relation, sign):
    rhs = random_herm(DA * DB)
    prog = ConicProgram("min")
    prog.herm_block("X", DA)
    prog.herm_block("Y", DA * DB)
    slack = prog.add_operator_constraint({"X": LIFT, "Y": PT}, relation, rhs)
    added = [blk for blk in prog.blocks if blk.name not in ("X", "Y")]
    if relation == "==":
        assert slack is None and not added
    else:
        assert [(blk.name, blk.kind, blk.size) for blk in added] == [
            (slack, HERM_PSD, DA * DB)
        ]
    # Z = rhs - sum for "<=", Z = sum - rhs for ">=": sign * sum + Z = sign * rhs
    basis = hermitian_basis(DA * DB)
    n = len(basis)
    assert len(prog.rows) == n
    want_y = sign * _basis_coords([_pt(bmat) for bmat in basis])
    assert np.max(np.abs(_stored(prog, "Y", n) - want_y)) <= 1e-15
    for b, bmat in zip(prog.rows, basis):
        assert abs(b - sign * np.trace(bmat @ rhs).real) <= 1e-15
    if slack is not None:
        assert np.max(np.abs(_stored(prog, slack, n) - _basis_coords(basis))) <= 1e-15


@pytest.mark.parametrize("relation, coeff", [("<=", 1.0), (">=", -1.0)])
def test_scalar_inequality_adds_one_nonneg_slack(relation, coeff):
    prog = ConicProgram("min")
    prog.herm_block("X", 2)
    assert prog.add_constraint({"X": np.eye(2)}, "==", 2.0) is None
    slack = prog.add_constraint({"X": np.diag([1.0, 3.0])}, relation, 1.0)
    assert slack.startswith(SLACK_PREFIX)
    assert [(blk.name, blk.kind, blk.size) for blk in prog.blocks] == [
        ("X", HERM_PSD, 2), (slack, NONNEG, 1)
    ]
    assert prog.rows == [2.0, 1.0]
    assert np.array_equal(_stored(prog, "X", 4), [[1, 1, 0, 0], [1, 3, 0, 0]])
    assert np.array_equal(_stored(prog, slack, 1), [[0.0], [coeff]])
    # a bad relation or an unknown block leaves the program as it was
    for terms, bad in (({"X": np.eye(2)}, "=<"), ({"Y": [1.0]}, relation)):
        with pytest.raises(ValueError):
            prog.add_constraint(terms, bad, 0.0)
    assert prog.rows == [2.0, 1.0] and len(prog.blocks) == 2


def test_slack_names_are_reserved():
    prog = ConicProgram("min")
    prog.herm_block("X", 2)
    slack = prog.add_operator_constraint({"X": _eye(2)}, "<=", np.eye(2))
    assert slack != prog.add_operator_constraint({"X": _eye(2)}, ">=", 0)
    with pytest.raises(ValueError):
        prog.herm_block(slack, 2)
    with pytest.raises(ValueError):
        prog.free_block("slack#99", 1)


@pytest.mark.parametrize(
    "kind, size, bad_map",
    [
        pytest.param("herm", 6, sp.csr_array((18, 36)), id="rows_not_a_square"),
        pytest.param("herm", 6, sp.csr_array((36, 6)), id="not_the_36_columns"),
        pytest.param("free", 2, sp.csr_array((4, 3)), id="not_the_2_columns"),
        # not Hermitian-preserving
        pytest.param("herm", 6, lambda w: 1j * w, id="herm-6-<lambda>2"),
        pytest.param("herm", 6, lambda w: w @ np.triu(np.ones((6, 6))), id="herm-6-<lambda>3"),
        pytest.param("free", 1, lambda t: t[0] * np.triu(np.ones((3, 3))), id="free-1-<lambda>"),
    ],
)
def test_operator_map_of_wrong_shape_or_not_hermitian_is_rejected(kind, size, bad_map):
    prog = _operator_program(kind, size)
    if callable(bad_map):
        bad_map = _operator(kind, size, bad_map)
    with pytest.raises(ValueError, match="map of block 'X'"):
        prog.add_operator_constraint({"X": bad_map}, "==", 0)
    assert not prog.rows


def test_operator_constraint_takes_sparse_operators_only():
    prog = _operator_program("herm", 2)
    for dense in (lambda x: x, np.eye(4)):
        with pytest.raises(TypeError, match="map of block 'X'"):
            prog.add_operator_constraint({"X": dense}, "==", 0)
    assert not prog.rows and len(prog.blocks) == 1


def test_operator_constraint_rejects_bad_terms_and_rhs():
    prog = ConicProgram("min")
    prog.herm_block("X", 2)
    prog.herm_block("Y", 3)
    with pytest.raises(ValueError, match="map of block 'X'"):  # the terms disagree on the side
        prog.add_operator_constraint({"X": _eye(2), "Y": _eye(3)}, "==", 0)
    for rhs in (1.0, np.eye(3), np.array([[0, 1], [0, 0]])):
        with pytest.raises(ValueError):
            prog.add_operator_constraint({"X": _eye(2)}, "<=", rhs)
    with pytest.raises(ValueError):
        prog.add_operator_constraint({"Z": _eye(2)}, "==", 0)
    with pytest.raises(ValueError):
        prog.add_operator_constraint({"X": _eye(2)}, "=<", 0)
    assert not prog.rows and [blk.name for blk in prog.blocks] == ["X", "Y"]


@pytest.mark.parametrize("seed", [3, 4])
def test_largest_eigenvalue_through_an_operator_constraint(seed):
    # lambda_max(A) = min t subject to t 1 - A >= 0
    a = random_herm(4, np.random.default_rng(seed))
    prog = ConicProgram("min")
    prog.free_block("t", 1)
    prog.set_objective({"t": [1.0]})
    prog.add_operator_constraint({"t": sp.csr_array(np.eye(4).reshape(16, 1))}, ">=", a)
    sol = solve(prog)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - np.linalg.eigvalsh(a)[-1]) < 1e-7


def _sector_program(sectors):
    # max <C, X> over tr X = 1 and X <= 0.8 I, C zero off the sectors (0, 2), (1,)
    c = np.array([[1.0, 0.0, 0.5j], [0.0, 2.0, 0.0], [-0.5j, 0.0, 3.0]])
    prog = ConicProgram("max")
    prog.herm_block("X", 3, sectors)
    prog.set_objective({"X": c})
    prog.add_constraint({"X": np.eye(3)}, "==", 1.0)
    slack = prog.add_operator_constraint({"X": _eye(3)}, "<=", 0.8 * np.eye(3), sectors)
    return prog, slack


def test_sectored_block_states_only_in_sector_rows():
    sectors = ((0, 2), (1,))
    prog, slack = _sector_program(sectors)
    assert [(blk.name, blk.kind, blk.size) for blk in prog.blocks] == [
        ("X[0]", HERM_PSD, 2), ("X[1]", HERM_PSD, 1),
        (f"{slack}[0]", HERM_PSD, 2), (f"{slack}[1]", HERM_PSD, 1),
    ]
    assert len(prog.rows) == 1 + 4 + 1
    sol, dense = solve(prog), solve(_sector_program(None)[0])
    assert sol.status == dense.status == "optimal"
    assert abs(sol.primal_value - dense.primal_value) <= 1e-7
    # the solution holds the declared blocks, full size and zero off the sectors
    assert sol.blocks.keys() == {"X", slack}
    x = sol.blocks["X"]
    assert x.shape == (3, 3) and x[0, 1] == x[1, 2] == 0.0
    assert abs(np.trace(x).real - 1.0) <= 1e-7
    # a coefficient, rhs or image off its sectors is refused, and adds nothing
    with pytest.raises(ValueError, match="off its sectors"):
        prog.add_constraint({"X": np.ones((3, 3))}, "==", 1.0)
    with pytest.raises(ValueError, match="off its sectors"):
        prog.set_objective({"X": np.ones((3, 3))})
    with pytest.raises(ValueError, match="off its sectors"):
        prog.add_operator_constraint({"X": _eye(3)}, "<=", np.ones((3, 3)), sectors)
    with pytest.raises(ValueError, match="off its sectors"):
        prog.add_operator_constraint({"X": _eye(3)}, "==", 0, ((0, 1), (2,)))
    with pytest.raises(ValueError, match="partition"):
        prog.herm_block("Y", 3, ((0, 1), (1, 2)))
    assert len(prog.rows) == 6 and len(prog.blocks) == 4


def _pd_stack(count, side, rng):
    g = rng.normal(size=(count, side, side)) + 1j * rng.normal(size=(count, side, side))
    return g @ g.conj().transpose(0, 2, 1) / side + 1e-2 * np.eye(side)


def _herm_stack(count, side, rng):
    g = rng.normal(size=(count, side, side)) + 1j * rng.normal(size=(count, side, side))
    return g + g.conj().transpose(0, 2, 1)


@pytest.mark.parametrize("side", [1, 2, 4, 16])
def test_scaled_step_matches_an_eigenvalue_reference(side):
    rng = np.random.default_rng(side)
    x, s = _pd_stack(6, side, rng), _pd_stack(6, side, rng)
    dx, ds = _herm_stack(6, side, rng), _herm_stack(6, side, rng)

    def reference(m, d):
        # M + t D is PSD while I + t M^-1/2 D M^-1/2 is
        lam, v = np.linalg.eigh(m)
        isq = (v / np.sqrt(lam)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        lmin = np.linalg.eigvalsh(isq @ d @ isq).min()
        return np.inf if lmin >= 0 else -1.0 / lmin

    want = min(reference(x, dx), reference(s, ds))
    scal, _ = solver_mod._nt_scaling([x], [s])
    got, _ = solver_mod._max_step(scal, [dx], [ds])
    assert np.isfinite(want) and abs(got - want) <= 1e-10 * want


def test_a_failed_cone_takes_finite_stand_ins_and_flags_its_program_alone(monkeypatch):
    # two programs of two cones each, one after the other in the stack; the
    # second program's last X cone is not PD, so its Cholesky factor fails
    rng = np.random.default_rng(7)
    x, s = _pd_stack(4, 3, rng), _pd_stack(4, 3, rng)
    x[3] = -x[3]
    scal, failed = solver_mod._nt_scaling([x], [s], programs=2)
    assert failed.tolist() == [False, True]
    assert all(np.isfinite(part).all() for sc in scal for part in sc)
    # the step test's eigvalsh then fails on that cone too: the stacked call,
    # and the per-matrix call of the fourth matrix (X cones first, then S cones)
    real, calls = solver_mod.eigvalsh, []

    def failing(mats):
        calls.append(mats.ndim)
        if mats.ndim == 3 or len(calls) == 1 + 4:
            raise np.linalg.LinAlgError("did not converge")
        return real(mats)

    monkeypatch.setattr(solver_mod, "eigvalsh", failing)
    dx, ds = _herm_stack(4, 3, rng), _herm_stack(4, 3, rng)
    step, failed = solver_mod._max_step(scal, [dx], [ds], programs=2)
    assert calls == [3] + [2] * 8
    assert failed.tolist() == [False, True]
    assert np.isfinite(step).all()
