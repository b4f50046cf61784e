import logging
import sys
import threading

import numpy as np
import pytest
from scipy.optimize import linprog

import qcap.conic._blas as blas_mod
import qcap.conic.solver as solver_mod
from qcap.conic import MAX_ITER, ConicProgram, SolverError, solve

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


def test_dump_mentions_blocks_and_rows():
    prog = ConicProgram("min")
    prog.herm_block("X", 2)
    prog.set_objective({"X": np.eye(2)})
    prog.add_constraint({"X": np.eye(2)}, ">=", 1.0)
    text = prog.dump()
    assert "X" in text and ">=" in text


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


# one NT scaling per iteration; four PSD step-length probes per iteration
@pytest.mark.parametrize("target, healthy_calls", [("_nt_scaling", 3), ("_psd_max_step", 12)])
def test_breakdown_returns_status_instead_of_raising(monkeypatch, target, healthy_calls):
    clean = solve(_box_program())
    assert clean.status == "optimal" and clean.iterations > 4
    real = getattr(solver_mod, target)
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) > healthy_calls:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return real(*args)

    monkeypatch.setattr(solver_mod, target, failing)
    sol = solve(_box_program())
    assert sol.status == MAX_ITER
    assert sol.iterations == 4 < clean.iterations
    # the best iterate seen so far comes back with its residuals
    assert sol.blocks["X"].shape == (3, 3)
    assert np.isfinite(sol.primal_value) and np.isfinite(sol.primal_residual)


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

    monkeypatch.setattr(solver_mod, "_nt_scaling", failing)
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


def test_non_finite_data_returns_status():
    prog = ConicProgram("min")
    prog.nonneg_block("x", 1)
    prog.set_objective({"x": [np.inf]})
    prog.add_constraint({"x": [1.0]}, "==", 1.0)
    sol = solve(prog)
    assert sol.status == MAX_ITER
    assert sol.primal_value is None and sol.blocks == {}


def test_solver_error_carries_status():
    err = SolverError("boom", "infeasible")
    assert err.status == "infeasible"
    assert "boom" in str(err)
