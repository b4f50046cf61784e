import dataclasses
import json
import logging
import math
import subprocess
import sys

import pytest

from qcap.asymptotic import q_gamma, q_theta
from qcap.channels import depolarizing, identity_channel, save_channel
import qcap.cli as cli
from qcap.cli import _fmt, main, run_custom, run_fig1, run_fig2, run_fig3
from qcap.depolarizing_lp import lp_f, lp_g_hat_iterate
from qcap.oneshot import bound_g


def test_fmt_full_precision():
    assert _fmt(0.1) == "0.10000000000000001"
    assert _fmt(3) == "3"
    assert _fmt("optimal") == "optimal"


def test_fig1_rows_are_ordered():
    rows = run_fig1(r_min=0.085, r_max=0.09, steps=2, eps=0.01, jobs=1)
    assert [row[0] for row in rows] == [0.085, 0.09]
    for r, neg_f, neg_g, neg_gt, status in rows:
        assert status == "optimal"
        # tighter relaxations certify lower rates
        assert neg_gt <= neg_g + 1e-7
        assert neg_g <= neg_f + 1e-7


def test_fig1_grid_validation():
    with pytest.raises(ValueError):
        run_fig1(r_min=0.5, r_max=0.2)
    with pytest.raises(ValueError):
        run_fig1(steps=1)


def test_fig2_rows_match_library_calls():
    rows = run_fig2(n_max=3, jobs=1)
    assert [row[0] for row in rows] == [1, 2, 3]
    for n, neg_f, neg_gh, status in rows:
        assert status == "optimal"
        assert neg_f == lp_f(n, 0.2, 0.004).log_value
        assert neg_gh == lp_g_hat_iterate(n, 0.2, 0.004, 5)[-1].log_value


def test_fig2_validation():
    with pytest.raises(ValueError):
        run_fig2(n_max=0)


def test_fig3_rows():
    rows = run_fig3(steps=3, jobs=1)
    assert [row[0] for row in rows] == [0.0, 0.25, 0.5]
    for r, qg, qt, status in rows:
        assert status == "optimal"
        assert qg <= qt + 1e-6
    with pytest.raises(ValueError):
        run_fig3(steps=1)


def test_fig3_is_a_fixed_custom_sweep():
    assert run_fig3(steps=3, jobs=1) == run_custom("nr", ["q_gamma", "q_theta"], 0.0, 0.5, 3, jobs=1)


def test_custom_single_point():
    rows = run_custom("depol", ["g"], 0.1, 0.1, 1, eps=0.05, jobs=1)
    assert len(rows) == 1
    r, neg_g, status = rows[0]
    assert r == 0.1
    assert status == "optimal"
    assert abs(neg_g - bound_g(depolarizing(0.1), 0.05).log_value) < 1e-12


def test_custom_validation():
    with pytest.raises(ValueError):
        run_custom("nope", ["g"], 0.0, 1.0, 2)
    with pytest.raises(ValueError):
        run_custom("ad", ["nope"], 0.0, 1.0, 2)
    with pytest.raises(ValueError):
        run_custom("ad", [], 0.0, 1.0, 2)
    with pytest.raises(ValueError):
        run_custom("ad", ["g"], 1.0, 0.0, 2)


def test_pool_matches_serial():
    assert run_fig2(n_max=4, jobs=2) == run_fig2(n_max=4, jobs=1)
    with pytest.raises(ValueError):
        run_fig2(n_max=2, jobs=0)


def test_main_requires_a_mode(capsys):
    assert main([]) == 2
    assert "choose" in capsys.readouterr().err


def test_main_rejects_unknown_bound_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--channel", "x.json", "--bound", "nope"])
    assert exc.value.code == 2


def test_main_eval_identity(tmp_path, capsys):
    path = str(tmp_path / "id.json")
    save_channel(identity_channel(2), path)
    assert main(["--channel", path, "--bound", "q_gamma"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "optimal"
    assert abs(payload["log_value"] - 1.0) < 1e-6
    assert payload["reason"] == "converged" and payload["iterations"] >= 1
    assert payload["form"] == "eq"  # a qubit program is too small for the LMI form


def test_main_eval_iterated_bound(tmp_path, capsys):
    path = str(tmp_path / "id.json")
    save_channel(identity_channel(2), path)
    assert main(["--channel", path, "--bound", "g_hat", "--rounds", "2", "--eps", "0.01"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "optimal"
    assert abs(payload["value"] - 0.495) < 1e-6


def test_main_eval_input_errors(tmp_path, capsys):
    path = str(tmp_path / "id.json")
    save_channel(identity_channel(2), path)
    assert main(["--channel", path]) == 2
    assert main(["--channel", path, "--bound", "f", "--bound", "g"]) == 2
    assert main(["--channel", str(tmp_path / "missing.json"), "--bound", "f"]) == 2
    capsys.readouterr()


def test_main_config_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"experiment": "fig2_depol", "n_max": 2, "eps": 0.05}))
    out = tmp_path / "rows.csv"
    assert main(["--config", str(cfg), "--n-max", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,neg_log_f,neg_log_g_hat,status"
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "1"
    # the config eps survives the n_max override
    assert math.isclose(float(cells[1]), lp_f(1, 0.2, 0.05).log_value, rel_tol=0, abs_tol=0)
    capsys.readouterr()


def test_main_config_rejections(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "fig2_depol", "bogus": 1}))
    assert main(["--config", str(bad)]) == 2
    assert "unknown config fields" in capsys.readouterr().err
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps({"experiment": "fig2_depol", "seed": 1}))
    assert main(["--config", str(seeded)]) == 2
    assert "unknown config fields ['seed']" in capsys.readouterr().err
    for field, cfg in (
        ("steps", {"experiment": "fig3_nr", "steps": "4"}),
        ("bounds", {"experiment": "custom", "family": "nr", "bounds": "q_gamma",
                    "r_min": 0.1, "r_max": 0.2, "steps": 2}),
    ):
        typed = tmp_path / f"{field}.json"
        typed.write_text(json.dumps(cfg))
        assert main(["--config", str(typed)]) == 2
        assert f"config field {field!r} must be" in capsys.readouterr().err
    notdict = tmp_path / "list.json"
    notdict.write_text("[1, 2]")
    assert main(["--config", str(notdict)]) == 2
    assert main(["--config", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()


def test_main_custom_needs_grid(capsys):
    assert main(["--experiment", "custom", "--family", "ad", "--bound", "g"]) == 2
    assert "r-min" in capsys.readouterr().err


def test_flags_and_runner_parameters_are_spec_fields():
    spec_fields = {f.name for f in dataclasses.fields(cli.SweepSpec)}
    assert spec_fields <= set(vars(cli._build_parser().parse_args([])))
    for _, params, _ in cli._EXPERIMENTS.values():
        assert set(params) <= spec_fields


def test_main_passes_only_the_runner_fields(monkeypatch, capsys):
    seen = {}

    def fake_fig3(**kwargs):
        seen.update(kwargs)
        return [(0.0, 1.0, 1.0, "optimal")]

    monkeypatch.setattr(cli, "run_fig3", fake_fig3)
    # --r-min and --eps do not apply to fig3_nr and are ignored
    assert main(["--experiment", "fig3_nr", "--r-min", "0.2", "--eps", "0.3", "--steps", "5"]) == 0
    assert seen == {"steps": 5}
    assert capsys.readouterr().out == "r,q_gamma,q_theta,status\n0,1,1,optimal\n"


def test_cli_subprocess_deterministic(tmp_path):
    cmd = [sys.executable, "-m", "qcap.cli", "--experiment", "fig2_depol", "--n-max", "5"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.startswith("n,neg_log_f,neg_log_g_hat,status\n")
    assert first.stdout.endswith("\n")
    assert len(first.stdout.splitlines()) == 6


def test_failed_row_reports_exception_on_stderr(monkeypatch, tmp_path, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "q_theta_program", broken)
    # logging left unconfigured, as in a shell run: the record reaches stderr
    monkeypatch.setattr(logging.getLogger(), "handlers", [])
    out = tmp_path / "rows.csv"
    assert main(["--experiment", "fig3_nr", "--steps", "2", "--jobs", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "row fig3_nr r=0 failed: RuntimeError: boom" in err
    assert "row fig3_nr r=0.5 failed: RuntimeError: boom" in err
    assert out.read_text() == "r,q_gamma,q_theta,status\n0,nan,nan,error\n0.5,nan,nan,error\n"


def test_failed_custom_row_uses_the_patched_bound(monkeypatch, tmp_path, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "g_program", broken)
    monkeypatch.setattr(logging.getLogger(), "handlers", [])
    out = tmp_path / "rows.csv"
    argv = ["--experiment", "custom", "--family", "depol", "--bound", "g",
            "--r-min", "0.1", "--r-max", "0.2", "--steps", "2", "--jobs", "1", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    for r in ("0.10000000000000001", "0.20000000000000001"):
        assert f"row custom depol r={r} failed: RuntimeError: boom" in err
    assert out.read_text() == "r,g,status\n0.10000000000000001,nan,error\n0.20000000000000001,nan,error\n"


def test_failed_row_reports_exception_from_pool_workers():
    cmd = [sys.executable, "-m", "qcap.cli", "--experiment", "custom", "--family", "ad",
           "--bound", "g", "--r-min", "0.1", "--r-max", "0.2", "--steps", "2", "--eps", "1.5",
           "--jobs", "2"]
    run = subprocess.run(cmd, capture_output=True, text=True)
    assert run.returncode == 1
    assert run.stdout == "r,g,status\n0.10000000000000001,nan,error\n0.20000000000000001,nan,error\n"
    for r in ("0.10000000000000001", "0.20000000000000001"):
        assert f"row custom ad r={r} failed: ValueError: " in run.stderr


def test_batched_rows_that_raise_leave_their_neighbours(monkeypatch, capsys):
    # every row's program of a bound is solved in one batch; the row whose
    # q_theta build raises and the row whose q_gamma solve raises are errors,
    # and every other row has its solo values
    grid = [0.0, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5]
    made, unsolvable = {}, []

    def build(r):
        made[r] = ch = cli.channel_nr(r)
        return ch

    real_theta, real_gamma, real_solve_all = cli.q_theta_program, cli.q_gamma_program, cli.solve_all

    def flaky_theta(ch):
        if ch is made[grid[2]]:
            raise RuntimeError("boom")
        return real_theta(ch)

    def gamma(ch):
        built = real_gamma(ch)
        if ch is made[grid[4]]:
            unsolvable.append(built[0])
        return built

    def solve_all(progs, *args):
        if any(prog is unsolvable[0] for prog in progs):
            raise ValueError("no solve")
        return real_solve_all(progs, *args)

    monkeypatch.setattr(cli, "q_theta_program", flaky_theta)
    monkeypatch.setattr(cli, "q_gamma_program", gamma)
    monkeypatch.setattr(cli, "solve_all", solve_all)
    monkeypatch.setattr(logging.getLogger(), "handlers", [])
    rows = cli._sweep("fig3_nr r", grid, build, ("q_gamma", "q_theta"), 1)
    err = capsys.readouterr().err
    assert "row fig3_nr r=0.20000000000000001 failed: RuntimeError: boom" in err
    assert "row fig3_nr r=0.40000000000000002 failed: ValueError: no solve" in err
    assert [row[0] for row in rows] == grid
    for r, qg, qt, status in rows:
        if r in (grid[2], grid[4]):
            assert math.isnan(qg) and math.isnan(qt) and status == "error"
            continue
        ch = made[r]
        assert (qg, qt, status) == (q_gamma(ch).log_value, q_theta(ch).log_value, "optimal")
