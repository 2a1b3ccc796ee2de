import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import switchopt
from switchopt.benchmarks import CatalystParams, build_problem, \
    catalyst_switch_times
from switchopt.odeint import IntegratorSettings
from switchopt.cli import main, EXIT_OK, EXIT_CHECK_FAILED, EXIT_SOLVER, \
    EXIT_CONFIG


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in fh if line.strip()])
    return header, rows


def test_solve_catalyst_writes_report(tmp_path):
    code = main(["solve", "--problem", "catalyst1", "--T", "1",
                 "--s0", "0.1,0.7", "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["problem"] == "catalyst1"
    assert report["converged"]
    assert report["reference_errors"]["s1"] <= 1e-6
    assert report["reference_errors"]["s2"] <= 1e-6

    header, rows = _read_csv(tmp_path / "trajectory.csv")
    assert header == ["t", "x1", "x2", "u1", "p1", "p2"]
    assert rows[0, 0] == 0.0
    assert rows[-1, 0] == pytest.approx(1.0)
    # control starts at the upper bound, ends at the lower one
    assert rows[0, 3] == 1.0
    assert rows[-1, 3] == 0.0


def _hamiltonian(name, path):
    """H = p . f(x, u) at every row of a trajectory.csv."""
    header, rows = _read_csv(path)
    cols = {c: [i for i, h in enumerate(header) if h.startswith(c)]
            for c in "xup"}
    f = build_problem(name).f
    return np.array([row[cols["p"]] @ f(row[cols["x"]], row[cols["u"]])
                     for row in rows])


@pytest.mark.parametrize("tol", [None, "1e-10"], ids=["default", "tol1e-10"])
@pytest.mark.parametrize("name, argv", [
    ("catalyst1", ["--s0", "0.1,0.7"]),
    ("catalyst2", ["--s0", "0.1,0.7", "--p0", "0.9,0.8"]),
    ("goddard", ["--s0", "13,21", "--T", "42"]),
])
def test_readme_solve_trajectory_holds_its_hamiltonian(tmp_path, name, argv,
                                                       tol):
    # the benchmark's trajectory checks, at the README command's tolerance
    # and the benchmark's: H is constant along the catalyst problems'
    # optimal autonomous trajectories (spread <= 1e-7; catalyst2's p comes
    # from the forward sweep, catalyst1's from the backward one) and
    # vanishes along goddard's free-time one (max |H| <= 1e-3), between
    # the nodes too
    argv = ["solve", "--problem", name, *argv]
    assert argv in README_COMMANDS
    code = main(argv + ([] if tol is None else ["--ode-tol", tol])
                + ["--out", str(tmp_path)])
    assert code == EXIT_OK
    H = _hamiltonian(name, tmp_path / "trajectory.csv")
    if name.startswith("catalyst"):
        assert np.ptp(H) <= 1e-7
    else:
        assert np.max(np.abs(H)) <= 1e-3


def _readme_commands():
    """The `switchopt ...` lines of the README's sh blocks, as argv lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [line.split()[1:]
            for block in re.findall(r"```sh\n(.*?)```", text, re.S)
            for line in block.splitlines() if line.startswith("switchopt ")]


README_COMMANDS = _readme_commands()
README_CATALYST2 = ["solve", "--problem", "catalyst2", "--s0", "0.1,0.7",
                    "--p0", "0.9,0.8"]


def _run_cli(argv, out, timeout):
    """Run ``python -m switchopt.cli`` on this source tree."""
    src = str(Path(switchopt.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "switchopt.cli", *argv, "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=timeout)


def test_readme_catalyst2_solve_ends_in_bounded_time(tmp_path):
    # README command at the default --ode-tol; early line-search trials
    # run into the singular feedback's pole and must fail fast
    assert README_CATALYST2 in README_COMMANDS
    proc = _run_cli(README_CATALYST2, tmp_path, 20)
    assert proc.returncode == EXIT_OK, proc.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    np.testing.assert_allclose(report["s"],
                               catalyst_switch_times(CatalystParams(T=1.0)),
                               atol=1e-4)
    assert report["objective_evals"] > report["gradient_evals"]


@pytest.mark.parametrize(
    "argv", [c for c in README_COMMANDS if c != README_CATALYST2],
    ids=" ".join)
def test_readme_command_exits_ok(tmp_path, argv):
    proc = _run_cli(argv, tmp_path, 30)
    assert proc.returncode == EXIT_OK, proc.stderr


def test_solve_secant_bressan(tmp_path):
    code = main(["solve", "--problem", "bressan", "--secant",
                 "--bracket", "3,4", "--opt-tol", "1e-12",
                 "--ode-tol", "1e-11", "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert abs(report["s"][0] - 10.0 / 3.0) <= 1e-10


def test_solve_secant_converged_reads_stationarity(tmp_path):
    # no |dC/ds1| reaches 1e-30: the secant stops on its step size instead,
    # and the report must not call that converged
    code = main(["solve", "--problem", "bressan", "--secant",
                 "--bracket", "3,4", "--opt-tol", "1e-30",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert abs(report["s"][0] - 10.0 / 3.0) <= 1e-10
    assert report["stationarity"] > 1e-30 and not report["converged"]


def test_solve_misordered_exits_3(tmp_path, capsys):
    code = main(["solve", "--problem", "catalyst1", "--T", "1",
                 "--s0", "0.7,0.1", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "ordering" in capsys.readouterr().err


@pytest.mark.parametrize("T", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("command", [
    ["warmstart", "--problem", "catalyst1"],
    ["solve", "--problem", "goddard", "--s0", "13,21"],
], ids=lambda c: c[0])
def test_bad_horizon_exits_3(tmp_path, capsys, command, T):
    code = main([*command, "--T", T, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("T, expected", [("7", EXIT_CONFIG), ("5", EXIT_OK)])
def test_jacobson_horizon_is_fixed(tmp_path, capsys, T, expected):
    code = main(["solve", "--problem", "jacobson", "--T", T, "--secant",
                 "--bracket", "1.41,1.42", "--out", str(tmp_path)])
    assert code == expected
    assert ("configuration error" in capsys.readouterr().err) \
        == (expected == EXIT_CONFIG)


def test_solve_unknown_problem_exits_3(tmp_path):
    code = main(["solve", "--problem", "nosuch", "--s0", "0.5",
                 "--out", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_solve_missing_costate_exits_3(tmp_path):
    code = main(["solve", "--problem", "catalyst2", "--T", "1",
                 "--s0", "0.1,0.7", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("command", ["solve", "gradcheck"])
def test_case1_costate_exits_3(tmp_path, capsys, command):
    code = main([command, "--problem", "catalyst1", "--s0", "0.1,0.7",
                 "--p0", "5,5", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "Case 1 takes 0" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_solve_secant_divergence_exits_2(tmp_path, capsys):
    code = main(["solve", "--problem", "jacobson", "--secant",
                 "--bracket", "4.70,4.71", "--out", str(tmp_path)])
    assert code == EXIT_SOLVER
    assert "SecantDivergence" in capsys.readouterr().err


def test_solve_with_warmstart_chain(tmp_path):
    code = main(["solve", "--problem", "catalyst1", "--T", "1",
                 "--warmstart", "--N", "100", "--rho-tv", "1e-3",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["reference_errors"]["s1"] <= 1e-6


def test_report_json_round_trips(tmp_path):
    main(["solve", "--problem", "catalyst1", "--T", "1",
          "--s0", "0.1,0.7", "--out", str(tmp_path)])
    text = (tmp_path / "report.json").read_text()
    again = json.dumps(json.loads(text), indent=2) + "\n"
    assert again == text


def test_warmstart_command(tmp_path):
    code = main(["warmstart", "--problem", "catalyst1", "--T", "1",
                 "--N", "100", "--rho-tv", "1e-3", "--out", str(tmp_path)])
    assert code == EXIT_OK
    structure = json.loads((tmp_path / "structure.json").read_text())
    assert len(structure["switch_times"]) == 2
    assert structure["phase_kinds"] == ["bang-high", "singular", "bang-low"]
    header, rows = _read_csv(tmp_path / "u_profile.csv")
    assert header == ["t", "u1"]
    assert rows.shape == (100, 2)


def test_warmstart_no_structure_exits_2(tmp_path, capsys):
    code = main(["warmstart", "--problem", "catalyst1", "--T", "1",
                 "--N", "100", "--rho-tv", "0", "--out", str(tmp_path)])
    assert code == EXIT_SOLVER
    assert "NoStructure" in capsys.readouterr().err


def test_gradcheck_passes(capsys):
    code = main(["gradcheck", "--problem", "catalyst1", "--T", "1",
                 "--s0", "0.15,0.7", "--ode-tol", "1e-11"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "d_s1" in out and "MISMATCH" not in out


def test_gradcheck_case2(capsys):
    code = main(["gradcheck", "--problem", "catalyst2", "--T", "1",
                 "--s0", "0.1,0.7", "--p0", "0.9,0.8",
                 "--ode-tol", "1e-11"])
    assert code == EXIT_OK
    assert "d_p01" in capsys.readouterr().out


def test_gradcheck_goddard(capsys):
    code = main(["gradcheck", "--problem", "goddard", "--T", "42",
                 "--s0", "13,21", "--ode-tol", "1e-11"])
    assert code == EXIT_OK
    assert "d_T" in capsys.readouterr().out


def test_profile_bressan(tmp_path, capsys):
    code = main(["profile", "--problem", "bressan", "--grid", "3.0,3.7,15",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    header, rows = _read_csv(tmp_path / "derivative_profile.csv")
    assert header == ["s", "dC_ds1"]
    assert rows.shape == (15, 2)
    assert "1 sign changes" in capsys.readouterr().out


def test_profile_single_point(tmp_path):
    code = main(["profile", "--problem", "bressan", "--grid", "3.3,3.3,1",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    _, rows = _read_csv(tmp_path / "derivative_profile.csv")
    assert rows.shape == (1, 2)


@pytest.mark.parametrize("grid", ["1.38,1.48,0", "1.38,1.48", "1.38,1.48,2.5",
                                  "1.38,1.48,3,4", "a,1.48,3"])
def test_profile_bad_grid_exits_config(tmp_path, capsys, grid):
    code = main(["profile", "--problem", "jacobson", "--grid", grid,
                 "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "--grid takes lo,hi,n with n >= 1" in capsys.readouterr().err
    assert not (tmp_path / "derivative_profile.csv").exists()


@pytest.mark.parametrize("argv", [
    ["profile", "--problem", "jacobson", "--grid", "1.38,nan,3"],
    ["solve", "--problem", "catalyst1", "--s0", "nan,0.7"],
    ["gradcheck", "--problem", "catalyst2", "--s0", "0.1,0.7",
     "--p0", "nan,0.8"],
    ["gradcheck", "--problem", "goddard", "--s0", "13,21", "--T", "inf"],
], ids=lambda argv: argv[0])
def test_non_finite_configuration_exits_config(tmp_path, capsys, argv):
    code = main([*argv, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    assert "non-finite" in err or "must be finite" in err


@pytest.mark.parametrize("flag, value", [
    ("--opt-tol", "inf"), ("--opt-tol", "nan"), ("--ode-tol", "inf")])
def test_non_finite_tolerance_exits_config(tmp_path, capsys, flag, value):
    code = main(["solve", "--problem", "catalyst1", "--s0", "0.1,0.7",
                 flag, value, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv, first, second", [
    pytest.param(["--problem", "catalyst2", "--warmstart", "--p0", "5,5"],
                 "--p0", "--warmstart", id="p0-warmstart"),
    pytest.param(["--problem", "catalyst1", "--warmstart", "--s0", "0.1,0.7"],
                 "--s0", "--warmstart", id="s0-warmstart"),
    pytest.param(["--problem", "jacobson", "--secant", "--bracket",
                  "1.41,1.42", "--s0", "1.4"], "--s0", "--secant",
                 id="s0-secant"),
    pytest.param(["--problem", "jacobson", "--secant", "--bracket",
                  "1.41,1.42", "--p0", "1,1"], "--p0", "--secant",
                 id="p0-secant"),
    pytest.param(["--problem", "jacobson", "--secant", "--bracket",
                  "1.41,1.42", "--warmstart"], "--secant", "--warmstart",
                 id="secant-warmstart"),
    pytest.param(["--problem", "catalyst1", "--s0", "0.1,0.7", "--bracket",
                  "0.1,0.2"], "--secant", "--bracket", id="bracket-alone"),
    pytest.param(["--problem", "jacobson", "--secant"], "--secant",
                 "--bracket", id="secant-alone"),
])
def test_solve_takes_exactly_one_start(tmp_path, capsys, argv, first,
                                       second):
    # these used to run from one of the starts and ignore the other
    code = main(["solve", *argv, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    assert "configuration error" in err and first in err and second in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command, alternatives", [
    ("solve", True), ("gradcheck", False)])
def test_missing_s0_names_the_commands_options(capsys, command,
                                               alternatives):
    code = main([command, "--problem", "catalyst1"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "--s0 is required" in err
    assert ("--secant/--warmstart" in err) == alternatives


def test_out_dir_from_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SPA_OUT_DIR", str(tmp_path / "envout"))
    code = main(["profile", "--problem", "bressan", "--grid", "3.3,3.3,1"])
    assert code == EXIT_OK
    assert (tmp_path / "envout" / "derivative_profile.csv").exists()


def test_csv_full_precision(tmp_path):
    main(["solve", "--problem", "catalyst1", "--T", "1",
          "--s0", "0.1,0.7", "--out", str(tmp_path)])
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    # 17 significant digits survive a parse/format round trip
    for field in lines[1].split(","):
        assert float(field) == float("%.17g" % float(field))
    assert any(len(f.replace("-", "").replace(".", "")) >= 16
               for f in lines[2].split(","))


def test_solve_sweep_jobs(tmp_path):
    code = main(["solve", "--problem", "jacobson,bressan", "--secant",
                 "--bracket", "1.41,1.42", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "jacobson" / "report.json").exists()
    assert (tmp_path / "bressan" / "report.json").exists()


def test_bad_flag_exits_config():
    assert main(["solve", "--nope"]) == EXIT_CONFIG


@pytest.mark.parametrize("flags", [
    ["--N", "0"], ["--N", "1"], ["--rho-tv", "nan"], ["--rho-tv", "-1"],
], ids=" ".join)
def test_warmstart_bad_mesh_exits_config(tmp_path, flags):
    # checked before any work: with a NaN weight every backtracking test is
    # false and the step would halve forever, and N = 0 divides by zero
    proc = _run_cli(["warmstart", "--problem", "catalyst1", *flags],
                    tmp_path, 30)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "configuration error" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["--problem", "catalyst1", "--T", "4", "--s0", "0.1,3.7"],
    ["--problem", "jacobson", "--secant", "--bracket", "1.41,1.42"],
])
def test_solve_writes_trajectory_of_final_sweep(tmp_path, monkeypatch, argv):
    # the CLI hands the solver's final gradient bundle to dense_trajectory,
    # so the trajectory costs no sweep of its own
    from switchopt import cli, gradients
    from switchopt.problem import SwitchConfig
    calls = []
    dense = gradients.dense_trajectory

    def recording(prob, cfg, settings=None,
                  sample_count=gradients.DEFAULT_SAMPLES, bundle=None):
        calls.append(bundle)
        return dense(prob, cfg, settings, sample_count, bundle)

    monkeypatch.setattr(cli, "dense_trajectory", recording)
    assert main(["solve", *argv, "--out", str(tmp_path)]) == EXIT_OK
    assert len(calls) == 1 and calls[0] is not None
    report = json.loads((tmp_path / "report.json").read_text())
    prob = cli.build_problem(report["problem"],
                             4.0 if report["problem"] == "catalyst1" else None)
    cfg = SwitchConfig(s=np.array(report["s"]))
    times, xs, us, ps = dense(prob, cfg, IntegratorSettings())
    _, rows = _read_csv(tmp_path / "trajectory.csv")
    assert np.array_equal(rows, np.column_stack([times, xs, us, ps]))


@pytest.mark.parametrize("argv, last", [
    (["--problem", "catalyst1", "--T", "4", "--s0", "0.1,3.7"], "minimize"),
    (["--problem", "jacobson", "--secant", "--bracket", "1.41,1.42"],
     "evaluate_gradient"),
], ids=["minimize", "secant"])
def test_solve_integrates_nothing_after_last_gradient(tmp_path, monkeypatch,
                                                      argv, last):
    # once the solver (or, after a secant solve, the one evaluation of its
    # root) has returned, the report and trajectory.csv come from its bundle
    from switchopt import cli, gradients

    def forbidden(*args, **kwargs):
        raise AssertionError("integrated after the last gradient")

    def then_forbid(fn):
        def run(*args, **kwargs):
            out = fn(*args, **kwargs)
            for name in ("integrate_piecewise", "forward_sweep",
                         "backward_sweep"):
                monkeypatch.setattr(gradients, name, forbidden)
            return out
        return run

    monkeypatch.setattr(cli, last, then_forbid(getattr(cli, last)))
    assert main(["solve", *argv, "--out", str(tmp_path)]) == EXIT_OK
    assert gradients.forward_sweep is forbidden
    header, rows = _read_csv(tmp_path / "trajectory.csv")
    assert rows.shape == (gradients.DEFAULT_SAMPLES, len(header))


@pytest.mark.parametrize("bracket", ["3.0,3.0", "3.0,3.00000000000005"])
def test_solve_secant_degenerate_bracket_exits_3(tmp_path, capsys, bracket):
    # ends closer than 1e-14 * T: the secant has no step to take, and used
    # to report s = 3.0 as converged with dC/ds1 = 10.5
    code = main(["solve", "--problem", "bressan", "--secant",
                 "--bracket", bracket, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
