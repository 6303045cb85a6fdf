"""CLI contract: flags, CSV/JSON schemas, exit codes, determinism."""

import csv
import hashlib
import io
import json
import os
import select
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from m3ab import (
    Instance,
    ValidationConfig,
    best_treatment,
    load,
    preset,
    save,
    z_profile,
)
from m3ab import harness
from m3ab.cli import RUN_COLUMNS, SWEEP_COLUMNS, main
from m3ab.instances import table1


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- table1 ------------------------------------------------------------------


def test_table1_passes_self_check(capsys):
    code, out, err = run_cli(capsys, "table1")
    assert code == 0
    assert "0.4409" in out and "0.9946" in out and "0.2976" in out
    assert "within" in err


def test_table1_negative_control(capsys, monkeypatch):
    # Weakening the validation thresholds must flip the printed grid away
    # from the pinned values and trip the self-check.
    weak = ValidationConfig.bayesian([0.5, 0.5], [10.0, 10.0], 100)
    original = __import__("m3ab.instances", fromlist=["table1"]).table1()
    modified = Instance(means=original.means, stddevs=original.stddevs,
                        validation=weak)
    monkeypatch.setattr("m3ab.cli.table1", lambda: modified)
    code, out, err = run_cli(capsys, "table1")
    assert code == 1
    assert "mismatch" in err


# --- run ---------------------------------------------------------------------


def test_run_csv_shape(capsys):
    code, out, err = run_cli(
        capsys, "run", "--preset", "exp2", "--l", "1", "--algo", "shrvar",
        "--algo", "sh-z", "--budget", "400", "--budget", "600",
        "--reps", "40", "--seed", "3")
    assert code == 0
    header, rows = parse_csv(out)
    assert tuple(header) == RUN_COLUMNS
    assert len(rows) == 4  # 2 algos x 2 budgets
    assert {r[0] for r in rows} == {"shrvar", "sh-z"}
    assert all(r[2] == "40" for r in rows)
    assert all(r[-1] == "0.000" for r in rows)  # no --timing
    for r in rows:
        acc, lo, hi = float(r[3]), float(r[4]), float(r[5])
        assert 0.0 <= lo <= acc <= hi <= 1.0
    assert "cells" in err  # progress goes to stderr, not stdout


def test_run_deterministic_output_file(capsys, tmp_path):
    args = ("run", "--preset", "exp2", "--l", "2", "--algo", "shvar",
            "--budget", "500", "--reps", "30", "--seed", "9")
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(first))[0] == 0
    assert run_cli(capsys, *args, "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_run_rewards_paired_across_algorithms(capsys):
    base = ("run", "--preset", "exp2", "--l", "1", "--budget", "500",
            "--reps", "60", "--seed", "4")
    _, solo, _ = run_cli(capsys, *base, "--algo", "shrvar")
    _, duo, _ = run_cli(capsys, *base, "--algo", "shrvar", "--algo", "sh-z")
    solo_rows = parse_csv(solo)[1]
    duo_rows = parse_csv(duo)[1]
    shrvar_solo = [r for r in solo_rows if r[0] == "shrvar"]
    shrvar_duo = [r for r in duo_rows if r[0] == "shrvar"]
    assert shrvar_solo == shrvar_duo


def test_run_json_mirrors_csv_fields(capsys):
    args = ("run", "--preset", "exp2", "--l", "1", "--algo", "shrvar",
            "--budget", "500", "--reps", "25", "--seed", "11")
    _, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
    _, json_out, _ = run_cli(capsys, *args, "--format", "json")
    rows = json.loads(json_out)["rows"]
    assert len(rows) == 1
    assert tuple(rows[0].keys()) == RUN_COLUMNS
    _, csv_rows = parse_csv(csv_out)
    assert f"{rows[0]['exploration_accuracy']:.6f}" == csv_rows[0][3]


def test_run_timing_flag(capsys):
    args = ("run", "--preset", "exp2", "--l", "1", "--algo", "shrvar",
            "--budget", "500", "--reps", "50", "--seed", "2", "--timing")
    _, out, _ = run_cli(capsys, *args)
    _, rows = parse_csv(out)
    assert float(rows[0][-1]) > 0.0


def test_run_thread_flag_does_not_change_output(capsys):
    args = ("run", "--preset", "exp2", "--l", "1", "--algo", "shrvar",
            "--budget", "500", "--reps", "24", "--seed", "6")
    _, single, _ = run_cli(capsys, *args, "--threads", "1")
    _, double, _ = run_cli(capsys, *args, "--threads", "2")
    assert single == double


def test_run_source_pulls_differs_but_valid(capsys):
    args = ("run", "--preset", "exp2", "--l", "1", "--algo", "shrvar",
            "--budget", "500", "--reps", "30", "--seed", "8")
    _, means_out, _ = run_cli(capsys, *args, "--source", "means")
    _, pulls_out, _ = run_cli(capsys, *args, "--source", "pulls")
    assert parse_csv(pulls_out)[0] == list(RUN_COLUMNS)
    assert means_out != pulls_out  # different simulation path, same contract


# --- exit codes --------------------------------------------------------------


def test_missing_algo_is_flag_error(capsys):
    code, _, err = run_cli(capsys, "run", "--preset", "exp1",
                           "--budget", "500")
    assert code == 2 and "--algo" in err


def test_missing_budget_is_flag_error(capsys):
    code, _, err = run_cli(capsys, "run", "--preset", "exp1",
                           "--algo", "shrvar")
    assert code == 2 and "--budget" in err


def test_unknown_algorithm_is_flag_error(capsys):
    code, _, _ = run_cli(capsys, "run", "--preset", "exp1",
                         "--algo", "dqn", "--budget", "500")
    assert code == 2


def test_unknown_preset_is_flag_error(capsys):
    code, _, _ = run_cli(capsys, "run", "--preset", "exp9",
                         "--algo", "shrvar", "--budget", "500")
    assert code == 2


def test_missing_instance_file_is_input_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "run", "--instance",
                           str(tmp_path / "nope.json"),
                           "--algo", "shrvar", "--budget", "500")
    assert code == 2 and "error" in err


def test_exp2_without_l_is_input_error(capsys):
    code, _, err = run_cli(capsys, "run", "--preset", "exp2",
                           "--algo", "shrvar", "--budget", "500")
    assert code == 2 and "exp2" in err


def test_infeasible_budget_exit_code_and_cell(capsys):
    code, out, err = run_cli(capsys, "run", "--preset", "exp1",
                             "--algo", "shrvar", "--budget", "3",
                             "--reps", "5")
    assert code == 3
    assert out == ""  # nothing written to the data stream
    assert "algorithm=shrvar" in err and "budget=3" in err


def test_no_command_is_flag_error(capsys):
    assert run_cli(capsys, )[0] == 2


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "run", "--help")[0] == 0


# --- sweep -------------------------------------------------------------------


def test_sweep_l_csv_shape(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--preset", "exp2", "--param", "l",
        "--values", "0,1,3", "--algo", "shrvar", "--algo", "sh",
        "--budget", "500", "--reps", "30", "--seed", "5")
    assert code == 0
    header, rows = parse_csv(out)
    assert tuple(header) == SWEEP_COLUMNS
    assert len(rows) == 6  # 3 values x 2 algos
    assert [r[1] for r in rows[:2]] == ["0", "0"]
    assert rows[0][0] == "l"


def test_sweep_budget_values_become_budgets(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--preset", "exp2", "--l", "1", "--param", "budget",
        "--values", "400,800", "--algo", "shrvar", "--reps", "20",
        "--seed", "5")
    assert code == 0
    _, rows = parse_csv(out)
    assert [(r[1], r[3]) for r in rows] == [("400", "400"), ("800", "800")]


def test_sweep_budget_conflicts_with_budget_flag(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--preset", "exp2", "--l", "1", "--param", "budget",
        "--values", "400", "--budget", "500", "--algo", "shrvar")
    assert code == 2 and "conflicts" in err


def test_sweep_l_requires_preset(capsys, tmp_path):
    path = tmp_path / "inst.json"
    assert run_cli(capsys, "gen", "--preset", "exp1", "--out", str(path))[0] == 0
    code, _, err = run_cli(
        capsys, "sweep", "--instance", str(path), "--param", "l",
        "--values", "1", "--algo", "shrvar", "--budget", "500")
    assert code == 2 and "--preset" in err


def test_sweep_t_v_odd_value_is_input_error(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--preset", "exp2", "--l", "1", "--param", "t_v",
        "--values", "101", "--algo", "shrvar", "--budget", "500",
        "--reps", "5")
    assert code == 2


def test_sweep_non_integer_budget_value_is_flag_error(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--preset", "exp2", "--l", "1", "--param", "budget",
        "--values", "400.5", "--algo", "shrvar", "--reps", "5")
    assert code == 2 and "budget values must be a whole number >= 1, got 400.5" in err
    code, _, err = run_cli(
        capsys, "sweep", "--preset", "exp2", "--l", "1", "--param", "t_v",
        "--values", "100,101.5", "--budget", "500", "--algo", "shrvar", "--reps", "5")
    assert code == 2 and "t_v values must be a whole number >= 1, got 101.5" in err


@pytest.mark.parametrize("param", ["budget", "t_v"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_sweep_non_finite_value_is_flag_error(capsys, param, value):
    budget = () if param == "budget" else ("--budget", "500")
    code, out, err = run_cli(
        capsys, "sweep", "--preset", "exp1", "--param", param,
        f"--values={value}", *budget, "--algo", "shrvar", "--reps", "2")
    assert code == 2 and out == ""
    assert "finite" in err


@pytest.mark.parametrize("algo", ["shrvar", "sh-z"])
def test_run_huge_budget_is_input_error(capsys, algo):
    code, out, err = run_cli(
        capsys, "run", "--preset", "exp1", "--algo", algo,
        "--budget", "99999999999999999999999", "--reps", "2")
    assert code == 2 and out == ""
    assert "stage_budget" in err and "2^40" in err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_non_integer_thread_env_names_the_variable(capsys, monkeypatch, command):
    monkeypatch.setenv("M3AB_THREADS", "abc")
    sweep = ("--param", "t_v", "--values", "100") if command == "sweep" else ()
    code, out, err = run_cli(
        capsys, command, "--preset", "exp1", "--algo", "shrvar",
        "--budget", "2000", "--reps", "2", *sweep)
    assert code == 2 and out == ""
    assert "M3AB_THREADS must be an integer, got 'abc'" in err


@pytest.mark.parametrize("param,values,budgets", [
    ("l", "2", ["500"]),  # one unit: split over the threads
    ("l", "1,4", ["500"]),  # two units: whole at 2 threads, split at 3
    ("l", "0,3", ["500", "700"]),  # four units: whole at 2, split at 3
    ("budget", "500,600,700", []),  # three units: split at 2, whole at 3
])
def test_sweep_thread_count_does_not_change_output(monkeypatch, capsys, param,
                                                   values, budgets):
    monkeypatch.setattr(harness, "_cpu_count", lambda: 4)  # chunks follow CPUs
    args = ["sweep", "--preset", "exp2", "--param", param, "--values", values,
            "--algo", "shrvar", "--algo", "sh", "--reps", "9", "--seed", "11"]
    if param != "l":
        args += ["--l", "2"]
    for budget in budgets:
        args += ["--budget", budget]
    outputs = [run_cli(capsys, *args, "--threads", threads)
               for threads in ("1", "2", "3")]
    assert outputs[0][0] == 0 and outputs[0][1].count("\n") > 2
    assert [out for _, out, _ in outputs] == [outputs[0][1]] * 3


def test_sweep_deterministic(capsys):
    args = ("sweep", "--preset", "exp2", "--param", "l", "--values", "2",
            "--algo", "shvar-z", "--budget", "500", "--reps", "25",
            "--seed", "13")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


# --- complexity --------------------------------------------------------------


def test_complexity_report_fields(capsys):
    code, out, _ = run_cli(capsys, "complexity", "--preset", "exp1",
                           "--budget", "0", "--budget", "120000")
    assert code == 0
    assert "H3:" in out and "H3':" in out and "delta_min:" in out
    assert "attaining subset:" in out
    assert "(vacuous)" in out          # budget 0 gives a bound >= 1
    assert "H3~=" in out               # corrected complexity at 120000
    assert "best treatment: 1" in out


@pytest.mark.parametrize("name, knobs", [("exp3", "num_treatments, delta, t_v"),
                                         ("exp1", "delta, t_v")])
def test_complexity_knob_the_preset_lacks_is_input_error(capsys, name, knobs):
    code, out, err = run_cli(capsys, "complexity", "--preset", name,
                             "--l", "2")
    assert code == 2 and out == ""
    assert err.strip() == (f"[m3ab] error: preset {name!r} takes no knob 'l'; "
                           f"its knobs are {knobs}")


def test_complexity_too_large_falls_back(capsys):
    code, out, _ = run_cli(capsys, "complexity", "--preset", "exp1",
                           "--max-enum", "4", "--budget", "120000")
    assert code == 0
    assert "too large" in out
    assert "H3':" in out  # the closed-form surrogate is always printed
    assert "budget 120000: no error bound (H3 not enumerated)" in out


def test_complexity_single_treatment_is_input_error(capsys, tmp_path):
    path = tmp_path / "one.json"
    save(Instance(means=np.array([[0.0], [0.5]]), stddevs=np.ones((2, 1)),
                  validation=ValidationConfig.non_bayesian([0.05], 100)), path)
    code, out, err = run_cli(capsys, "complexity", "--instance", str(path))
    assert code == 2 and out == ""
    assert "need at least two treatments" in err


# --- gen ---------------------------------------------------------------------


def test_gen_round_trip(capsys, tmp_path):
    path = tmp_path / "exp1.json"
    code, _, _ = run_cli(capsys, "gen", "--preset", "exp1",
                         "--out", str(path))
    assert code == 0
    loaded, expected = load(path), preset("exp1")
    np.testing.assert_array_equal(loaded.means, expected.means)
    np.testing.assert_array_equal(loaded.stddevs, expected.stddevs)
    assert loaded.validation.variant == expected.validation.variant
    assert loaded.validation.horizon == expected.validation.horizon
    np.testing.assert_array_equal(loaded.validation.delta,
                                  expected.validation.delta)


def test_gen_seeded_preset_reproducible(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "gen", "--preset", "exp3", "--seed", "5",
                             "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_unseeded_preset_is_seed_zero(capsys, tmp_path):
    paths = [tmp_path / f"{name}.json" for name in ("a", "b", "zero")]
    for path, extra in zip(paths, ([], [], ["--seed", "0"])):
        code, _, _ = run_cli(capsys, "gen", "--preset", "exp3", *extra,
                             "--out", str(path))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()


def test_gen_null_instance_z_row(capsys, tmp_path):
    path = tmp_path / "null.json"
    run_cli(capsys, "gen", "--preset", "exp3_null", "--seed", "3",
            "--out", str(path))
    instance = load(path)
    star = best_treatment(instance)
    row = z_profile(instance).z[star - 1]
    np.testing.assert_allclose(row, [-0.05, 0.05, 0.05], atol=1e-9)


# --- frozen stdout -----------------------------------------------------------
# SHA-256 of stdout for fixed flags.  A refactor must leave every byte
# alone; a deliberate change of output updates the digest and says why.

FROZEN_STDOUT = {
    "run-exp1-csv-means": (
        ("run", "--preset", "exp1", "--algo", "shrvar", "--algo", "sh-z",
         "--algo", "shrvar-c", "--budget", "2000", "--budget", "8000",
         "--reps", "60", "--source", "means"),
        "e6366d7883c458751b2f8a0285948b987b23eaf35b81f7963290921e7bad7a34"),
    "run-exp1-json-pulls": (
        ("run", "--preset", "exp1", "--algo", "shrvar", "--algo", "shrvar-ada",
         "--budget", "2000", "--reps", "20", "--source", "pulls",
         "--format", "json"),
        "eab7a4696f50c62207a90e7c6cc001a2005240781afc9162a9ca713a66d9286d"),
    "sweep-exp2-l": (
        ("sweep", "--preset", "exp2", "--param", "l", "--values", "0,3",
         "--budget", "500", "--algo", "shrvar", "--algo", "sh", "--reps", "60"),
        "71740d658844b3dc156171d90f3f2b3f1d5648522c1f1b2c0329a46bf124f156"),
    "sweep-exp1-t_v": (
        ("sweep", "--preset", "exp1", "--param", "t_v", "--values", "20,100",
         "--budget", "2000", "--algo", "shrvar", "--reps", "60",
         "--source", "pulls"),
        "ba1c705eb0dc42a98f747d3f7cd54c12c32e813fb5e39e5c8d5903631b1b37f1"),
    "complexity-exp1": (
        ("complexity", "--preset", "exp1", "--budget", "120000"),
        "56ce02b1ccb6737570950027359512ffc3baf89535be42e502b19cb2c1e92bec"),
    # above --max-enum no bound is printed: h3' lies below h3
    "complexity-exp3-no-bound": (
        ("complexity", "--preset", "exp3", "--budget", "1000000"),
        "bf36e053f23d859190032a930877de3f4dd6626926d006eacb2696ef87bb7d12"),
    "table1": (
        ("table1",),
        "62fcad28096986e3205b8971831e5d0bfb80d197f1f4ebf8245f60151b258be2"),
}


@pytest.mark.parametrize("case", sorted(FROZEN_STDOUT))
def test_frozen_stdout(capsys, case):
    argv, digest = FROZEN_STDOUT[case]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_frozen_stdout_bayesian_validation(capsys, tmp_path):
    # table1 is a Bayesian instance; its validation passes are not saturated.
    path = tmp_path / "table1.json"
    save(table1(), path)
    code, out, _ = run_cli(
        capsys, "run", "--instance", str(path), "--algo", "shrvar",
        "--algo", "sh-c", "--budget", "200", "--reps", "60",
        "--source", "pulls")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "daf70bcde4f39a51899df4cb7e7e6e961e10553d388fad927c7ca9824e44d9ef"), out


# --- module execution --------------------------------------------------------


def test_module_invocation_smoke():
    proc = subprocess.run([sys.executable, "-m", "m3ab.cli", "table1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "0.4409" in proc.stdout


# Runs the m3ab command as its entry point does, then names on stderr the
# workers of the pool the harness kept, which are still running here.
_SWEEP_NAMING_WORKERS = (
    "import sys; from m3ab import cli, harness; code = cli.main(sys.argv[1:]); "
    "pool = harness._warm; print('workers:', *(sorted(pool[1]._processes) "
    "if pool else ()), file=sys.stderr); sys.exit(code)")


def _running(pid: int) -> bool:
    """Whether pid is a live process other than a zombie (Linux /proc)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _env_with_src() -> dict:
    src = os.path.dirname(os.path.dirname(harness.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_pooled_sweep_command_exits_and_leaves_no_worker(tmp_path):
    # The pool kept after the sweep holds live workers until the command
    # exits; the exit must join them, and the output is the one-process one.
    # Output goes to files, which a leftover worker cannot hold open.
    argv = ["sweep", "--preset", "exp2", "--param", "l", "--values", "0,1",
            "--budget", "500", "--algo", "shrvar", "--reps", "20"]
    env = _env_with_src()
    runs = {}
    for threads in ("2", "1"):
        out, err = tmp_path / f"out{threads}", tmp_path / f"err{threads}"
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            code = subprocess.run([sys.executable, "-c", _SWEEP_NAMING_WORKERS,
                                   *argv, "--threads", threads], stdout=stdout,
                                  stderr=stderr, env=env, timeout=120).returncode
        runs[threads] = code, out.read_bytes(), err.read_text()
    workers = [int(pid) for pid in runs["2"][2].splitlines()[-1].split()[1:]]
    left = [pid for pid in workers if _running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert runs["2"][0] == runs["1"][0] == 0, runs["2"][2]
    assert runs["2"][1] == runs["1"][1]
    assert len(workers) == (2 if harness._cpu_count() > 1 else 0)
    assert left == []


# Keeps a two-worker pool, names its workers on stdout and waits to be killed.
_KEEPS_A_POOL = (
    "import time; from m3ab import ExperimentConfig, harness, preset, run_experiment; "
    "harness._cpu_count = lambda: 2; "
    "run_experiment(ExperimentConfig(instance=preset('exp2', l=3.0), algorithms=['shrvar'], "
    "budgets=[500, 600], repetitions=20), threads=2); "
    "print(*sorted(harness._warm[1]._processes), flush=True); time.sleep(120)")


def test_killed_process_leaves_no_running_worker():
    # A process killed by SIGKILL never shuts its kept pool down; the idle
    # workers, reparented, must notice the lost parent and end by themselves.
    proc = subprocess.Popen([sys.executable, "-c", _KEEPS_A_POOL],
                            stdout=subprocess.PIPE, env=_env_with_src(), text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 120)
        workers = [int(pid) for pid in proc.stdout.readline().split()] if ready else []
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    deadline = time.monotonic() + 10.0
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.1)
    left = [pid for pid in workers if _running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert len(workers) == 2 and left == []
