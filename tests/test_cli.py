import json
import math
import subprocess
import sys

import pytest

from steercert.cli import _SUBCOMMANDS, _build_config, build_parser, main
from steercert.harness import EXPERIMENTS


def test_nc_bound_command(capsys):
    code = main(["nc-bound", "--n", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "experiment: nc_bound" in out
    assert "estimate=0.750000" in out


def test_jm_check_command(tmp_path, capsys):
    path = tmp_path / "zx.json"
    path.write_text(
        json.dumps(
            {"bloch": [[0.0, 0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 1.0, 1.0]]}
        )
    )
    code = main(["jm-check", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "Incompatible" in out
    assert "estimate=0.707107 bracket=[" in out


def test_invalid_n_exits_2(capsys):
    code = main(["conj1", "--n", "9", "--samples", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_missing_input_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["jm-check"])
    assert excinfo.value.code == 2


def test_vn_table_command_writes_outputs(tmp_path, capsys):
    out = str(tmp_path / "table")
    code = main(
        [
            "vn-table",
            "--n",
            "2",
            "--restarts",
            "2",
            "--out",
            out,
        ]
    )
    stdout = capsys.readouterr().out
    assert code == 0
    assert "wrote" in stdout
    assert "n=2 estimate=" in stdout and "bracket" not in stdout
    assert (tmp_path / "table.jsonl").exists()
    assert (tmp_path / "table.summary.json").exists()
    assert (tmp_path / "table.summary.csv").exists()


def test_conj1_below_double_precision_retires_solves_without_errors(capsys):
    # At this feasibility tolerance the ensemble iterates of samples 0-2
    # reach x.z = 0 before the tolerances are met; they end as
    # NumericalFailure with their best iterate instead of raising
    # ZeroDivisionError in the centering step, and sample 3 runs out of
    # iterations.
    code = main(
        ["conj1", "--n", "3", "--samples", "4", "--seed", "1", "--feas-tol", "1e-17"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert " errors=0 " in out
    assert " ensemble_not_optimal=4 " in out


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 2, "samples": 3, "seed": 4}))
    out = str(tmp_path / "run")
    code = main(
        ["conj1", "--config", str(cfg_path), "--samples", "2", "--out", out]
    )
    assert code == 0
    capsys.readouterr()
    with open(out + ".summary.json") as fh:
        stored = json.load(fh)
    assert stored["config"]["samples"] == 2
    assert stored["config"]["seed"] == 4
    assert stored["counts"]["sampled"] == 2


@pytest.mark.parametrize("command", ["vn-table", "nc-bound"])
def test_n_list_reads_alike_from_flag_and_config(tmp_path, command):
    """A config file's n may be a comma list, as the --n flag is: both are
    strings that ExperimentConfig converts."""
    path = tmp_path / "cfg.json"
    configs = []
    for value in ("2,3", [2, 3], " 3, 2,"):
        path.write_text(json.dumps({"n": value}))
        args = build_parser().parse_args([command, "--config", str(path)])
        configs.append(_build_config(args))
    configs.append(_build_config(build_parser().parse_args([command, "--n", "2,3"])))
    assert configs[0].n == (2, 3)
    assert configs == [configs[0]] * 4


def test_steer_check_command(tmp_path, capsys):
    path = tmp_path / "steer.json"
    path.write_text(
        json.dumps(
            {
                "visibility": 0.5,
                "alice": {
                    "bloch": [
                        [0.0, 0.0, 1.0, 1.0, 1.0],
                        [1.0, 0.0, 0.0, 1.0, 1.0],
                    ]
                },
            }
        )
    )
    code = main(["steer-check", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "Unsteerable" in out


_HALF_IDENTITY = {"dim": 2, "entries": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}
_THIRD_IDENTITY = {
    "dim": 2,
    "entries": [[1.0 / 3.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0 / 3.0, 0.0]],
}
_QUTRIT_SPLIT = [
    {"dim": 3, "entries": [[1.0, 0.0]] + [[0.0, 0.0]] * 8},
    {"dim": 3, "entries": [[0.0, 0.0]] * 4 + [[1.0, 0.0]] + [[0.0, 0.0]] * 3 + [[1.0, 0.0]]},
]
# The Z/X pair, Incompatible: its critical visibility is 1/sqrt(2).
_ZX = [[0.0, 0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 1.0, 1.0]]
# One more setting than the certifiers accept (MAX_SETTINGS is 8).
_NINE_SETTINGS = [[0.0, 0.0, 1.0, 1.0, 1.0]] * 9
# A matrix whose dim is 0 or not finite (Python's JSON reader takes
# Infinity), in each input file that holds matrices.
_BAD_DIMS = [
    (command, data(matrix), f"{command}-dim-{label}")
    for label, matrix in (
        ("zero", {"dim": 0, "entries": []}),
        ("inf", {"dim": math.inf, "entries": [[1.0, 0.0]]}),
        ("minus-inf", {"dim": -math.inf, "entries": [[1.0, 0.0]]}),
    )
    for command, data in (
        ("jm-check", lambda m: {"effects": [[m, m]] * 2}),
        ("steer-check", lambda m: {"assemblage": [[m, m]]}),
        ("witness-opt", lambda m: {"effects": [[m, m]] * 2}),
    )
]


@pytest.mark.parametrize(
    "command, data",
    [
        ("steer-check", {"assemblage": []}),
        ("steer-check", {"assemblage": [[]]}),
        ("steer-check", {"assemblage": [[_HALF_IDENTITY], [_HALF_IDENTITY] * 2]}),
        ("jm-check", {"effects": []}),
        ("witness-opt", {"effects": []}),
        # Malformed flags and config values; the JSON file is the --config.
        ("vn-table --n 2,x", None),
        ("conj1 --n abc --samples 0", None),
        ("vn-table --n 2 --config", {"restarts": "x"}),
        ("conj1 --samples 0 --config", {"gap_tol": "x"}),
        ("conj1 --samples 0 --config", {"threads": None}),
        ("conj1 --samples 0 --config", {"n": [3]}),
        ("nc-bound --n ,", None),
        ("vn-table --config", {"n": []}),
        ("vn-table --n 3 --full", None),
        ("jm-check --gap-tol inf", {"bloch": _ZX}),
        ("conj1 --samples 0 --config", {"feas_tol": math.inf}),
        ("vn-table --bisect-tol inf", None),
        ("vn-table --n 2 --config", {"bisect_tol": 2e-4}),
        ("conj1 --config", {"samples": 2.7}),
        ("conj1 --samples 0 --config", {"seed": 1.5}),
        ("conj1 --samples 0 --config", {"n": 3.5}),
        ("conj1 --samples 0 --config", {"threads": True}),
        # An output prefix that cannot be written: under the input file, and
        # one whose .jsonl path is the directory the test makes.
        ("jm-check --out {tmp}/bad.json/x", {"bloch": _ZX}),
        ("conj1 --samples 2 --out {tmp}/run", None),
        # Input that loads but that the certifiers reject.
        ("steer-check", {"assemblage": [[_HALF_IDENTITY]]}),
        (
            "steer-check",
            {
                "state": _HALF_IDENTITY,
                "alice": {"bloch": [[0.0, 0.0, 1.0, 1.0, 1.0]]},
            },
        ),
        ("jm-check", {"bloch": _NINE_SETTINGS}),
        ("steer-check", {"visibility": 0.5, "alice": {"bloch": _NINE_SETTINGS}}),
        ("witness-opt", {"effects": [_QUTRIT_SPLIT] * 2}),
        ("witness-opt", {"effects": [[_THIRD_IDENTITY] * 3] * 2}),
        ("witness-opt", {"bloch": _NINE_SETTINGS[:8]}),
        ("jm-check", {"bloch": [[math.nan, 0.0, 1.0, 0.5, 1.0], _ZX[0]]}),
        # A flag that the subcommand's runner does not read.
        ("jm-check --samples 5 --restarts 3", {"bloch": _ZX}),
        ("conj1 --samples 0 --restarts 3", None),
        ("nc-bound --n 2 --seed 3", None),
        # A config-file key that the subcommand's runner does not read; zx.json
        # is a valid jm-check input.
        ("conj1 --samples 0 --config", {"restarts": 3}),
        ("vn-table --n 2 --config", {"samples": 2}),
        ("nc-bound --n 2 --config", {"seed": 3}),
        ("jm-check {tmp}/zx.json --config", {"samples": 5}),
    ]
    + [(command, data) for command, data, _ in _BAD_DIMS],
    ids=[
        "no-settings",
        "no-outcomes",
        "ragged",
        "jm-no-effects",
        "witness-no-effects",
        "vn-table-n-not-int",
        "conj1-n-not-int",
        "config-restarts-not-int",
        "config-gap-tol-not-number",
        "config-threads-null",
        "config-conj1-n-list",
        "nc-bound-n-empty",
        "config-vn-table-n-empty",
        "vn-table-n-and-full",
        "jm-gap-tol-inf",
        "config-feas-tol-inf",
        "vn-table-bisect-tol-inf",
        "config-bisect-tol-retired",
        "config-samples-fractional",
        "config-seed-fractional",
        "config-conj1-n-fractional",
        "config-threads-bool",
        "out-under-a-file",
        "out-is-a-directory",
        "one-outcome",
        "qubit-state",
        "jm-nine-settings",
        "steer-nine-settings",
        "witness-qutrit",
        "witness-three-outcomes",
        "witness-eight-settings",
        "jm-nan-axis",
        "jm-check-unread-flags",
        "conj1-unread-restarts",
        "nc-bound-unread-seed",
        "config-conj1-unread-restarts",
        "config-vn-table-unread-samples",
        "config-nc-bound-unread-seed",
        "config-jm-check-unread-samples",
    ]
    + [name for _, _, name in _BAD_DIMS],
)
def test_malformed_input_exits_2(tmp_path, capsys, command, data):
    # {tmp} in a command is tmp_path, which holds the input file bad.json,
    # the Z/X pair in zx.json and a directory run.jsonl.
    (tmp_path / "run.jsonl").mkdir()
    (tmp_path / "zx.json").write_text(json.dumps({"bloch": _ZX}))
    argv = [arg.format(tmp=tmp_path) for arg in command.split()]
    if data is not None:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        argv.append(str(path))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    # argparse rejects a flag it does not know itself, after its usage line.
    assert err.startswith("error:") or (
        err.startswith("usage:") and "error: unrecognized arguments" in err
    )


def test_subcommands_offer_the_fields_their_experiment_reads():
    """Each subcommand's flags and positional input are its experiment's row
    of EXPERIMENTS, plus --config; the rows hold 30 (experiment, field)
    pairs of the 60 the ten settable config fields would give."""
    (subparsers,) = build_parser()._subparsers._group_actions
    for name, (experiment, _) in _SUBCOMMANDS.items():
        offered = {action.dest for action in subparsers.choices[name]._actions}
        _, reads = EXPERIMENTS[experiment]
        assert offered == {*reads, "config", "help"}
    assert sum(len(reads) for _, reads in EXPERIMENTS.values()) == 30


def test_cli_loads_without_the_lp_solver():
    """Only the classical-bound LP oracle needs scipy.optimize, so importing
    the command line front end does not load it."""
    code = "import sys, steercert.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"
