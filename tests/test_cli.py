import json

import pytest

from steercert.cli import main


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
    assert "estimate=0.707107" in out


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
            "--bisect-tol",
            "5e-3",
            "--out",
            out,
        ]
    )
    stdout = capsys.readouterr().out
    assert code == 0
    assert "wrote" in stdout
    assert (tmp_path / "table.jsonl").exists()
    assert (tmp_path / "table.summary.json").exists()
    assert (tmp_path / "table.summary.csv").exists()


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
# One more setting than the certifiers accept (MAX_SETTINGS is 8).
_NINE_SETTINGS = [[0.0, 0.0, 1.0, 1.0, 1.0]] * 9


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
        ("conj1 --samples 0 --config", {"restarts": "x"}),
        ("conj1 --samples 0 --config", {"gap_tol": "x"}),
        ("conj1 --samples 0 --config", {"threads": None}),
        ("conj1 --samples 0 --config", {"n": [3]}),
        ("nc-bound --n ,", None),
        ("vn-table --config", {"n": []}),
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
    ],
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
        "one-outcome",
        "qubit-state",
        "jm-nine-settings",
        "steer-nine-settings",
        "witness-qutrit",
        "witness-three-outcomes",
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, command, data):
    argv = command.split()
    if data is not None:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        argv.append(str(path))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
