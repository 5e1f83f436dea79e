"""CLI surface: every subcommand parses, runs, and exits correctly."""

import csv
import io
import json
import re

import pytest

from pvbounds.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sweep_stdout_csv(capsys):
    code, out, err = run_cli(capsys, "sweep", "--q-min", "3", "--q-max", "20")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "q"
    assert len(rows) > 5
    assert "0 violations" in err


def test_sweep_to_file(capsys, tmp_path):
    path = tmp_path / "s.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--q-min", "3", "--q-max", "20", "--out", str(path)
    )
    assert code == 0
    assert path.exists()
    assert out == ""


def test_sweep_json(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--q-min", "3", "--q-max", "10", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1


def test_bounds_csv(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--q", "1000")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "q", "parity", "bound_name", "quantity", "value", "main_term",
        "second_term", "psi_term", "as_printed",
    ]
    assert len(rows) == 13  # header + 6 bounds x 2 parities


def test_bounds_json(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--q", "50", "--parity", "odd", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert {d["bound_name"] for d in data} == {
        "theorem1", "pomerance", "qiu", "simalarides",
        "dobrowolski_williams", "bachman_rachakonda",
    }


def test_crossover_cmd(capsys):
    code, out, _ = run_cli(capsys, "crossover", "--parity", "even")
    assert code == 0
    assert "q* = 17011" in out


def test_kernel_check_cmd(capsys, tmp_path):
    path = tmp_path / "k.csv"
    code, _, err = run_cli(capsys, "kernel-check", "--out", str(path))
    assert code == 0
    summary = json.loads(err)
    assert summary["violations"] == 0
    assert summary["worst_ratio"] <= summary["bound"]
    with path.open() as fh:
        header = fh.readline().strip().split(",")
    assert header == ["u", "P", "s_u_p", "g_p", "ratio"]


def test_lemmas_cmd(capsys):
    code, out, err = run_cli(capsys, "lemmas", "--n-max", "50", "--seed", "11")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["lemma", "n", "params", "sum", "bound", "slack"]
    for row in rows[1:]:
        total, bound, slack = float(row[3]), float(row[4]), float(row[5])
        assert slack > 0
        assert abs((bound - total) - slack) < 1e-12
    assert "seed 11" in err


def test_char_info_cmd(capsys):
    code, out, _ = run_cli(capsys, "char-info", "--q", "60", "--label", "1,0,2")
    assert code == 0
    info = json.loads(out)
    assert info["q"] == 60
    assert info["conductor"] == info["conductor_check"] == 20
    assert info["primitive"] is False


@pytest.mark.parametrize(
    "label", ["1,3,5,2,6,4", "1,3,5,2", "1,3,x,2,6", "1,20,5,2,6", "1,3,5,-1,6"]
)
def test_char_info_bad_label_one_line_error(capsys, label):
    """Wrong length, out of range or not an integer: exit 2, no traceback."""
    code, out, err = run_cli(capsys, "char-info", "--q", "100100", "--label", label)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "[2, 20, 6, 10, 12]" in err


@pytest.mark.parametrize("q", ["2", "-5"])
def test_bounds_below_range_one_line_error(capsys, q):
    code, out, err = run_cli(capsys, "bounds", "--q", q)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "q >= 3" in err


_BAD_CONFIGS = {
    "q-min-2": (["--q-min", "2"], "3 <= q_min <= q_max"),
    "q-min-above-q-max": (["--q-min", "5", "--q-max", "4"], "3 <= q_min <= q_max"),
    "workers-0": (["--workers", "0"], "workers must be >= 1"),
    "bounds-nope": (["--bounds", "nope"], "unknown bounds"),  # sweep only
}


@pytest.mark.parametrize(
    "command, case",
    [("sweep", case) for case in _BAD_CONFIGS]
    + [("verify-all", case) for case in _BAD_CONFIGS if case != "bounds-nope"],
)
def test_bad_sweep_config_one_line_error(capsys, command, case):
    argv, message = _BAD_CONFIGS[case]
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert message in err


def test_sweep_out_in_missing_directory_one_line_error(capsys, tmp_path):
    path = tmp_path / "missing" / "s.csv"
    code, out, err = run_cli(capsys, "sweep", "--q-max", "20", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "does not exist" in err
    assert list(tmp_path.iterdir()) == []


def test_verify_all_cmd_small(capsys):
    code, out, _ = run_cli(
        capsys, "verify-all", "--q-min", "3", "--q-max", "30"
    )
    assert code == 0
    lines = out.splitlines()
    assert out.count("[PASS]") == 7
    assert "[FAIL]" not in out
    times = [float(re.search(r"\[(\d+\.\d\d) s\]$", line).group(1)) for line in lines[:7]]
    total = re.fullmatch(r"total (\d+\.\d\d) s", lines[7])
    assert len(lines) == 8 and total
    assert abs(float(total.group(1)) - sum(times)) <= 0.01 * len(times)


def test_sweep_violation_exits_nonzero(capsys, monkeypatch):
    from pvbounds import bounds

    real = bounds.evaluate_bound

    def sabotaged(name, q, parity):
        bv = real(name, q, parity)
        if name == "theorem1":
            return bounds.BoundValue(
                name=bv.name, q=bv.q, parity=bv.parity, quantity=bv.quantity,
                value=0.0, main_term=0.0, second_term=0.0, psi_term=0.0,
                as_printed=bv.as_printed, terms=(("main", 0.0),),
            )
        return bv

    monkeypatch.setattr(bounds, "evaluate_bound", sabotaged)
    code, _, err = run_cli(capsys, "sweep", "--q-min", "3", "--q-max", "8")
    assert code == 1
    assert "VIOLATION" in err


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
