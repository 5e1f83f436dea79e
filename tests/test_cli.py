"""CLI surface: every subcommand parses, runs, and exits correctly."""

import csv
import io
import json
import os
import re
import subprocess
import sys

import pytest

from pvbounds import cli, harness, kernel, lemmas
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


def test_sweep_stdout_equals_out_file_csv(capsys, tmp_path):
    path = tmp_path / "s.csv"
    _, out, _ = run_cli(capsys, "sweep", "--q-max", "40")
    run_cli(capsys, "sweep", "--q-max", "40", "--out", str(path))
    assert out.encode() == path.read_bytes()


def test_sweep_stdout_equals_out_file_json(capsys, tmp_path):
    path = tmp_path / "s.json"
    _, out, _ = run_cli(capsys, "sweep", "--q-max", "40", "--format", "json")
    run_cli(capsys, "sweep", "--q-max", "40", "--format", "json", "--out", str(path))
    streamed, written = json.loads(out), json.loads(path.read_text())
    del streamed["summary"]["wall_time_s"], written["summary"]["wall_time_s"]
    assert streamed == written
    assert list(streamed) == ["schema", "rows", "summary"]


@pytest.mark.parametrize("out", [[], ["--out", "s.csv"]], ids=["stdout", "file"])
def test_sweep_keeps_no_rows(capsys, monkeypatch, tmp_path, out):
    reports = []

    def recording_run_sweep(cfg):
        reports.append(harness.run_sweep(cfg))
        return reports[-1]

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_sweep", recording_run_sweep)
    code, _, _ = run_cli(capsys, "sweep", "--q-max", "30", *out)
    assert code == 0
    assert reports[0].summary["characters_checked"] > 0
    assert reports[0].rows == []


def test_sweep_failure_partway_leaves_stdout_open(capsys, monkeypatch):
    real = harness._sweep_worker

    def failing_worker(args):
        if args[0] == 11:
            raise RuntimeError("worker died")
        return real(args)

    monkeypatch.setattr(harness, "_sweep_worker", failing_worker)
    with pytest.raises(RuntimeError, match="worker died"):
        main(["sweep", "--q-max", "20"])
    assert not sys.stdout.closed
    print("still open")
    out = capsys.readouterr().out
    assert out.startswith("q,char_label,")
    assert "\n9," in out and "\n11," not in out
    assert out.endswith("still open\n")


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_sweep_broken_pipe_exits_quietly(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["sweep", "--q-max", "20"]) == 141  # not 1, the violations code
    assert capsys.readouterr().err == ""


def test_sweep_broken_pipe_from_a_real_pipe():
    code = (
        "import sys; from pvbounds.cli import main; "
        "sys.exit(main(['sweep', '--q-max', '200']))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.readline().startswith(b"q,char_label,")
    proc.stdout.close()  # as `| head -1` does
    err = proc.stderr.read()
    assert proc.wait() == 141
    assert err == b""


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


@pytest.mark.parametrize("command", ["sweep", "verify-all"])
def test_non_integer_pv_workers_one_line_error(capsys, monkeypatch, command):
    monkeypatch.setenv("PV_WORKERS", "x")
    code, out, err = run_cli(capsys, command, "--q-max", "10")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "PV_WORKERS" in err


def test_kernel_check_out_in_missing_directory_one_line_error(capsys, monkeypatch, tmp_path):
    def unreachable(*args, **kwargs):
        raise AssertionError("the grid ran before the --out check")

    monkeypatch.setattr(kernel, "lemma3_check", unreachable)
    path = tmp_path / "missing" / "k.csv"
    code, out, err = run_cli(capsys, "kernel-check", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "does not exist" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n_max", ["0", "-3"])
def test_lemmas_n_max_below_one_line_error(capsys, monkeypatch, n_max):
    def unreachable(*args, **kwargs):
        raise AssertionError("a lemma sweep ran before the --n-max check")

    monkeypatch.setattr(lemmas, "lemma1_check", unreachable)
    monkeypatch.setattr(lemmas, "lemma2_check", unreachable)
    code, out, err = run_cli(capsys, "lemmas", "--n-max", n_max)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"--n-max must be at least 1, got {n_max}" in err


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
