"""CLI surface tests: syntax, outputs, exit codes, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jzero
from jzero.cli import ConfigError, main, parse_ladder

# The CLI subprocess imports the same jzero as these tests.
SRC = str(Path(list(jzero.__path__)[0]).resolve().parent)


def run_cli(*args):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "jzero.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_invariants_command():
    out = run_cli("invariants", "1,0,-6,0,1")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert (doc["I"], doc["J"], doc["disc"]) == (48, 0, 16384)
    assert doc["hessian_divisor"] == [1, 0, 1]
    assert "config_hash" in doc and "seed" in doc and doc["version"]


def test_reduce_command():
    out = run_cli("reduce", "3,2,2")
    doc = json.loads(out.stdout)
    assert doc["reduced"] == [2, 2, 3]


def test_classgroup_command():
    out = run_cli("classgroup", "23")
    doc = json.loads(out.stdout)
    assert doc["h2"] == 3
    assert len(doc["composition"]) == 9


def test_family_command(tmp_path):
    csv_path = tmp_path / "fam.csv"
    out = run_cli("family", "1,0,1", "--ibound", "100", "--csv", str(csv_path))
    doc = json.loads(out.stdout)
    assert doc["points"] == 28
    rows = csv_path.read_text().splitlines()
    assert rows[0].startswith("A,B,a4")
    assert len(rows) == 29


def test_bad_form_syntax_exit_code():
    out = run_cli("invariants", "1,2,3")
    assert out.returncode == 2
    out = run_cli("invariants", "a,b,c,d,e")
    assert out.returncode == 2
    out = run_cli("count-n", "--ladder", "100,50")
    assert out.returncode == 2


def test_verify_exit_codes():
    out = run_cli("verify", "identities", "--trials", "200")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["passed"] is True


def test_count_n_reproducible(tmp_path):
    a = run_cli("count-n", "--ladder", "100000,1000000", "--csv", str(tmp_path / "a.csv"))
    b = run_cli("count-n", "--ladder", "100000,1000000", "--csv", str(tmp_path / "b.csv"))
    da, db = json.loads(a.stdout), json.loads(b.stdout)
    da.pop("timestamp"), db.pop("timestamp")
    # csv paths differ in the config; counts and hash-relevant payload match
    da["config"].pop("csv"), db["config"].pop("csv")
    da.pop("config_hash"), db.pop("config_hash")
    assert da == db
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()


def test_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads = 2\nseed = 7\n")
    out = run_cli("--config", str(cfg), "invariants", "0,1,0,-1,0")
    doc = json.loads(out.stdout)
    assert doc["config"]["threads"] == "2"
    assert doc["seed"] == 7


def test_global_options_before_subcommand(tmp_path):
    out_file = tmp_path / "summary.json"
    out = run_cli(
        "--threads", "2", "--seed", "5", "--out", str(out_file),
        "invariants", "0,1,0,-1,0",
    )
    assert out.returncode == 0
    assert out.stdout == ""
    doc = json.loads(out_file.read_text())
    assert doc["config"]["threads"] == "2"
    assert doc["seed"] == 5


def test_command_line_beats_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# seed from the file\nseed = 7\n")
    for args in (
        ("invariants", "0,1,0,-1,0", "--config", str(cfg), "--seed=5"),
        ("invariants", "0,1,0,-1,0", "--config", str(cfg), "--seed", "5"),
        ("--seed", "5", "--config", str(cfg), "invariants", "0,1,0,-1,0"),
    ):
        doc = json.loads(run_cli(*args).stdout)
        assert doc["seed"] == 5, args


def test_config_value_takes_option_type(tmp_path, monkeypatch):
    from jzero import cli, verify

    calls = []

    def fake_run_suite(name, **kwargs):
        calls.append((name, kwargs))
        return verify.SuiteResult(name, checks=1)

    monkeypatch.setattr(cli.verify, "run_suite", fake_run_suite)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("xmax = 5000\n")
    assert cli.main(["verify", "oracle-equivalence", "--config", str(cfg)]) == 0
    assert calls == [("oracle-equivalence", {"xs": (2000,)})]


def assert_config_error(out):
    assert out.returncode == 2
    assert "configuration error:" in out.stderr
    assert "Traceback" not in out.stderr


def test_missing_config_file_exit_code(tmp_path):
    assert_config_error(
        run_cli("--config", str(tmp_path / "absent.cfg"), "invariants", "0,1,0,-1,0")
    )


def test_unknown_config_key_exit_code(tmp_path):
    cfg = tmp_path / "run.cfg"
    for text in ("thread = 2\n", "func = x\n", "command = reduce\n", "xmax = 5000\n"):
        cfg.write_text(text)
        assert_config_error(run_cli("--config", str(cfg), "invariants", "0,1,0,-1,0"))


def test_bad_jzero_threads_exit_code(monkeypatch):
    monkeypatch.setenv("JZERO_THREADS", "two")
    assert_config_error(run_cli("invariants", "0,1,0,-1,0"))


def test_count_m_threads_match_single_process():
    docs = []
    for threads in ("1", "2"):
        out = run_cli("--threads", threads, "count-m", "--ladder", "100000,1000000")
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        for key in ("config", "config_hash", "timestamp"):
            doc.pop(key)
        docs.append(doc)
    assert docs[0] == docs[1]


def test_parse_ladder_exact():
    assert parse_ladder("10000000000000000001") == [10**19 + 1]
    assert parse_ladder("1e9,2.5e9") == [10**9, 25 * 10**8]


@pytest.mark.parametrize("text", ["1e400", "1.5", "inf", "nan", "1e9x"])
def test_parse_ladder_rejects(text):
    with pytest.raises(ConfigError):
        parse_ladder(text)


def test_huge_ladder_value_exit_code(capsys):
    assert main(["count-n", "--ladder", "1e400"]) == 2
    assert "configuration error:" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_exit_code(threads, capsys):
    assert main(["--threads", threads, "count-n", "--ladder", "1000"]) == 2
    captured = capsys.readouterr()
    assert "configuration error:" in captured.err and captured.out == ""


def test_repeated_config_key_exit_code(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\nseed = 2\n")
    assert main(["--config", str(cfg), "invariants", "0,1,0,-1,0"]) == 2
    captured = capsys.readouterr()
    assert "configuration error:" in captured.err and captured.out == ""
