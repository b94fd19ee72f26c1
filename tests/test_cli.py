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


def test_count_m_summary_reports_branches_and_findings(tmp_path):
    # the per-branch point counts and the findings text repeat exactly and
    # stay out of config_hash
    docs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        assert main(["count-m", "--ladder", "100000,1000000", "--out", str(out)]) == 0
        docs.append(json.loads(out.read_text()))
    assert docs[0]["config_hash"] == docs[1]["config_hash"]
    assert docs[0]["points"] == docs[1]["points"]
    for pt in docs[0]["points"]:
        assert sum(pt["points_by_branch"].values()) == pt["raw_points"]
        assert pt["points_by_branch"]["nonsquare_disc"] > pt["points_by_branch"]["factored"] > 0
        assert len(pt["cover_findings_text"]) == pt["cover_findings"] > 0
        assert all(line.startswith("f=") for line in pt["cover_findings_text"])


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


def test_verify_passes_the_seed_to_every_seeded_suite(monkeypatch):
    from jzero import cli, verify

    calls = []

    def fake_run_suite(name, **kwargs):
        calls.append((name, kwargs))
        return verify.SuiteResult(name, checks=1)

    monkeypatch.setattr(cli.verify, "run_suite", fake_run_suite)
    for suite in ("classgroup", "reducibility", "identities", "parametrization"):
        assert cli.main(["--seed", "5", "verify", suite]) == 0
    assert cli.main(["verify", "identities", "--trials", "7"]) == 0
    assert calls == [
        ("classgroup", {"seed": 5}),
        ("reducibility", {"seed": 5}),
        ("identities", {"seed": 5}),
        ("parametrization", {}),
        ("identities", {"trials": 7, "seed": 20260809}),
    ]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "parametrization", "--xmax", "100"], "--xmax"),
        (["verify", "identities", "--xmax", "100"], "--xmax"),
        (["verify", "parametrization", "--trials", "3"], "--trials"),
        (["verify", "oracle-equivalence", "--trials", "3"], "--trials"),
        (["verify", "oracle-equivalence", "--xmax", "0"], "--xmax"),
        (["verify", "oracle-equivalence", "--xmax", "-5"], "--xmax"),
    ],
)
def test_verify_flag_of_another_suite_exit_code(argv, flag, capsys):
    # a flag the chosen suite does not take, or a cap below 1, is refused
    # by name before the suite runs, not ignored
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"configuration error: {flag} " in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_trials_below_one_exit_code(trials, capsys):
    # no identity is checked with fewer than one trial, so the run is
    # refused by name and value instead of passing with 0 checks
    assert main(["verify", "identities", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert f"configuration error: --trials must be positive, got {trials}" in captured.err
    assert captured.out == ""


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


@pytest.mark.parametrize(
    "command",
    [["count-n"], ["count-n", "--policy", "absI"], ["count-m", "--policy", "absI"], ["audit-constants"]],
)
def test_negative_ladder_value_exit_code(command, capsys):
    # rejected by name, under either height policy, before any count runs
    for ladder in ("-5", "1000,-5", "-1e9,1e9"):
        assert main([*command, f"--ladder={ladder}"]) == 2
        captured = capsys.readouterr()
        bad = next(p for p in ladder.split(",") if p.startswith("-"))
        assert f"ladder value '{bad}' is negative" in captured.err, captured.err
        assert captured.out == ""
    with pytest.raises(ConfigError, match="negative"):
        parse_ladder("-1")


def test_ladder_with_zero_fits_the_values_above_one(tmp_path):
    # X = 0 and X = 1 have no log X to fit against: the fit skips them, and
    # with fewer than two values left it is (0, 0)
    docs = {}
    for ladder in ("0,100000", "0,1,100000,1000000", "100000,1000000"):
        out = tmp_path / f"{ladder}.json"
        assert main(["count-n", "--ladder", ladder, "--out", str(out)]) == 0
        docs[ladder] = json.loads(out.read_text())
    assert (docs["0,100000"]["fitted_a"], docs["0,100000"]["fitted_b"]) == (0.0, 0.0)
    assert docs["0,100000"]["points"][0]["raw_points"] == 0
    fits = [(d["fitted_a"], d["fitted_b"]) for d in docs.values()]
    assert fits[1] == fits[2] != (0.0, 0.0)


def test_negative_ibound_exit_code(capsys):
    assert main(["family", "1,1,1", "--ibound", "-5"]) == 2
    captured = capsys.readouterr()
    assert "--ibound must be non-negative, got -5" in captured.err and captured.out == ""
    out = run_cli("family", "1,1,1", "--ibound", "0")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["points"] == 0


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


def test_family_square_disc_divisor(tmp_path):
    csv_path = tmp_path / "fam.csv"
    out = run_cli("family", "1,2,0", "--ibound", "100", "--csv", str(csv_path))
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert (doc["points"], doc["irreducible_points"]) == (64, 46)
    assert len(csv_path.read_text().splitlines()) == 65


def test_family_without_point_set_exit_code():
    assert_config_error(run_cli("family", "1,3,1", "--ibound", "100"))


def test_threads_above_ceiling_exit_code(capsys):
    from jzero import counting

    # validation comes before any pool is built, so no process is started
    for threads in (counting.MAX_WORKERS + 1, 10**9):
        assert main(["--threads", str(threads), "count-m", "--ladder", "1000"]) == 2
        captured = capsys.readouterr()
        assert "configuration error:" in captured.err and captured.out == ""
    for workers in (0, 10**9):
        with pytest.raises(ValueError):
            counting.count_M(1000, workers=workers)


def test_config_hash_ignores_output_paths(tmp_path):
    docs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        csv_path = str(tmp_path / f"{name}.csv")
        args = ["family", "1,0,1", "--ibound", "50", "--csv", csv_path, "--out", str(out)]
        assert main(args) == 0
        docs.append(json.loads(out.read_text()))
    assert docs[0]["config"]["out"] != docs[1]["config"]["out"]
    assert docs[0]["config_hash"] == docs[1]["config_hash"]
    other = tmp_path / "c.json"
    assert main(["family", "1,0,1", "--ibound", "51", "--out", str(other)]) == 0
    assert json.loads(other.read_text())["config_hash"] != docs[0]["config_hash"]


def test_family_factorizes_each_point_once(tmp_path, monkeypatch):
    # count_family decides one point of each pair {P, -P} and factors only
    # those with a square disc(F) (or a0 = 0) that square_split leaves; the
    # --csv column takes each row's flag from that one decision, so no point
    # is factored twice and no mate is factored at all
    from jzero import counting, forms
    from jzero.families import family_coefficients, square_split

    calls = {"kernel": 0, "rows": 0}

    def counted(key, fn):
        def wrapper(F):
            calls[key] += 1
            return fn(F)

        return wrapper

    monkeypatch.setattr(counting, "is_irreducible_Q", counted("kernel", forms.is_irreducible_Q))
    monkeypatch.setattr(forms, "is_irreducible_Q", counted("rows", forms.is_irreducible_Q))
    out = tmp_path / "fam.json"
    assert main(["family", "1,1,0", "--ibound", "50", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["points"], doc["irreducible_points"], doc["primitive_points"]) == (32, 20, 28)
    f = forms.QuadraticForm(1, 1, 0)
    unsplit = [
        ((A, B), F)
        for (A, B) in counting.family_points(f, 50)
        if A
        and square_split(f, A, B, F := forms.QuarticForm(*family_coefficients(f, A, B))) is None
    ]
    factored = [
        P for (P, F) in unsplit if not F.a0 or forms._exact_sqrt(forms.invariants(F).disc) is not None
    ]
    assert 0 < len(factored) < len(unsplit)
    kernel = len({min(P, (-P[0], -P[1])) for P in factored})  # the pairs {P, -P}
    assert 2 * kernel == len(factored)
    assert calls == {"kernel": kernel, "rows": 0}
    csv_path = tmp_path / "fam.csv"
    assert main(["family", "1,1,0", "--ibound", "50", "--csv", str(csv_path)]) == 0
    assert calls == {"kernel": 2 * kernel, "rows": 0}
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 33
    assert sum(line.endswith(",True") for line in lines) == doc["irreducible_points"]


def test_forms_with_a_leading_minus(tmp_path, capsys):
    # -1,0,0,0,1 is the form, not an option, with or without "--"
    docs = []
    for argv in (["invariants", "-1,0,0,0,1"], ["invariants", "--", "-1,0,0,0,1"]):
        out = tmp_path / "inv.json"
        assert main(["--out", str(out), *argv]) == 0
        docs.append(json.loads(out.read_text()))
    assert (docs[0]["I"], docs[0]["J"], docs[0]["disc"]) == (-12, 0, -256)
    assert docs[0]["config_hash"] == docs[1]["config_hash"]
    # reduce takes the form and rejects it as negative definite
    assert main(["reduce", "-2,1,-3"]) == 2
    err = capsys.readouterr().err
    assert "negative definite" in err and "required" not in err
    # the family of -1,3,0 is minus that of 1,3,0, point for point
    counts = []
    for form in ("-1,3,0", "1,3,0"):
        out = tmp_path / "fam.json"
        assert main(["family", form, "--ibound", "2000", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        counts.append((doc["points"], doc["irreducible_points"], doc["irreducible_orbits"]))
    assert counts[0] == counts[1] == (78, 58, 30)
