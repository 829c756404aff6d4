"""Command-line interface: subcommands, exit codes, manifests, and replay.

Every invocation goes through a real subprocess so argument parsing, exit
codes, and file outputs are exercised exactly as a user sees them.
"""

import csv
import io
import json
import os
import platform
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ancitest
from ancitest import STREAM_LAYOUT, cli

BASE = [sys.executable, "-m", "ancitest"]
README = Path(__file__).resolve().parents[1] / "README.md"
# The imported package's root, so that a run from any directory finds it.
PACKAGE_ROOT = str(Path(ancitest.__file__).resolve().parents[1])


def run_cli(*args, env_extra=None, **kw):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, env=env, **kw
    )


def test_console_entry_point_exits_zero(monkeypatch, capsys):
    # pyproject.toml's ancitest script calls cli.entry, which reads sys.argv.
    monkeypatch.setattr(sys, "argv", ["ancitest", "designs"])
    with pytest.raises(SystemExit) as stop:
        cli.entry()
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("table,design,description")


def test_designs_listing():
    out = run_cli("designs")
    assert out.returncode == 0
    rows = list(csv.reader(io.StringIO(out.stdout)))
    assert rows[0] == ["table", "design", "description"]
    assert len(rows) == 25
    assert ["1", "D_01", "normal, mean 0, sd 1"] in rows


def test_tables_output_and_manifest(tmp_path):
    out_path = tmp_path / "t2.csv"
    res = run_cli(
        "tables", "--table", "2", "--reps", "1000", "--seed", "7",
        "--bootstrap-b", "100", "--out", str(out_path),
    )
    assert res.returncode == 0, res.stderr
    rows = list(csv.reader(out_path.open()))
    assert len(rows) == 13
    manifest = json.loads((tmp_path / "t2.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "tables"
    assert manifest["root_seed"] == 7
    assert manifest["flags"]["table"] == "2"
    assert manifest["flags"]["reps"] == 1000
    assert manifest["output_paths"] == [str(out_path)]
    assert manifest["wall_time_s"] >= 0.0
    assert "version" in manifest
    assert manifest["stream_layout"] == STREAM_LAYOUT == 5


def test_tables_byte_identical_across_threads(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    common = ["tables", "--table", "2", "--reps", "1000", "--seed", "9",
              "--bootstrap-b", "100"]
    assert run_cli(*common, "--threads", "1", "--out", str(a)).returncode == 0
    assert run_cli(*common, "--threads", "3", "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_manifest_replay_reproduces_output(tmp_path):
    first = tmp_path / "run1.csv"
    res = run_cli(
        "tables", "--table", "3", "--reps", "1000", "--seed", "4",
        "--out", str(first),
    )
    assert res.returncode == 0, res.stderr
    manifest = json.loads((tmp_path / "run1.csv.manifest.json").read_text())
    assert manifest["numpy_version"] == np.__version__
    assert manifest["python_version"] == platform.python_version()
    assert manifest["platform"] == platform.platform()

    replay = tmp_path / "run2.csv"
    flags = manifest["flags"]
    argv = [flags["subcommand"]]
    for key, value in flags.items():
        if key in ("out", "subcommand"):
            continue
        argv += [f"--{key.replace('_', '-')}", str(value)]
    argv += ["--out", str(replay)]
    res2 = run_cli(*argv)
    assert res2.returncode == 0, res2.stderr
    assert first.read_bytes() == replay.read_bytes()


def test_tables_markdown_format(tmp_path):
    out_path = tmp_path / "t2.md"
    res = run_cli(
        "tables", "--table", "2", "--reps", "1000", "--seed", "7",
        "--bootstrap-b", "100", "--format", "markdown", "--out", str(out_path),
    )
    assert res.returncode == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("| design")
    assert len(lines) == 14


def test_toy_figures(tmp_path):
    out_a = tmp_path / "curve.csv"
    res = run_cli("toy", "--figure", "1a", "--out", str(out_a))
    assert res.returncode == 0
    rows = list(csv.reader(out_a.open()))
    assert rows[0] == ["a", "power_gain", "covariance"]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    assert data.shape == (92, 3)
    # Gain is zero at a = 0 and the best mixing weight sits at the
    # zero-covariance point 15/34 up to the grid step.
    at_zero = data[np.argmin(np.abs(data[:, 0]))]
    assert abs(at_zero[1]) < 1e-9
    best = data[np.argmax(data[:, 1]), 0]
    assert abs(best - 15.0 / 34.0) <= 0.01

    out_b = tmp_path / "three.csv"
    res = run_cli("toy", "--figure", "1b", "--out", str(out_b))
    assert res.returncode == 0
    rows = list(csv.reader(out_b.open()))
    assert rows[0] == ["mu", "p_plain_mean", "p_decorrelated", "p_precision_weighted"]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    assert data.shape == (101, 4)
    assert np.all(data[:, 3] >= data[:, 2] - 1e-12)
    assert np.all(data[:, 2] >= data[:, 1] - 1e-12)


def test_verify_subcommand_passes():
    res = run_cli("verify", "--models", "15", "--pairs", "40")
    assert res.returncode == 0, res.stderr
    rows = list(csv.reader(io.StringIO(res.stdout)))
    assert rows[0] == ["claim", "status", "max_violation", "cases"]
    assert len(rows) == 9
    assert all(row[1] == "pass" for row in rows[1:])


def test_fixture_then_analyze_end_to_end(tmp_path):
    data = tmp_path / "resid.csv"
    res = run_cli("fixture", "--n", "120", "--seed", "3", "--out", str(data))
    assert res.returncode == 0, res.stderr
    rows = list(csv.reader(data.open()))
    assert rows[0] == ["residual"]
    assert len(rows) == 121

    report = tmp_path / "report.txt"
    res2 = run_cli(
        "analyze", "--csv", str(data), "--ycol", "residual",
        "--study", "nb=70,90", "--reps", "300", "--seed", "1",
        "--out", str(report),
    )
    assert res2.returncode == 0, res2.stderr
    text = report.read_text()
    assert "two-sided p-values" in text
    assert "histogram (20 equal-width bins):" in text
    assert "n_b=70" in text and "n_b=90" in text
    assert (tmp_path / "report.txt.manifest.json").exists()

    res3 = run_cli(
        "analyze", "--csv", str(data), "--ycol", "residual",
        "--study", "nb=70,90", "--reps", "300", "--seed", "1",
    )
    assert res3.returncode == 0
    assert res3.stdout == text


def test_analyze_with_regressor_column(tmp_path):
    gen = np.random.default_rng(5)
    z = gen.uniform(1.0, 9.0, 40)
    y = 2.0 + 0.7 * z + gen.standard_normal(40) * 0.4
    data = tmp_path / "xy.csv"
    with data.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["resp", "reg"])
        writer.writerows(zip(y, z))
    res = run_cli("analyze", "--csv", str(data), "--ycol", "resp", "--zcol", "reg")
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("least squares fit:")
    assert "slope=0.7" in res.stdout or "slope=0.6" in res.stdout


def test_usage_errors_exit_two(tmp_path):
    assert run_cli("tables", "--table", "9", "--out", "x.csv").returncode == 2
    assert run_cli("nonsense").returncode == 2
    assert run_cli("tables").returncode == 2  # --table and --out required
    assert run_cli(
        "analyze", "--csv", "f.csv", "--ycol", "y", "--study", "garbage"
    ).returncode == 2
    assert run_cli("toy", "--figure", "2c", "--out", "x.csv").returncode == 2
    for study in ("nb=", "nb=70,"):
        assert run_cli("analyze", "--csv", "f.csv", "--ycol", "y", "--study", study).returncode == 2


def test_runtime_errors_exit_one(tmp_path):
    res = run_cli("analyze", "--csv", str(tmp_path / "none.csv"), "--ycol", "y")
    assert res.returncode == 1
    assert res.stderr.startswith("error:")
    res2 = run_cli(
        "tables", "--table", "2", "--reps", "1000",
        "--out", str(tmp_path / "no" / "dir" / "x.csv"),
    )
    assert res2.returncode == 1


def test_study_size_error_names_the_sizes(tmp_path, monkeypatch, capsys):
    data = tmp_path / "resid.csv"
    assert run_cli("fixture", "--out", str(data)).returncode == 0
    res = run_cli("analyze", "--csv", str(data), "--ycol", "residual",
                  "--study", "nb=70,150", "--reps", "1000")
    assert res.returncode == 1
    assert "10 <= n_b < sample size 100, got n_b=150" in res.stderr
    # Every size is checked before the first study runs.
    studies = []
    monkeypatch.setattr(cli, "resample_power_study", lambda *a, **k: studies.append(a))
    args = ["analyze", "--csv", str(data), "--ycol", "residual",
            "--study", "nb=70,80,90,150", "--reps", "55000"]
    assert cli.main(args) == 1
    assert studies == []
    assert "got n_b=150" in capsys.readouterr().err


def test_thread_env_var_only_sets_default(tmp_path):
    # Without --threads, tables runs on the CPUs the process may use and
    # writes the bytes of a one-thread run; the manifest records the count
    # it resolved, so a replay runs with it.
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    common = ["tables", "--table", "2", "--reps", "1000", "--seed", "2"]
    r1 = run_cli(*common, "--out", str(a))
    r2 = run_cli(*common, "--out", str(b), "--threads", "1")
    assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
    assert a.read_bytes() == b.read_bytes()
    threads = json.loads((tmp_path / "a.csv.manifest.json").read_text())["flags"]["threads"]
    assert isinstance(threads, int) and threads >= 1
    assert threads == cli._available_cpus()
    assert json.loads((tmp_path / "b.csv.manifest.json").read_text())["flags"]["threads"] == 1


def test_cli_import_loads_no_scipy():
    # scipy is a test oracle only; the package must run without it.
    code = (
        "import sys, ancitest.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def _readme_cli_lines():
    """The ``ancitest ...`` lines of the README's "Command line" block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("ancitest ")]


def test_readme_command_line_example_runs(tmp_path):
    lines = _readme_cli_lines()
    assert len(lines) >= 6
    # In order, from an empty directory: later lines read earlier outputs.
    for line in lines:
        res = run_cli(*shlex.split(line)[1:], cwd=tmp_path)
        assert res.returncode == 0, (line, res.stderr)


def test_output_routing(tmp_path):
    # With --out: the file and its manifest, and nothing on stdout.
    fixture = tmp_path / "fixture.out"
    for argv in (
        ["fixture", "--n", "60"],
        ["tables", "--table", "2", "--reps", "1000"],
        ["toy", "--figure", "1b"],
        ["analyze", "--csv", str(fixture), "--ycol", "residual"],
    ):
        out = tmp_path / f"{argv[0]}.out"
        res = run_cli(*argv, "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert res.stdout == "" and out.stat().st_size > 0
        manifest = json.loads((tmp_path / f"{argv[0]}.out.manifest.json").read_text())
        assert manifest["subcommand"] == argv[0]
        assert manifest["output_paths"] == [str(out)]

    # Without --out: the text on stdout, and no file.
    written = sorted(tmp_path.iterdir())
    for argv in (
        ["designs"],
        ["verify", "--models", "10", "--pairs", "20"],
        ["analyze", "--csv", str(fixture), "--ycol", "residual"],
    ):
        res = run_cli(*argv, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout
    assert sorted(tmp_path.iterdir()) == written


def test_empty_out_path_fails(tmp_path):
    fixture = tmp_path / "fix.csv"
    assert run_cli("fixture", "--out", str(fixture)).returncode == 0
    for argv in (["toy", "--figure", "1a"], ["analyze", "--csv", str(fixture), "--ycol", "residual"]):
        res = run_cli(*argv, "--out", "", cwd=tmp_path)
        assert res.returncode == 1
        assert res.stderr.startswith("error:")
