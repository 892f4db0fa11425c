import json
import os
import subprocess
import sys

import numpy as np
import pytest

from rqet import save_matrix
from rqet.cli import main
from conftest import hermitian_with_spectrum


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "rqet.cli", *args],
                          capture_output=True, text=True, env=env)


def strip_timing(csv_text):
    rows = []
    for line in csv_text.strip().split("\n"):
        rows.append(",".join(line.split(",")[:-1]))
    return "\n".join(rows)


def test_phases_json_output():
    r = run_cli(["phases", "--pade-l", "2", "--iters", "2"])
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["flattened_length"] == 25
    assert payload["query_count"] == 25
    assert payload["distinct_nonzero"] == 8
    assert len(payload["base_angles"]) == 5


def test_phases_rejects_odd_index():
    r = run_cli(["phases", "--pade-l", "3"])
    assert r.returncode == 2
    assert "not admissible" in r.stderr


def test_phases_writes_file(tmp_path):
    out = tmp_path / "ph.json"
    r = run_cli(["phases", "--pade-l", "2", "--out", str(out)])
    assert r.returncode == 0
    saved = json.loads(out.read_text())
    assert saved["form"] == "reflection"
    assert len(saved["angles"]) == 5


def test_sign_run_seeded(tmp_path):
    out = tmp_path / "report.csv"
    r = run_cli(["sign-run", "--seed", "11", "--dim", "4", "--gap", "0.5",
                 "--epsilon", "1e-8", "--out", str(out)])
    assert r.returncode == 0
    summary = json.loads(r.stdout)
    assert summary["converged"] is True
    assert summary["levels"] == 4
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("n,error,bound,queries")
    assert len(lines) == 5
    assert lines[-1].split(",")[3] == "625"


def test_sign_run_deterministic_rerun(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        r = run_cli(["sign-run", "--seed", "7", "--dim", "3", "--gap", "0.5",
                     "--epsilon", "1e-6", "--out", str(path)])
        assert r.returncode == 0
    assert strip_timing(a.read_text()) == strip_timing(b.read_text())


def test_sign_run_matrix_file(tmp_path):
    A, _ = hermitian_with_spectrum(2, [0.6, -0.7, 0.9])
    mpath = tmp_path / "m.json"
    save_matrix(str(mpath), A)
    r = run_cli(["sign-run", "--matrix", str(mpath), "--gap", "0.5",
                 "--epsilon", "1e-6"])
    assert r.returncode == 0
    # CSV precedes the JSON summary on stdout
    assert r.stdout.startswith("n,error")


def test_sign_run_domain_error_bad_gap(tmp_path):
    A, _ = hermitian_with_spectrum(2, [0.3, -0.7])
    mpath = tmp_path / "m.json"
    save_matrix(str(mpath), A)
    r = run_cli(["sign-run", "--matrix", str(mpath), "--gap", "0.5"])
    assert r.returncode == 3
    assert "eigenvalues outside" in r.stderr


def test_sign_run_numeric_exit_when_unconverged():
    r = run_cli(["sign-run", "--seed", "4", "--dim", "3", "--gap", "0.5",
                 "--epsilon", "1e-8", "--iters", "1"])
    assert r.returncode == 4


def test_sign_run_normalize(tmp_path):
    A, _ = hermitian_with_spectrum(6, [1.2, -1.6])
    mpath = tmp_path / "m.json"
    save_matrix(str(mpath), A)
    r = run_cli(["sign-run", "--matrix", str(mpath), "--gap", "0.5",
                 "--epsilon", "1e-6", "--normalize", "--out", str(tmp_path / "c.csv")])
    assert r.returncode == 0
    summary = json.loads(r.stdout)
    assert abs(summary["normalization"] - 1.6) < 1e-9


def test_sign_run_missing_source():
    r = run_cli(["sign-run", "--gap", "0.5"])
    assert r.returncode == 2


def test_polar_run_seeded(tmp_path):
    out = tmp_path / "polar.csv"
    r = run_cli(["polar-run", "--seed", "3", "--dim", "3", "--gap", "0.5",
                 "--epsilon", "1e-6", "--out", str(out)])
    assert r.returncode == 0
    summary = json.loads(r.stdout)
    assert summary["converged"] is True
    assert out.read_text().startswith("n,error")


def test_conditions_accepts_even(tmp_path):
    from rqet import pade, save_poly
    ppath = tmp_path / "p2.json"
    save_poly(str(ppath), pade(2))
    r = run_cli(["conditions", str(ppath)])
    assert r.returncode == 0
    assert json.loads(r.stdout)["passed"] is True


def test_conditions_rejects_odd(tmp_path):
    from rqet import pade, save_poly
    ppath = tmp_path / "p1.json"
    save_poly(str(ppath), pade(1))
    r = run_cli(["conditions", str(ppath)])
    assert r.returncode == 3
    payload = json.loads(r.stdout)
    assert payload["passed"] is False
    assert payload["witness"]["check"] == "dominating_outside"


def test_perturb_baseline_row(tmp_path):
    out = tmp_path / "pert.csv"
    r = run_cli(["perturb", "--seed", "5", "--dim", "3", "--gap", "0.5",
                 "--delta-grid", "1e-4:1e-3:3", "--out", str(out)])
    assert r.returncode == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "delta,error"
    assert lines[1].split(",")[0] == "0"
    assert float(lines[1].split(",")[1]) == 0.0
    assert len(lines) == 5


def test_perturb_bad_grid():
    r = run_cli(["perturb", "--seed", "5", "--dim", "3", "--delta-grid", "nope"])
    assert r.returncode == 2


def test_rqet_tol_env_rejected_when_invalid():
    r = run_cli(["phases", "--pade-l", "2"], env_extra={"RQET_TOL": "banana"})
    assert r.returncode == 2


def test_rqet_tol_env_coarse_tolerance():
    # a huge clustering tolerance collapses all angles into one bucket
    r = run_cli(["phases", "--pade-l", "2", "--iters", "2"],
                env_extra={"RQET_TOL": "10"})
    assert r.returncode == 0
    assert json.loads(r.stdout)["distinct_nonzero"] <= 1


def test_main_callable_directly(capsys):
    code = main(["phases", "--pade-l", "2"])
    assert code == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["query_count"] == 5
