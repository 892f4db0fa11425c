import json
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from rqet import _kernels, pade_phases
from rqet.cli import main
from rqet.qet import MAX_PHASES
from rqet.qsp import _IDENTITY_TOL
from conftest import hermitian_with_spectrum, save_matrix, save_poly


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "rqet.cli", *args],
                          capture_output=True, text=True)


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


def test_phases_cover_the_tabulated_range(capsys):
    assert main(["phases", "--pade-l", "20", "--iters", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["flattened_length"] == 41 ** 2
    assert payload["distinct_nonzero"] == 80
    assert main(["phases", "--pade-l", "22"]) == 2
    assert capsys.readouterr().err == "input error: --pade-l must lie in 1..20\n"


def test_phases_writes_file(tmp_path):
    out = tmp_path / "ph.json"
    r = run_cli(["phases", "--pade-l", "2", "--out", str(out)])
    assert r.returncode == 0
    saved = json.loads(out.read_text())
    assert saved["form"] == "reflection"
    assert len(saved["angles"]) == 5


def test_phases_stdout_limit(tmp_path):
    # 5^6 angles still print; 5^7 need --out, and over the phase cap stays exit 3
    r = run_cli(["phases", "--pade-l", "2", "--iters", "6"])
    assert r.returncode == 0
    assert len(json.loads(r.stdout)["flattened_angles"]) == 5 ** 6
    r = run_cli(["phases", "--pade-l", "2", "--iters", "7"])
    assert r.returncode == 2 and r.stdout == ""
    assert "78125 flattened angles" in r.stderr and "15625" in r.stderr and "--out" in r.stderr
    out = tmp_path / "ph.json"
    r = run_cli(["phases", "--pade-l", "2", "--iters", "7", "--out", str(out)])
    assert r.returncode == 0
    assert len(json.loads(out.read_text())["angles"]) == 5 ** 7
    assert run_cli(["phases", "--pade-l", "2", "--iters", "11"]).returncode == 3


def test_sign_run_reports_flattened_distance(capsys):
    args = ["sign-run", "--seed", "1", "--dim", "2", "--gap", "0.5", "--epsilon", "1e-8"]
    for extra, code in ((["--mode", "scalar"], 0), (["--mode", "scalar", "--iters", "0"], 4),
                        (["--mode", "recursive"], 0), (["--mode", "flattened"], 0)):
        assert main(args + extra) == code
        out = capsys.readouterr().out
        distance = json.loads(out[out.index("{"):])["flattened_distance"]
        if extra == ["--mode", "scalar"]:
            assert 0.0 <= distance <= 1e-9
        else:
            assert distance is None, extra


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
    from rqet import pade
    ppath = tmp_path / "p2.json"
    save_poly(str(ppath), pade(2))
    r = run_cli(["conditions", str(ppath)])
    assert r.returncode == 0
    assert json.loads(r.stdout)["passed"] is True


def test_conditions_rejects_odd(tmp_path):
    from rqet import pade
    ppath = tmp_path / "p1.json"
    save_poly(str(ppath), pade(1))
    r = run_cli(["conditions", str(ppath)])
    assert r.returncode == 3
    payload = json.loads(r.stdout)
    assert payload["passed"] is False
    assert payload["witness"]["check"] == "dominating_outside"


def test_conditions_on_an_oversized_polynomial_fail_fast(tmp_path):
    from rqet import polynomial
    from rqet.poly import MAX_DEGREE
    over, at = tmp_path / "over.json", tmp_path / "at.json"
    save_poly(str(over), polynomial(np.ones(MAX_DEGREE + 2)))
    save_poly(str(at), polynomial(np.ones(MAX_DEGREE + 1)))
    t0 = time.perf_counter()
    r = run_cli(["conditions", str(over)])
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == (f"input error: {MAX_DEGREE + 2} coefficients make a degree over the "
                        f"limit of {MAX_DEGREE}\n")
    r = run_cli(["conditions", str(at)])
    assert r.returncode == 3 and r.stderr == ""  # no overflow warning
    assert json.loads(r.stdout)["witness"]["check"] == "bounded_inside"
    assert time.perf_counter() - t0 < 10.0


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


def test_perturb_overflowing_phases_are_an_input_error(capsys):
    # a finite grid bound whose scaled angles overflow to inf is refused before
    # any angle is scaled, so numpy warns of no overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["perturb", "--seed", "1", "--dim", "2", "--iters", "1",
                     "--delta-grid", "1e300:1e308:2"]) == 2
    assert capsys.readouterr().err == ("input error: --delta-grid upper bound 1e+308 scales "
                                       "the phases past float64 (largest |phase| 2.88891)\n")


@pytest.mark.parametrize("command", ["sign-run", "polar-run"])
@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_non_finite_epsilon_is_a_domain_error(command, epsilon, capsys):
    assert main([command, "--seed", "1", "--dim", "2", "--epsilon", epsilon]) == 3
    err = capsys.readouterr().err
    assert err == f"domain error: tolerance must be finite, got {epsilon}\n"


@pytest.mark.parametrize("command", ["sign-run", "polar-run"])
@pytest.mark.parametrize("epsilon", ["nan", "inf", "0", "-1"])
def test_explicit_iters_still_checks_epsilon(command, epsilon, capsys):
    # --iters overrides the derived level count, not the tolerance check
    assert main([command, "--seed", "1", "--dim", "2", "--epsilon", epsilon, "--iters", "1"]) == 3
    err = capsys.readouterr().err
    reason = "positive" if float(epsilon) <= 0 else f"finite, got {epsilon}"
    assert err == f"domain error: tolerance must be {reason}\n"


_SIGN_KEYS = ["command", "mode", "levels", "final_error", "epsilon", "converged",
              "flattened_distance", "source", "normalization"]
_POLAR_KEYS = ["command", "levels", "final_error", "epsilon", "converged", "source",
               "normalization"]


@pytest.mark.parametrize("command, extra, keys, code", [
    ("sign-run", ["--mode", "recursive"], _SIGN_KEYS, 0),
    ("sign-run", ["--mode", "flattened"], _SIGN_KEYS, 0),
    ("sign-run", ["--mode", "scalar"], _SIGN_KEYS, 0),
    ("sign-run", ["--mode", "scalar", "--iters", "0"], _SIGN_KEYS, 4),
    ("sign-run", ["--iters", "1"], _SIGN_KEYS, 4),
    ("polar-run", [], _POLAR_KEYS, 0),
    ("polar-run", ["--iters", "0"], _POLAR_KEYS, 4),
])
def test_run_summaries_keep_their_keys_in_order(command, extra, keys, code, tmp_path, capsys):
    csv = tmp_path / "run.csv"
    assert main([command, "--seed", "4", "--dim", "3", "--out", str(csv), *extra]) == code
    summary = json.loads(capsys.readouterr().out)
    assert list(summary) == keys
    assert summary["command"] == command and summary["converged"] is (code == 0)
    assert summary["source"] == "seed=4 dim=3" and summary["normalization"] == 1.0
    if command == "sign-run":
        assert summary["mode"] == (extra[1] if extra[0] == "--mode" else "recursive")
    assert csv.read_text().startswith("n,error,bound,queries,distinct_angles,wall_time_ms\n")


def test_main_callable_directly(capsys):
    code = main(["phases", "--pade-l", "2"])
    assert code == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["query_count"] == 5


def test_over_cap_runs_fail_before_composing(monkeypatch, capsys):
    # 5^12 phases would take ~2 GB per list; nothing may be built
    def refuse(*_):
        raise AssertionError("compose_phases called past the phase cap")

    monkeypatch.setattr("rqet.qet.compose_phases", refuse)
    code = main(["sign-run", "--seed", "1", "--dim", "2", "--gap", "0.1",
                 "--epsilon", "1e-10", "--mode", "scalar", "--iters", "12"])
    assert code == 3
    err = capsys.readouterr().err
    assert "244140625 phases" in err and "1,953 MB" in err
    assert main(["phases", "--pade-l", "2", "--iters", "11"]) == 3
    assert main(["polar-run", "--seed", "1", "--dim", "2", "--iters", "11"]) == 3


@pytest.mark.parametrize("l", range(2, 21, 2))
def test_scalar_runs_at_the_phase_cap_are_admitted(l, capsys):
    # no scalar run is charged a budget: the deepest list under MAX_PHASES, at
    # 85 points (d = 64), plans to at most 8,241 products and takes well under
    # a second; at l = 2, n = 10 the distance is the flattened chain's own
    # floor, 1.16e-10
    n = max(k for k in range(1, 11) if (2 * l + 1) ** k <= MAX_PHASES)
    code = main(["sign-run", "--seed", "1", "--dim", "64", "--mode", "scalar",
                 "--pade-l", str(l), "--iters", str(n)])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out[out.index("{"):])["flattened_distance"] <= _IDENTITY_TOL


def test_perturb_checks_grid_and_cost_before_assembling(monkeypatch, capsys):
    # grid errors come before any list is composed
    def refuse(*_):
        raise AssertionError("dense work started before the input checks")

    monkeypatch.setattr("rqet.qet.compose_phases", refuse)
    assert main(["perturb", "--seed", "1", "--dim", "64", "--iters", "4",
                 "--delta-grid", "nope"]) == 2
    assert main(["perturb", "--seed", "1", "--dim", "64", "--iters", "4",
                 "--delta-grid", "1e-6:inf:3"]) == 2
    assert "bounds must be finite" in capsys.readouterr().err
    # 11 products of the 5^10 list's 321-product plan at d = 64 are over the
    # budget; the list may be built and planned, but no product formed
    monkeypatch.undo()
    monkeypatch.setattr("rqet.qet._phased_product", refuse)
    monkeypatch.setattr("rqet.cli._phased_product", refuse)
    assert main(["perturb", "--seed", "1", "--dim", "64", "--iters", "10"]) == 3
    assert "3531 dense products" in capsys.readouterr().err


def test_perturb_plans_its_list_once(monkeypatch, capsys, cold_sign_plans):
    # perturb takes the cached sign-list plan and runs every grid value on it
    # with the rows scaled: a cold run plans the 5^4 list once, a warm one
    # plans nothing, and both print the same
    pade_phases(2)  # a cold derivation plans the base list for its round-trip check
    planned, plan = [], _kernels._plan

    def recording(rows, *args):
        if np.ndim(rows) == 1:  # a list, not the plan's own recursion
            planned.append(len(rows))
        return plan(rows, *args)

    monkeypatch.setattr(_kernels, "_plan", recording)
    monkeypatch.setattr("rqet.qet._plan", recording)
    args = ["perturb", "--seed", "1", "--dim", "2", "--iters", "4", "--delta-grid", "1e-6:1e-2:5"]
    outputs = []
    for expected in ([625], []):
        planned.clear()
        assert main(args) == 0
        assert planned == expected
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["phases", "sign-run", "polar-run", "perturb"])
def test_absurd_level_counts_are_domain_errors(command, capsys):
    # 5^500 overflows a float; the refusal must still be one short line
    args = [command, "--iters", "500"]
    if command != "phases":
        args += ["--seed", "1", "--dim", "2"]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize("command", ["sign-run", "polar-run", "perturb"])
@pytest.mark.parametrize("dim", ["65", "10000000000"])
def test_oversized_dim_is_refused_before_generating(command, dim, capsys):
    t0 = time.perf_counter()
    assert main([command, "--seed", "1", "--dim", dim]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == f"domain error: dimension {dim} exceeds the supported maximum 64\n"


@pytest.mark.parametrize("args, message", [
    (["sign-run", "--matrix", "{d}/missing.json"], "cannot read {d}/missing.json"),
    (["conditions", "{d}/nothere.json"], "cannot read {d}/nothere.json"),
    (["sign-run", "--seed", "1", "--dim", "2", "--out", "{d}/no/x.csv"], "cannot write {d}/no/x.csv"),
    (["perturb", "--seed", "1", "--dim", "2", "--iters", "1", "--out", "{d}"], "cannot write {d}"),
    (["phases", "--pade-l", "2", "--out", "{d}/no/p.json"], "cannot write {d}/no/p.json"),
])
def test_unreadable_and_unwritable_paths_are_input_errors(tmp_path, capsys, args, message):
    # a missing file or directory exits 2 with one line, not a traceback
    assert main([a.format(d=tmp_path) for a in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {message.format(d=tmp_path)}: ") and err.count("\n") == 1


def test_files_that_are_not_utf8_or_hold_booleans_are_input_errors(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_bytes(b'\xff{"coeffs": [[0, 0], [1, 0]], "parity": "odd"}')
    assert main(["conditions", str(path)]) == 2
    path.write_text('{"coeffs": [[0, 0], [true, false]], "parity": "odd"}')
    assert main(["conditions", str(path)]) == 2
    assert capsys.readouterr().err.endswith(
        "input error: coefficient 1 holds a non-finite or non-numeric value\n")


@pytest.mark.parametrize("command", ["sign-run", "polar-run", "perturb"])
def test_negative_seed_is_an_input_error(command, tmp_path, capsys):
    # np.random.default_rng refuses a negative seed with a traceback
    assert main([command, "--seed", "-1", "--dim", "2"]) == 2
    assert capsys.readouterr().err == "input error: seed must be nonnegative, got -1\n"
    # a matrix file is read, not generated, so the seed goes unused
    mpath = tmp_path / "m.json"
    save_matrix(str(mpath), hermitian_with_spectrum(2, [0.6, -0.7])[0])
    assert main([command, "--seed", "-1", "--matrix", str(mpath)]) == 0


@pytest.mark.parametrize("args, code, err", [
    # 842 levels: delta^2 underflows, so the count is taken in logarithms
    (["sign-run", "--gap", "1e-200"], 3, "domain error: 842 levels need 5^842 phases"),
    (["polar-run", "--gap", "1e-200"], 3, "domain error: 842 levels need 5^842 phases"),
    # 1/eps overflows; the run takes its 8 levels and ends above epsilon
    (["sign-run", "--gap", "0.5", "--epsilon", "1e-320"], 4, ""),
    (["sign-run", "--iters", "100000000"], 3, "domain error: 100000000 levels need 5^100000000"),
    (["polar-run", "--iters", "100000000"], 3, "domain error: 100000000 levels need 5^100000000"),
    (["perturb", "--iters", "100000000"], 3, "domain error: 100000000 levels need 5^100000000"),
    (["phases", "--iters", "100000000"], 3, "domain error: 100000000 levels need 5^100000000"),
], ids=["sign-gap", "polar-gap", "sign-epsilon", "sign-iters", "polar-iters", "perturb-iters",
        "phases-iters"])
def test_absurd_inputs_fail_fast(args, code, err, capsys):
    if args[0] != "phases":
        args = args + ["--seed", "1", "--dim", "2"]
    t0 = time.perf_counter()
    assert main(args) == code
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.startswith(err)


@pytest.mark.parametrize("doc, message", [
    ('{"coeffs": [[0, 0], [1, 0]], "parity": "weird"}',
     "parity must be even, odd, or none, got 'weird'"),
    ('{"coeffs": [[1, 0], [0, 0], [1, 0]], "parity": "odd"}',
     "declared parity 'odd' conflicts with the coefficients"),
])
def test_conditions_refuses_a_wrong_parity_as_input(tmp_path, capsys, doc, message):
    path = tmp_path / "p.json"
    path.write_text(doc)
    assert main(["conditions", str(path)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("command", [
    ["sign-run", "--mode", "recursive"], ["sign-run", "--mode", "flattened"],
    ["sign-run", "--mode", "scalar"], ["sign-run", "--mode", "scalar", "--iters", "0"],
    ["polar-run"],
], ids=["recursive", "flattened", "scalar", "scalar-n0", "polar"])
def test_out_of_range_eigenvalue_exits_3_in_every_mode(command, tmp_path, capsys):
    # every check has the one upper bound, 1 + 1e-12, and its one message;
    # scalar mode refuses at n = 0 too
    path = tmp_path / "m.json"
    save_matrix(str(path), hermitian_with_spectrum(1, [1 + 5e-10, -0.5, 0.7, -0.3])[0])
    assert main(command + ["--matrix", str(path), "--gap", "0.3"]) == 3
    assert capsys.readouterr().err == "domain error: operator norm 1.000000000500 exceeds 1\n"


def test_scalar_run_reaches_the_rounding_floor(capsys):
    # formerly item 2's pin (exit 4 at 2.29e-11): each scalar level is one
    # reflection chain rounded once, so n = 8 reaches sign(x) exactly
    assert main("sign-run --seed 1 --dim 2 --mode scalar --gap 0.1 --epsilon 1e-13".split()) == 0
    out = capsys.readouterr().out
    assert json.loads(out[out.index("{"):])["final_error"] <= 1e-13


# ROADMAP item 2's targets (unitarity restored after every level, the cap
# split): each fails today, so the change that lands item 2 must flip them
@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: rounding floor and phase cap")
@pytest.mark.parametrize("args", [
    "sign-run --seed 1 --dim 64 --gap 0.1 --epsilon 1e-10",  # exit 4 at 1.00e-9
    "sign-run --seed 1 --dim 2 --mode scalar --gap 1e-3 --epsilon 1e-10",  # 5^16 over the cap
    "sign-run --seed 1 --dim 64 --gap 1e-3 --epsilon 1e-10",  # 5^16 over the cap
    "polar-run --seed 1 --dim 8 --iters 12",  # 5^12 over the cap
], ids=["d64-eps1e-10", "scalar-gap1e-3", "d64-gap1e-3", "polar-iters12"])
def test_roadmap_item_2_targets_finish(args, capsys):
    t0 = time.perf_counter()
    assert main(args.split()) == 0
    if "--mode scalar --gap 1e-3" in args:  # n = 16
        assert time.perf_counter() - t0 < 1.0
