"""Tests for the command-line runner."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hitchin import cli


def run(argv):
    return cli.main(argv)


class TestConfig:
    def test_load_flat_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# comment\nq = 0.25\npoints=7  # trailing\n\n")
        assert cli.load_config(path) == {"q": "0.25", "points": "7"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("q 0.25\n")
        with pytest.raises(cli.ConfigError, match="KEY=VALUE"):
            cli.load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("q=0.25\nq=0.3\n")
        with pytest.raises(cli.ConfigError, match="duplicate"):
            cli.load_config(path)

    def test_unknown_key_rejected(self):
        with pytest.raises(cli.ConfigError, match="bogus"):
            cli.resolve_config("theta-check", {"bogus": "1"}, {})

    def test_defaults_and_overrides(self):
        cfg = cli.resolve_config("theta-check", {"q": "0.25"},
                                 {"tol": 1e-6, "seed": 5})
        assert cfg["q"] == 0.25
        assert cfg["points"] == 100
        assert cfg["tol"] == 1e-6
        assert cfg["seed"] == 5

    def test_unknown_key_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text("frobnicate=1\n")
        code = run(["theta-check", "--config", str(path),
                    "--out", str(tmp_path)])
        assert code == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_complex_formatting(self):
        assert cli._fmt(1.5) == "1.5"
        assert cli._fmt(1.5 + 0.25j) == "1.5+0.25j"
        assert cli._fmt(-2.0 - 1.0j) == "-2.0-1.0j"


class TestRuns:
    def test_theta_check_passes(self, tmp_path, capsys):
        code = run(["theta-check", "--seed", "1", "--points", "20",
                    "--out", str(tmp_path)])
        assert code == 0
        body = (tmp_path / "theta-check.csv").read_text()
        assert body.splitlines()[0] == "check,params,residual,tolerance,status"
        assert "FAIL" not in body
        meta = json.loads((tmp_path / "theta-check.json").read_text())
        assert meta["seed"] == 1
        assert "wp_const" in meta and "numpy_version" in meta

    def test_failing_tolerance_exits_nonzero(self, tmp_path):
        code = run(["theta-check", "--seed", "1", "--points", "5",
                    "--tol", "1e-30", "--out", str(tmp_path)])
        assert code == 1
        assert "FAIL" in (tmp_path / "theta-check.csv").read_text()

    def test_rational_quantum_exact_at_integer_sites(self, tmp_path):
        code = run(["rational-quantum", "--seed", "1",
                    "--weights", "1,1,1", "--sites", "0,1,3",
                    "--out", str(tmp_path)])
        assert code == 0
        import csv as csvmod
        with open(tmp_path / "rational-quantum.csv", newline="") as fh:
            rows = {r["check"]: r for r in csvmod.DictReader(fh)}
        assert rows["gaudin_commutators_exact"]["residual"] == "0.0"

    def test_csv_bodies_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run(["theta-check", "--seed", "7", "--points", "15",
                        "--out", str(out)]) == 0
        assert (out1 / "theta-check.csv").read_bytes() == \
            (out2 / "theta-check.csv").read_bytes()
        assert (out1 / "theta-check.json").read_bytes() == \
            (out2 / "theta-check.json").read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(["rational-classical", "--seed", "1", "--trials", "1",
             "--out", str(out1)])
        run(["rational-classical", "--seed", "2", "--trials", "1",
             "--out", str(out2)])
        assert (out1 / "rational-classical.csv").read_bytes() != \
            (out2 / "rational-classical.csv").read_bytes()

    def test_flow_overflow_is_a_failing_row(self, tmp_path, capsys):
        # at seed 3 the RK4 trajectory escapes the overflow bound
        code = run(["rational-classical", "--seed", "3",
                    "--out", str(tmp_path)])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        row = read_rows(tmp_path / "rational-classical.csv")[
            "flow_conservation"]
        assert (row["residual"], row["status"]) == ("inf", "FAIL")
        assert (tmp_path / "rational-classical.json").exists()

    def test_elliptic_quantum_run(self, tmp_path):
        code = run(["elliptic-quantum", "--seed", "1", "--weights", "1,1",
                    "--k", "2", "--twists", "3", "--out", str(tmp_path)])
        assert code == 0
        body = (tmp_path / "elliptic-quantum.csv").read_text()
        assert "reduced_commutativity" in body
        assert "FAIL" not in body

    def test_rational_quantum_exact_at_decimal_sites(self, tmp_path):
        code = run(["rational-quantum", "--weights", "1,1,1",
                    "--sites", "0,0.5,2", "--out", str(tmp_path)])
        assert code == 0
        rows = read_rows(tmp_path / "rational-quantum.csv")
        assert rows["gaudin_commutators_exact"]["residual"] == "0.0"

    def test_rational_quantum_exact_na_at_complex_sites(self, tmp_path):
        code = run(["rational-quantum", "--weights", "1,1,1",
                    "--sites", "0,0.5j,2", "--out", str(tmp_path)])
        assert code == 0
        row = read_rows(tmp_path / "rational-quantum.csv")[
            "gaudin_commutators_exact"]
        assert (row["residual"], row["status"]) == ("n/a", "n/a")

    def test_exact_rows_fail_on_any_nonzero_residue(self, tmp_path,
                                                     monkeypatch):
        # 10^-400 rounds to 0.0 as a float, so only an exact gate sees it
        from fractions import Fraction
        from hitchin import rational_quantum as rq
        tiny = Fraction(1, 10 ** 400)
        residues, s_polys = rq.gaudin_residues_exact, rq.s_polynomials

        def skewed_residues(weights, sites):
            hams = residues(weights, sites)
            hams[0][0, 1] += tiny
            return hams

        def skewed_s(n, p_max):
            s = s_polys(n, p_max)
            s[1] += tiny
            return s

        monkeypatch.setattr(rq, "gaudin_residues_exact", skewed_residues)
        monkeypatch.setattr(rq, "s_polynomials", skewed_s)
        code = run(["rational-quantum", "--weights", "1,1,1",
                    "--sites", "0,1,3", "--out", str(tmp_path)])
        assert code == 1
        rows = read_rows(tmp_path / "rational-quantum.csv")
        for check in ("gaudin_commutators_exact", "s_polynomial_values"):
            assert (rows[check]["tolerance"], rows[check]["status"]) \
                == ("0", "FAIL")

    def test_empty_weight_zero_subspace_is_na(self, tmp_path):
        # odd total weight: no weight-zero states, nothing to commute on
        code = run(["elliptic-quantum", "--weights", "1,1,1", "--twists", "1",
                    "--out", str(tmp_path)])
        assert code == 0
        row = read_rows(tmp_path / "elliptic-quantum.csv")[
            "reduced_commutativity"]
        assert (row["residual"], row["status"]) == ("n/a", "n/a")


def read_rows(path):
    with open(path, newline="") as fh:
        return {r["check"]: r for r in csv.DictReader(fh)}


@pytest.mark.parametrize("argv", [
    ["theta-check", "--q", "1.2"],
    ["theta-check", "--q", "0.9999999"],
    ["rational-quantum", "--weights", "1"],
    ["rational-classical", "--trials", "0"],
    ["rational-classical", "--trials", "-1"],
    ["rational-classical", "--nsites", "0"],
    ["rational-classical", "--n", "1"],
    ["elliptic-classical", "--points", "0"],
    ["theta-check", "--points", "0"],
    ["elliptic-quantum", "--twists", "0"],
    ["elliptic-classical", "--n", "0"],
    ["rational-quantum", "--p-max", "2"],
    ["elliptic-quantum", "--weights", "1,-1"],
    ["elliptic-quantum", "--weights", "1,,1"],
    ["rational-quantum", "--weights", "1,-1,1"],
    ["rational-quantum", "--weights", "1,,1"],
    ["theta-check", "--seed", "x"],
    ["theta-check", "--seed", "-1"],
    ["theta-check", "--tol", "x"],
    ["rational-quantum", "--weights", "1,1,1", "--sites", "0,,1,3"],
    ["rational-quantum", "--sites", "1,1,3"],
    ["rational-quantum", "--sites", "nan,1,3"],
    ["theta-check", "--q", "nan"],
    ["theta-check", "--tol", "nan"],
    ["theta-check", "--tol", "inf"],
    ["theta-check", "--tol", "-1"],
    ["elliptic-quantum", "--config", "tol_symbol=nan"],
], ids=["q_outside_disc", "q_truncation", "one_weight", "no_trials",
        "negative_trials", "no_sites", "no_coefficient", "ec_no_points",
        "theta_no_points", "no_twists", "ec_no_matrices", "short_s_series",
        "eq_negative_weight", "eq_empty_weight", "rq_negative_weight",
        "rq_empty_weight", "seed_not_int", "negative_seed", "tol_not_float",
        "rq_empty_site", "rq_repeated_site", "rq_nan_site", "q_nan",
        "tol_nan", "tol_inf", "negative_tol", "config_tol_nan"])
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, argv):
    if "--config" in argv:
        # the value after --config is the text of the file
        at = argv.index("--config") + 1
        path = tmp_path / "cfg.txt"
        path.write_text(argv[at] + "\n")
        argv = argv[:at] + [str(path)] + argv[at + 1:]
    code = run(argv + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_bad_seed_in_config_file_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "cfg.txt"
    path.write_text("seed=x\n")
    code = run(["theta-check", "--config", str(path),
                "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.strip().splitlines() == [
        "config error: bad value for 'seed': invalid literal for int() "
        "with base 10: 'x'"]


@pytest.mark.parametrize("name,key", [
    (name, key) for name, schema in cli.SCHEMAS.items()
    for key in schema if key.startswith("tol")])
def test_every_tolerance_rejects_nan(name, key):
    with pytest.raises(cli.ConfigError, match="'%s'" % key):
        cli.resolve_config(name, {key: "nan"}, {})


def test_zero_tolerance_is_accepted():
    cfg = cli.resolve_config("theta-check", {}, {"tol": "0"})
    assert cfg["tol"] == 0.0


@pytest.mark.parametrize("text", ["1,-1", "1,,1", "1,1,", ""])
def test_bad_weights_are_a_config_error(text):
    with pytest.raises(cli.ConfigError, match="'weights'"):
        cli.resolve_config("elliptic-quantum", {"weights": text}, {})
    with pytest.raises(cli.ConfigError, match="'weights'"):
        cli.resolve_config("rational-quantum", {}, {"weights": text})


def test_elliptic_quantum_run_needs_no_scipy(tmp_path):
    # a fresh interpreter: other tests may have imported scipy here
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    script = ("import sys\n"
              "from hitchin.cli import main\n"
              "code = main(['elliptic-quantum', '--out', sys.argv[1]])\n"
              "print(code, 'scipy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 False"


def test_count_below_one_is_a_config_error():
    with pytest.raises(cli.ConfigError, match="'points' must be at least 1"):
        cli.resolve_config("theta-check", {"points": "0"}, {})


def test_one_site_rational_classical_is_na(tmp_path):
    # one site: a single degree-2 coefficient, no pair to bracket, and the
    # coefficients are Casimirs, so no flow moves
    code = run(["rational-classical", "--nsites", "1", "--out", str(tmp_path)])
    assert code == 0
    rows = read_rows(tmp_path / "rational-classical.csv")
    for check in ("involutivity", "gradient_fd_oracle", "flow_conservation"):
        assert (rows[check]["residual"], rows[check]["status"]) \
            == ("n/a", "n/a")


def test_small_rational_classical_run_passes(tmp_path):
    code = run(["rational-classical", "--nsites", "2", "--trials", "1",
                "--out", str(tmp_path)])
    assert code == 0
    rows = read_rows(tmp_path / "rational-classical.csv")
    assert {r["status"] for r in rows.values()} == {"pass"}


def test_exhausted_phase_point_draws_exit_3(tmp_path, capsys, monkeypatch,
                                            lattice_rng):
    monkeypatch.setattr(cli, "_rng", lambda seed, task: lattice_rng)
    code = run(["elliptic-classical", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert len(err.strip().splitlines()) == 1
    assert "draws" in err


@pytest.mark.parametrize("command,module,residual", [
    ("theta-check", "hitchin.theta", "functional_equation_residual"),
    ("elliptic-classical", "hitchin.elliptic_classical",
     "verify_dynamical_rmatrix"),
])
def test_rejected_evaluation_draws_exit_3(tmp_path, capsys, monkeypatch,
                                          command, module, residual):
    from hitchin.elliptic_classical import MAX_DRAWS
    from hitchin.theta import PoleError
    calls = []

    def always_on_a_pole(*args):
        calls.append(1)
        raise PoleError("on the lattice")

    monkeypatch.setattr("%s.%s" % (module, residual), always_on_a_pole)
    code = run([command, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert len(calls) == MAX_DRAWS
    assert len(err.strip().splitlines()) == 1
    assert "in a row" in err


def test_rejected_draw_adds_nothing_to_the_maxima(tmp_path, monkeypatch):
    # the first draw has a huge functional-equation residual and then hits
    # the pole guard in a later residual: none of it may reach the report
    from hitchin import theta
    first = {"functional": True, "cross": True}
    functional, cross = (theta.functional_equation_residual,
                         theta.cross_square_residual)

    def huge_once(ctx, z):
        if first.pop("functional", False):
            return 1e9
        return functional(ctx, z)

    def pole_once(ctx, z, w):
        if first.pop("cross", False):
            raise theta.PoleError("on the lattice")
        return cross(ctx, z, w)

    monkeypatch.setattr(theta, "functional_equation_residual", huge_once)
    monkeypatch.setattr(theta, "cross_square_residual", pole_once)
    assert run(["theta-check", "--points", "3", "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "theta-check.csv")
    assert float(rows["functional_equation"]["residual"]) < 1e-10
