import json
import os
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

from kslayers import analysis, ansatz, cli, greens

import oracles


def run_cli(args, tmp_path, sub=None):
    out = tmp_path / (sub or "out")
    code = cli.main(args + ["--out", str(out)])
    return code, out


def run_process(cwd=None, *, args=(), code=None):
    """``python -m kslayers.cli ARGS``, or ``python -c CODE``, run in ``cwd``
    with this checkout's ``src`` on the import path."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    cmd = ["-c", code] if code else ["-m", "kslayers.cli", *args]
    return subprocess.run([sys.executable, *cmd], cwd=cwd, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})


def files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_green_json(tmp_path):
    code, out = run_cli(["green", "--k", "1", "--b", "1e-3",
                         "--outer", "neumann"], tmp_path)
    assert code == 0
    doc = json.loads((out / "green.json").read_text())
    assert len(doc["alphas"]) == 1
    assert 0.0 < doc["alphas"][0] < 1.0
    assert doc["residual"] <= 1e-10
    assert doc["version"]
    assert doc["config"]["command"] == "green"


def test_green_profile_csv(tmp_path):
    gridfile = tmp_path / "radii.txt"
    gridfile.write_text("\n".join(str(x) for x in np.linspace(0.05, 1, 20)))
    code, out = run_cli(["green", "--k", "1", "--b", "1e-3",
                         "--outer", "neumann", "--grid-file", str(gridfile)],
                        tmp_path)
    assert code == 0
    lines = (out / "green_profile.csv").read_text().strip().splitlines()
    assert lines[2] == "r,U,dU"
    assert len(lines) == 3 + 20


@pytest.mark.parametrize("body, where", [
    ("0.5\n2.0\n", "line 2: radius 2.0 is not in (0, 1]"),
    ("-0.5\n", "line 1: radius -0.5 is not in (0, 1]"),
    ("0.5\n0\n", "line 2: radius 0 is not in (0, 1]"),
    ("# radii\nnan\n", "line 2: radius nan is not in (0, 1]"),
    ("0.5\nabc\n", "line 2: 'abc' is not a radius"),
    ("", "no radius found in"),
    ("# only a comment\n\n", "no radius found in"),
], ids=["above-one", "negative", "zero", "nan", "non-numeric", "empty",
        "comment-only"])
def test_bad_grid_file_is_a_validation_error(tmp_path, capsys, body, where):
    # checked before the solve, so nothing is written
    gridfile = tmp_path / "radii.txt"
    gridfile.write_text(body)
    code, out = run_cli(["green", "--k", "1", "--b", "1e-3", "--outer", "neumann",
                         "--grid-file", str(gridfile)], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert str(gridfile) in err and where in err
    assert "Warning" not in err
    assert not out.exists()


def test_subnormal_grid_radius_is_a_domain_error(tmp_path, capsys):
    # 1e-320 lies in (0, 1], so the file passes its check, but the Bessel
    # kernels reject it before 1/r overflows; the profile is evaluated
    # before anything is written
    gridfile = tmp_path / "radii.txt"
    gridfile.write_text("1e-320\n0.5\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(["green", "--k", "1", "--b", "1e-3",
                             "--outer", "neumann", "--grid-file", str(gridfile)],
                            tmp_path)
    assert code == 2
    assert not caught
    err = capsys.readouterr().err
    assert "1e-320" in err and "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags, name", [
    (["--kmax", "0", "--b-grid", "1e-3"], "k_max=0"),
    (["--kmax", "-1", "--b-grid", "1e-3"], "k_max=-1"),
    (["--kmax", "2", "--b-grid", ""], "b_grid is empty"),
])
def test_empty_nondegen_sweep_is_a_validation_error(tmp_path, capsys, flags, name):
    code, out = run_cli(["nondegen", *flags], tmp_path)
    assert code == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_branch_without_steps_is_a_validation_error(tmp_path, capsys, steps,
                                                    monkeypatch):
    # the count is rejected before the seed is solved
    from kslayers import bvp
    seeds = []
    monkeypatch.setattr(bvp, "seed_branch", lambda *args, **kw: seeds.append(args))
    code, out = run_cli(["branch", "--i", "2", "--sign", "+", "--steps", steps],
                        tmp_path)
    assert code == 2 and not seeds
    assert f"steps={steps}" in capsys.readouterr().err
    assert not out.exists()


def test_nondegen_sweep(tmp_path):
    code, out = run_cli(["nondegen", "--kmax", "4",
                         "--b-grid", "1e-4,1e-3,1e-2"], tmp_path)
    assert code == 0
    rows = (out / "nondegen.csv").read_text().strip().splitlines()
    data = [r.split(",") for r in rows if not r.startswith("#")][1:]
    assert len(data) == 12
    assert all(abs(float(r[2])) > 0 for r in data)
    doc = json.loads((out / "nondegen.json").read_text())
    assert doc["min_abs_Mk"] > 1e-8


def test_eta_validation_exit_code(tmp_path):
    code, _ = run_cli(["ansatz", "--lambda", "1e-4", "--eta", "0.5"], tmp_path)
    assert code == 2


def test_unknown_flag_exit_code(tmp_path):
    assert cli.main(["green", "--k", "1", "--b", "1e-3", "--bogus", "1"]) == 2


def test_solver_failure_exit_code(tmp_path):
    # no concentrated solution exists at lambda = 1e-3: solver error
    code, _ = run_cli(["solve", "--lambda", "1e-3", "--init", "ansatz"],
                      tmp_path)
    assert code == 3


def test_solve_and_report_roundtrip(tmp_path):
    code, out = run_cli(["solve", "--lambda", "1e-4", "--init", "ansatz"],
                        tmp_path, "so")
    assert code == 0
    doc = json.loads((out / "solve.json").read_text())
    assert doc["newton_iters"] <= 10
    assert doc["residual_norm"] <= 1e-9

    code2, out2 = run_cli(["report", "--in", str(out / "solution.csv"),
                           "--k", "1", "--lambda", "1e-4"], tmp_path, "rp")
    assert code2 == 0
    rep = json.loads((out2 / "report.json").read_text())
    assert rep["origin_mass"] > 0
    assert rep["origin_mass"] <= rep["total_mass"]


def test_neumann_scaffold_solve_converges_at_lambda_1e_20(tmp_path):
    # the one multilayer start known to converge: measured 21 Newton steps,
    # residual 1.26e-12, u(0) = 50.029; origin mass 23.21, eps * boundary
    # mass 1.84, profile gap 0.061
    code, out = run_cli(["solve", "--lambda", "1e-20", "--init", "ansatz",
                         "--outer", "neumann"], tmp_path, "so")
    assert code == 0
    doc = json.loads((out / "solve.json").read_text())
    assert doc["newton_iters"] <= 25
    assert doc["residual_norm"] <= 1e-9
    assert doc["u0"] == pytest.approx(50.029, abs=1e-3)
    code2, out2 = run_cli(["report", "--in", str(out / "solution.csv"), "--k", "1",
                           "--outer", "neumann", "--lambda", "1e-20"], tmp_path, "rp")
    assert code2 == 0
    rep = json.loads((out2 / "report.json").read_text())
    assert rep["origin_mass"] == pytest.approx(23.21, abs=0.01)
    assert rep["boundary_mass"] == pytest.approx(1.84, abs=0.01)
    assert rep["profile_gap"] == pytest.approx(0.061, abs=1e-3)


def test_solve_from_file_roundtrip(tmp_path):
    from kslayers import bvp
    code, out = run_cli(["solve", "--lambda", "1e-4", "--init", "ansatz"],
                        tmp_path, "a")
    assert code == 0
    code2, out2 = run_cli(["solve", "--lambda", "1e-4", "--init", "file",
                           "--file", str(out / "solution.csv")], tmp_path, "b")
    assert code2 == 0
    d1 = json.loads((out / "solve.json").read_text())
    d2 = json.loads((out2 / "solve.json").read_text())
    assert abs(d1["u0"] - d2["u0"]) < 1e-8
    assert d2["newton_iters"] <= 3
    # the file's guess is read for its grid and values alone: with the
    # np.gradient slopes, zero u'' and labels the reader once attached, it
    # solves to the same bits
    guess = cli._read_profile_csv(str(out / "solution.csv"))
    assert guess.d1 is None and guess.d2 is None and guess.piece is None
    r, u = guess.grid, guess.values
    labelled = ansatz.Profile(r, u, np.gradient(u, r), np.zeros_like(u),
                              np.full(r.size, "file"))
    a, b = bvp.solve_bvp(1e-4, guess), bvp.solve_bvp(1e-4, labelled)
    assert np.array_equal(a.profile.values, b.profile.values)
    assert a.residual_history == b.residual_history


@pytest.mark.parametrize("body, line", [
    ("r,u\n0,1\n0.5\n1,1\n", 3),
    ("r,u\n0,1\n0.5,oops\n1,1\n", 3),
    ("r,u\n0,nan\n0.5,1\n1,1\n", 2),
    ("# r u\nr,u\n0,1\n\n0.5,1\n0.4,1\n1,1\n", 6),
], ids=["one-field", "non-numeric", "non-finite", "radii-not-increasing"])
def test_bad_profile_file_is_a_validation_error(tmp_path, capsys, body, line):
    path = tmp_path / "guess.csv"
    path.write_text(body)
    for args in (["solve", "--lambda", "1e-4", "--init", "file", "--file", str(path)],
                 ["report", "--in", str(path), "--k", "1", "--lambda", "1e-4"]):
        code, out = run_cli(args, tmp_path)
        assert code == 2
        assert f"{path} line {line}:" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_solve_tolerance_must_be_finite(tmp_path, capsys, tol):
    # an infinite tolerance would certify the unsolved ansatz as a solution
    code, out = run_cli(["solve", "--lambda", "1e-4", "--tol", tol], tmp_path)
    assert code == 2
    assert "finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lam", ["inf", "nan"])
def test_solve_lambda_must_be_finite(tmp_path, capsys, lam):
    # unchecked, inf would reach the Jacobian (exit 3) and NaN the grid
    code, out = run_cli(["solve", "--lambda", lam, "--init", "constant"], tmp_path)
    assert code == 2
    assert f"lambda={lam}: lambda must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_solve_init_file_names_the_missing_flag(tmp_path, capsys):
    code, out = run_cli(["solve", "--lambda", "1e-4", "--init", "file"], tmp_path)
    assert code == 2
    assert "--init file needs --file" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [["--k", "0"], ["--k", "-3"],
                                  ["--k", "0", "--outer", "neumann"]],
                         ids=["zero", "negative", "zero-neumann"])
def test_report_needs_k_at_least_one(tmp_path, capsys, args):
    # no family has k < 1; the reference would silently be family 1's
    path = tmp_path / "guess.csv"
    path.write_text("r,u\n" + "".join(f"{r},2\n" for r in np.linspace(0, 1, 201)))
    code, out = run_cli(["report", "--in", str(path), "--lambda", "1e-4"] + args,
                        tmp_path)
    assert code == 2
    assert "k >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_branch_csv(tmp_path):
    code, out = run_cli(["branch", "--i", "2", "--sign", "+",
                         "--steps", "5"], tmp_path)
    assert code == 0
    rows = [r for r in (out / "branch.csv").read_text().splitlines()
            if not r.startswith("#")]
    assert rows[0] == "mu,u0,zero_count"
    assert len(rows) == 1 + 6
    first = rows[1].split(",")
    assert float(first[1]) > 1.0
    assert int(first[2]) == 1


def test_branch_csv_keeps_the_long_double_mu(tmp_path):
    from kslayers import bvp
    code, out = run_cli(["branch", "--i", "2", "--sign", "+",
                         "--steps", "5"], tmp_path)
    assert code == 0
    rows = [r.split(",") for r in (out / "branch.csv").read_text().splitlines()
            if not r.startswith("#")][1:]
    points = bvp.continue_component(bvp.seed_branch(2, "+"), steps=5)
    assert len(rows) == len(points)
    assert all(np.longdouble(row[0]) == pt.param
               for row, pt in zip(rows, points))


def test_branch_stays_on_seeded_component(tmp_path):
    # continued towards increasing mu, the '+' seed of i = 2 crosses back
    # through the bifurcation onto the '-' component after five points
    code, out = run_cli(["branch", "--i", "2", "--sign", "+",
                         "--steps", "25"], tmp_path)
    assert code == 0
    text = (out / "branch.csv").read_text()
    assert "direction" not in text
    rows = [r.split(",") for r in text.splitlines()
            if not r.startswith("#")][1:]
    assert len(rows) == 26
    assert all(float(u0) > 1.0 and int(zc) == 1 for _, u0, zc in rows)


def test_deterministic_outputs(tmp_path):
    _, out1 = run_cli(["green", "--k", "2", "--b", "1e-3",
                       "--outer", "dirichlet"], tmp_path, "d1")
    _, out2 = run_cli(["green", "--k", "2", "--b", "1e-3",
                       "--outer", "dirichlet"], tmp_path, "d2")
    assert (out1 / "green.json").read_bytes() == (out2 / "green.json").read_bytes()


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("outer=neumann\nb=1e-3\n")
    code, out = run_cli(["green", "--config", str(cfg), "--k", "1",
                         "--b", "1e-3"], tmp_path, "c1")
    assert code == 0
    doc = json.loads((out / "green.json").read_text())
    assert doc["outer_mode"] == "neumann"


def test_config_file_loses_to_flags(tmp_path):
    # a flag given on the command line wins over the file even when it
    # repeats the parser's default
    cfg = tmp_path / "run.cfg"
    cfg.write_text("outer=neumann\nk=2\n")
    code, out = run_cli(["green", "--k", "1", "--b", "1e-3", "--outer",
                         "dirichlet", "--config", str(cfg)], tmp_path, "c2")
    assert code == 0
    doc = json.loads((out / "green.json").read_text())
    assert doc["outer_mode"] == "dirichlet_one"
    assert doc["config"]["k"] == 1 and len(doc["alphas"]) == 1


def test_config_file_preseeds_a_required_flag(tmp_path, capsys):
    cfg = tmp_path / "k.cfg"
    cfg.write_text("k=2\n")
    code, out = run_cli(["green", "--b", "1e-3", "--config", str(cfg)],
                        tmp_path, "c3")
    assert code == 0
    doc = json.loads((out / "green.json").read_text())
    assert doc["config"]["k"] == 2 and len(doc["alphas"]) == 2
    # a required flag that neither the file nor the command line gives
    with pytest.raises(SystemExit) as exc:
        run_cli(["green", "--config", str(cfg)], tmp_path, "c4")
    assert exc.value.code == 2
    assert "the following arguments are required: --b" in capsys.readouterr().err
    assert not (tmp_path / "c4").exists()


def test_fixpoint_csv(tmp_path):
    code, out = run_cli(["fixpoint", "--lambda", "1e-4"], tmp_path)
    assert code == 0
    doc = json.loads((out / "fixpoint.json").read_text())
    assert doc["residual_drop"] >= 1e2
    assert doc["stop_reason"] == "converged" and doc["predicted_iterations"] is None
    rows = [r for r in (out / "fixpoint.csv").read_text().splitlines()
            if not r.startswith("#")]
    assert rows[0] == "iter,increment,factor"


def test_fixpoint_stops_where_tol_is_out_of_reach(tmp_path):
    code, out = run_cli(["fixpoint", "--lambda", "1e-5"], tmp_path)
    assert code == 0
    doc = json.loads((out / "fixpoint.json").read_text())
    assert doc["stop_reason"] == "unreachable" and not doc["converged"]
    assert isinstance(doc["predicted_iterations"], int)
    assert doc["predicted_iterations"] > 200
    rows = [r for r in (out / "fixpoint.csv").read_text().splitlines()
            if not r.startswith("#")]
    params = ansatz.build_params(1e-5)
    fp = analysis.fixed_point(ansatz.build_profile(params), 1e-5, eps=params.eps,
                              require_contraction=False)
    assert len(rows) - 1 == len(fp.increments) < 200


@pytest.mark.parametrize("extra", [["--lambda", "1e-2"],
                                   ["--lambda", "1e-4", "--outer", "neumann"]])
def test_fixpoint_overflow_names_the_radius(tmp_path, capsys, extra):
    code, out = run_cli(["fixpoint", *extra], tmp_path)
    assert code == 3
    assert "e^(U+phi) overflows at r=" in capsys.readouterr().err
    assert not out.exists()


def test_report_overflow_names_the_radius(tmp_path, capsys):
    # u = 650 everywhere: e^u past EXP_CAP from the origin on
    path = tmp_path / "flat.csv"
    path.write_text("".join(f"{r!r},650.0\n" for r in np.linspace(0, 1, 50).tolist()))
    code, out = run_cli(["report", "--in", str(path), "--k", "1",
                         "--lambda", "1e-280"], tmp_path)
    assert code == 3
    assert "e^u overflows at r=0.000000" in capsys.readouterr().err
    assert not out.exists()


def test_residual_json(tmp_path):
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    code, out = run_cli(["residual", "--lambda", "1e-4", "--k", "1"], tmp_path)
    assert code == 0
    # strict JSON: NaN and Infinity are Python extensions other parsers reject
    doc = json.loads((out / "residual.json").read_text(), parse_constant=reject)
    assert doc["star"] >= doc["starstar"]
    assert doc["l1_outer"] > 0


def test_import_leaves_nondegen_out():
    # only the nondegen subcommand needs the module; it imports it itself
    out = run_process(code="import sys, kslayers.cli; "
                           "print('kslayers.nondegen' in sys.modules)")
    assert (out.returncode, out.stdout) == (0, "False\n")


def test_multilayer_ansatz_json_is_the_scaffold(tmp_path):
    code, out = run_cli(["ansatz", "--lambda", "1e-4", "--k", "2"], tmp_path)
    assert code == 0
    doc = json.loads((out / "ansatz.json").read_text())
    b = 4.0 * ansatz.solve_epsilon(1e-4) / np.sqrt(2.0)
    cfg, _ = greens.solve_layers(1, b, greens.DIRICHLET, b_max=0.5)
    radii = greens.LayerCalculus(cfg.alphas, b, greens.DIRICHLET).radii
    assert doc["radii"] == radii.tolist()
    assert doc["layer_parameters"] == "leading order"


def test_config_keys_have_typed_flags(tmp_path):
    # a config file's "value" is typed by solve's --value flag, not passed
    # through as a string
    cfg = tmp_path / "run.cfg"
    cfg.write_text("value=2.0\n")
    code, out = run_cli(["solve", "--lambda", "1e-4", "--init", "constant",
                         "--config", str(cfg)], tmp_path, "v")
    assert code == 0
    doc = json.loads((out / "solve.json").read_text())
    assert doc["config"]["value"] == 2.0
    assert abs(doc["u0"] - 1.0001e-4) < 1e-8
    # a Neumann multilayer residual needs no config file
    code, out = run_cli(["residual", "--lambda", "1e-4", "--k", "2",
                         "--outer", "neumann"], tmp_path, "n")
    assert code == 0
    doc = json.loads((out / "residual.json").read_text())
    assert doc["config"]["outer"] == "neumann"


def test_solve_declares_eta(tmp_path):
    # solve's ansatz guess reads eta, so solve takes the flag
    code, out = run_cli(["solve", "--lambda", "1e-4", "--eta", "0.75"], tmp_path)
    assert code == 0
    doc = json.loads((out / "solve.json").read_text())
    assert doc["config"]["eta"] == 0.75


@pytest.mark.parametrize("args, explicit", [
    (["fixpoint", "--lambda", "1e-4"],
     ["--k", "1", "--outer", "dirichlet", "--eta", "0.8"]),
    (["residual", "--lambda", "1e-4", "--k", "1"],
     ["--outer", "dirichlet", "--eta", "0.8"]),
    (["solve", "--lambda", "1e-4"],
     ["--init", "ansatz", "--k", "1", "--outer", "dirichlet", "--eta", "0.8",
      "--value", "1.0", "--tol", "1e-9"]),
], ids=["fixpoint", "residual", "solve"])
def test_a_default_and_the_same_value_given_write_the_same_files(tmp_path, args,
                                                                 explicit):
    # every flag is echoed, given or defaulted, so the outputs cannot tell
    # the two apart
    code, default = run_cli(args, tmp_path, "default")
    assert code == 0
    code, given = run_cli(args + explicit, tmp_path, "given")
    assert code == 0
    names = sorted(os.listdir(default))
    assert names == sorted(os.listdir(given))
    for name in names:
        assert (default / name).read_bytes() == (given / name).read_bytes(), name
    doc = json.loads((default / f"{args[0]}.json").read_text())
    assert {"k", "outer", "eta"} <= doc["config"].keys()


def test_config_key_without_a_flag_is_echoed(tmp_path):
    # a key no subcommand declares is carried as a string and checked by
    # nothing; before, a "lams" key ended every subcommand in a TypeError
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lams=1e-3\n")
    code, out = run_cli(["green", "--k", "1", "--b", "1e-3",
                         "--config", str(cfg)], tmp_path)
    assert code == 0
    doc = json.loads((out / "green.json").read_text())
    assert doc["config"]["lams"] == "1e-3"


def test_csv_writer_writes_the_bytes_of_the_value_by_value_writer(tmp_path):
    # one tolist() per array column and one % format per row, against the
    # writer that passed every value through _fmt; the rows are what the
    # commands built by iterating the arrays, numpy scalars included
    specials = [0.1, -0.0, 1e-320, np.nan, np.inf, -np.inf, 1.0 / 3.0, 1e22, 2.0,
                -123456.789, 5e-324, 1.7976931348623157e308]
    n = len(specials)
    floats = np.array(specials)
    columns = [
        floats,
        floats[::-1].copy(),
        np.asarray(floats, dtype=np.longdouble),
        np.float32(1.0) / np.arange(1, n + 1, dtype=np.float32),
        np.arange(n) - 3,
        np.array(["inner", "u1", "u2", "u3", "outer", "const"] * 2),
        [1.5, np.float64(2.5), 3, "s", np.nan, np.inf, np.int64(7),
         np.float32(0.1), -np.inf, "15.63884387821889779", 10**20, -0.0],
        range(n),
    ]
    cfg = cli.RunConfig("ansatz", {"lam": 1e-4, "eta": np.float64(0.8), "k": 1,
                                   "outer": "dirichlet_one", "b_grid": [1e-3]},
                        out_dir=str(tmp_path))
    header = [f"c{j}" for j in range(len(columns))]
    path = cli._write_csv(cfg, "t.csv", header, columns)
    rows = [list(row) for row in zip(*columns)]
    with open(path) as f:
        assert f.read() == oracles.csv_text_by_rows(cfg, header, rows)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o002, 0o664),
                                         (0o077, 0o600)],
                         ids=["022", "002", "077"])
def test_outputs_take_the_mode_the_umask_gives(tmp_path, umask, mode):
    # as open(path, "w") would create them, not mkstemp's owner-only 0600
    old = os.umask(umask)
    try:
        code, out = run_cli(["green", "--k", "1", "--b", "1e-3",
                             "--outer", "neumann"], tmp_path)
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE((out / "green.json").stat().st_mode) == mode


# ---------------------------------------------------------------------------
# the executable: python -m kslayers.cli, which cli.entry ends
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args, code, printed", [
    (["ansatz", "--lambda", "1e-4"], 0, "out/ansatz.json\nout/ansatz.csv\n"),
    (["ansatz", "--lambda", "-1"], 2,
     "error: lambda=-1.0: lambda must be finite and positive\n"),
    (["solve", "--lambda", "1e-4", "--init", "ansatz", "--outer", "neumann"], 3,
     "solver error: Newton stopped at residual"),
], ids=["ok", "validation", "solver"])
def test_the_executable_exits_prints_and_writes_as_main(
        tmp_path, capsys, monkeypatch, args, code, printed):
    # the process ends in os._exit after the flush: its exit code, printed
    # lines and files are those of main run in-process
    for side in ("main", "process"):
        (tmp_path / side).mkdir()
    monkeypatch.chdir(tmp_path / "main")
    assert cli.main([*args, "--out", "out"]) == code
    want = capsys.readouterr()
    run = run_process(tmp_path / "process", args=[*args, "--out", "out"])
    assert run.returncode == code
    assert (run.stdout, run.stderr) == (want.out, want.err)
    assert (run.stdout if code == 0 else run.stderr).startswith(printed)
    written = files(tmp_path / "process")
    assert written == files(tmp_path / "main")
    assert bool(written) == (code == 0)


def test_the_entry_skips_the_interpreters_teardown(tmp_path):
    # an atexit handler registered before the entry never runs
    run = run_process(tmp_path, code=(
        "import atexit\n"
        "from kslayers import cli\n"
        "atexit.register(print, 'teardown ran')\n"
        "cli.entry(['green', '--k', '1', '--b', '1e-3', '--out', 'out'])\n"))
    assert run.returncode == 0
    assert run.stdout == "out/green.json\n"
    assert (tmp_path / "out" / "green.json").is_file()


def test_a_failed_flush_falls_back_to_sys_exit(monkeypatch):
    class BrokenPipe:
        def write(self, text):
            return len(text)

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    def no_os_exit(code):
        raise AssertionError(f"os._exit({code}) after a failed flush")

    monkeypatch.setattr(os, "_exit", no_os_exit)
    monkeypatch.setattr(sys, "stdout", BrokenPipe())
    with pytest.raises(SystemExit) as exc:
        cli.entry(["ansatz", "--lambda", "-1"])
    assert exc.value.code == 2


def test_a_closed_stdout_still_ends_with_mains_code(tmp_path, monkeypatch):
    # a standard descriptor closed at start leaves its stream None, with
    # nothing to flush
    class OsExit(Exception):
        pass

    def os_exit(code):
        raise OsExit(code)

    monkeypatch.setattr(os, "_exit", os_exit)
    monkeypatch.setattr(sys, "stdout", None)
    with pytest.raises(OsExit) as exc:
        cli.entry(["green", "--k", "1", "--b", "1e-3", "--out", str(tmp_path)])
    assert exc.value.args == (0,)
    assert (tmp_path / "green.json").is_file()


def test_the_console_script_is_the_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"kslayers": "kslayers.cli:entry"}
