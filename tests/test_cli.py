import json
import os
import subprocess
import sys

import numpy as np

from kslayers import ansatz, cli, greens


def run_cli(args, tmp_path, sub=None):
    out = tmp_path / (sub or "out")
    code = cli.main(args + ["--out", str(out)])
    return code, out


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


def test_solve_from_file_roundtrip(tmp_path):
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


def test_fixpoint_csv(tmp_path):
    code, out = run_cli(["fixpoint", "--lambda", "1e-4"], tmp_path)
    assert code == 0
    doc = json.loads((out / "fixpoint.json").read_text())
    assert doc["residual_drop"] >= 1e2
    rows = [r for r in (out / "fixpoint.csv").read_text().splitlines()
            if not r.startswith("#")]
    assert rows[0] == "iter,increment,factor"


def test_residual_json(tmp_path):
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    code, out = run_cli(["residual", "--lambda", "1e-4", "--k", "1"], tmp_path)
    assert code == 0
    # strict JSON: NaN and Infinity are Python extensions other parsers reject
    doc = json.loads((out / "residual.json").read_text(), parse_constant=reject)
    assert doc["star"] >= doc["starstar"]
    assert doc["l1_outer"] > 0


def test_import_leaves_scipy_out():
    # green and nondegen need neither scipy nor the modules that import it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, kslayers.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_multilayer_ansatz_json_is_the_scaffold(tmp_path):
    code, out = run_cli(["ansatz", "--lambda", "1e-4", "--k", "2"], tmp_path)
    assert code == 0
    doc = json.loads((out / "ansatz.json").read_text())
    b = 4.0 * ansatz.solve_epsilon(1e-4) / np.sqrt(2.0)
    cfg, _ = greens.solve_layers(1, b, greens.DIRICHLET, b_max=0.5)
    radii = greens.LayerCalculus(cfg.alphas, b, greens.DIRICHLET).radii
    assert doc["radii"] == radii.tolist()
    assert doc["layer_parameters"] == "leading order"
