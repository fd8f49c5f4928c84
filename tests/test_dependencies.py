"""The dependency contract: numpy alone at run time.

scipy serves only the LAPACK fallbacks in ``radial``, where numpy's LAPACK
exports no 64-bit-integer ``?gtsv``, ``?gttrf``/``?gttrs`` or ``?stebz``,
and the tests' oracles.
"""

import ast
import inspect
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from kslayers import radial
from kslayers.radial import RadialOperator, graded_grid

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _is_scipy(name: str) -> bool:
    return name == "scipy" or name.startswith("scipy.")


def test_scipy_is_imported_only_by_the_lapack_fallback():
    found = [(path.name, node.lineno)
             for path in sorted((SRC / "kslayers").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Import) and any(_is_scipy(a.name) for a in node.names)
             or isinstance(node, ast.ImportFrom) and _is_scipy(node.module or "")]
    lines, start = inspect.getsourcelines(radial._scipy_lapack)
    assert len(found) == 1 and found[0][0] == "radial.py", found
    assert start <= found[0][1] < start + len(lines)


def _names_exp_cap(node) -> bool:
    return any(isinstance(n, ast.Name) and n.id == "EXP_CAP"
               or isinstance(n, ast.alias) and n.name == "EXP_CAP"
               for n in ast.walk(node))


def test_given_profiles_raise_and_only_solver_iterates_clip():
    # analysis takes e^u of profiles handed to it, through radial.checked_exp;
    # np.minimum(..., EXP_CAP), the solvers' clip, lives in bvp and radial
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((SRC / "kslayers").glob("*.py"))}
    assert not _names_exp_cap(trees["analysis.py"])
    clips = {name for name, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "minimum" and _names_exp_cap(node)}
    assert clips == {"bvp.py", "radial.py"}


def _function(tree, name):
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _annotations(tree) -> set:
    """ids of the nodes inside annotations, which name types only."""
    roots = [n.annotation for n in ast.walk(tree)
             if isinstance(n, (ast.AnnAssign, ast.arg)) and n.annotation is not None]
    roots += [n.returns for n in ast.walk(tree)
              if isinstance(n, ast.FunctionDef) and n.returns is not None]
    return {id(n) for root in roots for n in ast.walk(root)}


def test_exp_pair_forms_every_exponent_and_bvp_only_rounds_to_long_double():
    # radial.exp_pair forms x = a (u - shift) itself, its long-double rows
    # included, so it calls none of its parameters; bvp forms no
    # long-double exponent and takes np.longdouble only where _newton
    # rounds its pairs into _Solved
    exp_pair = _function(ast.parse((SRC / "kslayers" / "radial.py").read_text()),
                         "exp_pair")
    params = {a.arg for a in ast.walk(exp_pair.args) if isinstance(a, ast.arg)}
    called = [node.func.id for node in ast.walk(exp_pair)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in params]
    assert not called, called

    tree = ast.parse((SRC / "kslayers" / "bvp.py").read_text())
    skip = _annotations(tree)
    rounded = {id(n) for call in ast.walk(_function(tree, "_newton"))
               if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
               and call.func.id == "_Solved" for n in ast.walk(call)}
    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "longdouble"
            and id(node) not in skip]
    assert uses and all(id(node) in rounded for node in uses), \
        [node.lineno for node in uses if id(node) not in rounded]


def _is_params(node) -> bool:
    return (isinstance(node, ast.Name) and node.id in ("p", "params")
            or isinstance(node, ast.Attribute) and node.attr == "params")


def test_cli_flags_take_their_defaults_in_the_parser_only():
    # a command body reads p[key], or p.get(key) for a flag without a
    # default; p.get(key, default) would keep a default the echo never sees
    tree = ast.parse((SRC / "kslayers" / "cli.py").read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "get" and _is_params(node.func.value)
             and len(node.args) + len(node.keywords) > 1]
    assert not found, found


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]


def test_fallbacks_without_scipy_name_the_missing_routine(monkeypatch):
    for name in ("_numpy_gtsv", "_numpy_gttrf", "_numpy_stebz"):
        monkeypatch.setattr(radial, name, lambda: None)
    for name in ["scipy", *(m for m in sys.modules if _is_scipy(m))]:
        monkeypatch.setitem(sys.modules, name, None)
    op = RadialOperator(graded_grid(50, 0.1, 0.1))
    with pytest.raises(ImportError, match="dgtsv"):
        op.solve(0.0, np.ones(op.n))
    with pytest.raises(ImportError, match="dgttrf"):
        op.factor(0.0)
    d, e = op.symmetric_tridiagonal(0.0)
    with pytest.raises(ImportError, match="dstebz"):
        radial._stebz_count(d, e, -np.inf, 0.0)


# the README's nine example commands, in order: report reads solve's output
README_COMMANDS = [
    ["green", "--k", "1", "--b", "1e-3", "--outer", "neumann", "--out", "green"],
    ["nondegen", "--kmax", "4", "--b-grid", "1e-4,1e-3,1e-2", "--out", "nondegen"],
    ["ansatz", "--lambda", "1e-4", "--out", "ansatz_k1"],
    ["ansatz", "--lambda", "1e-4", "--k", "2", "--out", "ansatz_k2"],
    ["residual", "--lambda", "1e-4", "--k", "1", "--out", "residual"],
    ["fixpoint", "--lambda", "1e-4", "--out", "fixpoint"],
    ["solve", "--lambda", "1e-4", "--init", "ansatz", "--out", "solve"],
    ["branch", "--i", "2", "--sign", "+", "--steps", "25", "--out", "branch"],
    ["report", "--in", os.path.join("solve", "solution.csv"), "--k", "1",
     "--lambda", "1e-4", "--out", "report"],
]

SWEEP = """
import contextlib, importlib, io, json, pkgutil, sys

class BlockScipy:
    tried = []

    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            self.tried.append(name)
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
import numpy as np
import kslayers
for module in pkgutil.iter_modules(kslayers.__path__):
    importlib.import_module(f"kslayers.{module.name}")
from kslayers import analysis, ansatz, cli

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
prof = ansatz.build_profile(ansatz.build_params(1e-4))
analysis.solve_linear(prof, 1e-4, np.ones(prof.grid.size))
print(json.dumps({"codes": codes, "tried": BlockScipy.tried}))
"""


def test_readme_commands_and_the_linear_solve_run_with_scipy_blocked(tmp_path):
    if None in (radial._numpy_gtsv(), radial._numpy_gttrf(), radial._numpy_stebz()):
        pytest.skip("numpy's LAPACK lacks a 64-bit-integer ?gtsv, ?gttrf or ?stebz: "
                    "scipy's serves")
    out = subprocess.run([sys.executable, "-c", SWEEP, json.dumps(README_COMMANDS)],
                         cwd=tmp_path, capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0] * len(README_COMMANDS), "tried": []}, out.stderr
