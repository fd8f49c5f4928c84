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
