"""The dependency contract: numpy alone at run time.

``radial`` binds its four LAPACK routines, ``?gtsv``, ``?gttrf``/``?gttrs``
and ``?stebz``, from one backend: numpy's LAPACK where it exports all four
with 64-bit integers, scipy's otherwise.  scipy serves only that fallback
and the tests' oracles.
"""

import ast
import ctypes
import functools
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


LAPACK_ROUTINES = ("dgtsv", "dgttrf", "dgttrs", "dstebz")


def test_scipy_is_imported_only_by_the_lapack_fallback():
    # and ctypes only by radial, and each routine is looked up once per
    # backend: by name in _numpy_lapack's table, as an attribute of scipy's
    # lapack module in _scipy_lapack
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((SRC / "kslayers").glob("*.py"))}

    def imports(test):
        return [(name, node) for name, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.Import) and any(test(a.name) for a in node.names)
                or isinstance(node, ast.ImportFrom) and test(node.module or "")]

    radial_tree = trees["radial.py"]
    lookups = {backend: {id(n) for n in ast.walk(_function(radial_tree, backend))}
               for backend in ("_numpy_lapack", "_scipy_lapack")}
    found = imports(_is_scipy)
    assert [name for name, _ in found] == ["radial.py"], found
    assert id(found[0][1]) in lookups["_scipy_lapack"]
    assert {name for name, _ in imports(lambda m: m == "ctypes")} == {"radial.py"}
    for routine in LAPACK_ROUTINES:
        names = [n for tree in trees.values() for n in ast.walk(tree)
                 if isinstance(n, ast.Constant) and n.value == routine]
        attributes = [n for tree in trees.values() for n in ast.walk(tree)
                      if isinstance(n, ast.Attribute) and n.attr == routine]
        assert len(names) == 1 and id(names[0]) in lookups["_numpy_lapack"], routine
        assert len(attributes) == 1 and id(attributes[0]) in lookups["_scipy_lapack"], \
            routine


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


def _fresh_bindings(monkeypatch):
    """Both backends bound anew inside the test; the cached ones return after."""
    for name in ("_numpy_lapack", "_scipy_lapack"):
        monkeypatch.setattr(radial, name, functools.cache(getattr(radial, name).__wrapped__))


def test_fallbacks_without_scipy_name_the_missing_routine(monkeypatch):
    _fresh_bindings(monkeypatch)
    monkeypatch.setattr(radial, "_numpy_lapack", lambda: None)
    for name in ["scipy", *(m for m in sys.modules if _is_scipy(m))]:
        monkeypatch.setitem(sys.modules, name, None)
    op = RadialOperator(graded_grid(50, 0.1, 0.1))
    d, e = op.symmetric_tridiagonal(0.0)
    for call in (lambda: op.solve(0.0, np.ones(op.n)), lambda: op.factor(0.0),
                 lambda: radial._stebz_count(d, e, -np.inf, 0.0)):
        with pytest.raises(ImportError, match="dgtsv, dgttrf, dgttrs or dstebz"):
            call()


@pytest.mark.parametrize("hidden", LAPACK_ROUTINES)
def test_one_routine_missing_from_numpy_sends_every_solve_to_scipy(monkeypatch, hidden):
    # numpy's LAPACK is taken whole or not at all: ?gtsv, ?gttrf + ?gttrs
    # and ?stebz all come from scipy's when numpy's lacks any one of them
    from scipy.linalg import lapack

    class Hiding:
        def __init__(self, path):
            self.lib = cdll(path)

        def __getattr__(self, name):
            if name in (f"scipy_{hidden}_64_", f"{hidden}_64_"):
                raise AttributeError(name)
            return getattr(self.lib, name)

    def spy(routine, original):
        def call(*args, **kwargs):
            calls.append(routine)
            return original(*args, **kwargs)
        return call

    cdll, calls = ctypes.CDLL, []
    monkeypatch.setattr(ctypes, "CDLL", Hiding)
    for routine in LAPACK_ROUTINES:
        monkeypatch.setattr(lapack, routine, spy(routine, getattr(lapack, routine)))
    _fresh_bindings(monkeypatch)
    assert radial._numpy_lapack() is None
    op = RadialOperator(graded_grid(50, 0.1, 0.1))
    rhs = np.linspace(1.0, 2.0, op.n)
    assert np.array_equal(op.factor(0.5)(rhs), op.solve(0.5, rhs))
    d, e = op.symmetric_tridiagonal(0.0)
    assert radial._stebz_count(d, e, -np.inf, 0.0) == 0
    assert calls == ["dgttrf", "dgttrs", "dgtsv", "dstebz"]


# the README's example commands, in order: report reads solve's output, and
# the scaffold's solve the scaffold's ansatz.csv
README_COMMANDS = [
    ["green", "--k", "1", "--b", "1e-3", "--outer", "neumann", "--out", "green"],
    ["nondegen", "--kmax", "4", "--b-grid", "1e-4,1e-3,1e-2", "--out", "nondegen"],
    ["ansatz", "--lambda", "1e-4", "--out", "ansatz_k1"],
    ["ansatz", "--lambda", "1e-4", "--k", "2", "--out", "ansatz_k2"],
    ["residual", "--lambda", "1e-4", "--k", "1", "--out", "residual"],
    ["fixpoint", "--lambda", "1e-4", "--out", "fixpoint"],
    ["solve", "--lambda", "1e-4", "--init", "ansatz", "--out", "solve"],
    ["ansatz", "--lambda", "1e-20", "--outer", "neumann", "--out", "scaffold"],
    ["solve", "--lambda", "1e-20", "--init", "file", "--file",
     os.path.join("scaffold", "ansatz.csv"), "--out", "scaffold"],
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
    if radial._numpy_lapack() is None:
        pytest.skip("numpy's LAPACK lacks a 64-bit-integer ?gtsv, ?gttrf, ?gttrs or "
                    "?stebz: scipy's serves")
    out = subprocess.run([sys.executable, "-c", SWEEP, json.dumps(README_COMMANDS)],
                         cwd=tmp_path, capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0] * len(README_COMMANDS), "tried": []}, out.stderr
