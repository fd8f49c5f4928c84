import ast
import importlib
import pathlib
import pkgutil

import pytest

import kslayers

SRC = pathlib.Path(kslayers.__file__).parent

# Public definitions no CLI command reaches that stay in the library:
# the benchmark calls or patches each one by name.
PERFBENCH_ROOTS = {
    "radial.RadialOperator.smallest_eigenvalue":
        "the tracer counts its LAPACK calls for the ladder workload",
    "analysis.solve_linear": "the ladder workload's linear solve",
    "analysis.random_smooth_field": "the ladder workload's seeded right-hand side",
    "greens.reflection_residual": "the layers workload's defect check",
    "greens.PiecewiseGreen.value": "the tracer's greens.profile_eval span",
    "greens.PiecewiseGreen.derivative": "the tracer's greens.profile_eval span",
}


@pytest.mark.parametrize(
    "name", sorted(m.name for m in pkgutil.iter_modules(kslayers.__path__)))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"kslayers.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"kslayers.{name}.__all__ names undefined {missing}"


class _Names(ast.NodeVisitor):
    """The identifiers a piece of code refers to, as names or attributes;
    annotations are skipped, since they never run."""

    def __init__(self):
        self.names = set()

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_Attribute(self, node):
        self.names.add(node.attr)
        self.visit(node.value)

    def visit_arg(self, node):
        pass

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)

    def visit_FunctionDef(self, node):
        for part in (*node.decorator_list, node.args, *node.body):
            self.visit(part)

    visit_AsyncFunctionDef = visit_FunctionDef


def _names(nodes) -> set[str]:
    collect = _Names()
    for node in nodes:
        collect.visit(node)
    return collect.names


def _definitions():
    """{qualified name: node} of every function, class and method in ``src``,
    and the statements each module runs on import."""
    defs, on_import = {}, []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{module}.{node.name}"] = node
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            defs[f"{module}.{node.name}.{item.name}"] = item
                        else:
                            on_import.append(item)
            else:
                on_import.append(node)
    return defs, on_import


def _reached(defs, on_import, roots) -> set[str]:
    """The definitions reachable from ``roots`` and from ``on_import``, the
    import-time code, which holds ``cli._COMMANDS`` and so every command
    function.  A name refers to every definition that bears it, so the
    reach is an over-estimate; reaching a class reaches its dunder methods."""
    by_name = {}
    for qual in defs:
        by_name.setdefault(qual.rsplit(".", 1)[1], set()).add(qual)
    todo = set(roots) | {q for n in _names(on_import) for q in by_name.get(n, ())}
    seen = set()
    while todo:
        qual = todo.pop()
        if qual in seen:
            continue
        seen.add(qual)
        node = defs[qual]
        if isinstance(node, ast.ClassDef):
            # its other statements run on import; its methods run when named
            names = _names([*node.decorator_list, *node.bases, *node.keywords])
            names |= {item.name for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and item.name.startswith("__")}
        else:
            names = _names([node])
        todo |= {q for n in names for q in by_name.get(n, ())} - seen
    return seen


def test_every_public_definition_is_reached():
    defs, on_import = _definitions()
    public = {q for q in defs
              if not any(part.startswith("_") for part in q.split(".")[1:])}
    assert set(PERFBENCH_ROOTS) <= public, "a benchmark root is gone"
    unreached = sorted(public - _reached(defs, on_import, PERFBENCH_ROOTS))
    assert not unreached, f"no command or benchmark root reaches {unreached}"


# Every result record is a typing.NamedTuple: immutable like the frozen
# dataclasses they replaced, built without per-class code at import time
RECORDS = ("analysis.ResidualReport", "analysis.LinearSolveResult",
           "analysis.FixedPointResult", "ansatz.CorrectionConstants",
           "ansatz.AnsatzParams", "ansatz.BoundaryCorrections",
           "ansatz.ScaffoldParams", "bvp.BranchPoint", "bvp.ConcentrationReport",
           "bvp._Solved", "cli.RunConfig", "greens.PiecewiseGreen",
           "greens.LayerConfig", "nondegen.NondegenMatrix", "radial.Profile")


def test_src_imports_no_dataclasses():
    imports = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imports.update({a.name: path.name for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module:
                imports[node.module] = path.name
    assert "dataclasses" not in imports, imports.get("dataclasses")


def test_records_are_every_named_tuple():
    defs, _ = _definitions()
    named = {q for q, node in defs.items() if isinstance(node, ast.ClassDef)
             and "NamedTuple" in _names(node.bases)}
    assert named == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_record_rejects_attribute_assignment(name):
    module, cls_name = name.split(".")
    cls = getattr(importlib.import_module(f"kslayers.{module}"), cls_name)
    record = cls(**{f: None for f in cls._fields if f not in cls._field_defaults})
    for field in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
