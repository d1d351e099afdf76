"""The package's shape: one function runs federated rounds.

FedAvg, FedProx, FedSeq-lite and hfldd's head training differ only in who
holds the model within a round, so they share one round loop. Averaging the
uploads is the step every round ends with, so the functions that call
`aggregate` are the round loops; there must be exactly one.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "hfldd").glob("*.py"))


def callers(path: pathlib.Path, name: str) -> list[str]:
    """Qualified names of the functions whose own body calls `name`."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef) and calls(child, name):
                    out.append(qual)
                visit(child, qual + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    return out


def calls(func, name: str) -> bool:
    """Whether func calls `name` outside the functions and classes nested in
    it (a lambda is part of the function that holds it)."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Call):
            f = node.func
            if getattr(f, "id", None) == name or getattr(f, "attr", None) == name:
                return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def test_one_function_aggregates():
    found = [qual for path in PACKAGE for qual in callers(path, "aggregate")]
    assert found == ["fltrain._rounds"]


def test_the_check_sees_every_caller(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def a():\n"
        "    return aggregate([], [])\n"
        "def b():\n"
        "    def inner():\n"
        "        return mod.aggregate([], [])\n"
        "    return inner\n"
        "class C:\n"
        "    def c(self):\n"
        "        return [aggregate(x, y) for x, y in z]\n"
        "def d():\n"
        "    return aggregate\n",
        encoding="utf-8",
    )
    assert callers(module, "aggregate") == ["m.a", "m.b.inner", "m.C.c"]
