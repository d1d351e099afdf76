"""Every name has one home, every import in the package is used, and only
`numkernel` reaches scipy.

The package root holds its docstring and `__version__` and re-exports
nothing: a name is imported from the module that defines it, so
`hfldd.distill` is the module, and a module imported alone loads only what
it needs (`errors` and `streams` load no numpy).

A name a module imports but never reads is a leftover of an edit. The one
exception is a binding that `bench/tracer.py` wraps by name: the tracer
replaces `module.name` to time callers in that namespace, so the import is
the site even where the module itself never reads it. The root is checked
like every other module.

`numkernel` loads scipy's LAPACK extension without importing `scipy.linalg`;
any other module that imported or located scipy could pull that package
back in, so the boundary is kept to the one module.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import hfldd

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = sorted((SRC / "hfldd").glob("*.py"))
SUBMODULES = [p.stem for p in PACKAGE if p.name != "__init__.py"]
NUMPY_FREE = {"hfldd", "hfldd.errors", "hfldd.streams"}


def test_distill_is_the_module():
    import hfldd.distill as D

    assert D.__name__ == "hfldd.distill"


def test_the_root_holds_only_its_submodules_and_version():
    for name in SUBMODULES:
        importlib.import_module(f"hfldd.{name}")
    assert sorted(n for n in vars(hfldd) if not n.startswith("__")) == SUBMODULES
    assert isinstance(hfldd.__version__, str)


@pytest.mark.parametrize("name", ["hfldd", *(f"hfldd.{m}" for m in SUBMODULES)])
def test_each_module_imports_alone(name):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", f"import sys, {name}; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    if name in NUMPY_FREE:
        assert out.stdout == "False\n"


def tracer_sites() -> set[tuple[str, str]]:
    """The (module, name) pairs in the tracer's SPANS and COUNTS tables."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    sites = set()
    for node in tree.body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if names in (["SPANS"], ["COUNTS"]):
            for pairs in ast.literal_eval(node.value).values():
                sites.update(tuple(p) for p in pairs)
    return sites


def unused_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])
    return sorted(bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)})


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    sites = tracer_sites()
    assert [n for n in unused_imports(path) if (path.stem, n) not in sites] == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nfrom a.b import c, d as e\n\nprint(c)\n", encoding="utf-8")
    assert unused_imports(module) == ["e", "os"]


def scipy_lines(path: pathlib.Path) -> list[int]:
    """Lines that import scipy or name a scipy module in a string."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_numkernel_reaches_scipy():
    assert [p.stem for p in PACKAGE if scipy_lines(p)] == ["numkernel"]


def test_the_check_sees_a_stray_scipy_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        '"""scipy is not used here."""\n'
        "import scipyx\n"
        "import scipy.linalg\n"
        "from scipy import linalg\n"
        "import importlib\n"
        'importlib.import_module("scipy.linalg")\n',
        encoding="utf-8",
    )
    assert scipy_lines(module) == [3, 4, 6]
