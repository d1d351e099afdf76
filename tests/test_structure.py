"""The package's shape: one function runs federated rounds, two rules check
scalars, one function turns a failure into an exit code, and a dataset is
checked for rows where it is made.

FedAvg, FedProx, FedSeq-lite and hfldd's head training differ only in who
holds the model within a round, so they share one round loop. Averaging the
uploads is the step every round ends with, so the functions that call
`aggregate` are the round loops; there must be exactly one.

A count or a real number is checked by `numkernel.check_count` or
`numkernel.check_real`, so that a config field and a library argument fail
with one message and neither lets a float count or a bool through. A
hand-written range check is an `if` that compares a parameter, or a field
of `self`, with a number and raises `DomainError`; there must be none.

The command line's subcommands raise; `cli.main` alone maps a failure to
exit 2 or 3 and prints it, so it is the one function that names an error
exit code or `sys.stderr`.

A `LabeledDataset` holds at least one row: its `__post_init__` raises
`EmptyInputError` for zero, so no code that takes a dataset checks again. An
emptiness check is an `if` that compares an `n_rows()` call with 0 or 1, or
negates one, and raises; only `LabeledDataset.__post_init__` may hold one.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "hfldd").glob("*.py"))


def functions(path: pathlib.Path):
    """(qualified name, node) of every function in the module, nested ones
    included."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    out.append((qual, child))
                visit(child, qual + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    return out


def own_nodes(func):
    """The nodes of func's body outside the functions and classes nested in
    it (a lambda is part of the function that holds it)."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def calls(func, name: str) -> bool:
    """Whether func's own body calls `name`."""
    for node in own_nodes(func):
        if isinstance(node, ast.Call):
            f = node.func
            if getattr(f, "id", None) == name or getattr(f, "attr", None) == name:
                return True
    return False


def callers(path: pathlib.Path, name: str) -> list[str]:
    """Qualified names of the functions whose own body calls `name`."""
    return [qual for qual, func in functions(path) if calls(func, name)]


def exit_namers(path: pathlib.Path) -> list[str]:
    """Qualified names of the functions whose own body names an error exit
    code or `stderr`, bare or as an attribute."""
    wanted = {"EXIT_CONFIG", "EXIT_RUNTIME", "stderr"}
    return [
        qual
        for qual, func in functions(path)
        if any(getattr(n, "id", getattr(n, "attr", None)) in wanted for n in own_nodes(func))
    ]


def is_number(node) -> bool:
    """A numeric literal, negated or not, or `math.inf`."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    return isinstance(node, ast.Attribute) and node.attr == "inf" and getattr(node.value, "id", None) == "math"


def is_scalar_input(node, params) -> bool:
    """A bare parameter of the function, or `self.<field>`."""
    if isinstance(node, ast.Name):
        return node.id in params
    return isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self"


def raises_domain_error(node) -> bool:
    for n in ast.walk(node):
        if isinstance(n, ast.Raise) and n.exc is not None:
            exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
            if getattr(exc, "id", None) == "DomainError" or getattr(exc, "attr", None) == "DomainError":
                return True
    return False


def hand_range_checks(path: pathlib.Path) -> list[str]:
    """Qualified names of the functions that raise DomainError under an `if`
    comparing a bare parameter or `self.<field>` with a number."""
    out = []
    for qual, func in functions(path):
        a = func.args
        params = {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if p}
        for node in own_nodes(func):
            if not (isinstance(node, ast.If) and raises_domain_error(node)):
                continue
            compares = [n for n in ast.walk(node.test) if isinstance(n, ast.Compare)]
            if any(
                any(is_scalar_input(x, params) for x in (c.left, *c.comparators))
                and any(is_number(x) for x in (c.left, *c.comparators))
                for c in compares
            ):
                out.append(qual)
                break
    return out


def is_row_count(node) -> bool:
    """A call of some object's `n_rows()`."""
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "n_rows"


def is_no_rows_test(test) -> bool:
    """Whether an `if` test compares an `n_rows()` call with 0 or 1, or
    negates one."""
    for n in ast.walk(test):
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.Not) and is_row_count(n.operand):
            return True
        if isinstance(n, ast.Compare):
            sides = (n.left, *n.comparators)
            if any(map(is_row_count, sides)) and any(
                isinstance(x, ast.Constant) and type(x.value) is int and x.value in (0, 1)
                for x in sides
            ):
                return True
    return False


def emptiness_checks(path: pathlib.Path) -> list[str]:
    """The qualified name of the function holding each `if` that raises
    under a test for no rows, once per such `if`."""
    return [
        qual
        for qual, func in functions(path)
        for node in own_nodes(func)
        if isinstance(node, ast.If)
        and is_no_rows_test(node.test)
        and any(isinstance(n, ast.Raise) for n in ast.walk(node))
    ]


def test_one_function_aggregates():
    found = [qual for path in PACKAGE for qual in callers(path, "aggregate")]
    assert found == ["fltrain._round"]


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


def test_only_main_maps_failures_to_exit_codes():
    assert [qual for path in PACKAGE for qual in exit_namers(path)] == ["cli.main"]


def test_the_check_sees_every_exit_code(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "EXIT_CONFIG = 2\n"
        "def a():\n"
        "    return EXIT_CONFIG\n"
        "def b():\n"
        "    def inner():\n"
        "        print('x', file=sys.stderr)\n"
        "    return inner\n"
        "class C:\n"
        "    def c(self):\n"
        "        return cli.EXIT_RUNTIME\n"
        "def d():\n"
        "    stderr.write('x')\n"
        "def e():\n"
        "    print('x', file=sys.stdout)\n"
        "    return EXIT_OK\n",
        encoding="utf-8",
    )
    assert exit_namers(module) == ["m.a", "m.b.inner", "m.C.c", "m.d"]


def test_no_hand_written_range_checks():
    assert [qual for path in PACKAGE for qual in hand_range_checks(path)] == []


def test_the_check_sees_every_range_check(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def a(x):\n"
        "    if x < 1:\n"
        "        raise DomainError('x')\n"
        "def b(lam):\n"
        "    if not 0 <= lam < math.inf:\n"
        "        raise errors.DomainError(f'{lam}')\n"
        "class C:\n"
        "    def __post_init__(self):\n"
        "        if self.rate > -1.5 or self.n == 2:\n"
        "            if True:\n"
        "                raise DomainError\n"
        "def d(k, n):\n"
        "    def inner(t):\n"
        "        if t < 0:\n"
        "            raise DomainError('t')\n"
        "    m = len(n)\n"
        "    if k > n or m < 2 or len(n) < 2:\n"  # relational or not a parameter
        "        raise DomainError('k')\n"
        "    if k < 2:\n"  # another error type
        "        raise CapacityError('k')\n"
        "    if k < 2:\n"  # no raise under the if
        "        k = 2\n"
        "    return inner\n"
        "def e(self):\n"
        "    if self < 0:\n"
        "        raise DomainError('self')\n",
        encoding="utf-8",
    )
    assert hand_range_checks(module) == ["m.a", "m.b", "m.C.__post_init__", "m.d.inner", "m.e"]


def test_only_the_dataset_checks_for_rows():
    found = [qual for path in PACKAGE for qual in emptiness_checks(path)]
    assert set(found) <= {"datagen.LabeledDataset.__post_init__"}, found


def test_the_check_sees_every_emptiness_check(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def a(d):\n"
        "    if d.n_rows() == 0:\n"
        "        raise EmptyInputError('d')\n"
        "    if 1 > d.n_rows():\n"
        "        raise DomainError('d')\n"
        "class C:\n"
        "    def c(self, d):\n"
        "        def inner():\n"
        "            if self.data.n_rows() < 1 or d is None:\n"
        "                if True:\n"
        "                    raise ValueError\n"
        "        return inner\n"
        "def e(test):\n"
        "    if not test.n_rows():\n"
        "        raise EmptyInputError('test')\n"
        "def f(d, k):\n"
        "    if k > d.n_rows():\n"  # a capacity check, not an emptiness check
        "        raise CapacityError('k')\n"
        "    if d.n_rows() == 0:\n"  # no raise under the if
        "        return None\n"
        "    if len(d) == 0 or d.n_cols() < 1:\n"  # not a row count
        "        raise EmptyInputError('d')\n",
        encoding="utf-8",
    )
    assert emptiness_checks(module) == ["m.a", "m.a", "m.C.c.inner", "m.e"]
