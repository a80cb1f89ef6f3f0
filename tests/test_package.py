"""The public names: every module's ``__all__`` and the package's re-exports."""

import ast
import importlib
import inspect
import json
import pathlib
import pkgutil

import pytest

import structprox

MODULES = sorted(m.name for m in pkgutil.iter_modules(structprox.__path__, "structprox."))


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    # tools that walk __all__ skip a missing name silently, so a deleted
    # helper left listed would otherwise go unnoticed
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_imports_only_listed_names():
    imports = [node for node in ast.parse(inspect.getsource(structprox)).body
               if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module("structprox." + node.module)
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(structprox, alias.asname or alias.name) is getattr(module, alias.name)


TESTS = pathlib.Path(__file__).parent
SOURCES = sorted(
    path
    for root in (pathlib.Path(structprox.__file__).parent, TESTS, TESTS.parent / "bench")
    for path in root.glob("*.py")
    if path.name != "__init__.py"  # the package's imports are its re-exports
)
# the acceptance gate is frozen, stale imports and all
FROZEN_UNUSED = {"test_acceptance.py": {"pytest", "GroupStructure", "ParameterSet"}}


def unused_imports(source: str) -> set:
    """Names a module imports but never references; ``__all__`` entries count
    as references."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return imported - used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == FROZEN_UNUSED.get(path.name, set())


def test_unused_import_detected():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == {"os", "d"}
    assert unused_imports("from x import y\n__all__ = ['y']\n") == set()


def file_opens(source: str) -> list:
    """The name of the function around each call in ``source`` that opens a
    file: ``open`` as a name or a method, as ``io.open`` and ``Path.open``
    are, and ``Path``'s whole-file reads and writes.  None stands for the
    module's own code."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("open", "read_text", "write_text", "read_bytes", "write_bytes"):
                    found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_only_dataio_opens_files():
    # one reader decodes with line-numbered errors and one writer ends lines
    # in LF; a module opening its own file would bypass both
    package = pathlib.Path(structprox.__file__).parent
    opens = sorted((path.stem, owner) for path in package.glob("*.py")
                   for owner in file_opens(path.read_text()))
    assert opens == [("dataio", "_read_text"), ("dataio", "_write_lines"), ("dataio", "write_csv")]


def test_file_open_detected():
    source = ("def f(p):\n    def g():\n        return open(p)\n    io.open(p)\n"
              "Path('x').write_text('')\n")
    assert file_opens(source) == ["g", "f", None]


def variant_literals(source: str) -> list:
    """The string constants of ``source`` that name a variant, in
    :func:`ast.walk` order; the docstrings of the module, its classes and
    its functions do not count."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and id(node) not in docstrings
            and node.value in structprox.VARIANTS]


def test_solver_names_no_variant():
    # which blocks a variant pins is decided by core's table alone; the
    # solver only hands h.variant on to the objective, which reads the table
    source = (pathlib.Path(structprox.__file__).parent / "solver.py").read_text()
    assert variant_literals(source) == []


def test_variant_literal_detected():
    source = ('"""additive"""\nclass C:\n    """multilevel"""\ndef f(h):\n    """additive"""\n'
              '    if h.variant != "additive":\n        return {"multilevel": "additive model"}\n')
    assert sorted(variant_literals(source)) == ["additive", "multilevel"]


def variant_comparisons(source: str) -> list:
    """The comparisons of ``source`` against a variant name, as sorted
    ``(line, name)`` pairs: a string constant naming a variant anywhere in an
    operand of a comparison, such as ``v == "additive"`` or
    ``v in ("additive", "x")``, or as the value of a ``match`` case.  A
    default such as ``variant="multilevel"`` compares nothing."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.MatchValue):
            operands = [node.value]
        else:
            continue
        found += [(sub.lineno, sub.value) for operand in operands for sub in ast.walk(operand)
                  if isinstance(sub, ast.Constant) and sub.value in structprox.VARIANTS]
    return sorted(found)


def test_only_core_compares_against_a_variant_name():
    # what a variant pins is core._PINNED_BLOCKS's to say: code elsewhere
    # asks the table whether a block is pinned instead of testing the name
    package = pathlib.Path(structprox.__file__).parent
    found = {path.name: variant_comparisons(path.read_text())
             for path in sorted(package.glob("*.py")) if path.name != "core.py"}
    assert {name: pairs for name, pairs in found.items() if pairs} == {}


def test_variant_comparison_detected():
    source = ('def f(variant="multilevel", h=None):\n'
              '    """Whether variant == "additive"."""\n'
              '    if variant == "additive" or "multiplicative" != h.variant:\n'
              '        return {"multilevel": 1}\n'
              '    if h.variant not in ("additive", "other"):\n'
              '        return "multilevel"\n'
              '    match variant:\n'
              '        case "multiplicative":\n'
              '            return f(variant="additive")\n')
    assert variant_comparisons(source) == [
        (3, "additive"), (3, "multiplicative"), (5, "additive"), (8, "multiplicative")]


def top_level(source: str):
    """Each module-level statement of ``source`` as (the statement, the names
    it defines as a function, class or constant, the names it reads outside
    them, by name or as an attribute)."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = {node.name}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
        else:
            names = set()
        reads = {sub.id for sub in ast.walk(node)
                 if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        reads.update(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))
        yield node, names, reads - names


def unreferenced_private_names(sources: dict) -> list:
    """The module-level ``_name`` functions, classes and constants of
    ``sources`` (module name to text), as ``(module, name)``, that no code
    outside their own definition reads, by name or as an attribute."""
    defined, used = [], set()
    for module, source in sources.items():
        for _, names, reads in top_level(source):
            defined += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
            used |= reads
    return sorted((m, n) for m, n in defined if n not in used)


def test_no_dead_private_helpers():
    # a private helper outlives its last caller unnoticed: no test of the
    # public names reaches it, and nothing else may call it
    package = pathlib.Path(structprox.__file__).parent
    sources = {path.stem: path.read_text() for path in package.glob("*.py")}
    assert unreferenced_private_names(sources) == []


def test_dead_private_helper_detected():
    source = ("_A = 1\n_B = _A\ndef _f(n):\n    return _f(n - 1)\n"
              "class _C:\n    pass\ndef g():\n    return _C(), m._D\n")
    assert unreferenced_private_names({"m": source}) == [("m", "_B"), ("m", "_f")]


def unread_public_names(modules: dict, readers: list) -> list:
    """The names in the ``__all__`` of ``modules`` (module name to text), as
    ``(module, name)``, that no code of ``modules`` or of the sources
    ``readers`` reads outside their own definition.  An import is not a read, so a name the
    package only re-exports counts as unread."""
    listed, used = [], set()
    for module, source in modules.items():
        for node, names, reads in top_level(source):
            if "__all__" in names:
                listed += [(module, n) for n in ast.literal_eval(node.value)]
            used |= reads
    for source in readers:
        for *_, reads in top_level(source):
            used |= reads
    return sorted((m, n) for m, n in listed if n not in used)


def test_no_public_names_only_tests_read():
    # a public helper that only tests call is dead code with a test
    # around it; the frozen acceptance gate and the benchmark count as users
    package = pathlib.Path(structprox.__file__).parent
    modules = {path.stem: path.read_text() for path in package.glob("*.py")}
    readers = [path.read_text()
               for path in [TESTS / "test_acceptance.py", *(TESTS.parent / "bench").glob("*.py")]]
    assert unread_public_names(modules, readers) == []


def test_unread_public_name_detected():
    module = ("__all__ = ['f', 'g', 'h', 'K']\nK = 1\ndef f(n):\n    return f(n - 1)\n"
              "def g():\n    return K\ndef h():\n    pass\n")
    readers = ["from m import f, h\nimport m\nm.g()\n"]
    assert unread_public_names({"m": module}, readers) == [("m", "f"), ("m", "h")]
    assert unread_public_names({"m": module}, []) == [("m", "f"), ("m", "g"), ("m", "h")]


def test_benchmark_evidence_files_are_whole_pairs():
    # a committed BENCH_<workload>-<side>.json backs a speed claim only if
    # its run was correct, lost no call, reports the declared metrics, and
    # its pair ran on the same inputs
    root = TESTS.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    seeds = {}
    for path in sorted(root.glob("BENCH_*.json")):
        result = json.loads(path.read_text())
        workload, _, side = path.stem[len("BENCH_"):].rpartition("-")
        assert (workload, side in ("parent", "change")) == (result["workload"], True), path.name
        assert workload in names, path.name
        assert (result["correct"], result["failed"]) == (True, 0), path.name
        assert {k: m["unit"] for k, m in result["metrics"].items()} == units, path.name
        seeds.setdefault(workload, {})[side] = result["seed"]
    assert seeds
    for workload, sides in seeds.items():
        assert sorted(sides) == ["change", "parent"], workload
        assert sides["change"] == sides["parent"], workload
