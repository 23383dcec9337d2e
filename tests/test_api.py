import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import psp4nse

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

MODULES = (
    "psp4nse",
    "psp4nse.arith",
    "psp4nse.characterize",
    "psp4nse.cli",
    "psp4nse.families",
    "psp4nse.gf2",
    "psp4nse.oracle",
    "psp4nse.primegraph",
    "psp4nse.sympl",
)


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    code = _library_example()
    exec(compile(code, str(README), "exec"), {})
    imported = re.search(r"^from psp4nse import (.+)$", code, re.M).group(1)
    assert sorted(psp4nse.__all__) == sorted(n.strip() for n in imported.split(","))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def _exported_functions(tree: ast.Module) -> list[str]:
    """The names in a module's __all__ that it defines as functions, and the
    public methods of the classes it exports, as Class.method."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    names = []
    for node in tree.body:
        if getattr(node, "name", None) not in exported:
            continue
        if isinstance(node, ast.FunctionDef):
            names.append(node.name)
        elif isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{m.name}" for m in node.body
                      if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return names


def _references(node: ast.AST, enclosing: frozenset = frozenset()) -> set[str]:
    """Names read as a Name, used as an Attribute or imported, except inside
    the def of the function or class of the same name; assigning is no use."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing |= {node.name}
    if isinstance(node, ast.Name):
        names = set() if isinstance(node.ctx, ast.Store) else {node.id}
    elif isinstance(node, ast.Attribute):
        names = {node.attr}
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        names = {alias.name.rsplit(".", 1)[-1] for alias in node.names}
    else:
        names = set()
    names -= enclosing
    for child in ast.iter_child_nodes(node):
        names |= _references(child, enclosing)
    return names


def test_every_exported_function_is_used_outside_the_tests():
    # perfbench is only read here; a name only tests call belongs in tests/reference.py.
    # Of the README only the library example counts: prose naming a function is no use of it.
    sources = sorted((ROOT / "src" / "psp4nse").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    used = set().union(*(_references(tree) for tree in trees.values()),
                       _references(ast.parse(_library_example())))
    # a method counts as used when its name is: references are not resolved to classes
    unused = [f"{path.stem}.{name}" for path, tree in trees.items() if path.parent.name == "psp4nse"
              for name in _exported_functions(tree)
              if name.rsplit(".", 1)[-1] not in used]
    assert unused == []


def _defined_names(tree: ast.Module) -> set[str]:
    """Names a module binds at top level by def, class or assignment (not by import)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names |= {n.id for n in ast.walk(node)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return names


def test_every_private_name_is_used_in_the_package():
    # a private helper that only the tests call is a second path kept for them;
    # the tests check the package's own code, so the helper goes
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "psp4nse").glob("*.py"))}
    used = set().union(*(_references(tree) for tree in trees.values()))
    unused = [f"{path.stem}.{name}" for path, tree in trees.items()
              for name in sorted(_defined_names(tree))
              if re.fullmatch(r"_[^\W_]\w*", name) and name not in used]
    assert unused == []


@pytest.mark.parametrize("name", [m for m in MODULES if m != "psp4nse"])
def test_every_exported_name_has_one_home(name):
    # a submodule exports only what it defines; re-exporting is the package root's job
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    assert sorted(set(module.__all__) - _defined_names(tree)) == []


def _unbounded_caches(tree: ast.Module) -> list[int]:
    """Lines of decorators that cache without a bound: functools.cache or
    lru_cache(maxsize=None), also spelled lru_cache(None)."""
    unbounded = re.compile(r"(functools\.)?(cache|lru_cache\((maxsize=)?None\))")
    return [dec.lineno for node in ast.walk(tree)
            for dec in getattr(node, "decorator_list", ())
            if unbounded.fullmatch(ast.unparse(dec))]


def test_every_cache_has_a_cap():
    unbounded = [f"{path.name}:{line}"
                 for path in sorted((ROOT / "src" / "psp4nse").glob("*.py"))
                 for line in _unbounded_caches(ast.parse(path.read_text(encoding="utf-8")))]
    assert unbounded == []


def _untyped_caches(tree: ast.Module) -> list[int]:
    """Lines of functions of two or more parameters cached by an lru_cache
    without typed=True, whose key would take 2.0 for 2."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and len(node.args.posonlyargs + node.args.args + node.args.kwonlyargs) >= 2
            for dec in map(ast.unparse, node.decorator_list)
            if "lru_cache" in dec and "typed=True" not in dec]


def test_every_cache_of_two_or_more_parameters_is_typed():
    untyped = [f"{path.name}:{line}"
               for path in sorted((ROOT / "src" / "psp4nse").glob("*.py"))
               for line in _untyped_caches(ast.parse(path.read_text(encoding="utf-8")))]
    assert untyped == []


def _environment_reads(tree: ast.Module) -> list[int]:
    """Lines that name os.environ or os.getenv, as an attribute or an import."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            named = node.value.id == "os" and node.attr in ("environ", "getenv")
        elif isinstance(node, ast.ImportFrom):
            named = node.module == "os" and any(
                a.name in ("environ", "getenv") for a in node.names)
        else:
            named = False
        if named:
            lines.append(node.lineno)
    return lines


def test_the_package_reads_no_environment():
    reads = [f"{path.name}:{line}"
             for path in sorted((ROOT / "src" / "psp4nse").glob("*.py"))
             for line in _environment_reads(ast.parse(path.read_text(encoding="utf-8")))]
    assert reads == []


def _outside_imports(tree: ast.Module) -> list[str]:
    """Top-level names of absolute imports that are neither the standard
    library, numpy nor the package itself."""
    allowed = sys.stdlib_module_names | {"numpy", "psp4nse"}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        names += [f"{m}:{node.lineno}" for m in modules if m.split(".")[0] not in allowed]
    return names


def test_the_package_imports_only_the_standard_library_and_numpy():
    # numpy is the one declared dependency; sympy is often installed but is not one
    outside = [f"{path.name}:{name}"
               for path in sorted((ROOT / "src" / "psp4nse").glob("*.py"))
               for name in _outside_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert outside == []
