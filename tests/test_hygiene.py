"""Source hygiene: every name a pentaq module imports or defines as private
is used there, no module reaches for another module's private names, every
name it exports is bound there, every function the benchmark's tracing
shims rebind still exists, the truncation policy stays with the engines,
and every cache is bounded."""

import ast
import importlib.util
from pathlib import Path

import pytest

from pentaq import identities, integrators, kernels, special_functions

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pentaq"


def exported(tree: ast.Module) -> set[str]:
    """The names a module lists in ``__all__``."""
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names |= set(ast.literal_eval(node.value))
    return names


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by imports that the module neither reads nor lists in
    ``__all__``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unused_imports(tree) == []


def test_checker_flags_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\n"
                     "__all__ = ['sep']\n")
    assert unused_imports(tree) == ["math (line 1)", "path (line 2)"]


def unused_private_names(tree: ast.Module) -> list[str]:
    """Module-level names starting with one underscore (constants,
    functions, classes and import aliases) that the module never reads."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname:
                    defined[alias.asname] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in defined.items()
                  if name.startswith("_") and not name.startswith("__")
                  and name not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_private_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unused_private_names(tree) == []


def test_checker_flags_an_unused_private_name():
    tree = ast.parse("import math as _math\n_A = 1\n_B: int = 2\n"
                     "__all__ = []\n"
                     "def _f():\n    return _A\n"
                     "class _C:\n    _B = 3\n")
    assert unused_private_names(tree) == ["_B (line 3)", "_C (line 7)",
                                          "_f (line 5)", "_math (line 1)"]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_imports(tree: ast.Module) -> list[str]:
    """Private names that a module takes from another pentaq module, by
    ``from .m import _x`` or as ``n._x`` with ``n`` imported from one."""
    found, imported = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("pentaq")):
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"{alias.name} (line {node.lineno})")
                imported.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _is_private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in imported):
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_private_name_crosses_modules(path):
    # a private name has one owner; tests may still import private names
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert private_imports(tree) == []


def test_checker_flags_a_private_import():
    tree = ast.parse("from . import kernels as krn\n"
                     "from .integrators import _MAX_RINGS, Tail\n"
                     "from pentaq.cli import _emit\n"
                     "from numpy import _core\n"
                     "import math\n"
                     "x = krn._check_zero_sum, krn.b_hyp, math._x, Tail._y\n"
                     "y = krn.__name__\n")
    assert private_imports(tree) == [
        "Tail._y (line 6)", "_MAX_RINGS (line 2)", "_emit (line 3)",
        "krn._check_zero_sum (line 6)"]


def undefined_exports(tree: ast.Module) -> list[str]:
    """Names in ``__all__`` that no module-level definition, assignment or
    import binds."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            bound |= {name.id for target in targets
                      for name in ast.walk(target)
                      if isinstance(name, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name for alias in node.names}
    return sorted(exported(tree) - bound)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_export_is_defined(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert undefined_exports(tree) == []


def test_checker_flags_an_undefined_export():
    tree = ast.parse("from os import sep\n_A = 1\n"
                     "def f():\n    pass\n"
                     "__all__ = ['sep', '_A', 'f', 'g', 'C']\n")
    assert undefined_exports(tree) == ["C", "g"]


# functools caches without a size bound, allowed only where the keys have a
# finite domain: an engine call number (below max_refinements) and a flag,
# and a power, a sign and a ring count (at most 2 x 512 per power)
UNBOUNDED_CACHES = {"_level", "_power_law_fit"}
CACHE_DECORATORS = {"cache", "lru_cache", "cached_property"}


def _cache_name(node) -> str | None:
    """``cache``, ``lru_cache`` or ``cached_property`` if ``node`` names
    one, bare or as an attribute of ``functools``."""
    if isinstance(node, ast.Name) and node.id in CACHE_DECORATORS:
        return node.id
    if (isinstance(node, ast.Attribute) and node.attr in CACHE_DECORATORS
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"):
        return node.attr
    return None


def _integer_maxsize(call: ast.Call) -> bool:
    args = [kw.value for kw in call.keywords if kw.arg == "maxsize"]
    args += call.args[:1]
    return (len(args) == 1 and isinstance(args[0], ast.Constant)
            and type(args[0].value) is int)


def unbounded_caches(tree: ast.Module) -> list[str]:
    """Every use of a functools cache that is neither ``lru_cache`` called
    with an integer ``maxsize`` nor a bare ``cache`` decorating a function
    of UNBOUNDED_CACHES."""
    allowed = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and _cache_name(node.func) == "lru_cache"
                and _integer_maxsize(node)):
            allowed.add(id(node.func))
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.name in UNBOUNDED_CACHES):
            allowed |= {id(dec) for dec in node.decorator_list
                        if _cache_name(dec) == "cache"}
    return sorted(f"{_cache_name(node)} (line {node.lineno})"
                  for node in ast.walk(tree)
                  if _cache_name(node) and id(node) not in allowed)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_cache_is_bounded(path):
    # a cache keyed per point must not grow with the points; peak memory
    # is a benchmark gate
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unbounded_caches(tree) == []


def test_checker_flags_an_unbounded_cache():
    tree = ast.parse("import functools\n"
                     "from functools import cache, lru_cache\n"
                     "@functools.lru_cache(maxsize=8)\ndef a(x): pass\n"
                     "@lru_cache(16)\ndef b(x): pass\n"
                     "@functools.cache\ndef _level(x): pass\n"
                     "@cache\ndef per_point(p): pass\n"
                     "@functools.lru_cache(maxsize=None)\ndef c(x): pass\n"
                     "@lru_cache\ndef d(x): pass\n"
                     "e = functools.lru_cache(maxsize=4)(abs)\n"
                     "class K:\n    @functools.cached_property\n"
                     "    def f(self): pass\n")
    assert unbounded_caches(tree) == [
        "cache (line 9)", "cached_property (line 17)", "lru_cache (line 11)",
        "lru_cache (line 13)"]


def test_traced_functions_exist():
    # tier-1 does not collect benchmarks/; without this check a renamed
    # function would break only the traced benchmark run
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, names in ((special_functions, tracing.SPECIAL_FUNCTIONS),
                          (integrators, tracing.ENGINES),
                          (kernels, tracing.KERNELS),
                          (identities, tracing.SIDES)):
        for name in names:
            assert callable(getattr(module, name, None)), \
                f"{module.__name__}.{name}"


def test_policy_stops_at_engines():
    # special functions and kernels are pure functions of their arguments;
    # only the engines of integrators read a TruncationPolicy
    for module in (special_functions, kernels):
        source = Path(module.__file__).read_text(encoding="utf-8")
        assert "TruncationPolicy" not in source, module.__name__
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = [a.arg for a in (args.posonlyargs + args.args
                                         + args.kwonlyargs)]
                assert "policy" not in names, f"{module.__name__}.{node.name}"
