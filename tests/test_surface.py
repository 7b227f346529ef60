"""The library's public surface: every function it defines is reached by the CLI.

`test_every_function_feeds_a_stage` runs `all` on the small test config
and `torus` on a potential even in y and on one that is not (a real and a
complex Rayleigh-Ritz solve), with a profile hook that records each code
object called.  Every function and class member of `src/magweyl` must be
reached by some run.  `test_no_unused_imports` keeps deletions from
leaving imports behind.
"""

import ast
import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import magweyl
from magweyl.cli import main

from test_cli import SMALL

CONFIGS = Path(__file__).resolve().parent / "configs"
PACKAGE = Path(magweyl.__file__).resolve().parent


def _modules():
    for info in pkgutil.iter_modules(magweyl.__path__):
        yield importlib.import_module(f"magweyl.{info.name}")


def _code_objects(obj):
    """The code objects behind a function, method, property or cached wrapper."""
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    if isinstance(obj, property):
        for fn in (obj.fget, obj.fset, obj.fdel):
            yield from _code_objects(fn)
        return
    obj = inspect.unwrap(obj) if callable(obj) else obj
    if inspect.isfunction(obj):
        yield obj.__code__


def _defined_functions() -> dict:
    """{code object: "module.qualname"} for every function and class member
    written in a magweyl source file (dataclass-generated methods are not)."""
    found = {}
    for module in _modules():
        source = module.__file__
        members = []
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                members += vars(obj).values()
            else:
                members.append(obj)
        for obj in members:
            for code in _code_objects(obj):
                if code.co_filename == source:
                    found[code] = f"{module.__name__.split('.', 1)[1]}.{code.co_qualname}"
    return found


def _clear_caches():
    """Empty every functools cache, so a result cached by an earlier test
    cannot hide a call."""
    for module in _modules():
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and hasattr(obj, "__wrapped__"):
                obj.cache_clear()


def test_every_function_feeds_a_stage(tmp_path, capsys):
    functions = _defined_functions()
    _clear_caches()
    small = tmp_path / "small.json"
    small.write_text(json.dumps(SMALL))
    runs = [(small, "all"), (CONFIGS / "y-dependent.json", "torus"),
            (CONFIGS / "mixed.json", "torus")]
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    for i, (config, command) in enumerate(runs):
        sys.setprofile(hook)
        try:
            code = main(["--config", str(config), "--out", str(tmp_path / f"out{i}"), command])
        finally:
            sys.setprofile(None)
        assert code == 0, (config.name, capsys.readouterr())
    capsys.readouterr()
    uncalled = {name for code, name in functions.items() if code not in called}
    assert uncalled == set()


def _imported_names(tree: ast.Module) -> dict:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef) and node.returns is not None:
            yield node.returns


def _used_names(tree: ast.Module) -> set:
    """Names read anywhere, quoted annotations such as "PolySymbol" included."""
    trees = [tree] + [ast.parse(node.value, mode="eval")
                      for annotation in _annotations(tree) for node in ast.walk(annotation)
                      if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = _used_names(tree)
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _imported_names(tree).items() if name not in used]
    assert unused == []
