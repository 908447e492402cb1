"""The package's public surface."""

import ast
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path
from types import ModuleType

import mudeform


def test_all_names_resolve_once():
    # a name deleted from a module must leave __all__ too
    assert [n for n, c in Counter(mudeform.__all__).items() if c > 1] == []
    assert [n for n in mudeform.__all__ if not hasattr(mudeform, n)] == []


def test_no_package_name_shadows_a_module():
    # `import mudeform.measure as m` binds the package's attribute, so a
    # function named like its module would take the module's place
    import mudeform.measure as m
    assert isinstance(m, ModuleType)
    for path in Path(mudeform.__file__).parent.glob("*.py"):
        if path.stem in vars(mudeform):
            assert isinstance(getattr(mudeform, path.stem), ModuleType)


def test_every_public_name_has_a_caller():
    # a public module-level function or class is exported in __all__ or
    # used by another src definition; test-only code lives in the tests
    defs, users = {}, {}
    for path in sorted(Path(mudeform.__file__).parent.glob("*.py")):
        body = ast.parse(path.read_text()).body
        for node in body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs[f"{path.stem}.{node.name}"] = node
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Name, ast.Attribute)):
                    name = sub.id if isinstance(sub, ast.Name) else sub.attr
                    users.setdefault(name, []).append(node)
    unused = [qual for qual, node in defs.items()
              if node.name not in mudeform.__all__
              and all(user is node for user in users.get(node.name, []))]
    assert unused == []


def test_every_stored_field_has_a_reader():
    # each field of a src dataclass is read by name somewhere in src or
    # the tests, unless a method of its class reads every field at once
    # through vars(self) or fields(self)
    src, tests = Path(mudeform.__file__).parent, Path(__file__).parent
    trees = {path: ast.parse(path.read_text())
             for path in (*src.glob("*.py"), *tests.glob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in sorted(src.glob("*.py")):
        for cls in ast.walk(trees[path]):
            if not (isinstance(cls, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in cls.decorator_list)):
                continue
            if any(isinstance(node, ast.Call)
                   and ast.unparse(node) in ("vars(self)", "fields(self)")
                   for node in ast.walk(cls)):
                continue
            unread += [f"{path.stem}.{cls.name}.{node.target.id}"
                       for node in cls.body
                       if isinstance(node, ast.AnnAssign)
                       and node.target.id not in read]
    assert unread == []


def test_import_loads_only_the_runtime_dependencies():
    # numpy and mpmath are the run-time dependencies; the test-only
    # oracles and heavy packages stay out of a fresh import, and so does
    # any work: no functools cache of the package has filled an entry
    src = str(Path(mudeform.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = textwrap.dedent("""\
        import sys, mudeform, mudeform.cli
        print(*sys.modules)
        print(*{f"{f.__module__}.{f.__qualname__}:{f.cache_info().misses}"
                for m in list(sys.modules.values())
                if m.__name__.startswith("mudeform")
                for f in vars(m).values() if hasattr(f, "cache_info")})
        """)
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    modules, caches = out.splitlines()
    loaded = {name.split(".")[0] for name in modules.split()}
    assert {"mudeform", "numpy", "mpmath"} <= loaded
    assert loaded.isdisjoint({"scipy", "matplotlib", "sympy", "hypothesis"})
    misses = dict(entry.split(":") for entry in caches.split())
    assert {"mudeform.trace._corner", "mudeform.trace._series_params",
            "mudeform.trace._ratio_table",
            "mudeform.measure._density_scale"} <= set(misses)
    assert {name for name, n in misses.items() if n != "0"} == set()
