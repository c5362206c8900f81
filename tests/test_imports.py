"""Every module of the package uses each name it imports, every
top-level function and class is named somewhere outside its definition,
the public names only code outside the package calls are listed, and no
module but space.py names a window's key containers."""

import ast
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dlscape"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# Where a definition may be named: the package, its tests, the benchmark.
SOURCES = sorted(p for d in ("src", "tests", "dlbench")
                 for p in (ROOT / d).rglob("*.py"))


def _unused_imports(source):
    """Names bound by the imports of ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_detector():
    source = ("import os\nimport os.path\nfrom .a import b, c as d\n"
              "from __future__ import annotations\nd(os.sep)\n")
    assert _unused_imports(source) == ["b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def _mentions(nodes):
    """Identifiers the AST nodes name: variables, attributes, imported
    names, and identifier strings (``__all__``, and the benchmark's tracer
    names the entry points it rebinds by string)."""
    out = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and \
                    isinstance(node.value, str) and node.value.isidentifier():
                out.add(node.value)
    return out


@lru_cache(maxsize=None)
def _file_mentions(path):
    return frozenset(_mentions([ast.parse(path.read_text())]))


def _dead_definitions(source, elsewhere):
    """Top-level functions and classes of ``source`` named neither in the
    rest of it nor in ``elsewhere``, a set of identifiers."""
    body = ast.parse(source).body
    return [node.name for node in body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in elsewhere
            and node.name not in _mentions(n for n in body if n is not node)]


def test_dead_definition_detector():
    source = ("def used():\n    return kept()\n\ndef kept():\n    pass\n\n"
              "def dead():\n    return dead()\n\nclass Named:\n    pass\n"
              "\n__all__ = ['Named']\n")
    assert _dead_definitions(source, set()) == ["used", "dead"]
    assert _dead_definitions(source, {"used"}) == ["dead"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_defines_nothing_unused(path):
    elsewhere = set().union(*(_file_mentions(p) for p in SOURCES
                              if p != path))
    assert _dead_definitions(path.read_text(), elsewhere) == []


def _dead_methods(source, elsewhere):
    """Methods of the top-level classes of ``source`` named neither in the
    rest of it nor in ``elsewhere``, a set of identifiers."""
    body = ast.parse(source).body
    out = []
    for cls in body:
        if not isinstance(cls, ast.ClassDef):
            continue
        rest = [n for n in body if n is not cls]
        out += [m.name for m in cls.body
                if isinstance(m, ast.FunctionDef) and m.name not in elsewhere
                and m.name not in _mentions(rest + [n for n in cls.body
                                                    if n is not m])]
    return out


def test_dead_method_detector():
    source = ("class A:\n    def used(self):\n        return self.kept()\n"
              "\n    def kept(self):\n        pass\n\n"
              "    def dead(self):\n        pass\n\nA().used()\n")
    assert _dead_methods(source, set()) == ["dead"]
    assert _dead_methods(source, {"dead"}) == []


# Public definitions that no other code in the package names: the tests,
# the benchmark and the acceptance gate are their only callers.  A name
# joins this list only as a deliberate public API.
PACKAGE_UNCALLED = {
    "brute_force_min_distortion", "corr_from_isometry", "dl_from_sets",
    "equality_achieved", "oracle", "representation_check",
}


def test_public_api_the_package_never_calls_is_listed():
    found = set()
    for path in MODULES:
        source = path.read_text()
        elsewhere = set().union(*(_file_mentions(p) for p in MODULES
                                  if p != path))
        found.update(name for name in _dead_definitions(source, elsewhere)
                     + _dead_methods(source, elsewhere)
                     if not name.startswith("_"))
    assert sorted(found) == sorted(PACKAGE_UNCALLED)


# The window attributes that hold keys (see ``dlscape.space.Window``).
KEY_ATTRIBUTES = {"_vertices", "_index", "_codec"}


def test_key_detector():
    source = "i = w._index.get(k)\nc = getattr(w, '_codec')\nw.vertices\n"
    assert _mentions([ast.parse(source)]) & KEY_ATTRIBUTES == {
        "_index", "_codec"}


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py"))
                                  if p.name != "space.py"],
                         ids=lambda p: p.name)
def test_keys_never_leave_space(path):
    assert sorted(_file_mentions(path) & KEY_ATTRIBUTES) == []
