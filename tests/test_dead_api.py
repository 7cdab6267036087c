"""No dead public API: each public module-level name in ``src/dprw/*.py``
is used in ``src/``, ``perfbench/`` or ``scripts/`` outside its own
definition, or exported in ``dprw.__all__``.

A use is an identifier, an attribute, an imported name or a word of a
string literal (the benchmark's tracer names its targets in strings).
Docstrings and ``__all__`` lists are not uses, and tests are not users.
"""

import ast
import re
from pathlib import Path

import dprw

ROOT = Path(__file__).resolve().parents[1]
USERS = ("src", "perfbench", "scripts")


def _definitions(tree: ast.Module):
    """(name, first line, last line) of each public module-level function,
    class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node.lineno, node.end_lineno) for name in names if not name.startswith("_"))


def _skipped(tree: ast.Module) -> set[int]:
    """ids of the docstring constants and the ``__all__`` assignments."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                skip.add(id(body[0].value))
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            skip.update(id(n) for n in ast.walk(node))
    return skip


def _uses(tree: ast.Module):
    """(word, line) of every use in a module."""
    skip = _skipped(tree)
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from ((word, node.lineno) for word in re.findall(r"\w+", node.value))


def dead_public_names(root: Path = ROOT, exported=tuple(dprw.__all__)) -> list[str]:
    """``path:line name`` of each public name in ``root/src/dprw/*.py``
    that is neither used nor in ``exported``."""
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for top in USERS
        for path in sorted((root / top).rglob("*.py"))
    }
    uses: dict[str, set[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for word, line in _uses(tree):
            uses.setdefault(word, set()).add((path, line))
    dead = []
    for path in sorted((root / "src" / "dprw").glob("*.py")):
        for name, first, last in _definitions(trees[path]):
            used = any(p != path or not first <= line <= last for p, line in uses.get(name, ()))
            if not used and name not in exported:
                dead.append(f"{path.relative_to(root).as_posix()}:{first} {name}")
    return dead


def test_every_public_name_is_used_or_exported():
    assert dead_public_names() == []


def test_the_check_finds_a_name_nothing_uses(tmp_path):
    package = tmp_path / "src" / "dprw"
    package.mkdir(parents=True)
    (package / "core.py").write_text(
        '''"""helper and exported are named in this docstring only."""

__all__ = ["helper", "used", "exported"]

LIMIT = 3


def helper():
    """helper names itself, which is no use."""
    return helper


def used():
    return LIMIT


def exported():
    pass
''',
        encoding="utf-8",
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "run.py").write_text("from dprw.core import used\n\nused()  # helper\n", encoding="utf-8")
    assert dead_public_names(tmp_path, exported=("exported",)) == ["src/dprw/core.py:8 helper"]
    (tmp_path / "scripts" / "trace.py").write_text('TARGETS = ("core.helper",)\n', encoding="utf-8")
    assert dead_public_names(tmp_path, exported=("exported",)) == []
